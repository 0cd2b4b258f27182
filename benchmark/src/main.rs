fn main() {
    std::process::exit(gdp_benchmark::cli::main(std::env::args().collect()));
}
