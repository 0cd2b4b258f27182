//! `gdpd` — the GDP node daemon.
//!
//! ```text
//! gdpd <config-file>
//! ```
//!
//! Reads a [`gdp_node::NodeConfig`], starts the node, prints one
//! machine-readable status line per identity to stdout, and serves until
//! the process is killed. See the crate docs and README for the config
//! format and a 3-node loopback walkthrough.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::io::Write;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) if !p.starts_with('-') => p,
        _ => {
            eprintln!("usage: gdpd <config-file>");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gdpd: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let cfg = match gdp_node::NodeConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gdpd: {path}: {e}");
            std::process::exit(1);
        }
    };
    let stats_path = cfg.stats_path.clone();
    let handle = match gdp_node::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gdpd: startup failed: {e}");
            std::process::exit(1);
        }
    };

    // Status lines are a stable interface: orchestration (and the e2e
    // test) parses them to learn the OS-assigned port and identities.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "gdpd listen {}", handle.local_addr());
    if let Some(r) = handle.router_name() {
        let _ = writeln!(out, "gdpd router {}", r.to_hex());
    }
    if let Some(s) = handle.server_name() {
        let _ = writeln!(out, "gdpd server {}", s.to_hex());
    }
    if let Some(p) = &stats_path {
        // Dumped on shutdown, and on demand when the trigger file appears.
        let _ = writeln!(out, "gdpd stats {}", p.display());
    }
    let _ = out.flush();

    handle.wait();
}
