//! Regression pins for the real findings this PR fixed.
//!
//! Each test lints a snippet reproducing the *pre-fix* shape of actual
//! workspace code (file and line noted inline). If a rule regresses to
//! the point where it would no longer have caught the original bug, the
//! corresponding test fails — the analyzer must keep catching what it
//! already caught once.

use gdp_lint::engine::SourceFile;
use gdp_lint::rules::{run_all, run_workspace};
use gdp_lint::LintConfig;

/// Runs the per-file rules (CT01/SK01) over a snippet.
fn findings_at(path: &str, src: &str) -> Vec<(String, usize)> {
    let file = SourceFile::parse(path, src);
    run_all(&file).into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
}

/// Runs the workspace-wide rules (LK01/LK02/CH01) over snippets placed
/// at real workspace paths (the module lists are path-scoped).
fn workspace_findings(files: &[(&str, &str)]) -> Vec<(String, String, usize)> {
    let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    run_workspace(&parsed, &[], &LintConfig::default(), None, false)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.path, f.line))
        .collect()
}

#[test]
fn catches_prefix_node_config_debug_derive() {
    // crates/node/src/config.rs:109 before the fix: derive(Debug) on
    // NodeConfig exposes the 32-byte identity seed in any debug dump.
    let src = "#[derive(Clone, Debug)]\n\
               pub struct NodeConfig {\n\
               \x20   pub role: Role,\n\
               \x20   pub seed: [u8; 32],\n\
               \x20   pub label: String,\n\
               }\n";
    let found = findings_at("crates/node/src/config.rs", src);
    assert_eq!(found, vec![("SK01".to_string(), 1)]);
}

#[test]
fn catches_prefix_tcp_spawn_under_peers_lock() {
    // crates/net/src/tcp.rs:354 (and three sibling sites) before the
    // fix: `peers.lock()` held across `spawn_writer`, whose writer
    // thread creation is a blocking syscall — every data-plane send
    // contended on a lock that could be held across `spawn(2)`. The
    // fix (`writer_for`) spawns outside the lock.
    let pre = "use parking_lot::Mutex;\n\
               pub struct Shared {\n\
               \x20   peers: Mutex<u32>,\n\
               }\n\
               fn spawn_writer(shared: &Shared) -> u32 {\n\
               \x20   std::thread::Builder::new().spawn(move || {}).ok();\n\
               \x20   1\n\
               }\n\
               pub fn send(shared: &Shared) {\n\
               \x20   let mut peers = shared.peers.lock();\n\
               \x20   let tx = spawn_writer(shared);\n\
               \x20   *peers += tx;\n\
               }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", pre)]);
    assert!(
        found.iter().any(|(r, _, l)| r == "LK02" && *l == 11),
        "spawn under the peers lock must fire LK02: {found:?}"
    );

    // Post-fix shape: spawn first, lock second. Clean by construction.
    let post = "use parking_lot::Mutex;\n\
                pub struct Shared {\n\
                \x20   peers: Mutex<u32>,\n\
                }\n\
                fn spawn_writer(shared: &Shared) -> u32 {\n\
                \x20   std::thread::Builder::new().spawn(move || {}).ok();\n\
                \x20   1\n\
                }\n\
                pub fn send(shared: &Shared) {\n\
                \x20   let tx = spawn_writer(shared);\n\
                \x20   let mut peers = shared.peers.lock();\n\
                \x20   *peers += tx;\n\
                }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", post)]);
    assert!(found.is_empty(), "post-fix writer_for shape must be clean: {found:?}");
}

#[test]
fn catches_prefix_tcp_unbounded_ingest_lane() {
    // crates/net/src/tcp.rs:314/633 before the fix: the shared receive
    // queue was `unbounded()` and `read_loop` did a plain `send` — a
    // wedged consumer turned hostile traffic into unbounded heap
    // growth. The fix bounds the lane and sheds with `ingest_dropped`.
    let pre = "pub fn bind() {\n\
               \x20   let (pdu_tx, pdu_rx) = unbounded();\n\
               \x20   pdu_tx.send(1u8).ok();\n\
               \x20   let _ = pdu_rx.recv();\n\
               }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", pre)]);
    assert!(
        found.iter().any(|(r, _, l)| r == "CH01" && *l == 3),
        "unbounded ingest send must fire CH01: {found:?}"
    );

    let post = "pub fn bind(cap: usize) {\n\
                \x20   let (pdu_tx, pdu_rx) = bounded(cap);\n\
                \x20   if pdu_tx.try_send(1u8).is_err() {}\n\
                \x20   let _ = pdu_rx.recv();\n\
                }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", post)]);
    assert!(found.is_empty(), "bounded try_send lane must be clean: {found:?}");
}

#[test]
fn catches_prefix_engine_build_under_stores_lock() {
    // A historical shape of crates/store/src/engine.rs, which stays on
    // LK02's hot-module list: `open()` once held a per-capsule `stores`
    // map lock across `build()`, which replays a log from disk. The
    // engine has no such map now (it opens one log), but the shape is
    // kept as a synthetic regression: recovery I/O under a lock taken
    // in that module must keep firing.
    let pre = "use parking_lot::Mutex;\n\
               pub struct StorageEngine {\n\
               \x20   stores: Mutex<u32>,\n\
               }\n\
               impl StorageEngine {\n\
               \x20   fn build(&self) -> u32 {\n\
               \x20       std::fs::File::open(\"x\").ok();\n\
               \x20       0\n\
               \x20   }\n\
               \x20   pub fn open(&self) -> u32 {\n\
               \x20       let mut stores = self.stores.lock();\n\
               \x20       let s = self.build();\n\
               \x20       *stores += s;\n\
               \x20       s\n\
               \x20   }\n\
               }\n";
    let found = workspace_findings(&[("crates/store/src/engine.rs", pre)]);
    assert!(
        found.iter().any(|(r, _, l)| r == "LK02" && *l == 12),
        "recovery I/O under the stores lock must fire LK02: {found:?}"
    );

    let post = "use parking_lot::Mutex;\n\
                pub struct StorageEngine {\n\
                \x20   stores: Mutex<u32>,\n\
                }\n\
                impl StorageEngine {\n\
                \x20   fn build(&self) -> u32 {\n\
                \x20       std::fs::File::open(\"x\").ok();\n\
                \x20       0\n\
                \x20   }\n\
                \x20   pub fn open(&self) -> u32 {\n\
                \x20       let s = self.build();\n\
                \x20       let mut stores = self.stores.lock();\n\
                \x20       *stores += s;\n\
                \x20       s\n\
                \x20   }\n\
                }\n";
    let found = workspace_findings(&[("crates/store/src/engine.rs", post)]);
    assert!(found.is_empty(), "post-fix open() shape must be clean: {found:?}");
}

#[test]
fn pins_fdpool_blockcache_single_lock_audit() {
    // The PR-9 read fast lane keeps FdPool and BlockCache as plain
    // fields of SegLog, which has no lock at all — by construction no
    // two locks are ever held across the sealed-segment pread, and the
    // pool now hands out refcounted fds so the read borrows nothing.
    // This pin proves the analyzer would catch the tempting "split the
    // read path into its own pool/cache locks" refactor: both guards
    // held across the pread fire LK02, and the reversed invalidation
    // order closes an LK01 cycle.
    let split = "use parking_lot::Mutex;\n\
                 pub struct ReadPath {\n\
                 \x20   pool: Mutex<u32>,\n\
                 \x20   blocks: Mutex<u32>,\n\
                 }\n\
                 pub fn fetch(rp: &ReadPath, buf: &mut [u8]) {\n\
                 \x20   let pool = rp.pool.lock();\n\
                 \x20   let blocks = rp.blocks.lock();\n\
                 \x20   pread_fill(&*pool, 0, buf).ok();\n\
                 \x20   drop(blocks);\n\
                 \x20   drop(pool);\n\
                 }\n\
                 pub fn invalidate(rp: &ReadPath) {\n\
                 \x20   let blocks = rp.blocks.lock();\n\
                 \x20   let pool = rp.pool.lock();\n\
                 \x20   drop(pool);\n\
                 \x20   drop(blocks);\n\
                 }\n";
    let found = workspace_findings(&[("crates/store/src/seglog/cache.rs", split)]);
    let lk02: Vec<_> = found.iter().filter(|(r, _, _)| r == "LK02").collect();
    assert!(
        lk02.iter().any(|(_, _, l)| *l == 9),
        "pread under two read-path locks must fire LK02: {found:?}"
    );
    assert!(
        found.iter().any(|(r, _, _)| r == "LK01"),
        "opposite-order pool/cache acquisition must close an LK01 cycle: {found:?}"
    );
}

#[test]
fn pins_control_before_data_drain_order() {
    // The control-no-stall invariant: a worker loop in a data-plane
    // module that polls both a control and a data lane drains control
    // first. Reverting the order fires CH01.
    let reverted = "fn worker(data_rx: Receiver<u8>, ctrl_rx: Receiver<u8>) {\n\
                    \x20   loop {\n\
                    \x20       match data_rx.recv_timeout(DATA_POLL) {\n\
                    \x20           Ok(batch) => {\n\
                    \x20               let _ = batch;\n\
                    \x20           }\n\
                    \x20           Err(_) => return,\n\
                    \x20       }\n\
                    \x20       while let Ok(msg) = ctrl_rx.try_recv() {\n\
                    \x20           let _ = msg;\n\
                    \x20       }\n\
                    \x20   }\n\
                    }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", reverted)]);
    assert!(
        found.iter().any(|(r, _, l)| r == "CH01" && *l == 3),
        "data-before-control drain must fire CH01: {found:?}"
    );

    let upstream = "fn worker(data_rx: Receiver<u8>, ctrl_rx: Receiver<u8>) {\n\
                    \x20   loop {\n\
                    \x20       while let Ok(msg) = ctrl_rx.try_recv() {\n\
                    \x20           let _ = msg;\n\
                    \x20       }\n\
                    \x20       match data_rx.recv_timeout(DATA_POLL) {\n\
                    \x20           Ok(batch) => {\n\
                    \x20               let _ = batch;\n\
                    \x20           }\n\
                    \x20           Err(_) => return,\n\
                    \x20       }\n\
                    \x20   }\n\
                    }\n";
    let found = workspace_findings(&[("crates/net/src/tcp.rs", upstream)]);
    assert!(found.is_empty(), "control-first drain must be clean: {found:?}");
}
