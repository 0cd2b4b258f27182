//! The daemon's stats facility: a `<stats_path>.request` trigger file
//! makes the event loop write the whole metric registry as one JSON
//! document, and a stopping node leaves a final dump behind.

use gdp_node::{node, request_path, NodeConfig, Role};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-stats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn trigger_file_and_shutdown_both_dump_valid_json() {
    let dir = tmpdir("dump");
    let stats = dir.join("stats.json");
    let handle = node::start(NodeConfig {
        role: Role::Both,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: [77u8; 32],
        label: "stats-node".into(),
        peers: vec![],
        router: None,
        data_dir: None,
        fsync: None,
        stats_path: Some(stats.clone()),
        hosts: vec![],
        admission_rate: 0,
        admission_burst: 64,
    })
    .expect("start node");

    // On-demand dump: drop the trigger file, wait for the next tick to
    // serve it (the trigger is deleted once the dump is written).
    std::fs::write(request_path(&stats), b"").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while request_path(&stats).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!request_path(&stats).exists(), "trigger file never consumed");
    let doc = std::fs::read_to_string(&stats).expect("stats dump written");
    gdp_obs::json::validate(&doc).expect("on-demand dump must be valid JSON");
    // Every layer the node runs registers into the same document.
    for scope in ["\"router\":", "\"server\":", "\"net\":"] {
        assert!(doc.contains(scope), "dump missing scope {scope}: {doc}");
    }

    // The handle exposes the same registry for in-process inspection.
    assert_eq!(handle.metrics().to_json(), doc);

    // Shutdown dump: counters observed after stop are the final ones.
    std::fs::remove_file(&stats).unwrap();
    handle.stop();
    let doc = std::fs::read_to_string(&stats).expect("shutdown dump written");
    gdp_obs::json::validate(&doc).expect("shutdown dump must be valid JSON");
    let _ = std::fs::remove_dir_all(dir);
}
