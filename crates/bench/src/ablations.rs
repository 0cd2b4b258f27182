//! Ablation studies for the design choices the paper argues qualitatively
//! (DESIGN.md experiments A1–A4).

use crate::table::{rate, secs, Table};
use gdp_capsule::{CapsuleWriter, DataCapsule, MembershipProof, MetadataBuilder, PointerStrategy};
use gdp_crypto::SigningKey;
use gdp_server::AckMode;
use gdp_sim::GdpWorld;
use gdp_wire::Wire;

fn build_capsule(strategy: &PointerStrategy, n: u64) -> (DataCapsule, std::time::Duration) {
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let writer_key = SigningKey::from_seed(&[2u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "ablation")
        .sign(&owner);
    let mut capsule = DataCapsule::new(meta.clone()).unwrap();
    let mut writer = CapsuleWriter::new(&meta, writer_key, strategy.clone()).unwrap();
    let start = std::time::Instant::now();
    for i in 0..n {
        let r = writer.append(&i.to_be_bytes(), i).unwrap();
        capsule.ingest(r).unwrap();
    }
    (capsule, start.elapsed())
}

/// A capsule on every server in `world.servers`, written by its client.
fn provision(world: &mut GdpWorld, description: &str) -> gdp_wire::Name {
    let writer = SigningKey::from_seed(&[5u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", description)
        .sign(&world.owner);
    world.provision_capsule(&meta, writer, PointerStrategy::Chain).unwrap()
}

/// A1 — hash-pointer strategy: append cost vs proof size/hops vs writer
/// cache, across strategies (paper §V "How to choose the hash-pointers?").
pub fn hashptr(n: u64) {
    println!("\nA1 — hash-pointer strategies, {n} records (proof target: seq 1 from head)");
    let strategies: Vec<(&str, PointerStrategy)> = vec![
        ("chain", PointerStrategy::Chain),
        ("skiplist", PointerStrategy::SkipList),
        ("checkpoint/64", PointerStrategy::Checkpoint { interval: 64 }),
        ("stream[2,4]", PointerStrategy::Stream { lags: vec![2, 4] }),
    ];
    let mut t = Table::new(&["strategy", "append/s", "proof hops", "proof bytes", "writer cache"]);
    for (label, strategy) in strategies {
        let (capsule, elapsed) = build_capsule(&strategy, n);
        let hb = capsule.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&capsule, &hb, 1).unwrap();
        // Rebuild a writer to read its steady-state cache size.
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let wk = SigningKey::from_seed(&[2u8; 32]);
        let meta = MetadataBuilder::new()
            .writer(&wk.verifying_key())
            .set_str("description", "ablation")
            .sign(&owner);
        let mut w = CapsuleWriter::new(&meta, wk, strategy).unwrap();
        for i in 0..n {
            w.append(&i.to_be_bytes(), i).unwrap();
        }
        t.row(&[
            label.to_string(),
            rate(n as f64 / elapsed.as_secs_f64()),
            proof.hops().to_string(),
            proof.to_wire().len().to_string(),
            w.cache_size().to_string(),
        ]);
    }
    t.print();
    println!("shape: chain = O(n) proofs, cheapest appends; skiplist = O(log n) proofs.");
}

/// A2 — durability modes: append latency, and what a domain partition +
/// replica crash does to an acknowledged write (paper §VI-B).
pub fn durability() {
    println!("\nA2 — durability modes (hierarchy world: replica in each of 2 domains)");
    use gdp_caapi::CapsuleAccess;
    let mut t =
        Table::new(&["ack mode", "append latency (s)", "partitioned write", "acked data lost"]);
    for (label, mode) in
        [("Local", AckMode::Local), ("Quorum(1)", AckMode::Quorum(1)), ("All", AckMode::All)]
    {
        // Latency on a healthy deployment.
        let mut world = GdpWorld::hierarchy(21);
        world.ack_mode = mode;
        let capsule = provision(&mut world, "durability");
        let t0 = world.now();
        world.append(&capsule, &vec![7u8; 65_536]).unwrap();
        let latency = world.now() - t0;

        // Exposure: partition the client's domain from the root *before*
        // the write, then crash the serving replica. Local mode acks the
        // write and loses it; quorum modes refuse the write instead.
        let mut world = GdpWorld::hierarchy(22);
        world.ack_mode = mode;
        let capsule = provision(&mut world, "durability-exposure");
        let d2_router = world.routers[0].0;
        let root_router = world.routers[1].0;
        world.cluster.net.partition(d2_router, root_router);
        let write = world.append(&capsule, b"precious");
        let (acked, lost) = match write {
            Ok(_) => {
                // Crash the serving replica; is the record anywhere else?
                world.cluster.settle();
                let survived = world.server(0).capsule(&capsule).is_some_and(|c| c.len() == 1);
                ("acked", !survived)
            }
            Err(_) => ("refused", false),
        };
        t.row(&[label.to_string(), secs(latency), acked.to_string(), lost.to_string()]);
    }
    t.print();
    println!("shape: Local acks fastest but can lose acked data under partition+crash;");
    println!("       quorum modes refuse the write instead (\"the writer must block and retry\", §VI-B).");
}

/// A3 — signatures vs HMAC steady state: per-response CPU cost and the
/// amortization the flow-key design buys (paper §V "Secure Responses").
pub fn session(flow_lengths: &[u32]) {
    println!("\nA3 — response authentication: signature vs flow-key HMAC");
    let key = SigningKey::from_seed(&[3u8; 32]);
    let capsule = gdp_wire::Name::from_content(b"ablation");
    let body = vec![0u8; 1024];

    let iters = 200u32;
    let start = std::time::Instant::now();
    for i in 0..iters {
        let _ = gdp_server::proto::sign_response(&key, &capsule, i as u64, &body);
    }
    let sign_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let sig = gdp_server::proto::sign_response(&key, &capsule, 0, &body);
    let vk = key.verifying_key();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let t = gdp_server::proto::response_transcript(&capsule, 0, &body);
        assert!(vk.verify(&t, &sig));
    }
    let verify_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let flow_key = [9u8; 32];
    let start = std::time::Instant::now();
    for i in 0..iters * 50 {
        let _ = gdp_server::proto::mac_response(&flow_key, &capsule, i as u64, &body);
    }
    let mac_us = start.elapsed().as_secs_f64() * 1e6 / (iters * 50) as f64;

    println!(
        "  sign: {sign_us:.1} µs   verify: {verify_us:.1} µs   hmac: {mac_us:.2} µs (1 KiB body)"
    );
    println!(
        "  byte overhead: signed ≈ {} B (sig+principal+chain)  hmac = 32 B (≈ TLS record MAC)",
        64 + 35 + 200
    );

    let mut t =
        Table::new(&["flow length", "all-signed µs/resp", "1 sig + hmac µs/resp", "speedup"]);
    for &n in flow_lengths {
        let all_signed = sign_us + verify_us;
        let amortized = ((sign_us + verify_us) + (n as f64 - 1.0) * 2.0 * mac_us) / n as f64;
        t.row(&[
            n.to_string(),
            format!("{all_signed:.1}"),
            format!("{amortized:.2}"),
            format!("{:.0}×", all_signed / amortized),
        ]);
    }
    t.print();
    println!("shape: crypto cost is incurred once per flow; steady state is HMAC-cheap.");
}

/// A4 — anycast locality: read latency with and without a local replica
/// (paper §VII goal (a) / Table I "Locality").
pub fn anycast() {
    println!("\nA4 — anycast locality (client in domain 2)");
    use gdp_caapi::CapsuleAccess;
    let mut t = Table::new(&["deployment", "read latency (ms)"]);

    // Replicas in both domains: anycast serves from the local one.
    let mut both = GdpWorld::hierarchy(31);
    let capsule = provision(&mut both, "anycast-both");
    both.append(&capsule, b"payload").unwrap();
    both.cluster.settle();
    let t0 = both.now();
    both.read(&capsule, 1).unwrap();
    let local_latency = both.now() - t0;
    t.row(&["replica in both domains".to_string(), format!("{:.1}", local_latency as f64 / 1e3)]);

    // Replica only in the remote domain: reads cross the root.
    let mut remote = GdpWorld::hierarchy(32);
    // Keep only the remote (domain-1) server for this capsule.
    remote.servers.truncate(1);
    let capsule = provision(&mut remote, "anycast-remote");
    remote.append(&capsule, b"payload").unwrap();
    remote.cluster.settle();
    let t0 = remote.now();
    remote.read(&capsule, 1).unwrap();
    let remote_latency = remote.now() - t0;
    t.row(&[
        "replica in remote domain only".to_string(),
        format!("{:.1}", remote_latency as f64 / 1e3),
    ]);
    t.print();
    println!(
        "shape: a local replica cuts read latency ≈{:.0}× (two WAN hops avoided).",
        remote_latency as f64 / local_latency as f64
    );
}

/// A5 — read flow-control batch: how many records a reader requests per
/// round trip. Models the client-side window that turns per-record
/// request/response (chatty, SSHFS-like) into streaming (bulk) reads.
pub fn read_batch() {
    use gdp_caapi::GdpFs;
    use gdp_sim::{workload, Placement};
    println!("\nA5 — read batch size vs model-load time (8 MB file, cloud path)");
    let mut t = Table::new(&["batch (records)", "read (s)"]);
    for batch in [1u64, 2, 4, 8, 16, 32] {
        let mut world = GdpWorld::new(51, Placement::CloudFromResidential);
        world.read_batch = batch;
        let owner = world.owner.clone();
        let mut fs = GdpFs::format(world, owner).unwrap();
        let model = workload::blob(5, 8_000_000);
        fs.write_file("model.pb", &model).unwrap();
        let t0 = fs.backend_mut().now();
        let loaded = fs.read_file("model.pb").unwrap();
        let elapsed = fs.backend_mut().now() - t0;
        assert_eq!(loaded.len(), model.len());
        t.row(&[batch.to_string(), secs(elapsed)]);
    }
    t.print();
    println!("shape: batch=1 pays a WAN round trip per 256 KiB record; larger");
    println!("windows amortize it toward the bandwidth floor (≈0.64 s at 100 Mbps).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashptr_tradeoff_shape() {
        let (chain, _) = build_capsule(&PointerStrategy::Chain, 256);
        let (skip, _) = build_capsule(&PointerStrategy::SkipList, 256);
        let hb_c = chain.head_heartbeat().unwrap().unwrap();
        let hb_s = skip.head_heartbeat().unwrap().unwrap();
        let p_chain = MembershipProof::build(&chain, &hb_c, 1).unwrap();
        let p_skip = MembershipProof::build(&skip, &hb_s, 1).unwrap();
        assert!(p_skip.hops() * 4 < p_chain.hops(), "skiplist proofs must be far shorter");
    }

    #[test]
    fn durability_shape() {
        // Local-mode ack must be faster than All-mode ack in the hierarchy
        // world (All waits a WAN round trip for the peer replica).
        use gdp_caapi::CapsuleAccess;
        let run = |mode: AckMode| {
            let mut world = GdpWorld::hierarchy(41);
            world.ack_mode = mode;
            let capsule = provision(&mut world, "durability-shape");
            let t0 = world.now();
            world.append(&capsule, b"x").unwrap();
            world.now() - t0
        };
        let local = run(AckMode::Local);
        let all = run(AckMode::All);
        assert!(all > local * 2, "all {all} local {local}");
    }
}
