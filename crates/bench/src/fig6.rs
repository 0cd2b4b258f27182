//! Fig 6 reproduction: GDP-router forwarding rate and throughput as a
//! function of PDU size.
//!
//! The paper (§VIII) drives one router with 32 client and 32 server
//! processes and reports ~120k PDU/s for small PDUs, approaching 1 Gbps as
//! PDU size nears 10 kB. We reproduce the *shape* two ways:
//!
//! * [`simulated`] — the same 32×32 topology on the simulated fabric: the
//!   router is a `NodeRuntime` node whose host CPU is modelled as
//!   `8 µs + 7 ns/byte` per PDU (calibrated to the paper's two
//!   asymptotes).
//! * [`in_process`] — the real, wall-clock forwarding rate of this
//!   implementation's `Router::handle_pdu`.

use gdp_cert::{PrincipalId, PrincipalKind, Scope};
use gdp_router::{Attacher, Router};
use gdp_sim::{FaultSpec, HostCpu, LinkSpec, SimCluster};
use gdp_wire::{Name, Pdu, PduType};

/// Calibrated fixed CPU cost per forwarded PDU (µs).
pub const PER_PDU_US: u64 = 8;
/// Calibrated per-byte CPU cost (ns).
pub const PER_BYTE_NS: u64 = 7;

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// Payload size in bytes.
    pub pdu_size: usize,
    /// Sustained forwarding rate in PDUs per second.
    pub pdus_per_sec: f64,
    /// Sustained goodput in bits per second.
    pub throughput_bps: f64,
}

/// Runs the simulated 32×32 experiment for one payload size: one router
/// node whose host spends [`PER_PDU_US`] + [`PER_BYTE_NS`]/B per PDU, 32
/// attached senders blasting at 32 attached receivers.
pub fn simulated(pdu_size: usize, pdus_per_sender: u32) -> Fig6Point {
    let mut c = SimCluster::empty(6 + pdu_size as u64, FaultSpec::reliable());
    let router = c.add_router(&[60u8; 32], "fig6 router", None);
    c.set_cpu(router, HostCpu { per_pdu_us: PER_PDU_US, per_byte_ns: PER_BYTE_NS });
    c.boot();
    let router_name = c.runtime_mut(router).router_name().expect("a router node");

    // 10 Gbps access links so endpoints never bottleneck the router.
    let link = LinkSpec { latency_us: 50, bandwidth_bps: 10_000_000_000, loss: 0.0 };
    let mut attach = |seed: usize, label: String| {
        let id = PrincipalId::from_seed(PrincipalKind::Client, &[seed as u8; 32], &label);
        let name = id.name();
        let ep = c.net.endpoint();
        c.net.connect(ep.addr, router, link);
        let mut attacher = Attacher::new(id, router_name, vec![], 1 << 50);
        c.attach_endpoint(&ep, router, &mut attacher).expect("attach");
        (ep, name)
    };
    let pairs: Vec<_> = (0..32)
        .map(|i| (attach(100 + i, format!("send{i}")).0, attach(200 + i, format!("recv{i}"))))
        .collect();

    // Blast all PDUs back to back; the sender link serializes.
    let t0 = c.net.now();
    for (sender, (_, receiver)) in &pairs {
        for i in 0..pdus_per_sender {
            let pdu = Pdu::data(Name::ZERO, *receiver, i as u64, vec![0u8; pdu_size]);
            sender.send(router, pdu).expect("send");
        }
    }
    c.run_until_quiet();
    let elapsed = (c.net.now() - t0) as f64 / 1e6;

    let mut delivered = 0u64;
    for (_, (receiver, _)) in &pairs {
        while let Ok(Some((_, pdu))) = receiver.try_recv() {
            delivered += u64::from(pdu.pdu_type == PduType::Data);
        }
    }
    let pdus_per_sec = delivered as f64 / elapsed;
    let throughput_bps = pdus_per_sec * (pdu_size as f64) * 8.0;
    Fig6Point { pdu_size, pdus_per_sec, throughput_bps }
}

/// A router with one directly-attached endpoint, plus that endpoint's
/// name — the minimal forwarding fixture shared by the wall-clock runs.
fn forwarding_fixture(seed: u8) -> (Router, Name) {
    let mut router = Router::from_seed(&[seed; 32], "wall-clock router");
    let recv = PrincipalId::from_seed(PrincipalKind::Client, &[62u8; 32], "sink");
    let recv_name = recv.name();
    let mut attacher = Attacher::new(recv, router.name(), vec![], 1 << 50);
    gdp_router::attach_directly(&mut router, 7, &mut attacher, 0).expect("attach");
    (router, recv_name)
}

/// Measures the real wall-clock forwarding rate of the zero-copy fast
/// path for one payload size (single thread): the template's refcounted
/// payload is shared by every clone, and the outbox is reused across
/// iterations, so the steady-state loop performs no per-PDU allocation.
pub fn in_process(pdu_size: usize, iterations: u32) -> Fig6Point {
    let (mut router, recv_name) = forwarding_fixture(61);
    let template = Pdu::data(Name::ZERO, recv_name, 0, vec![0u8; pdu_size]);
    let mut out = gdp_router::Outbox::new();
    let start = std::time::Instant::now();
    let mut forwarded = 0u64;
    for i in 0..iterations {
        let mut pdu = template.clone();
        pdu.seq = i as u64;
        out.clear();
        router.handle_pdu_into(1, 3, pdu, &mut out);
        forwarded += out.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let pdus_per_sec = forwarded as f64 / elapsed;
    Fig6Point { pdu_size, pdus_per_sec, throughput_bps: pdus_per_sec * pdu_size as f64 * 8.0 }
}

/// Ablation: the pre-fast-path data plane — every PDU carries a freshly
/// allocated payload (as decode-by-copy used to produce) and every
/// `handle_pdu` call allocates its own outbox.
pub fn in_process_copying(pdu_size: usize, iterations: u32) -> Fig6Point {
    let (mut router, recv_name) = forwarding_fixture(61);
    let start = std::time::Instant::now();
    let mut forwarded = 0u64;
    for i in 0..iterations {
        let pdu = Pdu::data(Name::ZERO, recv_name, i as u64, vec![0u8; pdu_size]);
        let out = router.handle_pdu(1, 3, pdu);
        forwarded += out.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let pdus_per_sec = forwarded as f64 / elapsed;
    Fig6Point { pdu_size, pdus_per_sec, throughput_bps: pdus_per_sec * pdu_size as f64 * 8.0 }
}

/// A route carrying a real serving chain (capsule metadata + AdCert),
/// produced through the actual attach path against a recording router.
fn chained_route_fixture() -> gdp_router::VerifiedRoute {
    let mut router = Router::from_seed(&[65u8; 32], "verify router");
    router.record_installs(true);
    let owner = gdp_crypto::SigningKey::from_seed(&[66u8; 32]);
    let server = PrincipalId::from_seed(PrincipalKind::Server, &[67u8; 32], "verify-srv");
    let meta = gdp_capsule::MetadataBuilder::new()
        .writer(&gdp_crypto::SigningKey::from_seed(&[68u8; 32]).verifying_key())
        .sign(&owner);
    let chain = gdp_cert::ServingChain::direct(
        gdp_cert::AdCert::issue(&owner, meta.name(), server.name(), false, Scope::Global, 1 << 50),
        server.principal().clone(),
    );
    let adverts = vec![gdp_cert::CapsuleAdvert { metadata: meta, chain }];
    let mut attacher = Attacher::new(server, router.name(), adverts, 1 << 50);
    gdp_router::attach_directly(&mut router, 3, &mut attacher, 0).expect("attach");
    router
        .drain_installs()
        .into_iter()
        .map(|i| i.route)
        .find(|r| r.entry.is_some())
        .expect("attach installed a chained route")
}

/// Ablation: route verification, cold (full certificate-chain check per
/// operation) vs cached (digest + expiry lookup in the verification
/// cache). Returns `(cold_per_sec, cached_per_sec)` for a route carrying
/// a real serving chain, produced through the actual attach path.
pub fn verify_cold_vs_cached(iterations: u32) -> (f64, f64) {
    use gdp_router::vcache;

    let route = chained_route_fixture();

    let start = std::time::Instant::now();
    for _ in 0..iterations {
        route.verify(1).expect("route verifies");
    }
    let cold = iterations as f64 / start.elapsed().as_secs_f64();

    let mut cache = gdp_router::VerifyCache::new(16);
    cache.insert(vcache::route_digest(&route), vcache::route_expiry(&route));
    let start = std::time::Instant::now();
    let mut hits = 0u32;
    for _ in 0..iterations {
        // The cached path still pays the digest (the cache is keyed by
        // content, not by pointer) — this is exactly what the router does.
        if cache.hit(&vcache::route_digest(&route), 1) {
            hits += 1;
        }
    }
    let cached = hits as f64 / start.elapsed().as_secs_f64();
    assert_eq!(hits, iterations, "cache must hit every time");
    (cold, cached)
}

/// One sharded-ablation measurement.
#[derive(Clone, Copy, Debug)]
pub struct ShardedPoint {
    /// Shard count.
    pub shards: usize,
    /// Aggregate wall-clock forwarding rate end to end through the real
    /// engine, PDUs/s. `None` when the host has fewer than `shards + 1`
    /// cores: there a multi-thread run measures the scheduler, not the
    /// engine, so the point is not run.
    pub pdus_per_sec: Option<f64>,
    /// Measured dispatch-stage rate (batcher + batched channel handoff),
    /// PDUs/s — the shared-stage ceiling of the pipeline.
    pub dispatch_rate: f64,
    /// Measured single-worker forwarding rate over real batches, PDUs/s.
    pub worker_rate: f64,
    /// Cores the host exposed during the run.
    pub cores: usize,
}

/// Egress that counts sends; the bench equivalent of the TCP port.
struct CountingEgress {
    sent: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

struct CountingPort {
    sent: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl gdp_node::Egress for CountingEgress {
    fn port(&self) -> Box<dyn gdp_node::EgressPort> {
        Box::new(CountingPort { sent: std::sync::Arc::clone(&self.sent) })
    }
}

impl gdp_node::EgressPort for CountingPort {
    fn send_to(&mut self, _addr: std::net::SocketAddr, _pdu: Pdu) {
        self.sent.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The shared sharded-ablation fixture: a recording control router with
/// 32 attached destinations (uniform over shards), the drained installs,
/// and a nid map binding ids 0..=3 (0 = ingress peer, 3 = the attach
/// neighbor every route points at).
fn sharded_fixture(
    seed: &[u8; 32],
) -> (
    Vec<Name>,
    Vec<gdp_router::RouteInstall>,
    std::sync::Arc<gdp_node::NidMap<std::net::SocketAddr>>,
) {
    let mut control = Router::from_seed(seed, "sharded-control");
    control.record_installs(true);
    let mut dests = Vec::new();
    for d in 0..32u8 {
        let p = PrincipalId::from_seed(PrincipalKind::Server, &[70 + d; 32], "sharded-dst");
        dests.push(p.name());
        let mut attacher = Attacher::new(p, control.name(), vec![], 1 << 50);
        gdp_router::attach_directly(&mut control, 3, &mut attacher, 0).expect("attach");
    }
    let installs = control.drain_installs();
    let nids = std::sync::Arc::new(gdp_node::NidMap::default());
    for port in 0..4u16 {
        let addr: std::net::SocketAddr =
            format!("127.0.0.1:{}", 23000 + port).parse().expect("addr");
        nids.nid(addr);
    }
    (dests, installs, nids)
}

/// Prebuilds the load: `iterations` Data PDUs cycling the destination
/// set, payload refcount-shared from one template. Built outside every
/// timed region so both stages and both modes pay identical input cost
/// (none).
fn prebuilt_load(dests: &[Name], pdu_size: usize, iterations: u32) -> Vec<Pdu> {
    let template = Pdu::data(Name::ZERO, dests[0], 0, vec![0u8; pdu_size]);
    (0..iterations)
        .map(|i| {
            let mut pdu = template.clone();
            pdu.dst = dests[i as usize % dests.len()];
            pdu.seq = i as u64;
            pdu
        })
        .collect()
}

/// PDUs per timed pass: small enough that a pass's working set is
/// cache-resident (rebuilt untimed right before each pass), so the
/// stages measure per-PDU engine cost rather than DRAM streaming.
const SHARDED_CHUNK: u32 = 8_192;

/// PDUs per timed dispatch pass. Nothing consumes the lanes while a pass
/// is timed, so a pass's batches pile up on the heap and are freed by the
/// untimed drain; at [`SHARDED_CHUNK`] that is ~1 MB, which the allocator
/// may or may not hand back to the kernel depending on where its trim
/// threshold happens to sit in this process — and the next pass then
/// either reuses warm pages or faults them all in again (measured: 15M vs
/// 35M PDUs/s for the same code). Eight full batches stay under the
/// smallest trim threshold (128 KiB), so every pass runs on warm pages.
const DISPATCH_CHUNK: u32 = 512;

/// Ablation: aggregate forwarding rate with the data plane partitioned
/// over `shards` run-to-completion workers fed in batches by the
/// per-connection readers.
///
/// Two stage rates are always measured live on this machine, over the
/// same prebuilt load, timed in cache-warm chunks:
///
/// * **dispatch** — one reader staging through the real
///   [`gdp_node::ShardBatcher`] into unconsumed lanes: shard hash,
///   staging, batched channel enqueue, counters. This is the per-reader
///   handoff capacity — exactly the quantity a per-PDU-handoff
///   regression destroys.
/// * **worker** — one real [`gdp_node::ShardState`] (seeded router +
///   mirrored routes + counting egress) run over real batches.
///
/// With `shards == 1`, or more cores than shards, the point is also run
/// end to end: prebuilt PDUs staged through the real engine (batcher →
/// lanes → workers → egress), the clock stopping when the last PDU leaves
/// the counting egress.
pub fn sharded(pdu_size: usize, iterations: u32, shards: usize) -> ShardedPoint {
    use gdp_obs::Metrics;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let shards = shards.max(1);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let seed = [61u8; 32];
    let (dests, installs, nids) = sharded_fixture(&seed);
    let batch_cap = gdp_node::DEFAULT_SHARD_BATCH;
    let chunk = SHARDED_CHUNK.min(iterations.max(1));

    // Worker stage, timed per cache-warm chunk.
    let worker_rate = {
        let mut router = Router::from_seed(&seed, "sharded-worker");
        for i in &installs {
            router.install_verified(i.neighbor, i.distance, &i.route, 0);
        }
        let sent = Arc::new(AtomicU64::new(0));
        let port = gdp_node::Egress::port(&CountingEgress { sent: Arc::clone(&sent) });
        let mut state = gdp_node::ShardState::new(router, Arc::clone(&nids), port);
        let mut timed = Duration::ZERO;
        let mut done = 0u32;
        while done < iterations {
            let n = chunk.min(iterations - done);
            let load = prebuilt_load(&dests, pdu_size, n);
            let mut batches: Vec<gdp_node::ShardBatch> = load
                .chunks(batch_cap)
                .map(|c| gdp_node::ShardBatch {
                    now: 1,
                    items: c.iter().map(|p| (0usize, p.clone())).collect(),
                })
                .collect();
            let start = Instant::now();
            for batch in &mut batches {
                state.process_batch(batch);
            }
            timed += start.elapsed();
            done += n;
        }
        assert_eq!(
            sent.load(Ordering::Relaxed),
            iterations as u64,
            "worker stage must forward everything"
        );
        iterations as f64 / timed.as_secs_f64()
    };

    // Dispatch stage: one reader staging into unconsumed lanes, drained
    // untimed between chunks so queued PDUs never accumulate into a
    // DRAM-bound working set.
    let dispatch_rate = {
        let metrics = Metrics::new();
        let (engine, lanes) = gdp_node::ShardedEngine::start_unconsumed(
            shards,
            batch_cap,
            &metrics,
            Arc::clone(&nids),
            Instant::now(),
        );
        let mut batcher = engine.batcher();
        let mut timed = Duration::ZERO;
        let mut done = 0u32;
        while done < iterations {
            let n = DISPATCH_CHUNK.min(iterations - done);
            let load = prebuilt_load(&dests, pdu_size, n);
            let start = Instant::now();
            for pdu in load.into_iter() {
                batcher.stage(0, pdu);
            }
            batcher.flush();
            timed += start.elapsed();
            done += n;
            for lane in &lanes {
                while lane.try_recv().is_ok() {}
            }
        }
        drop(batcher);
        drop(lanes);
        engine.shutdown();
        iterations as f64 / timed.as_secs_f64()
    };

    let pdus_per_sec = (shards == 1 || cores > shards).then(|| {
        // End-to-end through the real engine; per chunk, the clock
        // stops when the last PDU of the chunk leaves the egress.
        let metrics = Metrics::new();
        let sent = Arc::new(AtomicU64::new(0));
        let egress = Arc::new(CountingEgress { sent: Arc::clone(&sent) });
        let engine = gdp_node::ShardedEngine::start(
            shards,
            batch_cap,
            &seed,
            "sharded-live",
            &metrics,
            Arc::clone(&nids),
            egress,
            Instant::now(),
        );
        for install in installs {
            engine.mirror_install(install, 0);
        }
        // Let workers apply the mirrors before load arrives.
        std::thread::sleep(Duration::from_millis(20));
        let mut batcher = engine.batcher();
        let mut timed = Duration::ZERO;
        let mut done = 0u32;
        while done < iterations {
            let n = chunk.min(iterations - done);
            let load = prebuilt_load(&dests, pdu_size, n);
            let expected = (done + n) as u64;
            let deadline = Instant::now() + Duration::from_secs(60);
            let start = Instant::now();
            for pdu in load.into_iter() {
                batcher.stage(0, pdu);
            }
            batcher.flush();
            while sent.load(Ordering::Relaxed) < expected && Instant::now() < deadline {
                std::thread::yield_now();
            }
            timed += start.elapsed();
            done += n;
        }
        let forwarded = sent.load(Ordering::Relaxed);
        drop(batcher);
        engine.shutdown();
        assert_eq!(forwarded, iterations as u64, "live run must forward everything");
        iterations as f64 / timed.as_secs_f64()
    });

    ShardedPoint { shards, pdus_per_sec, dispatch_rate, worker_rate, cores }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pdus_cpu_bound_large_pdus_bandwidth_bound() {
        let small = simulated(64, 60);
        let large = simulated(10_240, 60);
        // Small PDUs: rate near the CPU cap (1e6 / PER_PDU_US ≈ 125k/s),
        // throughput far below 1 Gbps.
        assert!(
            small.pdus_per_sec > 80_000.0 && small.pdus_per_sec < 140_000.0,
            "small rate {}",
            small.pdus_per_sec
        );
        assert!(small.throughput_bps < 200_000_000.0);
        // Large PDUs: close to 1 Gbps, far lower PDU rate.
        assert!(large.throughput_bps > 700_000_000.0, "large throughput {}", large.throughput_bps);
        assert!(large.pdus_per_sec < small.pdus_per_sec);
    }

    #[test]
    fn in_process_forwards() {
        let p = in_process(256, 2_000);
        assert!(p.pdus_per_sec > 10_000.0, "rate {}", p.pdus_per_sec);
    }

    #[test]
    fn copying_ablation_forwards_same_pdus() {
        let p = in_process_copying(256, 2_000);
        assert!(p.pdus_per_sec > 10_000.0, "rate {}", p.pdus_per_sec);
    }

    #[test]
    fn cached_verification_is_faster_than_cold() {
        let (cold, cached) = verify_cold_vs_cached(200);
        assert!(cold > 0.0 && cached > 0.0);
        // A digest check must beat three Ed25519 verifications by a wide
        // margin; 5× is a very conservative floor.
        assert!(cached > cold * 5.0, "cold {cold:.0}/s vs cached {cached:.0}/s");
    }

    #[test]
    fn sharded_runs_and_forwards_everything() {
        // Both stages (and the live run, on a host with the cores for it)
        // assert internally that every PDU was forwarded.
        let p = sharded(64, 4_000, 2);
        assert!(p.dispatch_rate > 0.0 && p.worker_rate > 0.0);
        assert_eq!(p.pdus_per_sec.is_some(), p.cores > 2);
        assert!(p.pdus_per_sec.is_none_or(|r| r > 10_000.0), "rate {:?}", p.pdus_per_sec);
    }

    #[test]
    fn sharded_single_shard_is_live() {
        let p = sharded(64, 4_000, 1);
        assert_eq!(p.shards, 1);
        let rate = p.pdus_per_sec.expect("a single shard always runs live");
        assert!(rate > 10_000.0, "rate {rate}");
    }
}
