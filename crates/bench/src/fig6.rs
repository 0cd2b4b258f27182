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

use gdp_cert::{PrincipalId, PrincipalKind};
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
}
