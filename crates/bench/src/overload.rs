//! Overload curve: goodput vs offered load through a budgeted
//! DataCapsule-server (DESIGN.md, "Overload & admission").
//!
//! A closed client↔server loop (the production sans-I/O state machines,
//! no fabric) is driven at offered-load multiples of the server's
//! per-tick append budget. Arrivals queue open-loop at `multiplier ×
//! budget` per tick; every queued write is attempted each tick in chain
//! order, so the server's budget gate answers the excess with typed
//! `Nack{Busy}` frames. The shape this measures is the whole point of
//! typed shedding: goodput saturates at the budget and *stays there* —
//! a server without the gate would instead collapse under the
//! verification cost of traffic it cannot commit.
//!
//! Every run self-validates its conservation laws before the caller
//! writes `BENCH_overload.json`: attempts = acked + shed at every
//! point, nothing sheds below capacity, and the saturated goodput never
//! drops below the configured budget.

use gdp_capsule::{MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::{ClientEvent, GdpClient};
use gdp_crypto::SigningKey;
use gdp_server::{AckMode, DataCapsuleServer};
use gdp_wire::Pdu;
use std::collections::VecDeque;

const FOREVER: u64 = 1 << 50;

pub use gdp_node::runtime::TICK_US;

/// One measured point on the goodput curve.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Offered load as a multiple of the append budget.
    pub multiplier: u64,
    /// Writes that arrived (multiplier × budget × ticks).
    pub offered: u64,
    /// Append attempts sent (arrivals plus budget-refused re-offers).
    pub attempts: u64,
    /// Appends committed and acked.
    pub acked: u64,
    /// Attempts refused with `Nack{Busy}`.
    pub shed: u64,
    /// Arrivals still queued when the window closed.
    pub backlog: u64,
    /// Acked writes per virtual second.
    pub goodput_per_sec: f64,
}

/// A closed loop of the production client and server state machines at
/// one offered-load multiplier.
fn run_point(budget: u64, multiplier: u64, ticks: u64) -> OverloadPoint {
    let owner = SigningKey::from_seed(&[0x51u8; 32]);
    let writer_key = SigningKey::from_seed(&[0x52u8; 32]);
    let sid = PrincipalId::from_seed(PrincipalKind::Server, &[0x53u8; 32], "overload server");
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "overload bench")
        .sign(&owner);
    let capsule = meta.name();
    let mut server = DataCapsuleServer::new(sid.clone(), &gdp_obs::Scope::default());
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule, sid.name(), false, Scope::Global, FOREVER),
        sid.principal().clone(),
    );
    server.host(meta.clone(), chain, vec![]).expect("host overload capsule");
    server.set_overload_policy(budget, TICK_US / 4);
    let mut client = GdpClient::from_seed(&[0x54u8; 32], "overload client");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("register writer");

    // FIFO of unacked writes in chain order; commits are always a queue
    // prefix because the budget admits the first `budget` attempts of
    // each tick and attempts run front-to-back.
    let mut queue: VecDeque<(Pdu, u64)> = VecDeque::new();
    let (mut offered, mut attempts, mut acked, mut shed) = (0u64, 0u64, 0u64, 0u64);
    for tick in 0..ticks {
        let now = tick * TICK_US;
        let _ = server.tick(now);
        for _ in 0..multiplier * budget {
            let (pdu, record) =
                client.append(capsule, b"overload", now, AckMode::Local).expect("signed append");
            queue.push_back((pdu, record.header.seq));
            offered += 1;
        }
        let mut i = 0;
        while i < queue.len() {
            let (pdu, want) = queue[i].clone();
            attempts += 1;
            let (mut got_ack, mut got_nack) = (false, false);
            for reply in server.handle_pdu(now, pdu) {
                for ev in client.handle_pdu(now, reply) {
                    match ev {
                        ClientEvent::AppendAcked { seq, .. } if seq == want => got_ack = true,
                        ClientEvent::Backpressure { .. } => got_nack = true,
                        other => panic!("overload bench: unexpected client event {other:?}"),
                    }
                }
            }
            if got_ack {
                acked += 1;
                queue.remove(i);
            } else {
                assert!(got_nack, "overload bench: attempt neither acked nor Nacked");
                shed += 1;
                i += 1;
            }
        }
    }
    let secs = (ticks * TICK_US) as f64 / 1e6;
    OverloadPoint {
        multiplier,
        offered,
        attempts,
        acked,
        shed,
        backlog: queue.len() as u64,
        goodput_per_sec: acked as f64 / secs,
    }
}

/// Measures the goodput curve and asserts its conservation laws: these
/// are the self-validation gates behind `BENCH_overload.json`.
pub fn curve(budget: u64, multipliers: &[u64], ticks: u64) -> Vec<OverloadPoint> {
    let points: Vec<OverloadPoint> =
        multipliers.iter().map(|&m| run_point(budget, m, ticks)).collect();
    for p in &points {
        assert_eq!(
            p.attempts,
            p.acked + p.shed,
            "overload x{}: attempts leaked past the ack/Nack split",
            p.multiplier
        );
        assert_eq!(
            p.offered,
            p.acked + p.backlog,
            "overload x{}: arrivals neither acked nor queued",
            p.multiplier
        );
        if p.multiplier <= 1 {
            assert_eq!(p.shed, 0, "overload x{}: shed below capacity", p.multiplier);
        } else {
            assert!(p.shed > 0, "overload x{}: overload never shed", p.multiplier);
            // Saturation plateau: the budget keeps being served in full —
            // goodput degrades to the floor, never through it.
            assert_eq!(
                p.acked,
                budget * ticks,
                "overload x{}: goodput collapsed below the budget",
                p.multiplier
            );
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_shape_saturates_at_budget() {
        let points = curve(2, &[1, 2, 4], 6);
        assert_eq!(points.len(), 3);
        // At capacity everything acks; above it goodput stays pinned to
        // the budget while shed grows with the multiplier.
        assert_eq!(points[0].acked, points[0].offered);
        assert_eq!(points[1].acked, points[2].acked);
        assert!(points[2].shed > points[1].shed);
        assert!(points[2].goodput_per_sec > 0.0);
    }
}
