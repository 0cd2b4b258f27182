//! Transport conformance checks.
//!
//! Every message-oriented transport ([`crate::tcp`], [`crate::simnet`])
//! must uphold the same observable contract so the sans-I/O protocol
//! cores behave identically on both:
//!
//! 1. **Delivery** — a sent PDU arrives at the addressed peer, bit-exact.
//! 2. **Per-peer FIFO** — PDUs from one sender arrive in send order.
//! 3. **Isolation** — traffic between two peers never leaks to a third.
//! 4. **Timeout honesty** — `recv_timeout` on a quiet transport returns
//!    `Ok(None)`, not an error and not a phantom PDU.
//! 5. **Egress bound** — a PDU whose frame the receiver's decoder would
//!    reject as oversized is refused by `send`, and the link survives.
//!
//! The checks are generic over [`Transport`]; the integration test
//! `transport_conformance.rs` instantiates them for `TcpNet` sockets and
//! `simnet` endpoints. Peer-death behavior is transport-specific (process
//! death vs. simulated crash) and tested per-transport.

use crate::Transport;
use gdp_wire::{Name, Pdu};
use std::time::Duration;

/// How long conformance checks wait for an expected delivery.
pub const DELIVERY_TIMEOUT: Duration = Duration::from_secs(10);

fn test_pdu(tag: u8, seq: u64, payload: Vec<u8>) -> Pdu {
    Pdu::data(Name::from_content(&[b'c', tag]), Name::from_content(b"conf-dst"), seq, payload)
}

/// Drains `rx` until a Data PDU arrives (ignoring transport-level chatter),
/// panicking after [`DELIVERY_TIMEOUT`].
pub fn expect_pdu<T: Transport>(rx: &T) -> (T::Peer, Pdu) {
    let deadline = std::time::Instant::now() + DELIVERY_TIMEOUT;
    loop {
        let remaining = deadline
            .checked_duration_since(std::time::Instant::now())
            .expect("conformance: timed out waiting for delivery");
        if let Some(got) = rx.recv_timeout(remaining).expect("transport error while receiving") {
            return got;
        }
    }
}

/// Check 1: a PDU sent to a peer arrives there intact, including a payload
/// large enough to span many reads on a stream transport.
pub fn check_delivery_integrity<T: Transport>(tx: &T, rx: &T, rx_addr: T::Peer) {
    for (seq, len) in [(1u64, 0usize), (2, 1), (3, 4096), (4, 1 << 20)] {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let sent = test_pdu(1, seq, payload);
        tx.send(rx_addr, sent.clone()).expect("send failed");
        let (_, got) = expect_pdu(rx);
        assert_eq!(got, sent, "delivered PDU differs from sent (seq {seq}, len {len})");
    }
}

/// Check 2: `count` PDUs from one sender arrive in send order.
pub fn check_per_peer_ordering<T: Transport>(tx: &T, rx: &T, rx_addr: T::Peer, count: u64) {
    for seq in 0..count {
        tx.send(rx_addr, test_pdu(2, seq, seq.to_be_bytes().to_vec())).expect("send failed");
    }
    for seq in 0..count {
        let (_, got) = expect_pdu(rx);
        assert_eq!(got.seq, seq, "PDUs reordered: wanted seq {seq}, got {}", got.seq);
    }
}

/// Check 3: concurrent streams from two senders each stay FIFO at the
/// receiver, and nothing is lost or duplicated.
pub fn check_interleaved_senders<T: Transport>(
    tx_a: &T,
    tx_b: &T,
    rx: &T,
    rx_addr: T::Peer,
    count: u64,
) where
    T::Peer: std::cmp::Eq,
{
    for seq in 0..count {
        tx_a.send(rx_addr, test_pdu(b'a', seq, vec![b'a'])).expect("send a failed");
        tx_b.send(rx_addr, test_pdu(b'b', seq, vec![b'b'])).expect("send b failed");
    }
    let mut next_a = 0u64;
    let mut next_b = 0u64;
    while next_a < count || next_b < count {
        let (_, got) = expect_pdu(rx);
        match got.payload.as_slice() {
            [b'a'] => {
                assert_eq!(got.seq, next_a, "sender A stream reordered");
                next_a += 1;
            }
            [b'b'] => {
                assert_eq!(got.seq, next_b, "sender B stream reordered");
                next_b += 1;
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }
}

/// Check 4: a quiet transport times out with `Ok(None)` — no spurious
/// PDUs, no error.
pub fn check_timeout_honesty<T: Transport>(rx: &T) {
    let quiet = rx.recv_timeout(Duration::from_millis(50)).expect("recv_timeout errored");
    assert!(quiet.is_none(), "phantom PDU on quiet transport: {quiet:?}");
    let quiet = rx.try_recv().expect("try_recv errored");
    assert!(quiet.is_none(), "phantom PDU from try_recv: {quiet:?}");
}

/// Check 3b: traffic addressed to one peer is never observed by another.
pub fn check_isolation<T: Transport>(tx: &T, rx: &T, rx_addr: T::Peer, bystander: &T) {
    for seq in 0..32 {
        tx.send(rx_addr, test_pdu(3, seq, vec![7])).expect("send failed");
    }
    for _ in 0..32 {
        expect_pdu(rx);
    }
    let leaked = bystander.try_recv().expect("bystander try_recv errored");
    assert!(leaked.is_none(), "PDU leaked to a peer it was not addressed to: {leaked:?}");
}

/// Check 5: `send` refuses a PDU one byte past `max_frame` (the frame
/// body cap both ends were configured with) instead of writing a frame
/// the peer answers by dropping the link; traffic after it still flows.
pub fn check_oversized_refused<T: Transport>(tx: &T, rx: &T, rx_addr: T::Peer, max_frame: usize) {
    let at_cap = test_pdu(5, 1, vec![0u8; max_frame - gdp_wire::HEADER_LEN]);
    let over = test_pdu(5, 2, vec![0u8; max_frame - gdp_wire::HEADER_LEN + 1]);
    assert!(tx.send(rx_addr, over).is_err(), "oversized PDU was queued");
    tx.send(rx_addr, at_cap.clone()).expect("a frame exactly at the cap is legal");
    let (_, got) = expect_pdu(rx);
    assert_eq!(got, at_cap, "the link must survive a refused send");
}
