//! # gdp-net
//!
//! Network substrates for the Global Data Plane.
//!
//! * [`tcp`] — a real-socket transport over `std::net` TCP with
//!   length-prefixed framing, a reconnecting per-peer connection pool, and
//!   a hardened decode path, so GDP nodes can run as separate processes.
//! * [`simnet`] — a deterministic, seeded discrete-event *transport*: the
//!   same [`Transport`] contract as `tcp`, but with virtual time,
//!   per-link latency/bandwidth/loss models, injectable faults (delay,
//!   reorder, drop, duplicate, asymmetric partitions, crash/restart), and
//!   a replayable trace digest. `gdp-sim` runs the real node runtimes on
//!   it: the chaos suite and every paper-figure reproduction (see
//!   DESIGN.md, "Substitutions").
//! * [`admission`] — per-peer token-bucket admission control applied at
//!   TCP ingest (see DESIGN.md, "Overload & admission"): a flooding peer
//!   is shed right after frame decode, before its PDUs cost anything.
//!
//! Protocol logic in `gdp-router`/`gdp-server`/`gdp-client` is written
//! sans-I/O and depends on neither substrate; `gdp-node`'s runtime is
//! where a core meets a [`Transport`]. The trait captures the contract
//! both substrates share; the conformance suite in [`conformance`] checks
//! every implementation against it.

#![forbid(unsafe_code)]

pub mod admission;
pub mod conformance;
pub mod simnet;
pub mod tcp;

pub use admission::{AdmissionGate, TokenBucket, Verdict};
pub use tcp::{PeerEvent, TcpNet, TcpNetConfig, TcpNetError, TcpStats};

use gdp_wire::Pdu;
use std::time::Duration;

/// The contract shared by message-oriented transports ([`TcpNet`] and
/// [`simnet::SimEndpoint`]): unicast PDU delivery with per-peer FIFO
/// ordering and non-blocking/timeout receive. On [`simnet`] virtual time
/// advances inside `recv_timeout`, so production event loops run on it
/// unchanged.
pub trait Transport {
    /// Peer address type (socket addr on TCP, endpoint address on `simnet`).
    type Peer: Copy + Eq + std::hash::Hash + std::fmt::Debug;
    /// Transport-specific error type.
    type Error: std::error::Error;

    /// Queues a PDU for delivery to `to`. Best-effort: delivery failures
    /// after this returns surface through transport-specific channels.
    fn send(&self, to: Self::Peer, pdu: Pdu) -> Result<(), Self::Error>;

    /// Blocks up to `timeout` for the next PDU; `Ok(None)` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Self::Peer, Pdu)>, Self::Error>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Result<Option<(Self::Peer, Pdu)>, Self::Error>;
}

impl Transport for TcpNet {
    type Peer = std::net::SocketAddr;
    type Error = TcpNetError;

    fn send(&self, to: std::net::SocketAddr, pdu: Pdu) -> Result<(), TcpNetError> {
        TcpNet::send(self, to, pdu)
    }

    fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<(std::net::SocketAddr, Pdu)>, TcpNetError> {
        TcpNet::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Result<Option<(std::net::SocketAddr, Pdu)>, TcpNetError> {
        TcpNet::try_recv(self)
    }
}
