//! A deterministic, seeded, discrete-event network fabric that implements
//! the [`Transport`](crate::Transport) trait — so the *real* router,
//! server, client, and node runtimes run unmodified inside a reproducible
//! simulated world (FoundationDB-style simulation testing).
//!
//! Unlike [`crate::sim`] (which owns virtual time and drives toy nodes
//! through callbacks), this fabric looks exactly like a message transport:
//! endpoints `send`/`recv_timeout`/`try_recv`, and virtual time advances
//! while an endpoint "waits". All nondeterminism is concentrated in one
//! seeded generator, so a single `u64` seed fixes every fault decision:
//!
//! * **delay / reorder** — per-PDU latency is `latency_us` plus a uniform
//!   jitter draw in `[0, jitter_us]`; unequal draws reorder deliveries;
//! * **drop / duplicate** — independent per-PDU Bernoulli draws;
//! * **asymmetric partitions** — directed `(from, to)` blocks, so A→B can
//!   be dead while B→A still delivers;
//! * **crash / restart** — a crashed endpoint loses its inbox and all
//!   in-flight traffic toward it; the address survives restart (durable
//!   state lives outside the fabric, e.g. in a `gdp-store` segmented log).
//!
//! Every state transition folds into a running SHA-256 *trace digest*:
//! two runs with the same seed and same driver are byte-identical iff
//! their digests match, which is exactly what the chaos suite asserts.
//!
//! Determinism rules for code running on this fabric: no wall-clock, no
//! OS RNG, no map-iteration-order dependence (see DESIGN.md, "Simulation
//! architecture").

use crate::Transport;
use gdp_wire::{Pdu, Wire};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Endpoint address on the simulated fabric (densely allocated).
pub type SimAddr = usize;

/// One microsecond, the fabric's time unit.
pub const US: u64 = 1;
/// Microseconds per millisecond.
pub const MS: u64 = 1_000;

/// Fault model applied to every PDU crossing the fabric.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Base one-way latency (µs). Clamped to ≥ 1 so a send can never
    /// deliver at the instant it was enqueued (guarantees progress).
    pub latency_us: u64,
    /// Extra uniform delay in `[0, jitter_us]` µs — unequal draws reorder.
    pub jitter_us: u64,
    /// Per-PDU drop probability.
    pub drop: f64,
    /// Per-PDU duplication probability (the copy takes its own jitter).
    pub duplicate: f64,
}

impl FaultSpec {
    /// A perfectly reliable, FIFO network (fixed 500µs latency).
    pub fn reliable() -> FaultSpec {
        FaultSpec { latency_us: 500, jitter_us: 0, drop: 0.0, duplicate: 0.0 }
    }
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::reliable()
    }
}

/// Errors from the simulated fabric.
#[derive(Debug)]
pub enum SimNetError {
    /// The address was never allocated by this fabric.
    NoSuchEndpoint(SimAddr),
    /// The calling endpoint is currently crashed.
    Crashed(SimAddr),
}

impl std::fmt::Display for SimNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimNetError::NoSuchEndpoint(a) => write!(f, "no such sim endpoint: {a}"),
            SimNetError::Crashed(a) => write!(f, "sim endpoint {a} is crashed"),
        }
    }
}

impl std::error::Error for SimNetError {}

/// Fabric-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// PDUs delivered into an inbox.
    pub delivered: u64,
    /// PDUs dropped (fault, partition, or crashed receiver).
    pub dropped: u64,
    /// Extra copies scheduled by the duplication fault.
    pub duplicated: u64,
}

/// A PDU in flight: delivery is ordered by `(at, seq)`, where `seq` is a
/// global enqueue counter — equal-latency traffic stays FIFO.
struct InFlight {
    at: u64,
    seq: u64,
    from: SimAddr,
    to: SimAddr,
    pdu: Pdu,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &InFlight) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &InFlight) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &InFlight) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Inner {
    now: u64,
    next_seq: u64,
    faults: FaultSpec,
    rng: StdRng,
    /// `None` = crashed (inbox contents were lost with the process).
    inboxes: Vec<Option<VecDeque<(SimAddr, Pdu)>>>,
    queue: BinaryHeap<InFlight>,
    /// Directed partition set: `(from, to)` present ⇒ that direction drops.
    blocked: HashSet<(SimAddr, SimAddr)>,
    digest: [u8; 32],
    events: u64,
    stats: SimStats,
}

impl Inner {
    fn fold(&mut self, tag: u8, at: u64, from: SimAddr, to: SimAddr, pdu: &Pdu) {
        let mut buf = Vec::with_capacity(64 + 128);
        buf.extend_from_slice(&self.digest);
        buf.push(tag);
        buf.extend_from_slice(&at.to_be_bytes());
        buf.extend_from_slice(&(from as u64).to_be_bytes());
        buf.extend_from_slice(&(to as u64).to_be_bytes());
        buf.extend_from_slice(&pdu.to_wire());
        self.digest = gdp_crypto::sha256(&buf);
        self.events += 1;
    }

    /// Schedules one copy of `pdu`, applying jitter. Returns delivery time.
    fn schedule(&mut self, from: SimAddr, to: SimAddr, pdu: Pdu, tag: u8) {
        let jitter = if self.faults.jitter_us > 0 {
            self.rng.gen_range(0..=self.faults.jitter_us)
        } else {
            0
        };
        let at = self.now + self.faults.latency_us.max(1) + jitter;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fold(tag, at, from, to, &pdu);
        self.queue.push(InFlight { at, seq, from, to, pdu });
    }

    /// Moves every in-flight PDU due by `upto` into its inbox (or drops it
    /// if the receiver is crashed or the direction is now partitioned).
    fn deliver_due(&mut self, upto: u64) {
        while let Some(head) = self.queue.peek() {
            if head.at > upto {
                break;
            }
            let ev = self.queue.pop().unwrap();
            self.now = self.now.max(ev.at);
            if self.blocked.contains(&(ev.from, ev.to)) {
                self.stats.dropped += 1;
                self.fold(b'B', ev.at, ev.from, ev.to, &ev.pdu);
                continue;
            }
            match self.inboxes.get(ev.to) {
                Some(Some(_)) => {
                    self.stats.delivered += 1;
                    self.fold(b'D', ev.at, ev.from, ev.to, &ev.pdu);
                    if let Some(Some(inbox)) = self.inboxes.get_mut(ev.to) {
                        inbox.push_back((ev.from, ev.pdu));
                    }
                }
                _ => {
                    // Crashed or never-allocated receiver: the wire eats it.
                    self.stats.dropped += 1;
                    self.fold(b'C', ev.at, ev.from, ev.to, &ev.pdu);
                }
            }
        }
        self.now = self.now.max(upto);
    }
}

/// Shared handle to the simulated fabric: allocates endpoints and exposes
/// the world-control surface (time, partitions, crashes, trace digest).
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Mutex<Inner>>,
}

impl SimNet {
    /// Creates a fabric where every fault decision derives from `seed`.
    pub fn new(seed: u64) -> SimNet {
        SimNet::with_faults(seed, FaultSpec::reliable())
    }

    /// Creates a fabric with an explicit fault model.
    pub fn with_faults(seed: u64, faults: FaultSpec) -> SimNet {
        SimNet {
            inner: Arc::new(Mutex::new(Inner {
                now: 0,
                next_seq: 0,
                faults,
                rng: StdRng::seed_from_u64(seed),
                inboxes: Vec::new(),
                queue: BinaryHeap::new(),
                blocked: HashSet::new(),
                digest: [0u8; 32],
                events: 0,
                stats: SimStats::default(),
            })),
        }
    }

    /// Allocates a new endpoint on the fabric.
    pub fn endpoint(&self) -> SimEndpoint {
        let mut inner = self.inner.lock();
        let addr = inner.inboxes.len();
        inner.inboxes.push(Some(VecDeque::new()));
        SimEndpoint { addr, inner: Arc::clone(&self.inner) }
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> u64 {
        self.inner.lock().now
    }

    /// Advances virtual time to `t`, delivering everything due on the way.
    pub fn advance_to(&self, t: u64) {
        self.inner.lock().deliver_due(t);
    }

    /// Advances virtual time by `dt` µs.
    pub fn advance(&self, dt: u64) {
        let mut inner = self.inner.lock();
        let t = inner.now + dt;
        inner.deliver_due(t);
    }

    /// Delivery time of the earliest in-flight PDU, if any.
    pub fn next_event_at(&self) -> Option<u64> {
        self.inner.lock().queue.peek().map(|e| e.at)
    }

    /// Blocks the single direction `from → to` (asymmetric partition).
    pub fn block(&self, from: SimAddr, to: SimAddr) {
        self.inner.lock().blocked.insert((from, to));
    }

    /// Unblocks the single direction `from → to`.
    pub fn unblock(&self, from: SimAddr, to: SimAddr) {
        self.inner.lock().blocked.remove(&(from, to));
    }

    /// Symmetric partition between `a` and `b`.
    pub fn partition(&self, a: SimAddr, b: SimAddr) {
        let mut inner = self.inner.lock();
        inner.blocked.insert((a, b));
        inner.blocked.insert((b, a));
    }

    /// Heals the symmetric partition between `a` and `b`.
    pub fn heal(&self, a: SimAddr, b: SimAddr) {
        let mut inner = self.inner.lock();
        inner.blocked.remove(&(a, b));
        inner.blocked.remove(&(b, a));
    }

    /// Removes every partition.
    pub fn heal_all(&self) {
        self.inner.lock().blocked.clear();
    }

    /// Crashes an endpoint: its inbox is lost and traffic toward it is
    /// dropped until [`SimNet::restart`]. The address stays valid.
    pub fn crash(&self, addr: SimAddr) {
        if let Some(slot) = self.inner.lock().inboxes.get_mut(addr) {
            *slot = None;
        }
    }

    /// Restarts a crashed endpoint with an empty inbox.
    pub fn restart(&self, addr: SimAddr) {
        if let Some(slot) = self.inner.lock().inboxes.get_mut(addr) {
            if slot.is_none() {
                *slot = Some(VecDeque::new());
            }
        }
    }

    /// True if the endpoint is currently crashed.
    pub fn is_crashed(&self, addr: SimAddr) -> bool {
        matches!(self.inner.lock().inboxes.get(addr), Some(None))
    }

    /// Swaps the fault model (applies to subsequent sends).
    pub fn set_faults(&self, faults: FaultSpec) {
        self.inner.lock().faults = faults;
    }

    /// Running SHA-256 over every fabric event. Equal digests ⇒ the two
    /// runs saw byte-identical traffic in identical order.
    pub fn trace_digest(&self) -> [u8; 32] {
        self.inner.lock().digest
    }

    /// Number of trace events folded so far.
    pub fn trace_events(&self) -> u64 {
        self.inner.lock().events
    }

    /// Fabric counters.
    pub fn stats(&self) -> SimStats {
        self.inner.lock().stats
    }
}

/// One endpoint on a [`SimNet`]; implements [`Transport`].
pub struct SimEndpoint {
    /// This endpoint's fabric address.
    pub addr: SimAddr,
    inner: Arc<Mutex<Inner>>,
}

impl SimEndpoint {
    /// Queues a PDU toward `to`, applying the fault model at send time.
    pub fn send(&self, to: SimAddr, pdu: Pdu) -> Result<(), SimNetError> {
        let mut inner = self.inner.lock();
        if matches!(inner.inboxes.get(self.addr), Some(None)) {
            return Err(SimNetError::Crashed(self.addr));
        }
        if to >= inner.inboxes.len() {
            return Err(SimNetError::NoSuchEndpoint(to));
        }
        // Send-time partition check (delivery re-checks, so a partition
        // formed mid-flight still eats the PDU — like yanking a cable).
        if inner.blocked.contains(&(self.addr, to)) {
            inner.stats.dropped += 1;
            let now = inner.now;
            inner.fold(b'P', now, self.addr, to, &pdu);
            return Ok(());
        }
        if inner.faults.drop > 0.0 && {
            let p = inner.faults.drop;
            inner.rng.gen_bool(p)
        } {
            inner.stats.dropped += 1;
            let now = inner.now;
            inner.fold(b'X', now, self.addr, to, &pdu);
            return Ok(());
        }
        let duplicate = inner.faults.duplicate > 0.0 && {
            let p = inner.faults.duplicate;
            inner.rng.gen_bool(p)
        };
        if duplicate {
            inner.stats.duplicated += 1;
            inner.schedule(self.addr, to, pdu.clone(), b'U');
        }
        inner.schedule(self.addr, to, pdu, b'S');
        Ok(())
    }

    /// Waits up to `timeout` of *virtual* time for a delivery, advancing
    /// the world (all endpoints' due traffic) while waiting. Returns
    /// immediately in real time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(SimAddr, Pdu)>, SimNetError> {
        let mut inner = self.inner.lock();
        let deadline = inner.now + timeout.as_micros() as u64;
        loop {
            let now = inner.now;
            inner.deliver_due(now);
            match inner.inboxes.get_mut(self.addr) {
                Some(Some(inbox)) => {
                    if let Some(m) = inbox.pop_front() {
                        return Ok(Some(m));
                    }
                }
                _ => return Err(SimNetError::Crashed(self.addr)),
            }
            match inner.queue.peek().map(|e| e.at) {
                Some(at) if at <= deadline => inner.now = at,
                _ => {
                    inner.now = deadline.max(inner.now);
                    return Ok(None);
                }
            }
        }
    }

    /// Non-blocking receive: delivers anything already due, then pops this
    /// endpoint's inbox. Does not advance virtual time.
    pub fn try_recv(&self) -> Result<Option<(SimAddr, Pdu)>, SimNetError> {
        let mut inner = self.inner.lock();
        let now = inner.now;
        inner.deliver_due(now);
        match inner.inboxes.get_mut(self.addr) {
            Some(Some(inbox)) => Ok(inbox.pop_front()),
            _ => Err(SimNetError::Crashed(self.addr)),
        }
    }
}

impl Transport for SimEndpoint {
    type Peer = SimAddr;
    type Error = SimNetError;

    fn send(&self, to: SimAddr, pdu: Pdu) -> Result<(), SimNetError> {
        SimEndpoint::send(self, to, pdu)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(SimAddr, Pdu)>, SimNetError> {
        SimEndpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Result<Option<(SimAddr, Pdu)>, SimNetError> {
        SimEndpoint::try_recv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_wire::Name;

    fn pdu(seq: u64, body: &[u8]) -> Pdu {
        Pdu::data(
            Name::from_content(b"sim-src"),
            Name::from_content(b"sim-dst"),
            seq,
            body.to_vec(),
        )
    }

    #[test]
    fn delivery_and_virtual_time() {
        let net = SimNet::new(1);
        let (a, b) = (net.endpoint(), net.endpoint());
        a.send(b.addr, pdu(1, b"hi")).unwrap();
        assert!(b.try_recv().unwrap().is_none(), "latency must delay delivery");
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap().unwrap();
        assert_eq!(got.0, a.addr);
        assert_eq!(got.1.payload, b"hi");
        assert_eq!(net.now(), 500, "recv advanced virtual time to the delivery instant");
    }

    #[test]
    fn same_seed_same_digest() {
        let run = |seed: u64| {
            let net = SimNet::with_faults(
                seed,
                FaultSpec { latency_us: 100, jitter_us: 5_000, drop: 0.2, duplicate: 0.1 },
            );
            let (a, b) = (net.endpoint(), net.endpoint());
            for i in 0..200 {
                a.send(b.addr, pdu(i, &[i as u8])).unwrap();
                b.send(a.addr, pdu(i, &[i as u8, 1])).unwrap();
            }
            net.advance(1_000_000);
            while b.try_recv().unwrap().is_some() {}
            while a.try_recv().unwrap().is_some() {}
            (net.trace_digest(), net.trace_events(), net.stats())
        };
        assert_eq!(run(42), run(42), "same seed must replay byte-identically");
        assert_ne!(run(42).0, run(43).0, "different seeds must diverge");
    }

    #[test]
    fn jitter_reorders_but_drops_nothing() {
        let net = SimNet::with_faults(
            7,
            FaultSpec { latency_us: 100, jitter_us: 50_000, drop: 0.0, duplicate: 0.0 },
        );
        let (a, b) = (net.endpoint(), net.endpoint());
        for i in 0..100u64 {
            a.send(b.addr, pdu(i, b"x")).unwrap();
        }
        net.advance(1_000_000);
        let mut seqs = Vec::new();
        while let Some((_, p)) = b.try_recv().unwrap() {
            seqs.push(p.seq);
        }
        assert_eq!(seqs.len(), 100, "jitter must not lose traffic");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "50ms jitter over 100 sends should reorder something");
    }

    #[test]
    fn asymmetric_partition() {
        let net = SimNet::new(3);
        let (a, b) = (net.endpoint(), net.endpoint());
        net.block(a.addr, b.addr);
        a.send(b.addr, pdu(1, b"lost")).unwrap();
        b.send(a.addr, pdu(2, b"kept")).unwrap();
        net.advance(10_000);
        assert!(b.try_recv().unwrap().is_none(), "a→b is blocked");
        assert_eq!(a.try_recv().unwrap().unwrap().1.payload, b"kept", "b→a still works");
        net.unblock(a.addr, b.addr);
        a.send(b.addr, pdu(3, b"after-heal")).unwrap();
        net.advance(10_000);
        assert_eq!(b.try_recv().unwrap().unwrap().1.payload, b"after-heal");
    }

    #[test]
    fn partition_formed_midflight_eats_traffic() {
        let net = SimNet::new(4);
        let (a, b) = (net.endpoint(), net.endpoint());
        a.send(b.addr, pdu(1, b"inflight")).unwrap();
        net.block(a.addr, b.addr); // cable yanked while the PDU is flying
        net.advance(10_000);
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn crash_loses_inbox_and_inflight_restart_revives() {
        let net = SimNet::new(5);
        let (a, b) = (net.endpoint(), net.endpoint());
        a.send(b.addr, pdu(1, b"buffered")).unwrap();
        net.advance(10_000); // delivered into b's inbox
        a.send(b.addr, pdu(2, b"inflight")).unwrap();
        net.crash(b.addr);
        assert!(b.try_recv().is_err(), "crashed endpoint cannot receive");
        net.advance(10_000); // in-flight PDU hits a crashed receiver
        net.restart(b.addr);
        assert!(b.try_recv().unwrap().is_none(), "both PDUs were lost with the crash");
        // Sends to a live-again endpoint deliver normally.
        a.send(b.addr, pdu(3, b"fresh")).unwrap();
        net.advance(10_000);
        assert_eq!(b.try_recv().unwrap().unwrap().1.seq, 3);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let net = SimNet::with_faults(
            6,
            FaultSpec { latency_us: 100, jitter_us: 0, drop: 0.0, duplicate: 1.0 },
        );
        let (a, b) = (net.endpoint(), net.endpoint());
        a.send(b.addr, pdu(9, b"twice")).unwrap();
        net.advance(10_000);
        let mut n = 0;
        while let Some((_, p)) = b.try_recv().unwrap() {
            assert_eq!(p.seq, 9);
            n += 1;
        }
        assert_eq!(n, 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn drop_rate_loses_traffic_deterministically() {
        let net = SimNet::with_faults(
            8,
            FaultSpec { latency_us: 100, jitter_us: 0, drop: 0.5, duplicate: 0.0 },
        );
        let (a, b) = (net.endpoint(), net.endpoint());
        for i in 0..200u64 {
            a.send(b.addr, pdu(i, b"x")).unwrap();
        }
        net.advance(1_000_000);
        let mut n = 0;
        while b.try_recv().unwrap().is_some() {
            n += 1;
        }
        assert!(n > 50 && n < 150, "≈50% of 200 should survive, got {n}");
        assert_eq!(net.stats().dropped, 200 - n);
    }
}
