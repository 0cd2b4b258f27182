//! A deterministic, seeded, discrete-event network fabric that implements
//! the [`Transport`] trait — so the *real* router,
//! server, client, and node runtimes run unmodified inside a reproducible
//! simulated world (FoundationDB-style simulation testing).
//!
//! The fabric looks exactly like a message transport: endpoints
//! `send`/`recv_timeout`/`try_recv`, and virtual time advances while an
//! endpoint "waits". All nondeterminism is concentrated in one seeded
//! generator, so a single `u64` seed fixes every fault decision:
//!
//! * **delay / reorder** — per-PDU latency is `latency_us` plus a uniform
//!   jitter draw in `[0, jitter_us]`; unequal draws reorder deliveries;
//! * **drop / duplicate** — independent per-PDU Bernoulli draws;
//! * **links** — a directed pair given a [`LinkSpec`] leaves the
//!   fabric-wide fault model for its own: propagation latency,
//!   store-and-forward serialisation delay (bandwidth), loss, and
//!   delivered-PDU counters. This is the testbed substitute for the
//!   paper's EC2 and residential-uplink measurements (DESIGN.md,
//!   "Substitutions");
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
use gdp_wire::frame::MAX_FRAME;
use gdp_wire::Pdu;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
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

/// Characteristics of one directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// One-way propagation delay in microseconds.
    pub latency_us: u64,
    /// Serialization bandwidth in bits per second. `u64::MAX` means
    /// effectively infinite.
    pub bandwidth_bps: u64,
    /// Independent per-PDU drop probability in [0, 1).
    pub loss: f64,
}

impl LinkSpec {
    /// A symmetric LAN-ish link: 1 Gbps, 200 µs, lossless.
    pub fn lan() -> LinkSpec {
        LinkSpec { latency_us: 200, bandwidth_bps: 1_000_000_000, loss: 0.0 }
    }

    /// A wide-area link: 15 ms one way, 1 Gbps.
    pub fn wan() -> LinkSpec {
        LinkSpec { latency_us: 15 * MS, bandwidth_bps: 1_000_000_000, loss: 0.0 }
    }

    /// Residential downstream (paper §IX: "Internet bandwidth capped to
    /// 100/10 Mbps"): 100 Mbps, 10 ms.
    pub fn residential_down() -> LinkSpec {
        LinkSpec { latency_us: 10 * MS, bandwidth_bps: 100_000_000, loss: 0.0 }
    }

    /// Residential upstream: 10 Mbps, 10 ms.
    pub fn residential_up() -> LinkSpec {
        LinkSpec { latency_us: 10 * MS, bandwidth_bps: 10_000_000, loss: 0.0 }
    }

    /// Time to clock `bytes` onto the link (µs, rounded up).
    pub fn serialize_us(&self, bytes: usize) -> u64 {
        if self.bandwidth_bps == u64::MAX {
            return 0;
        }
        let bits = bytes as u128 * 8;
        (bits * 1_000_000).div_ceil(self.bandwidth_bps as u128) as u64
    }
}

struct Link {
    spec: LinkSpec,
    /// Earliest time the link's transmitter is free (store-and-forward).
    next_free: u64,
    delivered_pdus: u64,
    delivered_bytes: u64,
}

/// Errors from the simulated fabric.
#[derive(Debug)]
pub enum SimNetError {
    /// The address was never allocated by this fabric.
    NoSuchEndpoint(SimAddr),
    /// The calling endpoint is currently crashed.
    Crashed(SimAddr),
    /// The PDU's frame would exceed `MAX_FRAME` — the bound `TcpNet`
    /// enforces on egress, so both transports refuse the same PDUs.
    Oversized(usize),
}

impl std::fmt::Display for SimNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimNetError::NoSuchEndpoint(a) => write!(f, "no such sim endpoint: {a}"),
            SimNetError::Crashed(a) => write!(f, "sim endpoint {a} is crashed"),
            SimNetError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap of {MAX_FRAME}"),
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
    /// Directed pairs with their own link model (see [`LinkSpec`]).
    links: HashMap<(SimAddr, SimAddr), Link>,
    digest: [u8; 32],
    events: u64,
    stats: SimStats,
}

impl Inner {
    /// Folds one fabric event into the trace digest. A scheduling event
    /// (`S`, `U`) folds the PDU's header and length only: every scheduled
    /// copy ends in exactly one of the other events, and that one folds
    /// the payload — each copy's bytes are hashed once, not per event.
    fn fold(&mut self, tag: u8, at: u64, from: SimAddr, to: SimAddr, pdu: &Pdu) {
        let mut h = gdp_crypto::sha2::Sha256::new();
        h.update(&self.digest).update(&[tag, pdu.pdu_type as u8]);
        for word in [at, from as u64, to as u64, pdu.seq, pdu.payload.len() as u64] {
            h.update(&word.to_be_bytes());
        }
        h.update(pdu.src.as_bytes()).update(pdu.dst.as_bytes());
        if !matches!(tag, b'S' | b'U') {
            h.update(pdu.payload.as_slice());
        }
        self.digest = h.finalize();
        self.events += 1;
    }

    /// Schedules one copy of `pdu` leaving the sender at `depart`: over
    /// the pair's link when one is configured (queueing behind whatever
    /// the transmitter is still clocking out), else with the fabric-wide
    /// latency and jitter.
    fn schedule(&mut self, depart: u64, from: SimAddr, to: SimAddr, pdu: Pdu, tag: u8) {
        let at = if let Some(link) = self.links.get_mut(&(from, to)) {
            link.next_free = depart.max(link.next_free) + link.spec.serialize_us(pdu.wire_len());
            (link.next_free + link.spec.latency_us).max(self.now + 1)
        } else {
            let jitter = if self.faults.jitter_us > 0 {
                self.rng.gen_range(0..=self.faults.jitter_us)
            } else {
                0
            };
            depart + self.faults.latency_us.max(1) + jitter
        };
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
                    if let Some(link) = self.links.get_mut(&(ev.from, ev.to)) {
                        link.delivered_pdus += 1;
                        link.delivered_bytes += ev.pdu.wire_len() as u64;
                    }
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
                links: HashMap::new(),
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

    /// Gives `a ↔ b` its own link model, the same in both directions.
    pub fn connect(&self, a: SimAddr, b: SimAddr, spec: LinkSpec) {
        self.connect_directed(a, b, spec);
        self.connect_directed(b, a, spec);
    }

    /// Gives the single direction `from → to` its own link model
    /// (asymmetric links, e.g. residential 100 Mbps down / 10 Mbps up).
    /// Reconfiguring a link keeps its counters and transmit backlog.
    pub fn connect_directed(&self, from: SimAddr, to: SimAddr, spec: LinkSpec) {
        let mut inner = self.inner.lock();
        match inner.links.get_mut(&(from, to)) {
            Some(link) => link.spec = spec,
            None => {
                let link = Link { spec, next_free: 0, delivered_pdus: 0, delivered_bytes: 0 };
                inner.links.insert((from, to), link);
            }
        }
    }

    /// `(PDUs, bytes)` delivered so far over the configured link
    /// `from → to`; zero for a pair without one.
    pub fn link_delivered(&self, from: SimAddr, to: SimAddr) -> (u64, u64) {
        let inner = self.inner.lock();
        inner.links.get(&(from, to)).map_or((0, 0), |l| (l.delivered_pdus, l.delivered_bytes))
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
        self.send_after(to, pdu, 0)
    }

    /// [`SimEndpoint::send`] for a PDU that leaves this host `delay_us`
    /// from now — how a driver models the host's own service time.
    pub fn send_after(&self, to: SimAddr, pdu: Pdu, delay_us: u64) -> Result<(), SimNetError> {
        let mut inner = self.inner.lock();
        if matches!(inner.inboxes.get(self.addr), Some(None)) {
            return Err(SimNetError::Crashed(self.addr));
        }
        if to >= inner.inboxes.len() {
            return Err(SimNetError::NoSuchEndpoint(to));
        }
        if pdu.wire_len() > MAX_FRAME {
            return Err(SimNetError::Oversized(pdu.wire_len()));
        }
        // Send-time partition check (delivery re-checks, so a partition
        // formed mid-flight still eats the PDU — like yanking a cable).
        if inner.blocked.contains(&(self.addr, to)) {
            inner.stats.dropped += 1;
            let now = inner.now;
            inner.fold(b'P', now, self.addr, to, &pdu);
            return Ok(());
        }
        // A configured link brings its own loss and never duplicates.
        let (drop, duplicate) = match inner.links.get(&(self.addr, to)) {
            Some(link) => (link.spec.loss, 0.0),
            None => (inner.faults.drop, inner.faults.duplicate),
        };
        if drop > 0.0 && inner.rng.gen_bool(drop) {
            inner.stats.dropped += 1;
            let now = inner.now;
            inner.fold(b'X', now, self.addr, to, &pdu);
            return Ok(());
        }
        let depart = inner.now + delay_us;
        if duplicate > 0.0 && inner.rng.gen_bool(duplicate) {
            inner.stats.duplicated += 1;
            inner.schedule(depart, self.addr, to, pdu.clone(), b'U');
        }
        inner.schedule(depart, self.addr, to, pdu, b'S');
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

    /// One PDU over a link arrives after its serialisation delay plus the
    /// propagation latency; `serialize_us` is `⌈8·bytes·10⁶ / bps⌉`.
    #[test]
    fn link_delay_is_serialisation_plus_latency() {
        let specs = [
            LinkSpec::lan(),
            LinkSpec::wan(),
            LinkSpec::residential_up(),
            LinkSpec::residential_down(),
        ];
        // (bytes on the wire, µs at 1 Gbps, at 10 Mbps, at 100 Mbps)
        let expect =
            [(64, 1, 52, 6), (4096, 33, 3_277, 328), (16 << 20, 134_218, 13_421_773, 1_342_178)];
        for (bytes, gbps, up, down) in expect {
            let got: Vec<u64> = specs.iter().map(|s| s.serialize_us(bytes)).collect();
            assert_eq!(got, [gbps, gbps, up, down], "{bytes} bytes");
        }
        assert_eq!(
            LinkSpec { bandwidth_bps: u64::MAX, ..LinkSpec::lan() }.serialize_us(1 << 20),
            0
        );
        for spec in specs {
            let net = SimNet::new(1);
            let (a, b) = (net.endpoint(), net.endpoint());
            net.connect(a.addr, b.addr, spec);
            let sent = pdu(1, &[0u8; 4096]);
            let wire = sent.wire_len();
            a.send(b.addr, sent).unwrap();
            assert!(b.recv_timeout(Duration::from_secs(60)).unwrap().is_some());
            assert_eq!(net.now(), spec.serialize_us(wire) + spec.latency_us);
            assert_eq!(net.link_delivered(a.addr, b.addr), (1, wire as u64));
            assert_eq!(net.link_delivered(b.addr, a.addr), (0, 0));
        }
    }

    #[test]
    fn back_to_back_sends_queue_behind_the_transmitter() {
        let net = SimNet::new(1);
        let (a, b) = (net.endpoint(), net.endpoint());
        // 1 byte/µs, no latency: each PDU occupies the link for its length.
        net.connect(
            a.addr,
            b.addr,
            LinkSpec { latency_us: 0, bandwidth_bps: 8_000_000, loss: 0.0 },
        );
        let per_pdu = pdu(1, &[0u8; 1000]).wire_len() as u64;
        a.send(b.addr, pdu(1, &[0u8; 1000])).unwrap();
        a.send(b.addr, pdu(2, &[0u8; 1000])).unwrap();
        // A PDU that leaves the host later still waits for the backlog.
        a.send_after(b.addr, pdu(3, &[0u8; 1000]), 10).unwrap();
        let mut arrivals = Vec::new();
        while let Some((_, p)) = b.recv_timeout(Duration::from_secs(1)).unwrap() {
            arrivals.push((p.seq, net.now()));
        }
        assert_eq!(arrivals, [(1, per_pdu), (2, 2 * per_pdu), (3, 3 * per_pdu)]);
        // An idle link starts clocking when the PDU leaves the host.
        let t0 = net.now();
        a.send_after(b.addr, pdu(4, &[0u8; 1000]), 500).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(net.now(), t0 + 500 + per_pdu);
    }

    #[test]
    fn asymmetric_links_and_fabric_default_coexist() {
        let net = SimNet::new(1);
        let (home, cloud, other) = (net.endpoint(), net.endpoint(), net.endpoint());
        net.connect_directed(home.addr, cloud.addr, LinkSpec::residential_up());
        net.connect_directed(cloud.addr, home.addr, LinkSpec::residential_down());
        let t0 = net.now();
        home.send(cloud.addr, pdu(1, &[0u8; 1_000_000])).unwrap();
        cloud.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        let up = net.now() - t0;
        cloud.send(home.addr, pdu(2, &[0u8; 1_000_000])).unwrap();
        home.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        let down = net.now() - t0 - up;
        // 1 MB at 10 Mbps ≈ 0.8 s; at 100 Mbps ≈ 0.08 s.
        assert!(up > 7 * down, "up {up} down {down}");
        // A pair without a link keeps the fabric-wide model (500 µs flat).
        let t1 = net.now();
        home.send(other.addr, pdu(3, &[0u8; 1_000_000])).unwrap();
        other.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(net.now() - t1, 500);
    }

    #[test]
    fn same_seed_same_digest_with_lossy_links() {
        let run = |seed: u64| {
            let net = SimNet::new(seed);
            let (a, b) = (net.endpoint(), net.endpoint());
            net.connect(a.addr, b.addr, LinkSpec { loss: 0.5, ..LinkSpec::lan() });
            for i in 0..200 {
                a.send(b.addr, pdu(i, &[i as u8; 64])).unwrap();
                b.send(a.addr, pdu(i, &[i as u8])).unwrap();
            }
            net.advance(1_000_000);
            let (got, _) = net.link_delivered(a.addr, b.addr);
            assert!(got > 50 && got < 150, "≈50% of 200 should survive, got {got}");
            assert_eq!(net.stats().delivered + net.stats().dropped, 400);
            (net.trace_digest(), net.trace_events(), net.stats())
        };
        assert_eq!(run(42), run(42), "same seed must replay byte-identically");
        assert_ne!(run(42).0, run(43).0, "different seeds must diverge");
    }

    #[test]
    fn a_down_link_drops_and_counts() {
        let net = SimNet::new(9);
        let (a, b) = (net.endpoint(), net.endpoint());
        net.connect(a.addr, b.addr, LinkSpec::lan());
        net.partition(a.addr, b.addr);
        a.send(b.addr, pdu(1, b"lost")).unwrap();
        net.advance(10_000);
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!((net.stats().dropped, net.link_delivered(a.addr, b.addr)), (1, (0, 0)));
        net.heal(a.addr, b.addr);
        a.send(b.addr, pdu(2, b"kept")).unwrap();
        net.advance(10_000);
        assert_eq!(b.try_recv().unwrap().unwrap().1.seq, 2);
        assert_eq!(net.link_delivered(a.addr, b.addr).0, 1);
    }
}
