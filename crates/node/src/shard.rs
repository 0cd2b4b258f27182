//! Sharded forwarding engine for router-role `gdpd` nodes.
//!
//! The sans-I/O [`Router`] is single-threaded by design — that is what
//! keeps SimNet runs byte-for-byte replayable. A deployed router node,
//! however, can spread the *data plane* across cores without giving that
//! up: the event-loop thread keeps one **control** router (attach
//! handshakes, advertisements, lookups — everything that verifies
//! certificates and mutates routing state), and `N` worker shards each
//! own a plain `Router` instance that only ever sees forwarding traffic
//! for its slice of the name space.
//!
//! Partitioning is by destination name hash: names are SHA-256 outputs,
//! so the first 8 bytes are already uniformly distributed and
//! `name mod N` needs no further mixing. Because a name always maps to
//! the same shard, per-name FIB state never needs cross-shard
//! synchronization: the control router records every route install
//! ([`Router::record_installs`]) and each [`RouteInstall`] is mirrored to
//! the one shard that owns the name. Neighbor-down and expiry purges
//! broadcast to all shards.
//!
//! ## Run-to-completion data path
//!
//! PDUs never touch the event-loop thread. Each per-connection TCP
//! reader classifies frames with [`is_data_plane`] (the same predicate
//! `Router::handle_pdu_into` dispatches on) and stages data-plane PDUs
//! into a [`ShardBatcher`]; control-plane PDUs keep flowing to the event
//! loop. The batcher hands each shard a [`ShardBatch`] — up to
//! `batch_cap` PDUs in one channel send, so the per-PDU handoff cost
//! (channel lock + worker wakeup) is amortized across the whole batch.
//! A worker drains its batch to completion: decode already happened in
//! the reader, FIB lookup and egress happen on the worker, and egressed
//! PDUs go straight to the per-peer writer queue through a cached
//! [`PeerHandle`] — no shared lock anywhere on the per-PDU path.
//!
//! Two lanes reach each worker:
//!
//! * a **bounded** data lane carrying batches — a full lane stalls the
//!   staging reader (per-connection backpressure), never the event loop;
//! * an **unbounded** control lane carrying route-install mirrors,
//!   neighbor-down withdrawals, and expiry purges — mirrors can never be
//!   delayed behind queued data, so a data flood cannot stall route
//!   convergence (the lane is tiny: its rate is the control plane's).
//!
//! Egress addresses resolve through an epoch-snapshot [`NidMap`]: the
//! runtime (sole nid authority) installs a new copy-on-write snapshot
//! when a peer appears, and workers re-validate their cached snapshot
//! once per *batch* with a single atomic load.
//!
//! Each shard reports queue depth (scope `router-shard<i>`, gauge
//! `queue_depth`, in queued batches) so an operator can see skew; the
//! shared `router-shards` scope counts `batches_dispatched` and records
//! a `batch_occupancy` histogram (PDUs per batch — mean occupancy is
//! `sum/count`).

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::runtime::{NidMap, NidSnapshot};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use gdp_net::tcp::{PeerHandle, PeerSendError, TcpNet};
use gdp_obs::{Counter, Gauge, Histogram, Metrics};
use gdp_router::{Outbox, RouteInstall, Router, VerifiedRoute};
use gdp_wire::{Name, Pdu};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use gdp_router::is_data_plane;

/// PDUs per handoff batch on a `gdpd` router. Large enough to
/// amortize the channel send + wakeup to noise, small enough that a
/// batch is microseconds of worker time.
pub const DEFAULT_SHARD_BATCH: usize = 64;

/// Per-shard bounded data-lane depth, in *batches*. With the default
/// batch cap this bounds in-flight data at `64 × 64` PDUs per shard.
pub const SHARD_QUEUE_BATCHES: usize = 64;

/// Recycled batch buffers kept across the engine (bounded so a burst of
/// short-lived connections cannot hoard memory).
const POOL_CAP: usize = 256;

/// How long a worker waits on the data lane before re-checking the
/// control lane; bounds mirror latency when data traffic is idle.
const DATA_POLL: Duration = Duration::from_millis(1);

/// Backoff while a staging reader waits for space in a full data lane.
const FULL_LANE_BACKOFF: Duration = Duration::from_micros(50);

/// Which shard owns a name. Names are SHA-256 outputs, so the leading
/// 8 bytes are uniform and a plain modulus partitions evenly.
pub fn shard_of(name: &Name, shards: usize) -> usize {
    // `as_bytes` returns a `&[u8; NAME_LEN]`, so these indices are
    // compile-time in-bounds: no slicing, no fallible conversion.
    let b = name.as_bytes();
    let word = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    (word % shards.max(1) as u64) as usize
}

/// One handoff unit on a shard's data lane: a timestamp (sampled once at
/// flush) and the staged `(ingress nid, PDU)` pairs, in arrival order.
pub struct ShardBatch {
    /// Microseconds since the node epoch, stamped at flush.
    pub now: u64,
    /// Staged PDUs with their ingress neighbor ids, in arrival order.
    pub items: Vec<(usize, Pdu)>,
}

/// Where a shard worker puts forwarded PDUs. One port per worker, so
/// implementations can keep per-worker caches without locking.
pub trait EgressPort: Send {
    /// Queues `pdu` toward `addr`. Best-effort: a saturated or dead peer
    /// sheds, exactly as the transport's own send path does.
    fn send_to(&mut self, addr: SocketAddr, pdu: Pdu);
}

/// Factory handing each shard worker its own [`EgressPort`].
pub trait Egress: Send + Sync {
    /// Builds one port; called once per worker at engine start.
    fn port(&self) -> Box<dyn EgressPort>;
}

/// The production egress: each worker's port resolves a [`PeerHandle`]
/// per destination once and then enqueues straight onto the per-peer
/// writer queue, skipping the shared connection-pool lock per PDU.
pub struct NetEgress {
    net: TcpNet,
    drops: Counter,
}

impl NetEgress {
    /// Wraps the node's transport; `drops` counts PDUs shed because a
    /// peer's writer queue was saturated.
    pub fn new(net: TcpNet, drops: Counter) -> NetEgress {
        NetEgress { net, drops }
    }
}

impl Egress for NetEgress {
    fn port(&self) -> Box<dyn EgressPort> {
        Box::new(NetEgressPort {
            net: self.net.clone(),
            drops: self.drops.clone(),
            handles: HashMap::new(),
        })
    }
}

struct NetEgressPort {
    net: TcpNet,
    drops: Counter,
    handles: HashMap<SocketAddr, PeerHandle>,
}

impl EgressPort for NetEgressPort {
    fn send_to(&mut self, addr: SocketAddr, pdu: Pdu) {
        let handle = match self.handles.entry(addr) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => match self.net.peer_handle(addr) {
                Ok(h) => v.insert(h),
                Err(_) => return,
            },
        };
        match handle.try_send(pdu) {
            Ok(()) => {}
            // Writer saturated, or a frame the peer would reject (counted
            // again as `net.encode_rejected`): shed, as `TcpNet::send` would.
            Err(PeerSendError::Full | PeerSendError::Oversized) => self.drops.inc(),
            // Writer died (peer reconnecting): drop the stale handle and
            // go through the pool once, which respawns the writer.
            Err(PeerSendError::Gone(pdu)) => {
                self.handles.remove(&addr);
                let _ = self.net.send(addr, pdu);
            }
        }
    }
}

/// Control-lane messages (unbounded lane — senders never block).
enum CtrlMsg {
    /// Mirror of a control-router route install for a name this shard owns.
    Install { neighbor: usize, distance: u32, route: Box<VerifiedRoute>, now: u64 },
    /// A neighbor's transport died; withdraw its routes.
    NeighborDown(usize),
    /// Periodic expiry purge.
    Purge(u64),
    /// Drain the data lane and exit.
    Shutdown,
}

/// Everything batchers and the engine handle share: lanes, gauges, the
/// buffer pool, and the dispatch-side counters.
struct EngineCore {
    data_txs: Vec<Sender<ShardBatch>>,
    ctrl_txs: Vec<Sender<CtrlMsg>>,
    depth: Vec<Gauge>,
    pool_tx: Sender<Vec<(usize, Pdu)>>,
    pool_rx: Receiver<Vec<(usize, Pdu)>>,
    epoch: Instant,
    batch_cap: usize,
    /// Set by `shutdown`; staging readers drop instead of spinning on a
    /// lane whose worker has exited.
    closed: AtomicBool,
    batches_dispatched: Counter,
    batch_occupancy: Histogram,
}

impl EngineCore {
    /// Hands a staged buffer to shard `i`'s data lane, blocking (with
    /// backoff) while the lane is full: backpressure lands on the one
    /// staging reader, never on the event loop.
    fn push_batch(&self, i: usize, items: Vec<(usize, Pdu)>) {
        let occupancy = items.len() as u64;
        let mut batch = ShardBatch { now: self.epoch.elapsed().as_micros() as u64, items };
        let Some(tx) = self.data_txs.get(i) else { return };
        loop {
            match tx.try_send(batch) {
                Ok(()) => {
                    self.batches_dispatched.inc();
                    self.batch_occupancy.observe(occupancy);
                    if let Some(g) = self.depth.get(i) {
                        g.set(tx.len() as i64);
                    }
                    return;
                }
                Err(TrySendError::Full(b)) => {
                    if self.closed.load(Ordering::Relaxed) {
                        return;
                    }
                    batch = b;
                    std::thread::sleep(FULL_LANE_BACKOFF);
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }

    /// A cleared buffer from the recycle pool, or a fresh one.
    fn buffer(&self) -> Vec<(usize, Pdu)> {
        match self.pool_rx.try_recv() {
            Ok(v) => v,
            Err(_) => Vec::with_capacity(self.batch_cap),
        }
    }
}

/// A per-connection staging area: one pending buffer per shard, flushed
/// when it reaches the batch cap or when the connection's read loop goes
/// idle. Not shared — every TCP reader owns its own batcher, so staging
/// is lock-free and per-name arrival order is preserved (a name always
/// lands in the same shard's buffer, and buffers flush in FIFO order
/// into a FIFO lane).
pub struct ShardBatcher {
    core: Arc<EngineCore>,
    staged: Vec<Vec<(usize, Pdu)>>,
}

impl ShardBatcher {
    /// Stages one data-plane PDU from ingress neighbor `from`, flushing
    /// the owning shard's buffer if it reaches the batch cap.
    pub fn stage(&mut self, from: usize, pdu: Pdu) {
        let i = shard_of(&pdu.dst, self.staged.len());
        let Some(buf) = self.staged.get_mut(i) else { return };
        if buf.capacity() == 0 {
            *buf = self.core.buffer();
        }
        buf.push((from, pdu));
        if buf.len() >= self.core.batch_cap {
            self.flush_shard(i);
        }
    }

    /// Flushes every non-empty buffer; called when the reader has no
    /// more framed PDUs to decode, so a trickle is never held hostage
    /// waiting for a full batch.
    #[allow(clippy::indexing_slicing, reason = "i ranges over 0..self.staged.len()")]
    pub fn flush(&mut self) {
        for i in 0..self.staged.len() {
            if !self.staged[i].is_empty() {
                self.flush_shard(i);
            }
        }
    }

    fn flush_shard(&mut self, i: usize) {
        if let Some(buf) = self.staged.get_mut(i) {
            let items = std::mem::take(buf);
            self.core.push_batch(i, items);
        }
    }
}

impl Drop for ShardBatcher {
    fn drop(&mut self) {
        // A closing connection must not swallow staged PDUs.
        self.flush();
    }
}

/// Ingest-sink factory for the shard engine; see
/// [`ShardedEngine::ingest_factory`].
pub struct ShardIngest {
    core: Arc<EngineCore>,
    nids: Arc<NidMap<SocketAddr>>,
    router_name: Name,
}

impl gdp_net::IngestSinkFactory for ShardIngest {
    fn make(&self) -> Box<dyn gdp_net::IngestSink> {
        Box::new(ShardIngestSink {
            batcher: ShardBatcher {
                core: Arc::clone(&self.core),
                staged: (0..self.core.data_txs.len()).map(|_| Vec::new()).collect(),
            },
            nids: Arc::clone(&self.nids),
            router_name: self.router_name,
            peer_nid: None,
        })
    }
}

/// One connection's reader-side sink: classify with [`is_data_plane`],
/// resolve the peer's neighbor id once (cached for the connection's
/// life), and stage into the owning shard. Control-plane PDUs pass
/// through to the shared receive queue untouched.
struct ShardIngestSink {
    batcher: ShardBatcher,
    nids: Arc<NidMap<SocketAddr>>,
    router_name: Name,
    /// The connection's `(peer, nid)` binding, resolved on first use.
    /// The shared [`NidMap`] allocates, so reader-side ids agree with
    /// the runtime's — both sides key by the peer's advertised address.
    peer_nid: Option<(SocketAddr, usize)>,
}

impl gdp_net::IngestSink for ShardIngestSink {
    fn offer(&mut self, from: SocketAddr, pdu: Pdu) -> Option<Pdu> {
        if !is_data_plane(&pdu, &self.router_name) {
            return Some(pdu);
        }
        let nid = match self.peer_nid {
            Some((addr, nid)) if addr == from => nid,
            _ => {
                let nid = self.nids.nid(from);
                self.peer_nid = Some((from, nid));
                nid
            }
        };
        self.batcher.stage(nid, pdu);
        None
    }

    fn idle(&mut self) {
        self.batcher.flush();
    }
}

/// One shard worker's state: its router replica, the reused outbox, the
/// cached nid→addr snapshot, and its private egress port. Public so the
/// benchmark harness can drive `process_batch` directly and measure the
/// worker stage in isolation.
pub struct ShardState {
    router: Router,
    out: Outbox,
    nids: Arc<NidMap<SocketAddr>>,
    snap: NidSnapshot<SocketAddr>,
    port: Box<dyn EgressPort>,
}

impl ShardState {
    /// Builds one worker's state around an already-seeded router.
    pub fn new(
        router: Router,
        nids: Arc<NidMap<SocketAddr>>,
        port: Box<dyn EgressPort>,
    ) -> ShardState {
        ShardState { router, out: Vec::new(), nids, snap: NidSnapshot::default(), port }
    }

    /// Runs one batch to completion: refresh the address snapshot once
    /// (a single atomic load when nothing changed), then forward every
    /// PDU and egress its outbox straight to the port. No per-PDU locks,
    /// no per-PDU allocation.
    pub fn process_batch(&mut self, batch: &mut ShardBatch) {
        self.nids.refresh(&mut self.snap);
        for (from, pdu) in batch.items.drain(..) {
            self.out.clear();
            self.router.handle_pdu_into(batch.now, from, pdu, &mut self.out);
            for (nid, pdu) in self.out.drain(..) {
                if let Some(addr) = self.snap.addr(nid) {
                    self.port.send_to(*addr, pdu);
                }
            }
        }
    }

    fn apply_ctrl(&mut self, msg: CtrlMsg) -> bool {
        match msg {
            CtrlMsg::Install { neighbor, distance, route, now } => {
                self.router.install_verified(neighbor, distance, &route, now);
                false
            }
            CtrlMsg::NeighborDown(nid) => {
                self.router.neighbor_down(nid);
                false
            }
            CtrlMsg::Purge(now) => {
                self.router.purge_expired(now);
                false
            }
            CtrlMsg::Shutdown => true,
        }
    }
}

/// The running shard pool: the shared core (lanes, pool, counters) and
/// the worker join handles (joined on [`ShardedEngine::shutdown`]).
pub struct ShardedEngine {
    core: Arc<EngineCore>,
    nids: Arc<NidMap<SocketAddr>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardedEngine {
    /// Spawns `shards` workers, each owning a `Router` built from the
    /// *same* seed and label as the control router (identical identity —
    /// shard-emitted Error PDUs carry the node's router name) but
    /// registering metrics under its own `router-shard<i>` scope.
    ///
    /// `nids` is the runtime's peer table (shared, epoch-snapshot);
    /// `epoch` is the node's clock origin, so batch timestamps line up
    /// with event-loop timestamps.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        shards: usize,
        batch_cap: usize,
        seed: &[u8; 32],
        label: &str,
        metrics: &Metrics,
        nids: Arc<NidMap<SocketAddr>>,
        egress: Arc<dyn Egress>,
        epoch: Instant,
    ) -> ShardedEngine {
        let shards = shards.max(1);
        let batch_cap = batch_cap.max(1);
        let shared = metrics.scope("router-shards");
        let (pool_tx, pool_rx) = bounded::<Vec<(usize, Pdu)>>(POOL_CAP);
        let mut data_txs = Vec::with_capacity(shards);
        let mut ctrl_txs = Vec::with_capacity(shards);
        let mut depth = Vec::with_capacity(shards);
        let mut lanes = Vec::with_capacity(shards);
        for i in 0..shards {
            let (dtx, drx) = bounded::<ShardBatch>(SHARD_QUEUE_BATCHES);
            let (ctx, crx) = unbounded::<CtrlMsg>();
            data_txs.push(dtx);
            ctrl_txs.push(ctx);
            let scope = metrics.scope(&format!("router-shard{i}"));
            depth.push(scope.gauge("queue_depth"));
            lanes.push((drx, crx, scope));
        }
        let core = Arc::new(EngineCore {
            data_txs,
            ctrl_txs,
            depth,
            pool_tx,
            pool_rx,
            epoch,
            batch_cap,
            closed: AtomicBool::new(false),
            batches_dispatched: shared.counter("batches_dispatched"),
            batch_occupancy: shared.histogram("batch_occupancy"),
        });
        let mut workers = Vec::with_capacity(shards);
        for (i, (data_rx, ctrl_rx, scope)) in lanes.into_iter().enumerate() {
            let router = Router::from_seed_with_obs(seed, label, &scope);
            let state = ShardState::new(router, Arc::clone(&nids), egress.port());
            let worker_core = Arc::clone(&core);
            #[allow(
                clippy::expect_used,
                reason = "runs once at engine construction, before the data plane is live; a node that cannot spawn its workers cannot serve at all"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("gdp-shard-{i}"))
                .spawn(move || shard_worker(state, data_rx, ctrl_rx, worker_core, i))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardedEngine { core, nids, workers }
    }

    /// Benchmark harness: a pool with *unbounded* data lanes and no
    /// worker threads — staged batches simply accumulate. Staging into
    /// it measures the dispatch stage (batcher, shard hash, batched
    /// channel enqueue, counters) in complete isolation: no forwarding
    /// work and no consumer competing for the driver's core. The fig6
    /// sharded ablation in `gdp-bench` times its dispatch stage on it;
    /// the lanes' receivers are handed to the caller to drain.
    #[doc(hidden)]
    pub fn start_unconsumed(
        shards: usize,
        batch_cap: usize,
        metrics: &Metrics,
        nids: Arc<NidMap<SocketAddr>>,
        epoch: Instant,
    ) -> (ShardedEngine, Vec<Receiver<ShardBatch>>) {
        let shards = shards.max(1);
        let batch_cap = batch_cap.max(1);
        let shared = metrics.scope("router-shards");
        let (pool_tx, pool_rx) = bounded::<Vec<(usize, Pdu)>>(POOL_CAP);
        let mut data_txs = Vec::with_capacity(shards);
        let mut ctrl_txs = Vec::with_capacity(shards);
        let mut depth = Vec::with_capacity(shards);
        let mut data_rxs = Vec::with_capacity(shards);
        for i in 0..shards {
            let (dtx, drx) = unbounded::<ShardBatch>();
            let (ctx, _crx) = unbounded::<CtrlMsg>();
            data_txs.push(dtx);
            ctrl_txs.push(ctx);
            depth.push(metrics.scope(&format!("router-shard{i}")).gauge("queue_depth"));
            data_rxs.push(drx);
        }
        let core = Arc::new(EngineCore {
            data_txs,
            ctrl_txs,
            depth,
            pool_tx,
            pool_rx,
            epoch,
            batch_cap,
            closed: AtomicBool::new(false),
            batches_dispatched: shared.counter("batches_dispatched"),
            batch_occupancy: shared.histogram("batch_occupancy"),
        });
        (ShardedEngine { core, nids, workers: Vec::new() }, data_rxs)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.data_txs.len()
    }

    /// A fresh per-connection staging batcher. Every TCP reader gets its
    /// own; they share only the lanes and the buffer pool.
    pub fn batcher(&self) -> ShardBatcher {
        ShardBatcher {
            core: Arc::clone(&self.core),
            staged: (0..self.shards()).map(|_| Vec::new()).collect(),
        }
    }

    /// The per-connection ingest classifier installed on the transport
    /// ([`gdp_net::TcpNet::set_ingest_sink`]): readers classify with the
    /// router's own dispatch predicate and stage data-plane PDUs
    /// straight into the shard lanes, so the event loop only ever sees
    /// control traffic.
    pub fn ingest_factory(&self, router_name: Name) -> ShardIngest {
        ShardIngest { core: Arc::clone(&self.core), nids: Arc::clone(&self.nids), router_name }
    }

    /// Mirrors one control-router route install into the owning shard.
    /// Never blocks: the control lane is unbounded, so a data flood that
    /// fills every data lane cannot stall route convergence.
    pub fn mirror_install(&self, install: RouteInstall, now: u64) {
        let i = shard_of(&install.route.name, self.core.ctrl_txs.len());
        if let Some(tx) = self.core.ctrl_txs.get(i) {
            let _ = tx.send(CtrlMsg::Install {
                neighbor: install.neighbor,
                distance: install.distance,
                route: Box::new(install.route),
                now,
            });
        }
    }

    /// Broadcasts a neighbor death (route withdrawal) to every shard.
    pub fn neighbor_down(&self, nid: usize) {
        for tx in &self.core.ctrl_txs {
            let _ = tx.send(CtrlMsg::NeighborDown(nid));
        }
    }

    /// Broadcasts the periodic expiry purge.
    pub fn purge(&self, now: u64) {
        for tx in &self.core.ctrl_txs {
            let _ = tx.send(CtrlMsg::Purge(now));
        }
    }

    /// Stops the pool: marks the core closed (staging readers shed
    /// instead of spinning), tells every worker to drain its data lane
    /// and exit, and joins them.
    pub fn shutdown(self) {
        self.core.closed.store(true, Ordering::SeqCst);
        for tx in &self.core.ctrl_txs {
            let _ = tx.send(CtrlMsg::Shutdown);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// One shard worker: control lane first (mirrors must never wait behind
/// queued data), then up to one data batch, run to completion. The 1 ms
/// data-lane timeout bounds mirror latency when traffic is idle.
fn shard_worker(
    mut state: ShardState,
    data_rx: Receiver<ShardBatch>,
    ctrl_rx: Receiver<CtrlMsg>,
    core: Arc<EngineCore>,
    shard: usize,
) {
    loop {
        while let Ok(msg) = ctrl_rx.try_recv() {
            if state.apply_ctrl(msg) {
                // Shutdown: run whatever data is already queued, then exit.
                while let Ok(mut batch) = data_rx.try_recv() {
                    state.process_batch(&mut batch);
                }
                return;
            }
        }
        match data_rx.recv_timeout(DATA_POLL) {
            Ok(mut batch) => {
                if let Some(g) = core.depth.get(shard) {
                    g.set(data_rx.len() as i64);
                }
                state.process_batch(&mut batch);
                // Return the drained buffer to the recycle pool.
                let _ = core.pool_tx.try_send(batch.items);
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_cert::identity::{PrincipalId, PrincipalKind};
    use gdp_router::Attacher;
    use gdp_wire::PduType;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for i in 0..64u8 {
            let name = Name::from_content(&[i]);
            let s = shard_of(&name, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(&name, 4));
        }
        assert_eq!(shard_of(&Name::from_content(b"x"), 1), 0);
    }

    #[test]
    fn shard_of_spreads_names() {
        let shards = 4;
        let mut buckets = vec![0usize; shards];
        for i in 0..256u16 {
            buckets[shard_of(&Name::from_content(&i.to_le_bytes()), shards)] += 1;
        }
        // SHA-256-uniform names must not collapse onto few shards.
        assert!(buckets.iter().all(|&b| b > 256 / shards / 4), "skewed: {buckets:?}");
    }

    #[test]
    fn data_plane_predicate_mirrors_router_dispatch() {
        let me = Name::from_content(b"router");
        let other = Name::from_content(b"elsewhere");
        let mk = |t: PduType, dst: Name| Pdu {
            pdu_type: t,
            src: Name::from_content(b"src"),
            dst,
            seq: 1,
            payload: gdp_wire::Bytes::new(),
        };
        // Consumed by the control router:
        assert!(!is_data_plane(&mk(PduType::Advertise, me), &me));
        assert!(!is_data_plane(&mk(PduType::Lookup, me), &me));
        assert!(!is_data_plane(&mk(PduType::Lookup, Name::ZERO), &me));
        assert!(!is_data_plane(&mk(PduType::RouterControl, Name::ZERO), &me));
        // Forwarded (shard-eligible):
        assert!(is_data_plane(&mk(PduType::Data, other), &me));
        assert!(is_data_plane(&mk(PduType::Data, me), &me));
        assert!(is_data_plane(&mk(PduType::Error, other), &me));
        assert!(is_data_plane(&mk(PduType::Advertise, other), &me));
        assert!(is_data_plane(&mk(PduType::Lookup, other), &me));
    }

    /// An egress that parks inside `send_to` until released — simulates
    /// a wedged downstream so the data lane can be filled end to end.
    struct StallEgress {
        release: Arc<AtomicBool>,
        sent: Arc<AtomicU64>,
    }

    impl Egress for StallEgress {
        fn port(&self) -> Box<dyn EgressPort> {
            Box::new(StallPort { release: Arc::clone(&self.release), sent: Arc::clone(&self.sent) })
        }
    }

    struct StallPort {
        release: Arc<AtomicBool>,
        sent: Arc<AtomicU64>,
    }

    impl EgressPort for StallPort {
        fn send_to(&mut self, _addr: SocketAddr, _pdu: Pdu) {
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            self.sent.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Regression for the control-stall bug: with a single bounded lane
    /// per shard (the old design), `mirror_install` blocked behind a
    /// full data queue, so a data flood froze route convergence. The
    /// control lane is now unbounded and separate: mirroring must return
    /// immediately even while the data lane is wedged solid.
    #[test]
    fn mirror_install_never_blocks_behind_full_data_lane() {
        let release = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));
        let egress =
            Arc::new(StallEgress { release: Arc::clone(&release), sent: Arc::clone(&sent) });
        let metrics = Metrics::new();
        let nids = Arc::new(NidMap::default());
        let peer: SocketAddr = "127.0.0.1:19999".parse().unwrap();
        let from = nids.nid(peer);
        let engine = ShardedEngine::start(
            1,
            1, // batch cap 1: every PDU is its own batch
            &[21u8; 32],
            "stall",
            &metrics,
            Arc::clone(&nids),
            egress,
            Instant::now(),
        );

        // No route for `dst` and no parent: each Data PDU makes the
        // worker emit a no-route Error back to `from`, whose address
        // resolves — so the worker parks inside the stalled egress, and
        // every further batch queues. Stage exactly one more PDU than
        // the lane holds: worker (1, parked) + lane (SHARD_QUEUE_BATCHES).
        let dst = Name::from_content(b"nowhere");
        let mut batcher = engine.batcher();
        for seq in 0..(SHARD_QUEUE_BATCHES as u64 + 1) {
            batcher.stage(from, Pdu::data(Name::ZERO, dst, seq, vec![0u8; 8]));
        }

        // The data lane is now full and its worker is wedged. A route
        // mirror must still land promptly.
        let mut control = Router::from_seed(&[22u8; 32], "stall-control");
        control.record_installs(true);
        let srv = PrincipalId::from_seed(PrincipalKind::Server, &[23u8; 32], "stall-srv");
        let mut attacher = Attacher::new(srv, control.name(), vec![], 1 << 50);
        gdp_router::attach_directly(&mut control, 3, &mut attacher, 0).expect("attach");
        let installs = control.drain_installs();
        assert!(!installs.is_empty(), "attach recorded no installs");

        let started = Instant::now();
        for install in installs {
            engine.mirror_install(install, 0);
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "mirror_install stalled behind the data lane: {:?}",
            started.elapsed()
        );

        release.store(true, Ordering::SeqCst);
        engine.shutdown();
        // Every staged PDU produced exactly one Error egress.
        assert_eq!(sent.load(Ordering::SeqCst), SHARD_QUEUE_BATCHES as u64 + 1);
    }
}
