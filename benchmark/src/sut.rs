//! The system under test: the only file that names `gdp::*` items.
//!
//! Everything else in the benchmark talks to the product through the types
//! here, and this file in turn prefers the product's most stable surfaces:
//! node configs are built as *text* and parsed, handles come from plain
//! constructors and facade re-exports. A deletion or rename inside the
//! product therefore breaks (at most) this file.

use gdp::capsule::{CapsuleMetadata, CapsuleWriter, MetadataBuilder, PointerStrategy};
use gdp::cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp::client::{ClientEvent, GdpClient, VerifiedRead};
use gdp::crypto::hmac::hmac_sha256;
use gdp::crypto::{sha256, SigningKey};
use gdp::net::tcp::{TcpNet, TcpNetConfig};
use gdp::node::{self, HostSpec, NodeConfig, NodeHandle, NodeRuntime, FOREVER};
use gdp::router::{AttachStep, Attacher};
use gdp::server::{AckMode, DataMsg, ReadResult, ReadTarget};
use gdp::store::{Backing, CapsuleStore, FsyncPolicy, StorageEngine};
use gdp::wire::frame::{decode_frame, encode_frame, MAX_FRAME};
use gdp::wire::{PduType, Wire};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use gdp::wire::{Name, Pdu};

/// Storage replicas per capsule (every capsule lives on all of them).
pub const REPLICAS: usize = 3;

/// The durability policy under test, as config text.
pub const FSYNC: &str = "batch(5)";

/// A fatal benchmark error, as text.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---- identities and capsules ---------------------------------------------

/// One DataCapsule of the workload: its signed metadata and writer key.
#[derive(Clone)]
pub struct CapsuleSpec {
    owner: SigningKey,
    writer: SigningKey,
    meta: CapsuleMetadata,
}

impl CapsuleSpec {
    pub fn new(owner_seed: &[u8; 32], writer_seed: &[u8; 32], label: &str) -> CapsuleSpec {
        let owner = SigningKey::from_seed(owner_seed);
        let writer = SigningKey::from_seed(writer_seed);
        let meta = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", label)
            .sign(&owner);
        CapsuleSpec { owner, writer, meta }
    }

    pub fn name(&self) -> Name {
        self.meta.name()
    }
}

/// The identity seeds of the four nodes.
#[derive(Clone)]
pub struct NodeSeeds {
    pub router: [u8; 32],
    pub storage: [[u8; 32]; REPLICAS],
}

const ROUTER_LABEL: &str = "bench-router";

fn storage_label(i: usize) -> String {
    format!("bench-storage-{i}")
}

/// The server identity a storage node derives from its config seed.
fn server_identity(seed: &[u8; 32], label: &str) -> PrincipalId {
    let mut s = *seed;
    s[0] ^= 0x5a;
    PrincipalId::from_seed(PrincipalKind::Server, &s, label)
}

fn router_config_text(seeds: &NodeSeeds) -> String {
    format!(
        "role = router\nlisten = 127.0.0.1:0\nseed = {}\nlabel = {ROUTER_LABEL}\n",
        hex(&seeds.router)
    )
}

/// Config text of storage node `i`: segmented engine, `fsync = batch(5)`,
/// engine-default cache and segment sizes, every capsule hosted with the
/// other two replicas as peers.
fn storage_config_text(
    seeds: &NodeSeeds,
    i: usize,
    router_addr: SocketAddr,
    router_name: Name,
    data_dir: &Path,
    capsules: &[CapsuleSpec],
) -> String {
    let ids: Vec<PrincipalId> =
        (0..REPLICAS).map(|j| server_identity(&seeds.storage[j], &storage_label(j))).collect();
    let mut text = format!(
        "role = storage\nlisten = 127.0.0.1:0\nseed = {}\nlabel = {}\npeer = {router_addr}\n\
         router = {}\ndata_dir = {}\nstore_engine = segmented\nfsync = {FSYNC}\n",
        hex(&seeds.storage[i]),
        storage_label(i),
        router_name.to_hex(),
        data_dir.display(),
    );
    for c in capsules {
        let spec = HostSpec {
            metadata: c.meta.clone(),
            chain: ServingChain::direct(
                AdCert::issue(&c.owner, c.name(), ids[i].name(), false, Scope::Global, FOREVER),
                ids[i].principal().clone(),
            ),
            peers: (0..REPLICAS).filter(|j| *j != i).map(|j| ids[j].name()).collect(),
        };
        text.push_str(&format!("host = {}\n", spec.render()));
    }
    text
}

fn parse_config(text: &str) -> Res<NodeConfig> {
    NodeConfig::parse(text).map_err(err("node config"))
}

// ---- the live cluster ----------------------------------------------------

/// Registry values of one node at one instant: counters by
/// `scope.name`, histograms as `scope.name.count` / `scope.name.sum`.
pub type NodeCounters = BTreeMap<String, u64>;

/// Registry values of the whole cluster.
#[derive(Clone, Default)]
pub struct Snapshot {
    pub router: NodeCounters,
    pub storage: Vec<NodeCounters>,
}

impl Snapshot {
    /// Sum of `key` over the storage nodes.
    pub fn storage_sum(&self, key: &str) -> u64 {
        self.storage.iter().map(|n| n.get(key).copied().unwrap_or(0)).sum()
    }

    pub fn router(&self, key: &str) -> u64 {
        self.router.get(key).copied().unwrap_or(0)
    }

    /// `self - earlier`, per key.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let sub = |now: &NodeCounters, then: &NodeCounters| {
            now.iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(then.get(k).copied().unwrap_or(0))))
                .collect()
        };
        Snapshot {
            router: sub(&self.router, &earlier.router),
            storage: self
                .storage
                .iter()
                .enumerate()
                .map(|(i, n)| sub(n, earlier.storage.get(i).unwrap_or(&NodeCounters::new())))
                .collect(),
        }
    }
}

const HISTOGRAMS: [(&str, &str); 3] =
    [("store", "fsync_us"), ("store", "fsync_batch_entries"), ("node", "tick_us")];

fn node_counters(node: &NodeHandle) -> NodeCounters {
    let m = node.metrics();
    let mut out: NodeCounters =
        m.counters().into_iter().map(|((scope, name), v)| (format!("{scope}.{name}"), v)).collect();
    for (scope, name) in HISTOGRAMS {
        if let Some(h) = m.histogram_snapshot(scope, name) {
            out.insert(format!("{scope}.{name}.count"), h.count);
            out.insert(format!("{scope}.{name}.sum"), h.sum);
        }
    }
    out
}

/// Router + three storage nodes, in-process, on loopback TCP.
pub struct Cluster {
    root: PathBuf,
    router: Option<NodeHandle>,
    router_addr: SocketAddr,
    router_name: Name,
    storage: Vec<NodeHandle>,
    storage_texts: Vec<String>,
}

impl Cluster {
    /// Starts the cluster with its data under `root` (created here,
    /// removed when the cluster is dropped).
    pub fn start(root: &Path, seeds: &NodeSeeds, capsules: &[CapsuleSpec]) -> Res<Cluster> {
        std::fs::create_dir_all(root).map_err(err("create data root"))?;
        let router =
            node::start(parse_config(&router_config_text(seeds))?).map_err(err("start router"))?;
        let router_addr = router.local_addr();
        let router_name = router.router_name().ok_or("router node has no router name")?;
        let storage_texts = (0..REPLICAS)
            .map(|i| {
                let dir = root.join(format!("s{i}"));
                storage_config_text(seeds, i, router_addr, router_name, &dir, capsules)
            })
            .collect();
        let mut cluster = Cluster {
            root: root.to_path_buf(),
            router: Some(router),
            router_addr,
            router_name,
            storage: Vec::new(),
            storage_texts,
        };
        cluster.start_storage()?;
        Ok(cluster)
    }

    fn start_storage(&mut self) -> Res<()> {
        for text in &self.storage_texts {
            self.storage.push(node::start(parse_config(text)?).map_err(err("start storage"))?);
        }
        Ok(())
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.router_addr
    }

    pub fn router_name(&self) -> Name {
        self.router_name
    }

    /// Blocks until the router has accepted `adverts` advertisements in
    /// total (each storage node attaches once per start).
    pub fn wait_adverts(&self, adverts: u64, timeout: Duration) -> Res<()> {
        let router = self.router.as_ref().ok_or("cluster stopped")?;
        let deadline = Instant::now() + timeout;
        while router.metrics().counter_value("router", "adverts_accepted") < adverts {
            if Instant::now() >= deadline {
                return Err(format!("storage nodes did not attach within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            router: self.router.as_ref().map(node_counters).unwrap_or_default(),
            storage: self.storage.iter().map(node_counters).collect(),
        }
    }

    /// Stops the three storage nodes (the router keeps running).
    pub fn stop_storage(&mut self) {
        for n in self.storage.drain(..) {
            n.stop();
        }
    }

    /// Restarts the storage nodes on their old `data_dir`s.
    pub fn restart_storage(&mut self) -> Res<()> {
        self.start_storage()
    }

    /// Bytes in regular files under the three `data_dir`s.
    pub fn data_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }

    fn shutdown(&mut self) {
        self.stop_storage();
        if let Some(r) = self.router.take() {
            r.stop();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- the client side -----------------------------------------------------

/// Transport counters of one client connection.
#[derive(Clone, Copy, Default)]
pub struct ConnStats {
    pub frames_sent: u64,
    pub frames_batched: u64,
}

/// One client connection: a `TcpNet` endpoint dialled to the router.
pub struct Conn {
    net: TcpNet,
    router_addr: SocketAddr,
    router_name: Name,
    epoch: Instant,
}

impl Conn {
    pub fn open(router_addr: SocketAddr, router_name: Name) -> Res<Conn> {
        let cfg =
            TcpNetConfig { poll_interval: Duration::from_millis(5), ..TcpNetConfig::default() };
        let net = TcpNet::bind_with("127.0.0.1:0".parse().expect("literal addr"), cfg)
            .map_err(err("bind client socket"))?;
        Ok(Conn { net, router_addr, router_name, epoch: Instant::now() })
    }

    pub fn send(&self, pdu: Pdu) -> Res<()> {
        self.net.send(self.router_addr, pdu).map_err(err("send"))
    }

    pub fn recv(&self, timeout: Duration) -> Res<Option<Pdu>> {
        Ok(self.net.recv_timeout(timeout).map_err(err("recv"))?.map(|(_, pdu)| pdu))
    }

    /// Microseconds since the connection opened (the client core's clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn stats(&self) -> ConnStats {
        let s = self.net.stats();
        ConnStats { frames_sent: s.pdus_sent, frames_batched: s.egress_batched_frames }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.net.shutdown();
    }
}

/// A verified record as the application sees it.
pub struct Rec {
    pub seq: u64,
    body: gdp::wire::Bytes,
}

impl Rec {
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }
}

/// What a response PDU meant to the client core.
pub enum Event {
    SessionReady,
    Acked {
        seq: u64,
    },
    Read {
        request_seq: u64,
        records: Vec<Rec>,
    },
    /// A response failed client-side verification: always a failure,
    /// never a retry.
    VerificationFailed(String),
    /// Unreachable, server error, shed, or timed out: the request was not
    /// served.
    NotServed(String),
}

#[derive(Clone, Copy, Debug)]
pub enum Ack {
    Local,
    Quorum1,
}

#[derive(Clone, Copy, Debug)]
pub enum Read {
    Proof(u64),
    Range(u64, u64),
}

impl Read {
    /// First and last seq asked for.
    pub fn span(self) -> (u64, u64) {
        match self {
            Read::Proof(seq) => (seq, seq),
            Read::Range(a, b) => (a, b),
        }
    }
}

/// One client principal: the product's sans-I/O verifying client core.
pub struct Client {
    core: GdpClient,
}

impl Client {
    pub fn new(seed: &[u8; 32], label: &str) -> Client {
        Client { core: GdpClient::from_seed(seed, label) }
    }

    /// The attach handshake's first PDU and the state machine that
    /// finishes it (see [`Client::attach_step`]).
    pub fn attach_begin(&self, router_name: Name) -> (Attach, Pdu) {
        let a = Attacher::new(self.core.principal_id().clone(), router_name, Vec::new(), FOREVER);
        let hello = a.hello();
        (Attach(a), hello)
    }

    /// Runs the secure-advertisement handshake over `conn`.
    pub fn attach(&mut self, conn: &Conn, timeout: Duration) -> Res<()> {
        let (mut attach, hello) = self.attach_begin(conn.router_name);
        conn.send(hello)?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("attach timed out".into());
            }
            let Some(pdu) = conn.recv(left)? else { continue };
            match attach.step(&pdu)? {
                AttachProgress::Send(reply) => conn.send(reply)?,
                AttachProgress::Done => return Ok(()),
                AttachProgress::Ignored => {}
            }
        }
    }

    pub fn track(&mut self, capsule: &CapsuleSpec) -> Res<()> {
        self.core.track_capsule(&capsule.meta).map_err(err("track capsule"))
    }

    /// Registers this client as the capsule's writer (skip-list pointers).
    pub fn register_writer(&mut self, capsule: &CapsuleSpec) -> Res<()> {
        self.core
            .register_writer(&capsule.meta, capsule.writer.clone(), PointerStrategy::SkipList)
            .map_err(err("register writer"))
    }

    pub fn session_pdu(&mut self, capsule: Name) -> Pdu {
        self.core.session_init(capsule)
    }

    /// Establishes the MAC session, retrying while the capsule is not yet
    /// routable.
    pub fn open_session(&mut self, conn: &Conn, capsule: Name, timeout: Duration) -> Res<()> {
        let deadline = Instant::now() + timeout;
        loop {
            conn.send(self.session_pdu(capsule))?;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err("session timed out".into());
                }
                let Some(pdu) = conn.recv(left)? else { continue };
                match self.on_pdu(conn.now_us(), pdu).into_iter().next() {
                    Some(Event::SessionReady) => return Ok(()),
                    Some(Event::VerificationFailed(r)) => return Err(format!("session: {r}")),
                    Some(Event::NotServed(_)) => break,
                    _ => {}
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Signs the next record of `capsule` and wraps it in an append
    /// request; returns the PDU and the record's sequence number.
    pub fn append_pdu(&mut self, capsule: Name, body: &[u8], ack: Ack) -> Res<(Pdu, u64)> {
        let mode = match ack {
            Ack::Local => AckMode::Local,
            Ack::Quorum1 => AckMode::Quorum(1),
        };
        // Wall-clock timestamps are not part of the proof; 0 keeps the
        // generated requests a pure function of the seed.
        let (pdu, record) = self.core.append(capsule, body, 0, mode).map_err(err("append"))?;
        Ok((pdu, record.header.seq))
    }

    /// Builds a read request; the PDU's `seq` identifies the answer.
    pub fn read_pdu(&mut self, capsule: Name, read: Read) -> Pdu {
        let target = match read {
            Read::Proof(seq) => ReadTarget::ProofOf(seq),
            Read::Range(a, b) => ReadTarget::Range(a, b),
        };
        self.core.read(capsule, target)
    }

    /// Feeds a response through the verifying core.
    pub fn on_pdu(&mut self, now_us: u64, pdu: Pdu) -> Vec<Event> {
        self.core.handle_pdu(now_us, pdu).into_iter().filter_map(event_of).collect()
    }

    /// Expires requests older than the core's request timeout.
    pub fn sweep(&mut self, now_us: u64) -> Vec<Event> {
        self.core.sweep_timeouts(now_us).into_iter().filter_map(event_of).collect()
    }
}

fn event_of(ev: ClientEvent) -> Option<Event> {
    let rec = |r: gdp::capsule::Record| Rec { seq: r.header.seq, body: r.body };
    Some(match ev {
        ClientEvent::SessionReady { .. } => Event::SessionReady,
        ClientEvent::AppendAcked { seq, .. } => Event::Acked { seq },
        ClientEvent::ReadOk { request_seq, result, .. } => Event::Read {
            request_seq,
            records: match result {
                VerifiedRead::Record(r) | VerifiedRead::Latest(r, _) | VerifiedRead::Proven(r) => {
                    vec![rec(r)]
                }
                VerifiedRead::Records(rs) => rs.into_iter().map(rec).collect(),
                VerifiedRead::Heartbeat(_) => Vec::new(),
            },
        },
        ClientEvent::VerificationFailed { reason, .. } => {
            Event::VerificationFailed(reason.to_string())
        }
        ClientEvent::Unreachable { .. } => Event::NotServed("unreachable".into()),
        ClientEvent::ServerError { code, detail, .. } => {
            Event::NotServed(format!("server error {code:?}: {detail}"))
        }
        ClientEvent::Backpressure { .. } => Event::NotServed("shed (busy)".into()),
        ClientEvent::Timeout { kind, .. } => Event::NotServed(format!("{kind:?} timed out")),
        ClientEvent::SubEvent { .. } => return None,
    })
}

/// The client side of the attach handshake.
pub struct Attach(Attacher);

pub enum AttachProgress {
    Send(Pdu),
    Done,
    Ignored,
}

impl Attach {
    pub fn step(&mut self, pdu: &Pdu) -> Res<AttachProgress> {
        Ok(match self.0.on_pdu(pdu) {
            AttachStep::Send(reply) => AttachProgress::Send(reply),
            AttachStep::Done(_) => AttachProgress::Done,
            AttachStep::Failed(why) => return Err(format!("attach rejected: {why}")),
            AttachStep::Ignored => AttachProgress::Ignored,
        })
    }
}

// ---- the traced pipeline's building blocks -------------------------------

pub fn encode(pdu: &Pdu) -> Vec<u8> {
    encode_frame(pdu)
}

pub fn decode(frame: &[u8]) -> Res<Pdu> {
    decode_frame(frame, MAX_FRAME).map(|(pdu, _)| pdu).map_err(err("decode frame"))
}

/// What a PDU carries, for grouping spans by message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg {
    Attach,
    SessionInit,
    SessionAccept,
    Append,
    AppendAck,
    Replicate,
    ReplicateAck,
    Read,
    ReadResp,
    Other,
}

pub fn msg_of(pdu: &Pdu) -> Msg {
    match pdu.pdu_type {
        PduType::Advertise => Msg::Attach,
        PduType::Data => match DataMsg::from_wire(&pdu.payload) {
            Ok(DataMsg::SessionInit { .. }) => Msg::SessionInit,
            Ok(DataMsg::SessionAccept { .. }) => Msg::SessionAccept,
            Ok(DataMsg::Append { .. }) => Msg::Append,
            Ok(DataMsg::AppendAck { .. }) => Msg::AppendAck,
            Ok(DataMsg::Replicate { .. }) => Msg::Replicate,
            Ok(DataMsg::ReplicateAck { .. }) => Msg::ReplicateAck,
            Ok(DataMsg::Read { .. }) => Msg::Read,
            Ok(DataMsg::ReadResp { .. }) => Msg::ReadResp,
            _ => Msg::Other,
        },
        _ => Msg::Other,
    }
}

/// A peer of a pipeline node: the router is 0, storage node `i` is `i+1`,
/// the client is [`CLIENT_PEER`].
pub type Peer = usize;
pub const ROUTER_PEER: Peer = 0;
pub const CLIENT_PEER: Peer = REPLICAS + 1;

/// One node of the traced pipeline: the product's transport-agnostic node
/// runtime, built from the same config text as the live node.
pub struct PipeNode(NodeRuntime<Peer>);

impl PipeNode {
    pub fn on_pdu(&mut self, now_us: u64, from: Peer, pdu: Pdu) -> Vec<(Peer, Pdu)> {
        self.0.on_pdu(now_us, from, pdu)
    }

    pub fn tick(&mut self, now_us: u64) -> Vec<(Peer, Pdu)> {
        self.0.tick(now_us)
    }

    pub fn start(&mut self, now_us: u64) -> Vec<(Peer, Pdu)> {
        self.0.start(now_us)
    }

    pub fn is_attached(&self) -> bool {
        self.0.is_attached()
    }
}

/// Builds the pipeline's router (index 0) and storage nodes (1..=3) with
/// their stores under `root`.
pub fn pipeline_nodes(
    root: &Path,
    seeds: &NodeSeeds,
    capsules: &[CapsuleSpec],
) -> Res<(Name, Vec<PipeNode>)> {
    let build = |text: &str, uplink| {
        NodeRuntime::from_config(&parse_config(text)?, uplink)
            .map(PipeNode)
            .map_err(err("build node runtime"))
    };
    let router = build(&router_config_text(seeds), None)?;
    let router_name = router.0.router_name().ok_or("router runtime has no name")?;
    // Never dialled: the pipeline carries the frames itself.
    let unused_addr: SocketAddr = "127.0.0.1:1".parse().expect("literal addr");
    let mut nodes = vec![router];
    for i in 0..REPLICAS {
        let dir = root.join(format!("s{i}"));
        let text = storage_config_text(seeds, i, unused_addr, router_name, &dir, capsules);
        nodes.push(build(&text, Some(ROUTER_PEER))?);
    }
    Ok((router_name, nodes))
}

/// The layer a replayed inner cost belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The client built this PDU.
    ClientRequest,
    /// A storage node received this PDU.
    Storage,
    /// The client received this PDU.
    ClientResponse,
}

/// A cost inside a layer call that a span around the call cannot see,
/// measured by running the same work on the same input again.
pub struct Inner {
    pub name: &'static str,
    pub nanos: u64,
    /// Index (in the same list) of the inner cost this one is part of.
    pub inside: Option<usize>,
    /// For `capsule.proof_verify`: the proof's length in hops.
    pub hops: Option<usize>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_nanos() as u64)
}

/// Scratch state the replays run against, so they never touch the
/// pipeline's own stores and writers.
pub struct Replayer {
    capsules: Vec<CapsuleSpec>,
    writers: Vec<CapsuleWriter>,
    stores: Vec<Box<dyn CapsuleStore>>,
    now_us: u64,
}

impl Replayer {
    /// Scratch segmented store (same engine, same policy) under `dir`.
    pub fn new(dir: &Path, capsules: &[CapsuleSpec]) -> Res<Replayer> {
        let engine = scratch_engine(dir)?;
        let mut writers = Vec::new();
        let mut stores = Vec::new();
        for c in capsules {
            writers.push(
                CapsuleWriter::new(&c.meta, c.writer.clone(), PointerStrategy::SkipList)
                    .map_err(err("scratch writer"))?,
            );
            stores.push(engine.open_boxed(&c.name()).map_err(|e| format!("scratch store: {e:?}"))?);
        }
        Ok(Replayer { capsules: capsules.to_vec(), writers, stores, now_us: 0 })
    }

    /// Re-runs the inner costs of handling (or building) `pdu`, an
    /// exchange about capsule number `i`.
    pub fn replay(&mut self, side: Side, i: usize, pdu: &Pdu) -> Vec<Inner> {
        let leaf = |name, nanos| Inner { name, nanos, inside: None, hops: None };
        let Ok(msg) = DataMsg::from_wire(&pdu.payload) else { return Vec::new() };
        let name = self.capsules[i].name();
        let key = self.capsules[i].writer.verifying_key();
        match (side, msg) {
            (Side::ClientRequest, DataMsg::Append { record, .. }) => {
                let (_, append) = timed(|| self.writers[i].append(record.body.as_slice(), 0));
                // What a record signature covers: a tag, the capsule
                // name, the seq and the header hash.
                let message = [0u8; 80];
                let (_, sign) = timed(|| self.capsules[i].writer.sign(&message));
                vec![
                    leaf("capsule.append", append),
                    Inner { inside: Some(0), ..leaf("crypto.sign", sign.min(append)) },
                ]
            }
            (Side::Storage, DataMsg::Append { record, .. })
            | (Side::Storage, DataMsg::Replicate { record, .. }) => {
                let (_, verify) = timed(|| record.verify(&name, &key));
                let (_, append) = timed(|| self.stores[i].append_acked(&record));
                // Keep the scratch log's batch bounded like a ticking
                // node would.
                self.now_us += 5_000;
                let _ = self.stores[i].flush(self.now_us);
                vec![leaf("crypto.verify", verify), leaf("store.append", append)]
            }
            (Side::ClientResponse, DataMsg::ReadResp { result, .. }) => match result {
                ReadResult::Proof(p) => {
                    let (_, nanos) = timed(|| p.verify(&name, &key));
                    vec![Inner { hops: Some(p.hops()), ..leaf("capsule.proof_verify", nanos) }]
                }
                ReadResult::Records(rs) => {
                    let (_, nanos) = timed(|| rs.iter().all(|r| r.verify(&name, &key).is_ok()));
                    vec![leaf("crypto.verify", nanos)]
                }
                _ => Vec::new(),
            },
            (Side::ClientResponse, DataMsg::SessionAccept { chain, .. }) => {
                let owner = self.capsules[i].owner.verifying_key();
                let (_, nanos) = timed(|| chain.verify(&owner, 0));
                vec![leaf("cert.chain_verify", nanos)]
            }
            _ => Vec::new(),
        }
    }
}

fn scratch_engine(dir: &Path) -> Res<StorageEngine> {
    std::fs::create_dir_all(dir).map_err(err("create scratch dir"))?;
    let policy = FsyncPolicy::parse(FSYNC).ok_or("bad fsync policy text")?;
    Ok(StorageEngine::new(Backing::Segmented(dir.join("seglog"))).with_policy(policy))
}

// ---- probes: timed calls into one layer's public functions ---------------

/// Median nanoseconds of `f` over `reps` calls.
fn median_nanos(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1 as f64).collect();
    crate::stats::median(&samples)
}

pub struct CryptoProbe {
    pub sign_us: f64,
    pub verify_us: f64,
    pub mac_us: f64,
    pub sha256_mb_per_s: f64,
    pub chain_verify_us: f64,
}

/// Ed25519 sign/verify over a record-signature-sized message, the
/// response MAC and SHA-256 over a workload body, and a serving-chain
/// verification as a client does it.
pub fn probe_crypto(capsule: &CapsuleSpec, body: &[u8]) -> CryptoProbe {
    let message = [7u8; 80];
    let key = &capsule.writer;
    let vk = key.verifying_key();
    let sig = key.sign(&message);
    let server = server_identity(&[9u8; 32], "probe-server");
    let chain = ServingChain::direct(
        AdCert::issue(&capsule.owner, capsule.name(), server.name(), false, Scope::Global, FOREVER),
        server.principal().clone(),
    );
    let owner = capsule.owner.verifying_key();
    let sha_nanos = median_nanos(50, || {
        std::hint::black_box(sha256(std::hint::black_box(body)));
    });
    CryptoProbe {
        sign_us: median_nanos(50, || {
            std::hint::black_box(key.sign(std::hint::black_box(&message)));
        }) / 1e3,
        verify_us: median_nanos(50, || {
            std::hint::black_box(vk.verify(std::hint::black_box(&message), &sig));
        }) / 1e3,
        mac_us: median_nanos(200, || {
            std::hint::black_box(hmac_sha256(&[3u8; 32], std::hint::black_box(body)));
        }) / 1e3,
        sha256_mb_per_s: crate::stats::ratio(body.len() as f64 * 1e3, sha_nanos),
        chain_verify_us: median_nanos(30, || {
            let _ = std::hint::black_box(chain.verify(&owner, 0));
        }) / 1e3,
    }
}

pub struct StoreProbe {
    pub append_us: f64,
    pub read_us: f64,
}

/// `append_acked` and point reads on a scratch segmented store with the
/// cluster's engine settings, over records carrying the workload's bodies.
pub fn probe_store(dir: &Path, capsule: &CapsuleSpec, bodies: &[Vec<u8>]) -> Res<StoreProbe> {
    let engine = scratch_engine(dir)?;
    let mut store =
        engine.open_boxed(&capsule.name()).map_err(|e| format!("probe store: {e:?}"))?;
    let mut writer =
        CapsuleWriter::new(&capsule.meta, capsule.writer.clone(), PointerStrategy::SkipList)
            .map_err(err("probe writer"))?;
    let mut appends = Vec::new();
    let mut now_us = 0;
    for body in bodies {
        let record = writer.append(body, 0).map_err(err("probe append"))?;
        let (r, nanos) = timed(|| store.append_acked(&record));
        r.map_err(|e| format!("probe append_acked: {e:?}"))?;
        appends.push(nanos as f64);
        now_us += 5_000;
        store.flush(now_us).map_err(|e| format!("probe flush: {e:?}"))?;
    }
    let mut reads = Vec::new();
    for seq in 1..=bodies.len() as u64 {
        let (r, nanos) = timed(|| store.get_by_seq(seq));
        match r {
            Ok(Some(rec)) if rec.body.as_slice() == bodies[seq as usize - 1] => {}
            _ => return Err(format!("probe store lost record {seq}")),
        }
        reads.push(nanos as f64);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(StoreProbe {
        append_us: crate::stats::median(&appends) / 1e3,
        read_us: crate::stats::median(&reads) / 1e3,
    })
}

/// One-way loopback `TcpNet` latency for frames of `frame_bytes`: median
/// echo round trip over two endpoints, halved.
pub fn probe_net_hop_us(frame_bytes: usize) -> Res<f64> {
    let bind = || {
        let cfg =
            TcpNetConfig { poll_interval: Duration::from_millis(5), ..TcpNetConfig::default() };
        TcpNet::bind_with("127.0.0.1:0".parse().expect("literal addr"), cfg)
            .map_err(err("bind probe socket"))
    };
    let (a, b) = (bind()?, bind()?);
    let (a_addr, b_addr) = (a.local_addr(), b.local_addr());
    let payload = vec![0u8; frame_bytes.saturating_sub(gdp::wire::HEADER_LEN).max(1)];
    let ping =
        Pdu::data(Name::from_content(b"probe-a"), Name::from_content(b"probe-b"), 0, payload);
    const ROUNDS: usize = 300;
    let echo = b.clone();
    let echo_thread = std::thread::spawn(move || {
        for _ in 0..ROUNDS {
            match echo.recv_timeout(Duration::from_secs(5)) {
                Ok(Some((_, pdu))) => {
                    let _ = echo.send(a_addr, pdu);
                }
                _ => return,
            }
        }
    });
    let mut rtts = Vec::new();
    let mut result = Ok(());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        if a.send(b_addr, ping.clone()).is_err() {
            result = Err("net probe send failed".to_string());
            break;
        }
        match a.recv_timeout(Duration::from_secs(5)) {
            Ok(Some(_)) => rtts.push(t.elapsed().as_nanos() as f64),
            _ => {
                result = Err("net probe echo lost".to_string());
                break;
            }
        }
    }
    a.shutdown();
    b.shutdown();
    let _ = echo_thread.join();
    result?;
    // The first rounds pay the dial; the median does not see them.
    Ok(crate::stats::median(&rtts) / 2e3)
}

/// True when `doc` is well-formed JSON by the product's own validator.
pub fn json_valid(doc: &str) -> Res<()> {
    gdp::obs::json::validate(doc)
}
