//! Simulated GDP deployments: the *production* [`NodeRuntime`] cores (the
//! same code the TCP daemon runs) and real verifying clients on the
//! deterministic [`SimNet`] fabric from `gdp_net::simnet`, driven by one
//! single-threaded discrete-event scheduler — so every run is a pure
//! function of its seed.
//!
//! A [`SimCluster`] is assembled from routers (each optionally under a
//! parent domain), storage nodes (in memory or on a `data_dir`), clients,
//! per-link models and per-host service times, then booted. Three
//! presets cover what the repo runs on it:
//!
//! * [`SimCluster::new`] — the chaos suite's cluster: one router, two
//!   durable replicas of one capsule, one writer/reader client driven by
//!   `gdp_client::ops` (the retry and recovery policy the TCP client
//!   runs), on a fabric-wide fault model (drops, jitter, duplication), with
//!   partitions and crash/restart injected through the fabric and through
//!   scheduled peer-down notifications that mirror what the TCP
//!   connection pool would report;
//! * [`GdpWorld::new`] and [`GdpWorld::hierarchy`] — the paper's §IX
//!   placements and a two-domain hierarchy on modelled links, driven one
//!   request at a time and exposed as a `gdp_caapi::CapsuleAccess`, so
//!   every CAAPI (including the Fig 8 filesystem) runs unmodified over
//!   the full client → router → server stack.
//!
//! Preset identities are fixed constants — only the fault schedule and
//! workload vary with the seed — so a failing seed reproduces exactly.

use gdp_caapi::{CaapiError, CapsuleAccess};
use gdp_capsule::{CapsuleIndex, CapsuleMetadata, MetadataBuilder, PointerStrategy, Record};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::ops::{self, ClientError, Driver, Pump};
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::simnet::{FaultSpec, LinkSpec, SimAddr, SimEndpoint, SimNet};
use gdp_node::{HostSpec, NodeConfig, NodeRuntime, Role};
use gdp_obs::Metrics;
use gdp_router::{AttachStep, Attacher, Router};
use gdp_server::{AckMode, DataCapsuleServer, DataMsg, ErrorCode, ReadTarget};
use gdp_wire::{Name, Pdu, PduType, Wire};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

pub use gdp_node::runtime::{FOREVER, TICK_US};

/// How long (µs) after a crash/partition the transport "notices" and
/// reports the peer down — mirrors the TCP pool's dial-retry window.
pub const DETECT_US: u64 = 1_500_000;

/// Modelled DataCapsule-server CPU per handled request (µs): dominated by
/// the Ed25519 record verification (~170 µs measured by
/// `report -- ablation-session`).
pub const SERVER_CPU_US: u64 = 200;

/// Longest a [`GdpWorld`] operation waits for its answer (10 virtual
/// minutes — a 115 MB upload at 10 Mbps takes 92 s).
const OP_TIMEOUT_US: u64 = 600_000_000;

/// Modelled service time of a simulated host: every PDU it handles
/// occupies its single core for `per_pdu_us + per_byte_ns × payload`
/// before whatever the handler emitted leaves. The default is free.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    /// Fixed cost per handled PDU (µs).
    pub per_pdu_us: u64,
    /// Cost per payload byte (ns).
    pub per_byte_ns: u64,
}

/// A simulated host running the node composition.
struct Node {
    endpoint: SimEndpoint,
    /// `None` until booted and while crashed.
    runtime: Option<NodeRuntime<SimAddr>>,
    cfg: NodeConfig,
    /// The router or server identity the config derives.
    name: Name,
    /// Address of the router above (`cfg.router`), if any.
    uplink: Option<SimAddr>,
    /// Survives crash/restart, so counters span the node's lifetime.
    metrics: Metrics,
    cpu: HostCpu,
    busy_until: u64,
}

/// A simulated host running a verifying client: the `gdp_client::ops`
/// driver, fed at delivery time and on the cluster tick.
struct Client {
    endpoint: SimEndpoint,
    driver: Driver,
    metrics: Metrics,
    router: SimAddr,
}

/// What the cluster drives at one fabric address. Endpoints allocated
/// straight from [`SimCluster::net`] — a hostile peer, a test's stand-in
/// for a server or client — are not driven: whatever they send rides the
/// same seeded fabric as honest traffic, and what the cluster addresses
/// back to them queues in their inbox for the caller.
enum Host {
    Node(Node),
    Client(Client),
}

/// The identity `NodeRuntime` gives the server half of a node config
/// (its own seed domain, see `gdp_node::build_cores_with_obs`).
pub fn server_identity(seed: &[u8; 32], label: &str) -> PrincipalId {
    let mut s = *seed;
    s[0] ^= 0x5a;
    PrincipalId::from_seed(PrincipalKind::Server, &s, label)
}

/// A deterministic in-sim GDP deployment.
pub struct SimCluster {
    /// The fabric (world control: links, partitions, crashes, trace digest).
    pub net: SimNet,
    /// By fabric address (the order inboxes are drained in).
    hosts: BTreeMap<SimAddr, Host>,
    /// Storage nodes, in creation order.
    storage: Vec<SimAddr>,
    /// The primary client: the one `client_append` and friends drive.
    client: SimAddr,
    seed: u64,
    /// The capsule [`SimCluster::new`] hosts on every replica and the
    /// primary client writes (`Name::ZERO` in a hand-assembled cluster).
    capsule: Name,
    next_tick: u64,
    /// Scheduled `(fire_at, node, dead_peer)` peer-down reports.
    pending_downs: Vec<(u64, SimAddr, SimAddr)>,
    /// Writer-chain ground truth: the hash of every record ever signed,
    /// by seq.
    written: Vec<gdp_capsule::RecordHash>,
    /// Acked appends: seq → record hash (the durability contract).
    acked: BTreeMap<u64, gdp_capsule::RecordHash>,
    /// `GDP_SIM_DEBUG` / `GDP_SIM_DEBUG2` were set when the world was
    /// made: narrate every client event / every delivered PDU on stderr
    /// (replay aids — they never affect the run; the second is how the
    /// seed-160 attach storm was localized).
    narrate_events: bool,
    narrate_pdus: bool,
}

impl SimCluster {
    /// An empty world on a fresh fabric: add routers, storage nodes,
    /// clients and links, then [`SimCluster::boot`]. `seed` drives every
    /// fault and RNG decision.
    pub fn empty(seed: u64, faults: FaultSpec) -> SimCluster {
        SimCluster {
            net: SimNet::with_faults(seed, faults),
            hosts: BTreeMap::new(),
            storage: Vec::new(),
            client: 0,
            seed,
            capsule: Name::ZERO,
            next_tick: TICK_US,
            pending_downs: Vec::new(),
            written: Vec::new(),
            acked: BTreeMap::new(),
            narrate_events: std::env::var_os("GDP_SIM_DEBUG").is_some(),
            narrate_pdus: std::env::var_os("GDP_SIM_DEBUG2").is_some(),
        }
    }

    /// The chaos cluster: 1 router, 2 storage replicas of one capsule
    /// under `data_root` (durable across [`SimCluster::crash_storage`] /
    /// [`SimCluster::restart_storage`]; acks gate on the covering fsync,
    /// so every run exercises the deferred-ack path end to end), and 1
    /// verifying writer/reader client.
    pub fn new(seed: u64, faults: FaultSpec, data_root: &Path) -> SimCluster {
        let owner = SigningKey::from_seed(&[31u8; 32]);
        let writer_key = SigningKey::from_seed(&[32u8; 32]);
        let metadata = MetadataBuilder::new()
            .writer(&writer_key.verifying_key())
            .set_str("description", "chaos capsule")
            .sign(&owner);
        let capsule = metadata.name();
        let seeds = [[21u8; 32], [22u8; 32]];
        let ids: Vec<PrincipalId> =
            (0..2).map(|i| server_identity(&seeds[i], &format!("sim-s{i}"))).collect();

        let mut c = SimCluster::empty(seed, faults);
        let router = c.add_router(&[10u8; 32], "sim-r", None);
        for (i, me) in ids.iter().enumerate() {
            let host = HostSpec {
                metadata: metadata.clone(),
                chain: ServingChain::direct(
                    AdCert::issue(&owner, capsule, me.name(), false, Scope::Global, FOREVER),
                    me.principal().clone(),
                ),
                peers: ids.iter().map(|id| id.name()).filter(|n| *n != me.name()).collect(),
            };
            let dir = data_root.join(format!("s{i}"));
            c.add_storage(&seeds[i], &format!("sim-s{i}"), router, Some(dir), vec![host]);
        }
        c.client = c.add_client(&[41u8; 32], "sim-cli", router);
        c.capsule = capsule;
        c.client_mut().track_capsule(&metadata).expect("track");
        c.client_mut()
            .register_writer(&metadata, writer_key, PointerStrategy::Chain)
            .expect("writer");
        c.boot();
        c
    }

    // ---- assembly ------------------------------------------------------

    fn add_node(&mut self, role: Role, seed: &[u8; 32], label: &str, name: Name) -> &mut Node {
        let endpoint = self.net.endpoint();
        let cfg = NodeConfig {
            role,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed: *seed,
            label: label.into(),
            peers: vec![],
            router: None,
            data_dir: None,
            fsync: None,
            stats_path: None,
            hosts: vec![],
            admission_rate: 0,
            admission_burst: 64,
        };
        let (addr, metrics, cpu) = (endpoint.addr, Metrics::new(), HostCpu::default());
        let node =
            Node { endpoint, runtime: None, cfg, name, uplink: None, metrics, cpu, busy_until: 0 };
        self.hosts.insert(addr, Host::Node(node));
        self.node_mut(addr)
    }

    /// Adds a router; with `parent`, it is a leaf domain whose default
    /// route and announcements go to that router.
    pub fn add_router(&mut self, seed: &[u8; 32], label: &str, parent: Option<SimAddr>) -> SimAddr {
        let above = parent.map(|p| self.node(p).name);
        let name = PrincipalId::from_seed(PrincipalKind::Router, seed, label).name();
        let node = self.add_node(Role::Router, seed, label, name);
        (node.cfg.router, node.uplink) = (above, parent);
        node.endpoint.addr
    }

    /// Adds a storage node attached through `router`, serving `hosts`
    /// from the segmented log under `data_dir` (on an in-memory file
    /// system without one).
    pub fn add_storage(
        &mut self,
        seed: &[u8; 32],
        label: &str,
        router: SimAddr,
        data_dir: Option<PathBuf>,
        hosts: Vec<HostSpec>,
    ) -> SimAddr {
        let above = self.node(router).name;
        let node = self.add_node(Role::Storage, seed, label, server_identity(seed, label).name());
        (node.cfg.router, node.uplink) = (Some(above), Some(router));
        (node.cfg.data_dir, node.cfg.hosts) = (data_dir, hosts);
        let addr = node.endpoint.addr;
        self.storage.push(addr);
        addr
    }

    /// Adds a client that will attach through `router`
    /// ([`SimCluster::attach`]), with its own metric registry.
    pub fn add_client(&mut self, seed: &[u8; 32], label: &str, router: SimAddr) -> SimAddr {
        let endpoint = self.net.endpoint();
        let addr = endpoint.addr;
        let metrics = Metrics::new();
        let mut core = GdpClient::from_seed_with_obs(seed, label, &metrics.scope("client"));
        let ordinal = self.hosts.values().filter(|h| matches!(h, Host::Client(_))).count() as u64;
        core.set_rng_seed(self.seed ^ (0x434c_4945 + ordinal));
        let driver = Driver::new(core, self.node(router).name, FOREVER);
        let client = Client { endpoint, driver, metrics, router };
        self.hosts.insert(addr, Host::Client(client));
        addr
    }

    /// Sets the modelled service time of node `addr`.
    pub fn set_cpu(&mut self, addr: SimAddr, cpu: HostCpu) {
        self.node_mut(addr).cpu = cpu;
    }

    /// Boots every node that is not running (and not crashed) through the
    /// production path: cores built from config, stores opened, attach
    /// handshakes started. Call once the links are in place.
    pub fn boot(&mut self) {
        for addr in self.hosts.keys().copied().collect::<Vec<_>>() {
            let idle = matches!(&self.hosts[&addr], Host::Node(n) if n.runtime.is_none());
            if idle && !self.net.is_crashed(addr) {
                self.boot_node(addr, self.seed ^ (0x4e4f_4445 + addr as u64));
            }
        }
    }

    fn boot_node(&mut self, addr: SimAddr, rng_seed: u64) {
        let now = self.net.now();
        let node = self.node_mut(addr);
        let mut rt = NodeRuntime::from_config_with_obs(&node.cfg, node.uplink, &node.metrics)
            .expect("sim node cores");
        rt.set_rng_seed(rng_seed);
        let out = rt.start(now);
        node.runtime = Some(rt);
        Self::transmit(node, out, 0);
    }

    // ---- accessors -----------------------------------------------------

    fn node(&self, addr: SimAddr) -> &Node {
        match self.hosts.get(&addr) {
            Some(Host::Node(node)) => node,
            _ => panic!("fabric address {addr} is not a node"),
        }
    }

    fn node_mut(&mut self, addr: SimAddr) -> &mut Node {
        match self.hosts.get_mut(&addr) {
            Some(Host::Node(node)) => node,
            _ => panic!("fabric address {addr} is not a node"),
        }
    }

    fn client_host(&mut self, addr: SimAddr) -> &mut Client {
        match self.hosts.get_mut(&addr) {
            Some(Host::Client(client)) => client,
            _ => panic!("fabric address {addr} is not a client"),
        }
    }

    /// The chaos capsule's name.
    pub fn capsule(&self) -> Name {
        self.capsule
    }

    /// The run seed (for failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared metric registry of the node at `addr` (in
    /// [`SimCluster::new`]: 0 = router, 1..=2 = storage). Registries
    /// survive crash/restart, so counters accumulate across a node's
    /// whole simulated lifetime.
    pub fn node_metrics(&self, addr: SimAddr) -> &Metrics {
        &self.node(addr).metrics
    }

    /// The running node composition at `addr`. Panics while it is crashed.
    pub fn runtime_mut(&mut self, addr: SimAddr) -> &mut NodeRuntime<SimAddr> {
        self.node_mut(addr).runtime.as_mut().unwrap_or_else(|| panic!("node {addr} is down"))
    }

    /// The primary client's metric registry (scope `client`).
    pub fn client_metrics(&self) -> &Metrics {
        match self.hosts.get(&self.client) {
            Some(Host::Client(client)) => &client.metrics,
            _ => panic!("the cluster has no client"),
        }
    }

    /// Mutable access to the primary client core, e.g. to tighten the
    /// pending request timeout before a drop-heavy run.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        self.client_at(self.client)
    }

    /// The client core at `addr`.
    pub fn client_at(&mut self, addr: SimAddr) -> &mut GdpClient {
        &mut self.client_host(addr).driver.core
    }

    /// Ground-truth hash of the writer's record at `seq` (1-based), if
    /// the writer ever signed one.
    pub fn written_hash(&self, seq: u64) -> Option<gdp_capsule::RecordHash> {
        self.written.get(seq as usize - 1).copied()
    }

    /// Every append the client saw acked: seq → record hash.
    pub fn acked(&self) -> &BTreeMap<u64, gdp_capsule::RecordHash> {
        &self.acked
    }

    /// Verification failures outside the honest-degradation whitelist.
    pub fn hard_verification_failures(&self) -> Vec<&'static str> {
        let Some(Host::Client(client)) = self.hosts.get(&self.client) else { return Vec::new() };
        client.driver.hard_failures()
    }

    /// The live storage replicas' views of the chaos capsule, labelled.
    /// Panics if a replica is crashed (check only after full recovery)
    /// or does not host the capsule.
    pub fn storage_capsules(&self) -> Vec<(String, &CapsuleIndex)> {
        let replicas = self.storage.iter().enumerate();
        replicas
            .map(|(i, addr)| {
                let rt = self.node(*addr).runtime.as_ref().unwrap_or_else(|| {
                    // gdp-lint: allow(SK01) -- the sim seed is the chaos-reproduction handle, deliberately printed so a failure can be replayed; it is an RNG seed, not key material
                    panic!("GDP_SIM_SEED={}: storage {i} still crashed at check time", self.seed)
                });
                let cap = rt
                    .server()
                    .and_then(|s| s.capsule(&self.capsule))
                    .unwrap_or_else(|| panic!("storage {i} does not host the chaos capsule"));
                (format!("s{i}"), cap)
            })
            .collect()
    }

    // ---- scheduler -----------------------------------------------------

    /// Sends what a node's handler emitted, `delay` µs from now.
    fn transmit(node: &Node, out: Vec<(SimAddr, Pdu)>, delay: u64) {
        for (to, pdu) in out {
            // A send can only fail if the sender itself is crashed (we
            // never address unknown endpoints); drop mirrors real loss.
            let _ = node.endpoint.send_after(to, pdu, delay);
        }
    }

    /// Drains every host's inbox in address order, feeding the
    /// runtimes / clients. Returns true if anything was processed.
    fn drain(&mut self) -> bool {
        let mut progressed = false;
        for (addr, host) in &mut self.hosts {
            loop {
                // try_recv errors mean the endpoint is crashed — same as empty.
                let msg = match host {
                    Host::Node(node) => node.endpoint.try_recv(),
                    Host::Client(client) => client.endpoint.try_recv(),
                };
                let Ok(Some((from, pdu))) = msg else { break };
                progressed = true;
                let now = self.net.now();
                if self.narrate_pdus {
                    eprintln!(
                        "[sim-drain] idx={addr} from={from} type={:?} seq={} len={}",
                        pdu.pdu_type,
                        pdu.seq,
                        pdu.payload.len()
                    );
                }
                match host {
                    Host::Node(node) => {
                        let Some(rt) = node.runtime.as_mut() else { continue };
                        // The host's one core: a PDU waits for the one
                        // before it, then occupies the CPU for its cost.
                        let cost = node.cpu.per_pdu_us
                            + pdu.payload.len() as u64 * node.cpu.per_byte_ns / 1000;
                        let done = if cost == 0 { now } else { now.max(node.busy_until) + cost };
                        node.busy_until = done;
                        let out = rt.on_pdu(now, from, pdu);
                        Self::transmit(node, out, done - now);
                    }
                    Host::Client(client) => {
                        client.feed(now, self.narrate_events, |d| d.on_pdu(now, pdu));
                    }
                }
            }
        }
        progressed
    }

    fn fire_due_downs(&mut self, now: u64) -> bool {
        let Some(pos) = self.pending_downs.iter().position(|d| d.0 <= now) else {
            return false;
        };
        let (_, addr, peer) = self.pending_downs.remove(pos);
        let node = self.node_mut(addr);
        if let Some(rt) = node.runtime.as_mut() {
            let out = rt.on_peer_down(now, peer);
            Self::transmit(node, out, 0);
        }
        true
    }

    fn tick_all(&mut self, now: u64) {
        for host in self.hosts.values_mut() {
            match host {
                Host::Node(node) => {
                    if let Some(rt) = node.runtime.as_mut() {
                        let out = rt.tick(now);
                        Self::transmit(node, out, 0);
                    }
                }
                Host::Client(client) => client.feed(now, self.narrate_events, |d| d.tick(now)),
            }
        }
    }

    /// One scheduler quantum: drain inboxes, or fire a due peer-down, or
    /// tick, or advance virtual time toward the next interesting instant.
    /// Returns false once `target` is reached with nothing left due.
    fn step(&mut self, target: u64) -> bool {
        if self.drain() {
            return true;
        }
        let now = self.net.now();
        if self.fire_due_downs(now) {
            return true;
        }
        if now >= self.next_tick {
            self.tick_all(now);
            self.next_tick = now - (now % TICK_US) + TICK_US;
            return true;
        }
        if now >= target {
            return false;
        }
        let mut next = target.min(self.next_tick);
        if let Some(at) = self.net.next_event_at() {
            next = next.min(at.max(now + 1));
        }
        for d in &self.pending_downs {
            next = next.min(d.0.max(now + 1));
        }
        self.net.advance_to(next.max(now + 1));
        true
    }

    /// Runs the world until virtual time `target`.
    pub fn run_until(&mut self, target: u64) {
        while self.step(target) {}
    }

    /// Runs the world for `dt` more microseconds.
    pub fn run_for(&mut self, dt: u64) {
        let t = self.net.now() + dt;
        self.run_until(t);
    }

    /// Runs until nothing is in flight (or due on a timer-driven path the
    /// fabric cannot see: ticks keep firing, they just find nothing to do).
    pub fn run_until_quiet(&mut self) {
        let limit = self.net.now() + OP_TIMEOUT_US;
        while let Some(at) = self.net.next_event_at() {
            assert!(at < limit, "the world did not go quiet within 600 virtual seconds");
            self.run_until(at);
        }
    }

    /// Runs through the next maintenance tick and on until nothing is in
    /// flight. Nodes tick forever, so a ticking world never runs out of
    /// events; the quiet point after a tick is its quiescence: what the
    /// tick started (re-advertisement of a newly hosted capsule, route
    /// announcements, anti-entropy probes) has finished, and the next
    /// tick is most of a period away.
    pub fn settle(&mut self) {
        self.run_until(self.next_tick);
        self.run_until_quiet();
    }

    // ---- client driving ------------------------------------------------

    /// The `gdp_client::ops` pump for the client at `addr`.
    fn pump(&mut self, addr: SimAddr) -> SimPump<'_> {
        SimPump { cluster: self, addr }
    }

    /// Attaches the client at `addr` to its router (secure-advertisement
    /// handshake), pumping up to `window_us` of virtual time.
    pub fn attach(&mut self, addr: SimAddr, window_us: u64) -> bool {
        ops::attach(&mut self.pump(addr), window_us).is_ok()
    }

    /// Runs `attacher`'s handshake for the bare endpoint `ep` against the
    /// router at `router`, returning the names the router accepted or its
    /// rejection. Anything else that reaches `ep` meanwhile is discarded.
    pub fn attach_endpoint(
        &mut self,
        ep: &SimEndpoint,
        router: SimAddr,
        attacher: &mut Attacher,
    ) -> Result<Vec<Name>, String> {
        let _ = ep.send(router, attacher.hello());
        let deadline = self.net.now() + 10_000_000;
        while self.step(deadline) {
            while let Ok(Some((_, pdu))) = ep.try_recv() {
                match attacher.on_pdu(&pdu) {
                    AttachStep::Send(reply) => drop(ep.send(router, reply)),
                    AttachStep::Done(names) => return Ok(names),
                    AttachStep::Failed(reason) => return Err(reason),
                    AttachStep::Ignored => {}
                }
            }
        }
        Err("attach handshake timed out".into())
    }

    /// Queues `pdu` from the client at `addr` toward its router.
    pub fn send_from(&mut self, addr: SimAddr, pdu: Pdu) {
        let client = self.client_host(addr);
        let _ = client.endpoint.send(client.router, pdu);
    }

    /// Takes every event the client at `addr` has produced so far.
    pub fn take_events(&mut self, addr: SimAddr) -> Vec<ClientEvent> {
        self.client_host(addr).driver.events.drain(..).collect()
    }

    /// One request, one answer: sends `pdu` from the client at `addr` and
    /// runs until that client has events to show or `deadline` passes.
    /// Nothing is retried — a lost request or response surfaces as the
    /// client core's own `Timeout` event.
    pub fn request(&mut self, addr: SimAddr, pdu: Pdu, deadline: u64) -> Vec<ClientEvent> {
        self.send_from(addr, pdu);
        while self.client_host(addr).driver.events.is_empty() && self.step(deadline) {}
        self.take_events(addr)
    }

    // ---- driven operations (primary client, chaos capsule) -------------

    /// [`SimCluster::attach`] for the primary client.
    pub fn attach_client(&mut self, window_us: u64) -> bool {
        self.attach(self.client, window_us)
    }

    /// Establishes an encrypted session flow with a serving replica,
    /// re-initiating the handshake until the window closes.
    pub fn client_session(&mut self, window_us: u64) -> bool {
        let capsule = self.capsule;
        ops::session(&mut self.pump(self.client), capsule, window_us).is_ok()
    }

    /// Appends a signed record and pumps until the durability mode is
    /// acknowledged, for up to `window_us` of virtual time. Returns the
    /// seq on ack; the record stays in the writer chain — and out of
    /// [`SimCluster::acked`] — when the window closes unacked.
    pub fn client_append(&mut self, body: &[u8], ack: AckMode, window_us: u64) -> Option<u64> {
        let capsule = self.capsule;
        let acked = ops::append(&mut self.pump(self.client), capsule, body, ack, window_us);
        // Acked or not, the writer signed exactly one record: its head.
        let hash = self.client_mut().writer_mut(&capsule).expect("writer registered").head();
        self.written.push(hash);
        let seq = acked.ok()?;
        self.acked.insert(seq, hash);
        Some(seq)
    }

    /// Issues a verified read, retrying for up to `window_us` of virtual
    /// time. Only responses that pass client-side verification are
    /// returned; honest-degradation rejections are retried.
    pub fn client_read(&mut self, target: ReadTarget, window_us: u64) -> Option<VerifiedRead> {
        let capsule = self.capsule;
        ops::read(&mut self.pump(self.client), capsule, target, window_us).ok()
    }

    // ---- overload & hostile peers --------------------------------------

    /// Address of the router storage `i` attaches through.
    fn storage_router(&self, i: usize) -> SimAddr {
        self.node(self.storage[i]).uplink.expect("storage nodes have a router")
    }

    /// The identity name of the router the replicas attach to (hostile
    /// peers need it to forge plausible control traffic).
    pub fn router_name(&self) -> Name {
        self.node(self.router_addr()).name
    }

    /// That router's fabric address (where attached traffic enters).
    pub fn router_addr(&self) -> SimAddr {
        self.storage_router(0)
    }

    /// Arms load shedding on every live storage server: at most `budget`
    /// appends per maintenance tick, excess answered with
    /// `Nack{Busy, retry_after_us}`.
    pub fn set_storage_overload_policy(&mut self, budget: u64, retry_after_us: u64) {
        for addr in self.storage.clone() {
            let server = self.node_mut(addr).runtime.as_mut().and_then(|rt| rt.server_mut());
            if let Some(server) = server {
                server.set_overload_policy(budget, retry_after_us);
            }
        }
    }

    // ---- fault injection -----------------------------------------------

    /// Crashes storage `i` (0-based): its process state evaporates, its
    /// segmented log survives on disk. The router "notices" after the
    /// transport detection delay, withdrawing the replica's routes.
    pub fn crash_storage(&mut self, i: usize) {
        let (addr, router) = (self.storage[i], self.storage_router(i));
        self.net.crash(addr);
        self.node_mut(addr).runtime = None;
        self.pending_downs.push((self.net.now() + DETECT_US, router, addr));
    }

    /// Cancels not-yet-fired down detections involving storage `i`. A
    /// transport whose peer recovers before the dial-retry budget runs
    /// out never reports Down — without this, a stale detection fires
    /// *after* the replica re-attached and silently withdraws its fresh
    /// routes (found by seed 4 of the chaos sweep; see
    /// `pinned_stale_down_detection` in tests/chaos.rs).
    fn cancel_downs(&mut self, i: usize) {
        let addr = self.storage[i];
        self.pending_downs.retain(|&(_, node, peer)| peer != addr && node != addr);
    }

    /// Restarts a crashed storage node through the production boot path:
    /// cores rebuilt from config, segmented log re-opened (torn-tail
    /// recovery + record replay), then a fresh network attach. The
    /// registry is the one from before the crash: the node's counters
    /// span its whole lifetime, reboots included.
    pub fn restart_storage(&mut self, i: usize) {
        let addr = self.storage[i];
        assert!(self.storage_crashed(i), "restart of a running node");
        self.cancel_downs(i);
        self.net.restart(addr);
        // A fresh seed domain per boot: a restarted process has new RNG
        // state, but still fully derived from the run seed.
        self.boot_node(addr, self.seed ^ (0x4245_4254 + i as u64) ^ self.net.now());
    }

    /// Storage `i`'s config, as its next [`SimCluster::restart_storage`]
    /// boots it (e.g. to change the `fsync` policy across a restart).
    pub fn storage_config_mut(&mut self, i: usize) -> &mut NodeConfig {
        let addr = self.storage[i];
        &mut self.node_mut(addr).cfg
    }

    /// Torn-write fault: appends `garbage` to the tail of storage `i`'s
    /// active on-disk log — the shared log's highest-id segment —
    /// simulating a partially persisted write that the crash cut short.
    /// Only meaningful while the node is crashed (the store is closed);
    /// recovery on restart must truncate the torn tail and keep every
    /// acked record. Returns the file that was damaged.
    pub fn tear_storage_tail(&mut self, i: usize, garbage: &[u8]) -> PathBuf {
        assert!(self.storage_crashed(i), "tear_storage_tail on a running node");
        let cfg = &self.node(self.storage[i]).cfg;
        let data_dir = cfg.data_dir.as_ref().expect("only a node with a data_dir has a log");
        let target = std::fs::read_dir(data_dir.join("seglog"))
            .expect("seglog dir exists after first boot")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "seg").unwrap_or(false))
            .max()
            .expect("seglog has at least one segment");
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&target)
            .expect("open crashed node's log for tearing");
        f.write_all(garbage).expect("tear write");
        f.sync_all().expect("tear fsync");
        target
    }

    /// True if storage `i` is currently crashed.
    pub fn storage_crashed(&self, i: usize) -> bool {
        self.net.is_crashed(self.storage[i])
    }

    /// True once storage `i`'s network attach has completed.
    pub fn storage_attached(&self, i: usize) -> bool {
        self.node(self.storage[i]).runtime.as_ref().is_some_and(|rt| rt.is_attached())
    }

    /// Partitions `a` from `b` (both directions). Each side that is a
    /// node "notices" after the detection delay: a router withdraws the
    /// peer's routes, a storage node restarts its attach handshake.
    pub fn partition(&mut self, a: SimAddr, b: SimAddr) {
        self.net.partition(a, b);
        let at = self.net.now() + DETECT_US;
        for (node, peer) in [(a, b), (b, a)] {
            if matches!(self.hosts.get(&node), Some(Host::Node(_))) {
                self.pending_downs.push((at, node, peer));
            }
        }
    }

    /// [`SimCluster::partition`] between storage `i` and its router.
    pub fn partition_storage(&mut self, i: usize) {
        self.partition(self.storage_router(i), self.storage[i]);
    }

    /// Heals the router↔storage-`i` partition. The replica's pending
    /// attach retries (tick cadence) re-establish its advertisements.
    /// Detections that have not fired yet are cancelled: the link is
    /// back before the transport's retry budget ran out.
    pub fn heal_storage(&mut self, i: usize) {
        self.cancel_downs(i);
        self.net.heal(self.storage_router(i), self.storage[i]);
    }
}

impl Client {
    /// Feeds the driver (a delivered PDU, or the cluster tick), sends what
    /// it returns, and narrates the events it queued when asked to.
    fn feed(&mut self, now: u64, narrate: bool, f: impl FnOnce(&mut Driver) -> Option<Pdu>) {
        let seen = self.driver.events.len();
        if let Some(pdu) = f(&mut self.driver) {
            let _ = self.endpoint.send(self.router, pdu);
        }
        if narrate {
            for ev in self.driver.events.iter().skip(seen) {
                eprintln!("[sim-client] now={now} {ev:?}");
            }
        }
    }
}

/// One client's view of the world as `gdp_client::ops` sees it: the
/// fabric's virtual clock, the client's endpoint, and [`SimCluster::step`]
/// as the quantum — so PDUs reach the driver when the fabric delivers
/// them and its timer work runs on the cluster tick, inside an operation
/// or between two.
struct SimPump<'a> {
    cluster: &'a mut SimCluster,
    addr: SimAddr,
}

impl Pump for SimPump<'_> {
    fn driver(&mut self) -> &mut Driver {
        &mut self.cluster.client_host(self.addr).driver
    }

    fn now(&self) -> u64 {
        self.cluster.net.now()
    }

    fn send(&mut self, pdu: Pdu) -> Result<(), ClientError> {
        self.cluster.send_from(self.addr, pdu);
        Ok(())
    }

    fn wait(&mut self, until: u64) -> Result<bool, ClientError> {
        Ok(self.cluster.step(until))
    }
}

/// Which physical deployment to model (paper §IX).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Client on a residential link (100 Mbps down / 10 Mbps up, 10 ms) to
    /// a cloud region; server inside the region on a LAN.
    CloudFromResidential,
    /// Client and server on the same edge LAN (1 Gbps, 200 µs).
    EdgeLan,
}

/// A [`SimCluster`] on modelled links with one driving client, operated
/// one blocking request at a time (no retries: what the network loses,
/// the operation loses). In-memory servers with [`SERVER_CPU_US`] of
/// modelled CPU per request host whatever capsules are provisioned over
/// the wire.
pub struct GdpWorld {
    /// The world itself: time, links, partitions, further clients.
    pub cluster: SimCluster,
    /// Routers with their names (index 0 = the client's router).
    pub routers: Vec<(SimAddr, Name)>,
    /// Storage nodes with their server principals.
    pub servers: Vec<(SimAddr, PrincipalId)>,
    /// The driving client's fabric address.
    pub client_node: SimAddr,
    /// Capsule owner key used for delegations.
    pub owner: SigningKey,
    /// How many records a network `read_range` fetches per request
    /// (flow-control batch; ablation knob).
    pub read_batch: u64,
    /// Durability mode used for CAAPI appends.
    pub ack_mode: AckMode,
}

impl GdpWorld {
    /// Builds the single-domain world for `placement`.
    pub fn new(seed: u64, placement: Placement) -> GdpWorld {
        let mut cluster = SimCluster::empty(seed, FaultSpec::reliable());
        let router = cluster.add_router(&[100u8; 32], "domain", None);
        let mut world = GdpWorld::around(cluster, &[router]);
        world.add_server(&[101u8; 32], "server", 0);
        let (up, down) = match placement {
            Placement::CloudFromResidential => {
                (LinkSpec::residential_up(), LinkSpec::residential_down())
            }
            Placement::EdgeLan => (LinkSpec::lan(), LinkSpec::lan()),
        };
        world.cluster.net.connect_directed(world.client_node, router, up);
        world.cluster.net.connect_directed(router, world.client_node, down);
        world.start()
    }

    /// A two-domain hierarchy (root + two leaf domains over WAN links)
    /// with one server in each leaf and the client in domain 2. Used by
    /// locality/ablation studies. `routers` lists domain 2, the root,
    /// domain 1; `servers` lists the domain-1 replica first.
    pub fn hierarchy(seed: u64) -> GdpWorld {
        let mut cluster = SimCluster::empty(seed, FaultSpec::reliable());
        let root = cluster.add_router(&[110u8; 32], "root", None);
        let d1 = cluster.add_router(&[111u8; 32], "d1", Some(root));
        let d2 = cluster.add_router(&[112u8; 32], "d2", Some(root));
        cluster.net.connect(root, d1, LinkSpec::wan());
        cluster.net.connect(root, d2, LinkSpec::wan());
        let mut world = GdpWorld::around(cluster, &[d2, root, d1]);
        world.add_server(&[113u8; 32], "srv-d1", 2);
        world.add_server(&[114u8; 32], "srv-d2", 0);
        world.cluster.net.connect(world.client_node, d2, LinkSpec::lan());
        world.start()
    }

    /// Wraps `cluster`, adding the driving client on the first of `routers`.
    fn around(mut cluster: SimCluster, routers: &[SimAddr]) -> GdpWorld {
        cluster.client = cluster.add_client(&[102u8; 32], "client", routers[0]);
        cluster.client_mut().set_request_timeout(OP_TIMEOUT_US);
        GdpWorld {
            client_node: cluster.client,
            routers: routers.iter().map(|a| (*a, cluster.node(*a).name)).collect(),
            cluster,
            servers: Vec::new(),
            owner: SigningKey::from_seed(&[99u8; 32]),
            read_batch: 16,
            ack_mode: AckMode::Local,
        }
    }

    /// An in-memory server on a LAN link to router `domain`.
    fn add_server(&mut self, seed: &[u8; 32], label: &str, domain: usize) {
        let router = self.routers[domain].0;
        let addr = self.cluster.add_storage(seed, label, router, None, vec![]);
        self.cluster.set_cpu(addr, HostCpu { per_pdu_us: SERVER_CPU_US, per_byte_ns: 0 });
        self.cluster.net.connect(addr, router, LinkSpec::lan());
        self.servers.push((addr, server_identity(seed, label)));
    }

    /// Boots the nodes, attaches the client and lets the advertisements
    /// reach the root.
    fn start(mut self) -> GdpWorld {
        self.cluster.boot();
        assert!(self.cluster.attach(self.client_node, OP_TIMEOUT_US), "client attach");
        self.cluster.settle();
        let attached = (0..self.servers.len()).all(|i| self.cluster.storage_attached(i));
        assert!(attached, "server attach");
        self
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> u64 {
        self.cluster.net.now()
    }

    /// The DataCapsule-server core of `servers[i]`.
    pub fn server(&mut self, i: usize) -> &mut DataCapsuleServer {
        self.cluster.runtime_mut(self.servers[i].0).server_mut().expect("a storage node")
    }

    /// The routing core of `routers[i]`.
    pub fn router(&mut self, i: usize) -> &mut Router {
        self.cluster.runtime_mut(self.routers[i].0).router_mut().expect("a router node")
    }

    /// Adds a second client on a LAN link to `routers[domain]` and
    /// attaches it.
    pub fn add_client(&mut self, seed: &[u8; 32], label: &str, domain: usize) -> SimAddr {
        let router = self.routers[domain].0;
        let addr = self.cluster.add_client(seed, label, router);
        self.cluster.net.connect(addr, router, LinkSpec::lan());
        assert!(self.cluster.attach(addr, OP_TIMEOUT_US), "client attach");
        self.cluster.settle();
        addr
    }

    /// Sends a request PDU from the driving client and runs until events
    /// appear or the op times out. Returns the collected events.
    pub fn drive(&mut self, pdu: Pdu) -> Vec<ClientEvent> {
        let deadline = self.now() + OP_TIMEOUT_US;
        self.cluster.request(self.client_node, pdu, deadline)
    }

    /// Access to the driving client's state machine.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        self.cluster.client_mut()
    }

    /// The driving client's flat name.
    pub fn client_name(&mut self) -> Name {
        self.client_mut().name()
    }

    /// Provisions `metadata` on every server in `servers` (Host +
    /// delegation), waits for the re-advertisements, and registers the
    /// client writer.
    pub fn provision_capsule(
        &mut self,
        metadata: &CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError> {
        let capsule = metadata.name();
        self.client_mut()
            .register_writer(metadata, writer, strategy)
            .map_err(|e| CaapiError::Transport(e.to_string()))?;
        let server_names: Vec<Name> = self.servers.iter().map(|(_, id)| id.name()).collect();
        for (i, (_, server_id)) in self.servers.clone().iter().enumerate() {
            let chain = ServingChain::direct(
                AdCert::issue(
                    &self.owner,
                    capsule,
                    server_id.name(),
                    false,
                    Scope::Global,
                    FOREVER,
                ),
                server_id.principal().clone(),
            );
            let peers: Vec<Name> =
                server_names.iter().filter(|n| **n != server_id.name()).copied().collect();
            let msg = DataMsg::Host { metadata: metadata.clone(), chain, peers };
            let pdu = Pdu {
                pdu_type: PduType::Data,
                src: self.client_name(),
                dst: server_id.name(),
                seq: 1_000_000 + i as u64,
                payload: msg.to_wire().into(),
            };
            self.cluster.send_from(self.client_node, pdu);
        }
        // A server re-advertises a newly hosted capsule on its next tick.
        self.cluster.settle();
        // Drop HostAck noise.
        let _ = self.cluster.take_events(self.client_node);
        Ok(capsule)
    }

    /// One read request: the verified answer, `None` when the server
    /// reports the capsule empty, its error otherwise.
    fn fetch(
        &mut self,
        capsule: &Name,
        target: ReadTarget,
    ) -> Result<Option<VerifiedRead>, CaapiError> {
        let pdu = self.client_mut().read(*capsule, target);
        for e in self.drive(pdu) {
            match e {
                ClientEvent::ReadOk { result, .. } => return Ok(Some(result)),
                ClientEvent::ServerError { code: ErrorCode::Empty, .. } => return Ok(None),
                ClientEvent::ServerError { code, detail, .. } => {
                    return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                }
                _ => {}
            }
        }
        Err(CaapiError::Transport("no read response".into()))
    }

    /// Establishes an HMAC flow with the capsule's serving replica.
    pub fn establish_session(&mut self, capsule: Name) -> Result<(), CaapiError> {
        let pdu = self.client_mut().session_init(capsule);
        let events = self.drive(pdu);
        if events.iter().any(|e| matches!(e, ClientEvent::SessionReady { .. })) {
            Ok(())
        } else {
            Err(CaapiError::Transport(format!("session failed: {events:?}")))
        }
    }
}

impl CapsuleAccess for GdpWorld {
    fn create_capsule(
        &mut self,
        metadata: CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError> {
        self.provision_capsule(&metadata, writer, strategy)
    }

    fn append(&mut self, capsule: &Name, body: &[u8]) -> Result<u64, CaapiError> {
        self.append_batch(capsule, &[body.to_vec()])
    }

    fn append_batch(&mut self, capsule: &Name, bodies: &[Vec<u8>]) -> Result<u64, CaapiError> {
        // Pipelined: sign and send all records back to back, then wait
        // for every ack. The sender link serializes transmissions; no
        // artificial per-record round trip.
        let ack_mode = self.ack_mode;
        let mut want = HashSet::new();
        for body in bodies {
            let ts = self.now();
            let (pdu, record) = self
                .client_mut()
                .append(*capsule, body, ts, ack_mode)
                .map_err(|e| CaapiError::Transport(e.to_string()))?;
            want.insert(record.header.seq);
            self.cluster.send_from(self.client_node, pdu);
        }
        let last_seq = want.iter().copied().max().unwrap_or(0);
        let deadline = self.now() + OP_TIMEOUT_US;
        let mut failure = None;
        let waited = ops::wait_for(&mut self.cluster.pump(self.client_node), deadline, |ev| {
            match ev {
                ClientEvent::AppendAcked { seq, .. } => drop(want.remove(seq)),
                other => failure = Some(format!("{other:?}")),
            }
            (want.is_empty() || failure.is_some()).then_some(())
        });
        if let Err(hard) = waited {
            failure = Some(hard.to_string());
        }
        match failure {
            None if want.is_empty() => Ok(last_seq),
            failure => {
                Err(CaapiError::Transport(format!("{} appends not acked: {failure:?}", want.len())))
            }
        }
    }

    fn read(&mut self, capsule: &Name, seq: u64) -> Result<Record, CaapiError> {
        match self.fetch(capsule, ReadTarget::One(seq))? {
            Some(VerifiedRead::Record(r)) => Ok(r),
            other => Err(CaapiError::Transport(format!("no read response: {other:?}"))),
        }
    }

    fn read_range(
        &mut self,
        capsule: &Name,
        from: u64,
        to: u64,
    ) -> Result<Vec<Record>, CaapiError> {
        let mut out = Vec::new();
        let mut cursor = from;
        // Batched fetch: models client flow control (one request per batch
        // round trip), the knob the Fig 8 study sweeps.
        while cursor <= to {
            let hi = (cursor + self.read_batch - 1).min(to);
            match self.fetch(capsule, ReadTarget::Range(cursor, hi))? {
                Some(VerifiedRead::Records(rs)) => out.extend(rs),
                other => {
                    return Err(CaapiError::Transport(format!("range read failed: {other:?}")))
                }
            }
            cursor = hi + 1;
        }
        Ok(out)
    }

    fn latest(&mut self, capsule: &Name) -> Result<Option<Record>, CaapiError> {
        match self.fetch(capsule, ReadTarget::Latest)? {
            Some(VerifiedRead::Latest(r, _)) => Ok(Some(r)),
            None => Ok(None),
            other => Err(CaapiError::Transport(format!("no latest response: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(owner: &SigningKey, description: &str) -> (CapsuleMetadata, SigningKey) {
        let writer = SigningKey::from_seed(&[7u8; 32]);
        let meta = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", description)
            .sign(owner);
        (meta, writer)
    }

    fn world_with_capsule(mut world: GdpWorld) -> (GdpWorld, Name) {
        let (meta, writer) = spec(&world.owner.clone(), "world test");
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        (world, capsule)
    }

    #[test]
    fn edge_world_basic_ops() {
        let (mut world, capsule) = world_with_capsule(GdpWorld::new(3, Placement::EdgeLan));
        assert_eq!(world.append(&capsule, b"first").unwrap(), 1);
        assert_eq!(world.append(&capsule, b"second").unwrap(), 2);
        assert_eq!(world.read(&capsule, 1).unwrap().body, b"first");
        assert_eq!(world.latest(&capsule).unwrap().unwrap().header.seq, 2);
        let range = world.read_range(&capsule, 1, 2).unwrap();
        assert_eq!(range.len(), 2);
    }

    #[test]
    fn cloud_world_is_slower_than_edge() {
        let body = vec![0u8; 500_000];
        let run = |placement| {
            let (mut world, capsule) = world_with_capsule(GdpWorld::new(3, placement));
            let t0 = world.now();
            world.append(&capsule, &body).unwrap();
            world.now() - t0
        };
        let edge = run(Placement::EdgeLan);
        let cloud = run(Placement::CloudFromResidential);
        // 500 KB upload at 10 Mbps ≈ 400 ms vs ≈ 4 ms at 1 Gbps.
        assert!(cloud > 20 * edge, "cloud {cloud} edge {edge}");
    }

    #[test]
    fn session_over_world() {
        let (mut world, capsule) = world_with_capsule(GdpWorld::new(4, Placement::EdgeLan));
        world.establish_session(capsule).unwrap();
        // HMAC-authenticated appends still work.
        assert_eq!(world.append(&capsule, b"with hmac").unwrap(), 1);
    }

    /// One client, two capsules on one server, a session on each:
    /// alternating reads must each verify under their own capsule's flow.
    #[test]
    fn two_sessions_on_one_server_stay_apart() {
        let (mut world, first) = world_with_capsule(GdpWorld::new(6, Placement::EdgeLan));
        let (meta, writer) = spec(&world.owner.clone(), "second capsule");
        let second = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        for capsule in [first, second] {
            world.establish_session(capsule).unwrap();
            world.append(&capsule, b"x").unwrap();
        }
        for capsule in [first, second, first, second] {
            assert!(world.client_mut().has_session(&capsule));
            let pdu = world.client_mut().read(capsule, ReadTarget::One(1));
            let events = world.drive(pdu);
            assert!(matches!(events[..], [ClientEvent::ReadOk { .. }]), "{events:?}");
        }
    }

    #[test]
    fn hierarchy_replicates_to_both_domains() {
        let (mut world, capsule) = world_with_capsule(GdpWorld::hierarchy(5));
        world.append(&capsule, b"replicated").unwrap();
        world.cluster.settle();
        for i in 0..world.servers.len() {
            let len = world.server(i).capsule(&capsule).unwrap().len();
            assert_eq!(len, 1, "both replicas must hold the record");
        }
    }
}
