//! A full GDP cluster — real router, real DataCapsule servers with
//! segmented-log stores, real verifying client — running on the
//! deterministic [`SimNet`] fabric from `gdp_net::simnet`.
//!
//! This is the chassis for seeded chaos testing: the *production*
//! [`NodeRuntime`] cores (the same code the TCP daemon runs) are driven
//! by a single-threaded discrete-event scheduler, so every run is a pure
//! function of the run seed. Faults (drops, jitter, duplication,
//! partitions, crash/restart with durable-store survival) are injected
//! through the fabric and through scheduled peer-down notifications that
//! mirror what the TCP connection pool would report.
//!
//! Cluster identities are fixed constants — only the fault schedule and
//! workload vary with the seed — so a failing seed reproduces exactly.

use gdp_capsule::{CapsuleMetadata, DataCapsule, MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, Scope, ServingChain};
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::simnet::{FaultSpec, SimAddr, SimEndpoint, SimNet};
use gdp_node::runtime::FOREVER;
use gdp_node::{HostSpec, NodeConfig, NodeRuntime, Role};
use gdp_obs::Metrics;
use gdp_router::{AttachStep, Attacher};
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::{Name, Pdu};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Virtual maintenance-tick cadence (µs) — matches the TCP daemon's
/// 200 ms `TICK_INTERVAL`.
pub const TICK_US: u64 = 200_000;

/// How long (µs) after a crash/partition the transport "notices" and
/// reports the peer down — mirrors the TCP pool's dial-retry window.
pub const DETECT_US: u64 = 1_500_000;

/// Verification-failure reasons that indicate an *honest* degradation
/// correctly detected (and rejected) by the client, not a protocol
/// violation: stale or partial replica state during convergence, and
/// responses MAC'd under a half-established session whose `SessionAccept`
/// the fabric lost (the client re-keys and retries). Anything outside
/// this list is a hard failure for the chaos invariants.
pub const HONEST_FAILURES: [&str; 4] = [
    "stale replica state",
    "range not contiguous",
    "range does not chain",
    "MAC response without session",
];

/// Storage node count (two replicas of one capsule).
const STORAGE: usize = 2;

/// Fabric addresses: router, storage 0, storage 1, client.
const ROUTER: usize = 0;
const CLIENT: usize = STORAGE + 1;

/// A deterministic in-sim GDP cluster: 1 router, 2 storage replicas of
/// one capsule, 1 verifying writer/reader client.
pub struct SimCluster {
    /// The fabric (world control: partitions, crashes, trace digest).
    pub net: SimNet,
    endpoints: Vec<SimEndpoint>,
    /// `None` while the node is crashed. Index: 0 = router, 1..=2 = storage.
    runtimes: Vec<Option<NodeRuntime<SimAddr>>>,
    cfgs: Vec<NodeConfig>,
    /// Per-node shared metric registries (same index as `runtimes`).
    /// Survive crash/restart, so counters accumulate across reboots.
    node_metrics: Vec<Metrics>,
    /// The client's registry (scope `client`).
    client_metrics: Metrics,
    seed: u64,
    client: GdpClient,
    client_attach: Option<Attacher>,
    client_attached: bool,
    last_hello: u64,
    client_events: VecDeque<ClientEvent>,
    metadata: CapsuleMetadata,
    capsule: Name,
    router_name: Name,
    next_tick: u64,
    /// Scheduled `(fire_at, node_index, dead_peer)` peer-down reports.
    pending_downs: Vec<(u64, usize, SimAddr)>,
    /// Writer-chain ground truth: every record ever signed, by seq.
    records: Vec<gdp_capsule::Record>,
    /// Acked appends: seq → record hash (the durability contract).
    acked: BTreeMap<u64, gdp_capsule::RecordHash>,
    /// Every VerificationFailed reason the client ever reported.
    verification_failures: Vec<&'static str>,
}

impl SimCluster {
    /// Builds the cluster on a fresh fabric. `seed` drives every fault
    /// and RNG decision; `data_root` holds the replicas' segmented logs
    /// (durable across [`SimCluster::crash_storage`] /
    /// [`SimCluster::restart_storage`]). Acks gate on the covering fsync,
    /// so every run exercises the deferred-ack path end to end.
    pub fn new(seed: u64, faults: FaultSpec, data_root: &Path) -> SimCluster {
        let net = SimNet::with_faults(seed, faults);
        let endpoints: Vec<SimEndpoint> = (0..STORAGE + 2).map(|_| net.endpoint()).collect();

        // Fixed identity plan (constant across seeds).
        let router_seed = [10u8; 32];
        let router_name = gdp_router::Router::from_seed(&router_seed, "sim-r").name();
        let owner = SigningKey::from_seed(&[31u8; 32]);
        let writer_key = SigningKey::from_seed(&[32u8; 32]);
        let metadata = MetadataBuilder::new()
            .writer(&writer_key.verifying_key())
            .set_str("description", "chaos capsule")
            .sign(&owner);
        let capsule = metadata.name();

        // Per-storage identities and serving chains (owner-issued).
        let storage_seed = |i: usize| {
            let mut s = [0u8; 32];
            s.fill(21 + i as u8);
            s
        };
        let identity = |i: usize| {
            let mut s = storage_seed(i);
            s[0] ^= 0x5a; // the server-half seed domain (see build_cores_with_obs)
            gdp_cert::PrincipalId::from_seed(
                gdp_cert::PrincipalKind::Server,
                &s,
                &format!("sim-s{i}"),
            )
        };
        let ids: Vec<_> = (0..STORAGE).map(identity).collect();

        let mut cfgs = vec![NodeConfig {
            role: Role::Router,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed: router_seed,
            label: "sim-r".into(),
            peers: vec![],
            router: None,
            data_dir: None,
            fsync: None,
            stats_path: None,
            hosts: vec![],
            shards: 1,
            admission_rate: 0,
            admission_burst: 64,
        }];
        for i in 0..STORAGE {
            let me = &ids[i];
            let others =
                (0..STORAGE).filter(|j| *j != i).map(|j| ids[j].name()).collect::<Vec<_>>();
            cfgs.push(NodeConfig {
                role: Role::Storage,
                listen: "127.0.0.1:0".parse().unwrap(),
                seed: storage_seed(i),
                label: format!("sim-s{i}"),
                peers: vec![],
                router: Some(router_name),
                data_dir: Some(data_root.join(format!("s{i}"))),
                fsync: None,
                stats_path: None,
                shards: 1,
                admission_rate: 0,
                admission_burst: 64,
                hosts: vec![HostSpec {
                    metadata: metadata.clone(),
                    chain: ServingChain::direct(
                        AdCert::issue(&owner, capsule, me.name(), false, Scope::Global, FOREVER),
                        me.principal().clone(),
                    ),
                    peers: others,
                }],
            });
        }

        let node_metrics: Vec<Metrics> = cfgs.iter().map(|_| Metrics::new()).collect();
        let mut runtimes = Vec::new();
        for (i, cfg) in cfgs.iter().enumerate() {
            let uplink = (cfg.role == Role::Storage).then_some(ROUTER);
            let mut rt = NodeRuntime::from_config_with_obs(cfg, uplink, &node_metrics[i])
                .expect("sim node cores");
            rt.set_rng_seed(seed ^ (0x4e4f_4445 + i as u64));
            runtimes.push(Some(rt));
        }

        let client_metrics = Metrics::new();
        let mut client =
            GdpClient::from_seed_with_obs(&[41u8; 32], "sim-cli", &client_metrics.scope("client"));
        client.set_rng_seed(seed ^ 0x434c_4945);
        client.track_capsule(&metadata).expect("track");
        client.register_writer(&metadata, writer_key, PointerStrategy::Chain).expect("writer");

        let mut cluster = SimCluster {
            net,
            endpoints,
            runtimes,
            cfgs,
            node_metrics,
            client_metrics,
            seed,
            client,
            client_attach: None,
            client_attached: false,
            last_hello: 0,
            client_events: VecDeque::new(),
            metadata,
            capsule,
            router_name,
            next_tick: TICK_US,
            pending_downs: Vec::new(),
            records: Vec::new(),
            acked: BTreeMap::new(),
            verification_failures: Vec::new(),
        };
        for i in 0..cluster.runtimes.len() {
            let now = cluster.net.now();
            let out = cluster.runtimes[i].as_mut().unwrap().start(now);
            cluster.transmit(i, out);
        }
        cluster
    }

    /// The chaos capsule's name.
    pub fn capsule(&self) -> Name {
        self.capsule
    }

    /// The capsule metadata (for external tracking).
    pub fn metadata(&self) -> &CapsuleMetadata {
        &self.metadata
    }

    /// The run seed (for failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared metric registry of node `idx` (0 = router,
    /// 1..=2 = storage). Registries survive crash/restart, so counters
    /// accumulate across a node's whole simulated lifetime.
    pub fn node_metrics(&self, idx: usize) -> &Metrics {
        &self.node_metrics[idx]
    }

    /// The client-side metric registry (scope `client`).
    pub fn client_metrics(&self) -> &Metrics {
        &self.client_metrics
    }

    /// Mutable access to the client core, e.g. to tighten the pending
    /// request timeout before a drop-heavy run.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        &mut self.client
    }

    /// Ground-truth hash of the writer's record at `seq` (1-based), if
    /// the writer ever signed one.
    pub fn written_hash(&self, seq: u64) -> Option<gdp_capsule::RecordHash> {
        self.records.get(seq as usize - 1).map(|r| r.hash())
    }

    /// Every append the client saw acked: seq → record hash.
    pub fn acked(&self) -> &BTreeMap<u64, gdp_capsule::RecordHash> {
        &self.acked
    }

    /// Verification failures outside the honest-degradation whitelist.
    pub fn hard_verification_failures(&self) -> Vec<&'static str> {
        self.verification_failures
            .iter()
            .copied()
            .filter(|r| !HONEST_FAILURES.contains(r))
            .collect()
    }

    /// The live storage replicas' views of the chaos capsule, labelled.
    /// Panics if a replica is crashed (check only after full recovery)
    /// or does not host the capsule.
    pub fn storage_capsules(&self) -> Vec<(String, &DataCapsule)> {
        (0..STORAGE)
            .map(|i| {
                let rt = self.runtimes[1 + i].as_ref().unwrap_or_else(|| {
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

    fn storage_addr(&self, i: usize) -> SimAddr {
        self.endpoints[1 + i].addr
    }

    fn transmit(&mut self, from_idx: usize, out: Vec<(SimAddr, Pdu)>) {
        for (to, pdu) in out {
            // A send can only fail if the sender itself is crashed (we
            // never address unknown endpoints); drop mirrors real loss.
            let _ = self.endpoints[from_idx].send(to, pdu);
        }
    }

    /// Drains every live endpoint's inbox in fixed order, feeding the
    /// runtimes / client. Returns true if anything was processed.
    fn drain(&mut self) -> bool {
        let mut progressed = false;
        for idx in 0..self.endpoints.len() {
            // try_recv errors mean the endpoint is crashed — same as empty.
            while let Ok(Some(msg)) = self.endpoints[idx].try_recv() {
                progressed = true;
                let now = self.net.now();
                let (from, pdu) = msg;
                // Replay aid: GDP_SIM_DEBUG2=1 narrates every delivered
                // message (node index, sender, type, seq) — one level below
                // GDP_SIM_DEBUG's client-event narration. This is how the
                // seed-160 attach storm was localized.
                if std::env::var("GDP_SIM_DEBUG2").is_ok() {
                    eprintln!(
                        "[sim-drain] idx={idx} from={from} type={:?} seq={} len={}",
                        pdu.pdu_type,
                        pdu.seq,
                        pdu.payload.len()
                    );
                }
                if idx == CLIENT {
                    self.client_pdu(now, pdu);
                } else if let Some(rt) = self.runtimes[idx].as_mut() {
                    let out = rt.on_pdu(now, from, pdu);
                    self.transmit(idx, out);
                }
            }
        }
        progressed
    }

    fn client_pdu(&mut self, now: u64, pdu: Pdu) {
        // The attach handshake claims matching PDUs first, like the node.
        if !self.client_attached {
            if let Some(attacher) = self.client_attach.as_mut() {
                match attacher.on_pdu(&pdu) {
                    AttachStep::Send(reply) => {
                        let _ = self.endpoints[CLIENT].send(ROUTER, reply);
                        return;
                    }
                    AttachStep::Done(_) => {
                        self.client_attached = true;
                        return;
                    }
                    AttachStep::Failed(_) => {
                        // Re-arm but let the 300ms tick retry send the next
                        // Hello: immediate re-Hello on rejection feeds an
                        // attach storm (see chaos seed 160).
                        self.client_attach = Some(Attacher::new(
                            self.client.principal_id().clone(),
                            self.router_name,
                            Vec::new(),
                            FOREVER,
                        ));
                        self.last_hello = now;
                        return;
                    }
                    AttachStep::Ignored => {}
                }
            }
        }
        for ev in self.client.handle_pdu(now, pdu) {
            // Replay aid: GDP_SIM_DEBUG=1 narrates every client event with
            // its virtual timestamp (stderr only — never affects the run).
            if std::env::var("GDP_SIM_DEBUG").is_ok() {
                eprintln!("[sim-client] now={now} {ev:?}");
            }
            if let ClientEvent::VerificationFailed { reason, .. } = &ev {
                self.verification_failures.push(reason);
            }
            self.client_events.push_back(ev);
        }
    }

    fn start_client_attach(&mut self, now: u64) {
        let attacher = Attacher::new(
            self.client.principal_id().clone(),
            self.router_name,
            Vec::new(),
            FOREVER,
        );
        let _ = self.endpoints[CLIENT].send(ROUTER, attacher.hello());
        self.client_attach = Some(attacher);
        self.last_hello = now;
    }

    fn fire_due_downs(&mut self, now: u64) -> bool {
        let Some(pos) = self.pending_downs.iter().position(|d| d.0 <= now) else {
            return false;
        };
        let (_, node, peer) = self.pending_downs.remove(pos);
        if let Some(rt) = self.runtimes[node].as_mut() {
            let out = rt.on_peer_down(now, peer);
            self.transmit(node, out);
        }
        true
    }

    fn tick_all(&mut self, now: u64) {
        for idx in 0..self.runtimes.len() {
            if let Some(rt) = self.runtimes[idx].as_mut() {
                let out = rt.tick(now);
                self.transmit(idx, out);
            }
        }
        // Client deadline sweep: expire pending requests whose responses
        // were lost, exactly like the live driver's wait loop does.
        for ev in self.client.sweep_timeouts(now) {
            if std::env::var("GDP_SIM_DEBUG").is_ok() {
                eprintln!("[sim-client] now={now} {ev:?}");
            }
            self.client_events.push_back(ev);
        }
        // Client attach retry (mirrors ClusterClient's 300ms re-Hello,
        // rounded to the tick cadence).
        if !self.client_attached
            && self.client_attach.is_some()
            && now.saturating_sub(self.last_hello) >= 300_000
        {
            self.last_hello = now;
            if let Some(attacher) = self.client_attach.as_ref() {
                let _ = self.endpoints[CLIENT].send(ROUTER, attacher.hello());
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

    /// Pumps the world until the predicate accepts a client event or the
    /// virtual deadline passes.
    fn pump_until(&mut self, deadline: u64, mut pred: impl FnMut(&ClientEvent) -> bool) -> bool {
        loop {
            while let Some(ev) = self.client_events.pop_front() {
                if pred(&ev) {
                    return true;
                }
            }
            if !self.step(deadline) {
                return false;
            }
        }
    }

    // ---- client driver -------------------------------------------------

    /// Attaches the client to the router (secure-advertisement handshake),
    /// pumping up to `window_us` of virtual time.
    pub fn attach_client(&mut self, window_us: u64) -> bool {
        let now = self.net.now();
        self.start_client_attach(now);
        let deadline = now + window_us;
        while !self.client_attached {
            if !self.step(deadline) {
                return false;
            }
        }
        true
    }

    /// Establishes an encrypted session flow with a serving replica,
    /// retrying the handshake (a fresh `SessionInit` per attempt) until
    /// the window closes. Retrying matters: a lost `SessionAccept` leaves
    /// the handshake half-established — the server holds a flow key the
    /// client never learned, so it MACs every response with a key the
    /// client cannot verify (found by seed 12 of the chaos sweep).
    pub fn client_session(&mut self, window_us: u64) -> bool {
        let deadline = self.net.now() + window_us;
        loop {
            let pdu = self.client.session_init(self.capsule);
            let _ = self.endpoints[CLIENT].send(ROUTER, pdu);
            let slice = (self.net.now() + 2_000_000).min(deadline);
            if self.pump_until(slice, |ev| matches!(ev, ClientEvent::SessionReady { .. })) {
                return true;
            }
            if self.net.now() >= deadline {
                return false;
            }
        }
    }

    /// If any verification failure since `seen` was a MAC the client had
    /// no session key for, re-key: send a fresh `SessionInit`, replacing
    /// the server's stale flow. This is the recovery a real client driver
    /// performs when a half-established session poisons responses.
    fn rekey_if_poisoned(&mut self, seen: usize) {
        if self.verification_failures[seen..].contains(&"MAC response without session") {
            let pdu = self.client.session_init(self.capsule);
            let _ = self.endpoints[CLIENT].send(ROUTER, pdu);
        }
    }

    /// Appends a signed record and pumps until the durability mode is
    /// acknowledged, retrying the same signed record (appends are
    /// idempotent server-side) for up to `window_us` of virtual time.
    /// Returns the seq on ack; the record stays in the writer chain — and
    /// out of [`SimCluster::acked`] — when the window closes unacked.
    pub fn client_append(&mut self, body: &[u8], ack: AckMode, window_us: u64) -> Option<u64> {
        let (mut pdu, record) =
            self.client.append(self.capsule, body, 0, ack).expect("writer registered");
        let want = record.header.seq;
        let hash = record.hash();
        self.records.push(record.clone());
        let deadline = self.net.now() + window_us;
        loop {
            // Honor an armed Nack backoff before (re-)issuing: retrying
            // straight into an overloaded server is the storm the typed
            // Nack exists to prevent (events queued while waiting are
            // still examined by the next pump).
            let not_before = self.client.retry_not_before(&self.capsule);
            if self.net.now() < not_before {
                self.run_until(not_before.min(deadline));
            }
            let _ = self.endpoints[CLIENT].send(ROUTER, pdu);
            // Per-attempt slice: short enough that a request lost to a
            // mid-failover route retries well before the outer deadline.
            let slice = (self.net.now() + 2_000_000).min(deadline);
            let seen = self.verification_failures.len();
            let acked = self.pump_until(
                slice,
                |ev| matches!(ev, ClientEvent::AppendAcked { seq, .. } if *seq == want),
            );
            if acked {
                self.acked.insert(want, hash);
                return Some(want);
            }
            if self.net.now() >= deadline {
                return None;
            }
            self.rekey_if_poisoned(seen);
            // Retry under a fresh request seq: the deadline sweep may have
            // expired the previous attempt's pending entry, and responses
            // to a swept seq are ignored. Appends stay idempotent
            // server-side (same signed record).
            self.client.mark_retry();
            pdu = self.client.append_record(self.capsule, record.clone(), ack);
        }
    }

    /// Issues a verified read, retrying for up to `window_us` of virtual
    /// time. Only responses that pass client-side verification are
    /// returned; honest-degradation rejections are retried.
    pub fn client_read(&mut self, target: ReadTarget, window_us: u64) -> Option<VerifiedRead> {
        let deadline = self.net.now() + window_us;
        loop {
            let not_before = self.client.retry_not_before(&self.capsule);
            if self.net.now() < not_before {
                self.run_until(not_before.min(deadline));
            }
            let pdu = self.client.read(self.capsule, target);
            let _ = self.endpoints[CLIENT].send(ROUTER, pdu);
            let slice = (self.net.now() + 2_000_000).min(deadline);
            let seen = self.verification_failures.len();
            let mut got = None;
            let ok = self.pump_until(slice, |ev| match ev {
                ClientEvent::ReadOk { result, .. } => {
                    got = Some(result.clone());
                    true
                }
                // Errors and unreachables end the slice early → retry.
                ClientEvent::Unreachable { .. } | ClientEvent::ServerError { .. } => true,
                _ => false,
            });
            if ok {
                if let Some(r) = got {
                    return Some(r);
                }
            }
            if self.net.now() >= deadline {
                return None;
            }
            self.rekey_if_poisoned(seen);
            self.client.mark_retry();
            // Mirrors the live driver's 50ms pause between retries, so an
            // unroutable capsule doesn't hot-loop request/Error cycles.
            self.run_for(50_000);
        }
    }

    // ---- overload & hostile peers --------------------------------------

    /// The router's identity name (hostile peers need it to forge
    /// plausible control traffic).
    pub fn router_name(&self) -> Name {
        self.router_name
    }

    /// The router's fabric address (where attached traffic enters).
    pub fn router_addr(&self) -> SimAddr {
        self.endpoints[ROUTER].addr
    }

    /// Allocates a fresh fabric endpoint outside the cluster — the
    /// injection point for a compromised peer. Whatever it sends rides
    /// the same seeded fabric (latency, drops) as honest traffic;
    /// responses the cluster addresses back to it queue in its inbox for
    /// the test to inspect or ignore.
    pub fn hostile_endpoint(&mut self) -> SimEndpoint {
        self.net.endpoint()
    }

    /// Arms load shedding on every live storage server: at most `budget`
    /// appends per maintenance tick, excess answered with
    /// `Nack{Busy, retry_after_us}`.
    pub fn set_storage_overload_policy(&mut self, budget: u64, retry_after_us: u64) {
        for i in 0..STORAGE {
            if let Some(rt) = self.runtimes[1 + i].as_mut() {
                if let Some(server) = rt.server_mut() {
                    server.set_overload_policy(budget, retry_after_us);
                }
            }
        }
    }

    // ---- fault injection -----------------------------------------------

    /// Crashes storage `i` (0-based): its process state evaporates, its
    /// segmented log survives on disk. The router "notices" after the
    /// transport detection delay, withdrawing the replica's routes.
    pub fn crash_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.net.crash(addr);
        self.runtimes[1 + i] = None;
        self.pending_downs.push((self.net.now() + DETECT_US, ROUTER, addr));
    }

    /// Cancels not-yet-fired down detections involving storage `i`. A
    /// transport whose peer recovers before the dial-retry budget runs
    /// out never reports Down — without this, a stale detection fires
    /// *after* the replica re-attached and silently withdraws its fresh
    /// routes (found by seed 4 of the chaos sweep; see
    /// `pinned_stale_down_detection` in tests/chaos.rs).
    fn cancel_downs(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.pending_downs
            .retain(|&(_, node, peer)| !(node == ROUTER && peer == addr) && node != 1 + i);
    }

    /// Restarts a crashed storage node through the production boot path:
    /// cores rebuilt from config, segmented log re-opened (torn-tail
    /// recovery + record replay), then a fresh network attach.
    pub fn restart_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        assert!(self.runtimes[1 + i].is_none(), "restart of a running node");
        self.cancel_downs(i);
        self.net.restart(addr);
        // Same registry as before the crash: the node's counters span its
        // whole lifetime, reboots included.
        let mut rt = NodeRuntime::from_config_with_obs(
            &self.cfgs[1 + i],
            Some(ROUTER),
            &self.node_metrics[1 + i],
        )
        .expect("rebuild crashed node");
        // A fresh seed domain per boot: a restarted process has new RNG
        // state, but still fully derived from the run seed.
        rt.set_rng_seed(self.seed ^ (0x4245_4254 + i as u64) ^ self.net.now());
        let now = self.net.now();
        let out = rt.start(now);
        self.runtimes[1 + i] = Some(rt);
        self.transmit(1 + i, out);
    }

    /// Storage `i`'s config, as its next [`SimCluster::restart_storage`]
    /// boots it (e.g. to change the `fsync` policy across a restart).
    pub fn storage_config_mut(&mut self, i: usize) -> &mut NodeConfig {
        &mut self.cfgs[1 + i]
    }

    /// Torn-write fault: appends `garbage` to the tail of storage `i`'s
    /// active on-disk log — the shared log's highest-id segment —
    /// simulating a partially persisted write that the crash cut short.
    /// Only meaningful while the node is crashed (the store is closed);
    /// recovery on restart must truncate the torn tail and keep every
    /// acked record. Returns the file that was damaged.
    pub fn tear_storage_tail(&mut self, i: usize, garbage: &[u8]) -> std::path::PathBuf {
        assert!(self.storage_crashed(i), "tear_storage_tail on a running node");
        let data_dir =
            self.cfgs[1 + i].data_dir.as_ref().expect("sim storage nodes have a data_dir");
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
        self.runtimes[1 + i].is_none()
    }

    /// True once storage `i`'s network attach has completed.
    pub fn storage_attached(&self, i: usize) -> bool {
        self.runtimes[1 + i].as_ref().map(|rt| rt.is_attached()).unwrap_or(false)
    }

    /// Partitions storage `i` from the router (both directions). Both
    /// sides "notice" after the detection delay: the router withdraws the
    /// replica's routes; the replica restarts its attach handshake.
    pub fn partition_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.net.partition(ROUTER, addr);
        let at = self.net.now() + DETECT_US;
        self.pending_downs.push((at, ROUTER, addr));
        self.pending_downs.push((at, 1 + i, ROUTER));
    }

    /// Heals the router↔storage-`i` partition. The replica's pending
    /// attach retries (tick cadence) re-establish its advertisements.
    /// Detections that have not fired yet are cancelled: the link is
    /// back before the transport's retry budget ran out.
    pub fn heal_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.cancel_downs(i);
        self.net.heal(ROUTER, addr);
    }
}
