//! Transport-agnostic node runtime: the full node composition (router +
//! DataCapsule server + attach state machine + peer↔neighbor mapping)
//! as a sans-I/O core, generic over the peer-address type `P`.
//!
//! [`crate::node`] wraps this over [`gdp_net::TcpNet`] (P = `SocketAddr`)
//! for real deployments; `gdp-sim` wraps the *same* runtime over the
//! deterministic `gdp_net::simnet` fabric (P = `SimAddr`) for seeded
//! chaos testing. Every method takes the caller's clock (`now`, µs) and
//! returns an outbox of `(peer, pdu)` pairs to transmit — the runtime
//! never reads a wall clock, never spawns a thread, and (once seeded via
//! [`NodeRuntime::set_rng_seed`]) never touches OS randomness, which is
//! what makes simulation runs byte-for-byte replayable.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::config::{NodeConfig, Role};
use crate::node::NodeError;
use gdp_cert::{PrincipalId, PrincipalKind};
use gdp_obs::Metrics;
use gdp_router::{attach_directly, AttachStep, Attacher, Router};
use gdp_server::DataCapsuleServer;
use gdp_store::{Backing, StorageEngine};
use gdp_wire::{Name, Pdu};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::path::Path;

/// Catalog/RtCert expiry for runtime attachments: effectively forever on
/// the node's own clock (node time starts at zero at process start).
pub const FOREVER: u64 = 1 << 50;

/// Reserved neighbor id for the co-located server (role `both`).
pub const LOCAL_NID: usize = usize::MAX;

/// How long (µs) to wait before re-sending a Hello for an unfinished
/// network attach.
pub const ATTACH_RETRY_US: u64 = 500_000;

/// Cadence (µs) at which whoever drives a [`NodeRuntime`] calls
/// [`NodeRuntime::tick`]: the daemon's event loop on the wall clock, the
/// simulator and the overload figure on virtual time.
pub const TICK_US: u64 = 200_000;

/// PDUs to transmit, in order: `(peer, pdu)`.
pub type NodeOutbox<P> = Vec<(P, Pdu)>;

/// Peer ↔ neighbor-id table. Ids are dense, allocated in first-sight
/// order, and never reused — a returning peer keeps its id, which is what
/// keeps SimNet runs replayable.
struct Neighbors<P> {
    ids: HashMap<P, usize>,
    addrs: Vec<P>,
}

impl<P: Copy + Eq + Hash> Neighbors<P> {
    /// The stable neighbor id for `peer`, allocating one on first sight.
    fn nid(&mut self, peer: P) -> usize {
        *self.ids.entry(peer).or_insert_with(|| {
            self.addrs.push(peer);
            self.addrs.len() - 1
        })
    }
}

/// Server-side attach progress (storage role, network attach).
enum ServerAttach {
    /// Handshake in flight; retry Hello after a quiet period (µs of the
    /// last Hello sent).
    Pending(Box<Attacher>, u64),
    /// Attached; nothing to do until a re-advertise is needed.
    Done,
}

/// Builds the protocol cores for a node config: the router (when the
/// role routes) and the server with its hosted capsules mounted through
/// the configured storage engine (when the role stores).
///
/// Extracted from the TCP daemon so the simulator restarts a crashed
/// node through the *same* code path — including the segmented log's
/// torn-tail recovery and the server's replay of each hosted store.
///
/// Metrics land in the node's shared registry: the router registers
/// under scope `"router"`, the server under `"server"`, and every
/// capsule store under `"store"`.
pub fn build_cores_with_obs(
    cfg: &NodeConfig,
    metrics: &Metrics,
) -> Result<(Option<Router>, Option<DataCapsuleServer>), NodeError> {
    let router = cfg
        .role
        .routes()
        .then(|| Router::from_seed_with_obs(&cfg.seed, &cfg.label, &metrics.scope("router")));

    let server = if cfg.role.stores() {
        // Distinct seed domain for the server half of a `both` node, so
        // router and server identities never collide.
        let mut seed = cfg.seed;
        seed[0] ^= 0x5a;
        let id = PrincipalId::from_seed(PrincipalKind::Server, &seed, &cfg.label);
        let mut server = DataCapsuleServer::new(id, &metrics.scope("server"));
        // One log is shared by every hosted capsule — those in the config
        // and those a wire `Host` request adds later: the segmented
        // group-commit log under `<data_dir>/seglog/`, or the same log on
        // an in-memory file system when no data_dir is configured. Restart
        // recovery (torn tails, checkpoint replay) happens when the engine
        // opens it, then `host` replays each capsule's stream into the
        // server core.
        let backing = match &cfg.data_dir {
            None => Backing::Memory,
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| NodeError::Host(format!("data_dir: {e}")))?;
                refuse_file_engine_logs(dir)?;
                Backing::Segmented(dir.join("seglog"))
            }
        };
        let mut engine = StorageEngine::with_obs(backing, metrics.scope("store"));
        if let Some(policy) = cfg.fsync {
            engine = engine.with_policy(policy);
        }
        server.mount(engine.log().map_err(|e| NodeError::Host(format!("{e:?}")))?);
        for spec in &cfg.hosts {
            server
                .host(spec.metadata.clone(), spec.chain.clone(), spec.peers.clone())
                .map_err(|e| NodeError::Host(format!("{e:?}")))?;
        }
        Some(server)
    } else {
        None
    };

    Ok((router, server))
}

/// Fails when `data_dir` still holds `<64-hex>.log` files, the per-capsule
/// logs of the removed file engine: starting an empty `seglog/` next to
/// them would silently serve none of the data they hold.
fn refuse_file_engine_logs(data_dir: &Path) -> Result<(), NodeError> {
    let io = |e: std::io::Error| NodeError::Host(format!("data_dir: {e}"));
    for entry in std::fs::read_dir(data_dir).map_err(io)? {
        let name = entry.map_err(io)?.file_name();
        let is_capsule_log = name
            .to_str()
            .and_then(|n| n.strip_suffix(".log"))
            .is_some_and(|stem| Name::from_hex(stem).is_some());
        if is_capsule_log {
            return Err(NodeError::Host(format!(
                "data_dir {} holds capsule logs of the removed file engine ({}); this node \
                 only reads <data_dir>/seglog/ and refuses to start empty on top of them",
                data_dir.display(),
                name.to_string_lossy()
            )));
        }
    }
    Ok(())
}

/// The node composition as a sans-I/O state machine over peer type `P`.
pub struct NodeRuntime<P> {
    role: Role,
    router: Option<Router>,
    server: Option<DataCapsuleServer>,
    attach: Option<ServerAttach>,
    /// The router above this node (`router =`): the one a storage node
    /// attaches to, the parent domain of a node that routes.
    attach_target: Option<Name>,
    /// The peer that router is reached through (the first `peer =`).
    uplink: Option<P>,
    /// Stable peer ↔ neighbor-id table (never reused; a returning peer
    /// keeps its id).
    nids: Neighbors<P>,
}

impl<P: Copy + Eq + Hash> NodeRuntime<P> {
    /// Assembles a runtime from pre-built cores. `attach_target` names
    /// the router above this node and `uplink` is the peer it is reached
    /// through: a storage node attaches to it, a node that routes makes
    /// it its parent domain (default route and announcement target).
    pub fn new(
        role: Role,
        mut router: Option<Router>,
        server: Option<DataCapsuleServer>,
        attach_target: Option<Name>,
        uplink: Option<P>,
    ) -> NodeRuntime<P> {
        let mut nids = Neighbors { ids: HashMap::new(), addrs: Vec::new() };
        if let (Some(router), Some(_), Some(uplink)) = (router.as_mut(), attach_target, uplink) {
            router.set_parent(nids.nid(uplink));
        }
        NodeRuntime { role, router, server, attach: None, attach_target, uplink, nids }
    }

    /// Builds cores from `cfg` and assembles the runtime.
    pub fn from_config(cfg: &NodeConfig, uplink: Option<P>) -> Result<NodeRuntime<P>, NodeError> {
        let (router, server) = build_cores_with_obs(cfg, &Metrics::new())?;
        Ok(NodeRuntime::new(cfg.role, router, server, cfg.router, uplink))
    }

    /// [`NodeRuntime::from_config`] registering all core metrics into the
    /// node's shared registry.
    pub fn from_config_with_obs(
        cfg: &NodeConfig,
        uplink: Option<P>,
        metrics: &Metrics,
    ) -> Result<NodeRuntime<P>, NodeError> {
        let (router, server) = build_cores_with_obs(cfg, metrics)?;
        Ok(NodeRuntime::new(cfg.role, router, server, cfg.router, uplink))
    }

    /// The router identity, when this node runs one.
    pub fn router_name(&self) -> Option<Name> {
        self.router.as_ref().map(|r| r.name())
    }

    /// The DataCapsule-server identity, when this node runs one.
    pub fn server_name(&self) -> Option<Name> {
        self.server.as_ref().map(|s| s.name())
    }

    /// The hosted-data core, for inspection (e.g. invariant checks).
    pub fn server(&self) -> Option<&DataCapsuleServer> {
        self.server.as_ref()
    }

    /// Mutable access to the hosted-data core.
    pub fn server_mut(&mut self) -> Option<&mut DataCapsuleServer> {
        self.server.as_mut()
    }

    /// The routing core, for inspection.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// Mutable access to the routing core.
    pub fn router_mut(&mut self) -> Option<&mut Router> {
        self.router.as_mut()
    }

    /// True once a storage node's network attach has completed.
    pub fn is_attached(&self) -> bool {
        matches!(self.attach, Some(ServerAttach::Done))
    }

    /// Seeds every internal RNG (router challenges, server session keys)
    /// so runs are deterministic. Call before any traffic is processed.
    pub fn set_rng_seed(&mut self, seed: u64) {
        if let Some(r) = self.router.as_mut() {
            r.set_rng_seed(seed ^ 0x524f_5554);
        }
        if let Some(s) = self.server.as_mut() {
            s.set_rng_seed(seed ^ 0x5352_5652);
        }
    }

    /// Starts the node: a `both` node attaches its server to its own
    /// router in-process; a pure storage node opens the network attach
    /// handshake toward its uplink.
    pub fn start(&mut self, now: u64) -> NodeOutbox<P> {
        let mut out = Vec::new();
        self.local_attach(now);
        self.start_network_attach(now, &mut out);
        out
    }

    /// Role `both`: drive the attach handshake against the local router
    /// directly — no network round trip for co-located components.
    fn local_attach(&mut self, now: u64) {
        let (Some(router), Some(server)) = (self.router.as_mut(), self.server.as_mut()) else {
            return;
        };
        let mut attacher = Attacher::new(
            server.principal_id().clone(),
            router.name(),
            server.advert_entries(),
            FOREVER,
        );
        #[allow(
            clippy::expect_used,
            reason = "both halves of the attach run in-process with no I/O; failure is a construction-order bug, not a runtime condition"
        )]
        attach_directly(router, LOCAL_NID, &mut attacher, now)
            .expect("local attach cannot fail: both halves are in-process");
    }

    /// Storage role: begin (or restart) the attach handshake toward the
    /// configured router.
    fn start_network_attach(&mut self, now: u64, out: &mut NodeOutbox<P>) {
        if self.role != Role::Storage {
            return;
        }
        let (Some(server), Some(target), Some(uplink)) =
            (self.server.as_ref(), self.attach_target, self.uplink)
        else {
            return;
        };
        let attacher =
            Attacher::new(server.principal_id().clone(), target, server.advert_entries(), FOREVER);
        out.push((uplink, attacher.hello()));
        self.attach = Some(ServerAttach::Pending(Box::new(attacher), now));
    }

    /// Re-arms the attach handshake *without* sending a Hello now; the
    /// tick retry sends it one `ATTACH_RETRY_US` later. Used after a
    /// rejection, where immediate retry would feed an attach storm.
    fn rearm_network_attach(&mut self, now: u64) {
        if self.role != Role::Storage {
            return;
        }
        let (Some(server), Some(target)) = (self.server.as_ref(), self.attach_target) else {
            return;
        };
        let attacher =
            Attacher::new(server.principal_id().clone(), target, server.advert_entries(), FOREVER);
        self.attach = Some(ServerAttach::Pending(Box::new(attacher), now));
    }

    /// A peer's transport reported it dead: withdraw its routes and, if
    /// it was our uplink, restart the attach handshake.
    pub fn on_peer_down(&mut self, now: u64, peer: P) -> NodeOutbox<P> {
        let mut out = Vec::new();
        // Withdraw everything the dead neighbor advertised so reads fail
        // over to surviving replicas.
        if let (Some(router), Some(nid)) = (self.router.as_mut(), self.nids.ids.get(&peer)) {
            router.neighbor_down(*nid);
        }
        // A storage node that lost its uplink must re-attach once the
        // router is reachable again.
        if self.role == Role::Storage && Some(peer) == self.uplink {
            self.start_network_attach(now, &mut out);
        }
        out
    }

    /// Feeds one received PDU through the node: the attach handshake
    /// claims matching PDUs first, then the router cascade (or, on a
    /// router-less storage node, the server directly).
    pub fn on_pdu(&mut self, now: u64, from: P, pdu: Pdu) -> NodeOutbox<P> {
        let mut out = Vec::new();
        // Storage role: the attach handshake claims matching PDUs first.
        if let Some(ServerAttach::Pending(attacher, _)) = self.attach.as_mut() {
            match attacher.on_pdu(&pdu) {
                AttachStep::Send(reply) => {
                    if let Some(uplink) = self.uplink {
                        out.push((uplink, reply));
                    }
                    return out;
                }
                AttachStep::Done(_) => {
                    self.attach = Some(ServerAttach::Done);
                    return out;
                }
                AttachStep::Failed(_) => {
                    // Router restarted mid-handshake or rejected us; start
                    // over from Hello — but let the tick retry send it.
                    // Re-Helloing *immediately* on rejection turns overlapping
                    // handshake cycles into a self-sustaining reject/Hello
                    // storm (attach livelock, found by chaos seed 160).
                    self.rearm_network_attach(now);
                    return out;
                }
                AttachStep::Ignored => {}
            }
        }

        if self.router.is_some() {
            let nid = self.nids.nid(from);
            self.route(now, nid, pdu, &mut out);
        } else if let Some(server) = self.server.as_mut() {
            let replies = server.handle_pdu(now, pdu);
            if let Some(uplink) = self.uplink {
                for reply in replies {
                    out.push((uplink, reply));
                }
            }
        }
        out
    }

    /// Feeds one PDU into the router and collects the resulting cascade,
    /// bouncing between router and co-located server until quiescent.
    fn route(&mut self, now: u64, from_nid: usize, pdu: Pdu, out: &mut NodeOutbox<P>) {
        let mut work: VecDeque<(usize, Pdu)> = VecDeque::new();
        work.push_back((from_nid, pdu));
        // The request/response protocol cannot ping-pong unboundedly; the
        // cap is defense against a protocol bug becoming a busy loop.
        let mut budget = 10_000usize;
        while let Some((nid, pdu)) = work.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let Some(router) = self.router.as_mut() else { return };
            for (to, pdu_out) in router.handle_pdu(now, nid, pdu) {
                if to == LOCAL_NID {
                    if let Some(server) = self.server.as_mut() {
                        for reply in server.handle_pdu(now, pdu_out) {
                            work.push_back((LOCAL_NID, reply));
                        }
                    }
                } else if let Some(&peer) = self.nids.addrs.get(to) {
                    out.push((peer, pdu_out));
                }
            }
        }
    }

    /// Periodic maintenance: route-expiry purge, server durability
    /// timeouts + anti-entropy, re-advertise, attach-Hello retry.
    pub fn tick(&mut self, now: u64) -> NodeOutbox<P> {
        let mut out = Vec::new();
        if let Some(router) = self.router.as_mut() {
            router.purge_expired(now);
        }

        // Server maintenance: durability timeouts + anti-entropy.
        if let Some(server) = self.server.as_mut() {
            let pdus = server.tick(now);
            match self.role {
                Role::Both => {
                    for pdu in pdus {
                        self.route(now, LOCAL_NID, pdu, &mut out);
                    }
                }
                _ => {
                    if let Some(uplink) = self.uplink {
                        for pdu in pdus {
                            out.push((uplink, pdu));
                        }
                    }
                }
            }
        }

        // Re-advertise when new capsules were mounted at runtime.
        if self.server.as_mut().map(|s| s.needs_readvertise()).unwrap_or(false) {
            match self.role {
                Role::Both => self.local_attach(now),
                Role::Storage => self.start_network_attach(now, &mut out),
                Role::Router => {}
            }
        }

        // Nudge an unfinished network attach (lost Hello, slow router).
        if let Some(ServerAttach::Pending(attacher, last_hello)) = self.attach.as_mut() {
            if now.saturating_sub(*last_hello) >= ATTACH_RETRY_US {
                *last_hello = now;
                let hello = attacher.hello();
                if let Some(uplink) = self.uplink {
                    out.push((uplink, hello));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peers are plain integers here: the runtime is generic over `P`.
    const UPLINK: u32 = 100;

    /// A Data PDU for a name no router knows: forwarded up the default
    /// route, so the outbox names the peer the parent's id resolves to.
    fn unknown_dst(seq: u64) -> Pdu {
        Pdu::data(Name::from_content(b"src"), Name::from_content(b"nowhere"), seq, vec![0u8; 8])
    }

    #[test]
    fn neighbor_ids_are_dense_first_sight_and_stable() {
        let router = Router::from_seed(&[5u8; 32], "rt-test");
        let parent = Name::from_content(b"parent");
        let mut rt = NodeRuntime::new(Role::Router, Some(router), None, Some(parent), Some(UPLINK));
        // The uplink is seen first (at construction) and is the parent
        // the router was given: unknown names go out through it.
        assert_eq!(rt.nids.ids.get(&UPLINK), Some(&0));
        for (seq, peer) in [7u32, 3, 9, 7].into_iter().enumerate() {
            assert_eq!(
                rt.on_pdu(0, peer, unknown_dst(seq as u64)),
                vec![(UPLINK, unknown_dst(seq as u64))]
            );
        }
        assert_eq!(rt.nids.addrs, vec![UPLINK, 7, 3, 9]);

        // A peer that goes down and comes back keeps its id; the next
        // new peer takes the next dense id.
        assert!(rt.on_peer_down(0, 3).is_empty());
        rt.on_pdu(0, 3, unknown_dst(10));
        rt.on_pdu(0, 5, unknown_dst(11));
        assert_eq!(rt.nids.addrs, vec![UPLINK, 7, 3, 9, 5]);
        for (nid, peer) in rt.nids.addrs.iter().enumerate() {
            assert_eq!(rt.nids.ids[peer], nid);
        }
    }
}
