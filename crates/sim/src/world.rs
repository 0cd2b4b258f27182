//! Scenario builder: assembles complete GDP deployments on the simulator
//! and drives them synchronously.
//!
//! A [`GdpWorld`] owns a `SimNet` with routers, DataCapsule-servers, and
//! one client, and exposes blocking operations (create capsule, append,
//! read, …) that inject a request and run the simulator until the answer
//! arrives. It implements `gdp_caapi::CapsuleAccess`, so every CAAPI —
//! including the Fig 8 filesystem — runs unmodified over the full
//! client → router → server network stack.

use gdp_caapi::{CaapiError, CapsuleAccess};
use gdp_capsule::{CapsuleMetadata, PointerStrategy, Record};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::{ClientEvent, GdpClient, SimClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::{LinkSpec, NodeId, SimNet, SimTime, MILLI};
use gdp_router::{Router, SimRouter};
use gdp_server::{AckMode, DataCapsuleServer, DataMsg, ReadTarget, SimServer};
use gdp_wire::{Name, Pdu, PduType, Wire};

/// Expiry used for all credentials in simulated worlds.
pub const FOREVER: u64 = 1 << 50;

/// Modeled DataCapsule-server CPU per handled request (µs): dominated by
/// the Ed25519 record verification (~170 µs measured by
/// `report -- ablation-session`).
pub const SERVER_CPU_US: u64 = 200;

/// Which physical deployment to model (paper §IX).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Client on a residential link (100 Mbps down / 10 Mbps up, 10 ms) to
    /// a cloud region; server inside the region on a LAN.
    CloudFromResidential,
    /// Client and server on the same edge LAN (1 Gbps, 200 µs).
    EdgeLan,
}

/// A fully assembled simulated deployment with one driving client.
pub struct GdpWorld {
    /// The simulator (public for advanced scenarios and assertions).
    pub net: SimNet,
    /// Router nodes, in creation order (index 0 = the client's router).
    pub routers: Vec<(NodeId, Name)>,
    /// Server nodes with their principals.
    pub servers: Vec<(NodeId, PrincipalId)>,
    /// The client node.
    pub client_node: NodeId,
    /// Capsule owner key used for delegations.
    pub owner: SigningKey,
    /// Maximum virtual time to wait for any single response.
    pub op_timeout: SimTime,
    /// How many records a network `read_range` fetches per request
    /// (flow-control batch; ablation knob).
    pub read_batch: u64,
    /// Durability mode used for CAAPI appends.
    pub ack_mode: AckMode,
}

impl GdpWorld {
    /// Builds the single-domain world for `placement`.
    pub fn new(seed: u64, placement: Placement) -> GdpWorld {
        let mut net = SimNet::new(seed);
        let router = Router::from_seed(&[100u8; 32], "domain");
        let router_name = router.name();
        let router_node = net.add_node(SimRouter::new(router));

        let server_id = PrincipalId::from_seed(PrincipalKind::Server, &[101u8; 32], "server");
        let server = DataCapsuleServer::new(server_id.clone());
        let server_node = net.add_node(SimServer::new(server, router_node, router_name, FOREVER));
        net.node_mut::<SimServer>(server_node).cpu_cost_us = SERVER_CPU_US;
        net.connect(server_node, router_node, LinkSpec::lan());
        net.inject_timer(server_node, 0, gdp_server::ATTACH_TIMER);

        let client = GdpClient::from_seed(&[102u8; 32], "client");
        let client_node = net.add_node(SimClient::new(client, router_node, router_name, FOREVER));
        match placement {
            Placement::CloudFromResidential => {
                net.connect_directed(client_node, router_node, LinkSpec::residential_up());
                net.connect_directed(router_node, client_node, LinkSpec::residential_down());
            }
            Placement::EdgeLan => {
                net.connect(client_node, router_node, LinkSpec::lan());
            }
        }
        net.inject_timer(client_node, 0, gdp_client::simnode::ATTACH_TIMER);
        net.run_to_quiescence();

        GdpWorld {
            net,
            routers: vec![(router_node, router_name)],
            servers: vec![(server_node, server_id)],
            client_node,
            owner: SigningKey::from_seed(&[99u8; 32]),
            op_timeout: 600 * 1000 * MILLI, // 10 virtual minutes
            read_batch: 16,
            ack_mode: AckMode::Local,
        }
    }

    /// A two-domain hierarchy (root + two leaf domains) with one server in
    /// each leaf and the client in domain 2. Used by locality/ablation
    /// studies.
    pub fn hierarchy(seed: u64) -> GdpWorld {
        let mut net = SimNet::new(seed);
        let root = Router::from_seed(&[110u8; 32], "root");
        let d1 = Router::from_seed(&[111u8; 32], "d1");
        let d2 = Router::from_seed(&[112u8; 32], "d2");
        let (root_name, d1_name, d2_name) = (root.name(), d1.name(), d2.name());
        let root_node = net.add_node(SimRouter::new(root));
        let d1_node = net.add_node(SimRouter::new(d1));
        let d2_node = net.add_node(SimRouter::new(d2));
        net.connect(root_node, d1_node, LinkSpec::wan());
        net.connect(root_node, d2_node, LinkSpec::wan());
        net.node_mut::<SimRouter>(d1_node).router.set_parent(root_node);
        net.node_mut::<SimRouter>(d2_node).router.set_parent(root_node);

        let s1_id = PrincipalId::from_seed(PrincipalKind::Server, &[113u8; 32], "srv-d1");
        let s2_id = PrincipalId::from_seed(PrincipalKind::Server, &[114u8; 32], "srv-d2");
        let s1 = DataCapsuleServer::new(s1_id.clone());
        let s2 = DataCapsuleServer::new(s2_id.clone());
        let s1_node = net.add_node(SimServer::new(s1, d1_node, d1_name, FOREVER));
        let s2_node = net.add_node(SimServer::new(s2, d2_node, d2_name, FOREVER));
        net.node_mut::<SimServer>(s1_node).cpu_cost_us = SERVER_CPU_US;
        net.node_mut::<SimServer>(s2_node).cpu_cost_us = SERVER_CPU_US;
        net.connect(s1_node, d1_node, LinkSpec::lan());
        net.connect(s2_node, d2_node, LinkSpec::lan());
        net.inject_timer(s1_node, 0, gdp_server::ATTACH_TIMER);
        net.inject_timer(s2_node, 0, gdp_server::ATTACH_TIMER);

        let client = GdpClient::from_seed(&[115u8; 32], "client");
        let client_node = net.add_node(SimClient::new(client, d2_node, d2_name, FOREVER));
        net.connect(client_node, d2_node, LinkSpec::lan());
        net.inject_timer(client_node, 0, gdp_client::simnode::ATTACH_TIMER);
        net.run_to_quiescence();

        GdpWorld {
            net,
            routers: vec![(d2_node, d2_name), (root_node, root_name), (d1_node, d1_name)],
            servers: vec![(s1_node, s1_id), (s2_node, s2_id)],
            client_node,
            owner: SigningKey::from_seed(&[99u8; 32]),
            op_timeout: 600 * 1000 * MILLI,
            read_batch: 16,
            ack_mode: AckMode::Local,
        }
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    fn client_router(&mut self) -> NodeId {
        self.net.node_mut::<SimClient>(self.client_node).router
    }

    /// Injects a request PDU from the client and runs until events appear
    /// or the op times out. Returns the collected events.
    pub fn drive(&mut self, pdu: Pdu) -> Vec<ClientEvent> {
        let router = self.client_router();
        self.net.inject(self.client_node, router, pdu);
        let deadline = self.net.now() + self.op_timeout;
        loop {
            let has_events = !self.net.node_mut::<SimClient>(self.client_node).events.is_empty();
            if has_events {
                break;
            }
            if self.net.now() >= deadline {
                break;
            }
            if !self.net.step() {
                break;
            }
        }
        // Drain any trailing deliveries that are already enqueued at the
        // same timestamp (e.g. replicate acks following a quorum ack).
        self.net.node_mut::<SimClient>(self.client_node).take_events()
    }

    /// Access to the client state machine.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        &mut self.net.node_mut::<SimClient>(self.client_node).client
    }

    /// Provisions `metadata` on every server (Host + delegation), waits for
    /// the re-advertisements, and registers the client writer.
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
            let router = self.client_router();
            self.net.inject(self.client_node, router, pdu);
        }
        self.net.run_to_quiescence();
        // Drop HostAck noise.
        let _ = self.net.node_mut::<SimClient>(self.client_node).take_events();
        Ok(capsule)
    }

    /// The client's flat name.
    pub fn client_name(&mut self) -> Name {
        self.net.node_mut::<SimClient>(self.client_node).client.name()
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
        let ts = self.net.now();
        let ack_mode = self.ack_mode;
        let (pdu, record) = self
            .client_mut()
            .append(*capsule, body, ts, ack_mode)
            .map_err(|e| CaapiError::Transport(e.to_string()))?;
        let want_seq = record.header.seq;
        let events = self.drive(pdu);
        for e in &events {
            if let ClientEvent::AppendAcked { seq, .. } = e {
                if *seq == want_seq {
                    return Ok(*seq);
                }
            }
        }
        Err(CaapiError::Transport(format!("append not acked: {events:?}")))
    }

    fn append_batch(&mut self, capsule: &Name, bodies: &[Vec<u8>]) -> Result<u64, CaapiError> {
        // Pipelined: sign and inject all records back to back, then wait
        // for every ack. The sender link serializes transmissions; no
        // artificial per-record round trip.
        let ack_mode = self.ack_mode;
        let mut want: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let router = self.client_router();
        let mut last_seq = 0;
        for body in bodies {
            let ts = self.net.now();
            let (pdu, record) = self
                .client_mut()
                .append(*capsule, body, ts, ack_mode)
                .map_err(|e| CaapiError::Transport(e.to_string()))?;
            want.insert(record.header.seq);
            last_seq = last_seq.max(record.header.seq);
            self.net.inject(self.client_node, router, pdu);
        }
        let deadline = self.net.now() + self.op_timeout;
        while !want.is_empty() {
            let events = self.net.node_mut::<SimClient>(self.client_node).take_events();
            for e in events {
                if let ClientEvent::AppendAcked { seq, .. } = e {
                    want.remove(&seq);
                }
            }
            if want.is_empty() {
                break;
            }
            if self.net.now() >= deadline || !self.net.step() {
                break;
            }
        }
        if want.is_empty() {
            Ok(last_seq)
        } else {
            Err(CaapiError::Transport(format!("{} appends not acked", want.len())))
        }
    }

    fn read(&mut self, capsule: &Name, seq: u64) -> Result<Record, CaapiError> {
        let pdu = self.client_mut().read(*capsule, ReadTarget::One(seq));
        let events = self.drive(pdu);
        for e in events {
            match e {
                ClientEvent::ReadOk { result: VerifiedRead::Record(r), .. } => return Ok(r),
                ClientEvent::ServerError { code, detail, .. } => {
                    return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                }
                _ => {}
            }
        }
        Err(CaapiError::Transport("no read response".into()))
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
            let pdu = self.client_mut().read(*capsule, ReadTarget::Range(cursor, hi));
            let events = self.drive(pdu);
            let mut got = false;
            for e in events {
                match e {
                    ClientEvent::ReadOk { result: VerifiedRead::Records(rs), .. } => {
                        out.extend(rs);
                        got = true;
                    }
                    ClientEvent::ServerError { code, detail, .. } => {
                        return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                    }
                    _ => {}
                }
            }
            if !got {
                return Err(CaapiError::Transport("range read failed".into()));
            }
            cursor = hi + 1;
        }
        Ok(out)
    }

    fn latest(&mut self, capsule: &Name) -> Result<Option<Record>, CaapiError> {
        let pdu = self.client_mut().read(*capsule, ReadTarget::Latest);
        let events = self.drive(pdu);
        for e in events {
            match e {
                ClientEvent::ReadOk { result: VerifiedRead::Latest(r, _), .. } => {
                    return Ok(Some(r))
                }
                ClientEvent::ServerError { code: gdp_server::ErrorCode::Empty, .. } => {
                    return Ok(None)
                }
                ClientEvent::ServerError { code, detail, .. } => {
                    return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                }
                _ => {}
            }
        }
        Err(CaapiError::Transport("no latest response".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::MetadataBuilder;

    fn spec(owner: &SigningKey) -> (CapsuleMetadata, SigningKey) {
        let writer = SigningKey::from_seed(&[7u8; 32]);
        let meta = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", "world test")
            .sign(owner);
        (meta, writer)
    }

    #[test]
    fn edge_world_basic_ops() {
        let mut world = GdpWorld::new(3, Placement::EdgeLan);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
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
            let mut world = GdpWorld::new(3, placement);
            let owner = world.owner.clone();
            let (meta, writer) = spec(&owner);
            let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
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
        let mut world = GdpWorld::new(4, Placement::EdgeLan);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        world.establish_session(capsule).unwrap();
        // HMAC-authenticated appends still work.
        assert_eq!(world.append(&capsule, b"with hmac").unwrap(), 1);
    }

    #[test]
    fn hierarchy_replicates_to_both_domains() {
        let mut world = GdpWorld::hierarchy(5);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        world.append(&capsule, b"replicated").unwrap();
        world.net.run_to_quiescence();
        for (node, _) in world.servers.clone() {
            let len = world.net.node_mut::<SimServer>(node).server.capsule(&capsule).unwrap().len();
            assert_eq!(len, 1, "both replicas must hold the record");
        }
    }
}
