//! End-to-end routing tests on the deterministic simulator: secure
//! advertisement over the network, hierarchical forwarding, anycast
//! locality, scope enforcement, and GLookupService recursion.

use gdp_capsule::{CapsuleMetadata, MetadataBuilder};
use gdp_cert::{AdCert, CapsuleAdvert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_net::{LinkSpec, NodeId, SimCtx, SimNet, SimNode};
use gdp_obs::Metrics;
use gdp_router::{attach_directly, AttachStep, Attacher, LookupMsg, Router, SimRouter};
use gdp_wire::{Name, Pdu, PduType, Wire};
use std::any::Any;

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}
fn writer() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn metadata(desc: &str) -> CapsuleMetadata {
    MetadataBuilder::new()
        .writer(&writer().verifying_key())
        .set_str("description", desc)
        .sign(&owner())
}

/// A simulator node that runs an attach handshake and then records
/// everything it receives. Stands in for a server or client endpoint.
struct EndpointNode {
    attacher: Option<Attacher>,
    router_neighbor: NodeId,
    pub attached: Option<Vec<Name>>,
    pub attach_error: Option<String>,
    pub received: Vec<Pdu>,
}

impl EndpointNode {
    fn new(attacher: Attacher, router_neighbor: NodeId) -> Box<EndpointNode> {
        Box::new(EndpointNode {
            attacher: Some(attacher),
            router_neighbor,
            attached: None,
            attach_error: None,
            received: Vec::new(),
        })
    }
}

impl SimNode for EndpointNode {
    fn on_pdu(&mut self, ctx: &mut SimCtx<'_>, _from: NodeId, pdu: Pdu) {
        if let Some(attacher) = self.attacher.as_mut() {
            match attacher.on_pdu(&pdu) {
                AttachStep::Send(p) => {
                    ctx.send(self.router_neighbor, p);
                    return;
                }
                AttachStep::Done(names) => {
                    self.attached = Some(names);
                    self.attacher = None;
                    return;
                }
                AttachStep::Failed(reason) => {
                    self.attach_error = Some(reason);
                    self.attacher = None;
                    return;
                }
                AttachStep::Ignored => {}
            }
        }
        self.received.push(pdu);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, _token: u64) {
        // Timer 0 = kick off the handshake.
        if let Some(attacher) = self.attacher.as_ref() {
            ctx.send(self.router_neighbor, attacher.hello());
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn server_principal(seed: u8, label: &str) -> PrincipalId {
    PrincipalId::from_seed(PrincipalKind::Server, &[seed; 32], label)
}

fn capsule_advert(meta: &CapsuleMetadata, server: &PrincipalId, scope: Scope) -> CapsuleAdvert {
    let adcert = AdCert::issue(&owner(), meta.name(), server.name(), false, scope, 1 << 40);
    CapsuleAdvert {
        metadata: meta.clone(),
        chain: ServingChain::direct(adcert, server.principal().clone()),
    }
}

/// Builds: root router ── r1 ── endpoints, r2 ── endpoints topology.
struct Hierarchy {
    net: SimNet,
    /// The registry r1 and r2 count into (scopes `r1`, `r2`).
    metrics: Metrics,
    root: NodeId,
    r1: NodeId,
    r2: NodeId,
    r1_name: Name,
    r2_name: Name,
}

fn hierarchy() -> Hierarchy {
    let mut net = SimNet::new(7);
    let metrics = Metrics::new();
    let root_router = Router::from_seed(&[10u8; 32], "root");
    let r1_router = Router::from_seed_with_obs(&[11u8; 32], "domain-1", &metrics.scope("r1"));
    let r2_router = Router::from_seed_with_obs(&[12u8; 32], "domain-2", &metrics.scope("r2"));
    let root_name = root_router.name();
    let r1_name = r1_router.name();
    let r2_name = r2_router.name();
    let root = net.add_node(SimRouter::new(root_router));
    let r1 = net.add_node(SimRouter::new(r1_router));
    let r2 = net.add_node(SimRouter::new(r2_router));
    net.connect(root, r1, LinkSpec::wan());
    net.connect(root, r2, LinkSpec::wan());
    net.node_mut::<SimRouter>(r1).router.set_parent(root);
    net.node_mut::<SimRouter>(r2).router.set_parent(root);
    let _ = root_name;
    Hierarchy { net, metrics, root, r1, r2, r1_name, r2_name }
}

fn add_endpoint(
    net: &mut SimNet,
    router_node: NodeId,
    router_name: Name,
    principal: PrincipalId,
    entries: Vec<CapsuleAdvert>,
) -> NodeId {
    let attacher = Attacher::new(principal, router_name, entries, 1 << 40);
    let node = net.add_node(EndpointNode::new(attacher, router_node));
    net.connect(node, router_node, LinkSpec::lan());
    net.inject_timer(node, 0, 0); // start handshake
    node
}

#[test]
fn advertisement_and_cross_domain_forwarding() {
    let mut h = hierarchy();
    let meta = metadata("cross-domain");
    let server = server_principal(20, "srv-d1");
    let server_name = server.name();
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let server_node = add_endpoint(&mut h.net, h.r1, h.r1_name, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[21u8; 32], "client-d2");
    let client_name = client.name();
    let client_node = add_endpoint(&mut h.net, h.r2, h.r2_name, client, vec![]);

    h.net.run_to_quiescence();
    assert!(h.net.node_mut::<EndpointNode>(server_node).attached.is_some());
    assert!(h.net.node_mut::<EndpointNode>(client_node).attached.is_some());

    // The capsule propagated to the root GLookupService (global scope).
    let now = h.net.now();
    let root_routes = h.net.node_mut::<SimRouter>(h.root).router.lookup_local(&meta.name(), now);
    assert_eq!(root_routes.len(), 1);
    root_routes[0].verify(now).unwrap();
    assert_eq!(root_routes[0].server_name(), server_name);

    // Client sends a data PDU addressed to the *capsule name*; it must
    // cross r2 → root → r1 → server.
    let data = Pdu::data(client_name, meta.name(), 99, b"read request".to_vec());
    h.net.inject(client_node, h.r2, data);
    h.net.run_to_quiescence();
    let server_rx = &h.net.node_mut::<EndpointNode>(server_node).received;
    assert_eq!(server_rx.len(), 1);
    assert_eq!(server_rx[0].seq, 99);

    // And the server can respond to the client's flat name.
    let resp = Pdu::data(server_name, client_name, 99, b"response".to_vec());
    h.net.inject(server_node, h.r1, resp);
    h.net.run_to_quiescence();
    let client_rx = &h.net.node_mut::<EndpointNode>(client_node).received;
    assert_eq!(client_rx.len(), 1);
    assert_eq!(client_rx[0].payload, b"response");
}

#[test]
fn anycast_prefers_local_replica() {
    let mut h = hierarchy();
    let meta = metadata("replicated");
    // Two replicas of the same capsule: one in domain 1, one in domain 2.
    let srv1 = server_principal(30, "replica-d1");
    let srv2 = server_principal(31, "replica-d2");
    let srv2_name = srv2.name();
    let advert1 = capsule_advert(&meta, &srv1, Scope::Global);
    let advert2 = capsule_advert(&meta, &srv2, Scope::Global);
    let _n1 = add_endpoint(&mut h.net, h.r1, h.r1_name, srv1, vec![advert1]);
    let n2 = add_endpoint(&mut h.net, h.r2, h.r2_name, srv2, vec![advert2]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[32u8; 32], "client-d2");
    let client_node = add_endpoint(&mut h.net, h.r2, h.r2_name, client, vec![]);
    h.net.run_to_quiescence();

    // A request from domain 2 must be served by the domain-2 replica
    // (distance 0 at r2) without ever reaching the root.
    let before_root = h.net.link_delivered(h.r2, h.root);
    let data = Pdu::data(Name::from_content(b"anon"), meta.name(), 5, vec![]);
    h.net.inject(client_node, h.r2, data);
    h.net.run_to_quiescence();
    let n2_rx = &h.net.node_mut::<EndpointNode>(n2).received;
    assert_eq!(n2_rx.len(), 1, "local replica should receive the request");
    assert_eq!(
        before_root,
        h.net.link_delivered(h.r2, h.root),
        "root router should not carry anycast-local traffic"
    );
    // The root still knows both replicas (for clients elsewhere).
    let now = h.net.now();
    let routes = h.net.node_mut::<SimRouter>(h.root).router.lookup_local(&meta.name(), now);
    assert_eq!(routes.len(), 2);
    assert!(routes.iter().any(|r| r.server_name() == srv2_name));
}

#[test]
fn scoped_capsule_stays_in_domain() {
    let mut h = hierarchy();
    let meta = metadata("factory-secret");
    let server = server_principal(40, "factory-server");
    // Scope: do not advertise beyond router r1 (the factory domain).
    let advert = capsule_advert(&meta, &server, Scope::Domain(h.r1_name));
    let _srv_node = add_endpoint(&mut h.net, h.r1, h.r1_name, server, vec![advert]);
    h.net.run_to_quiescence();

    let now = h.net.now();
    // r1 knows the capsule.
    assert!(!h.net.node_mut::<SimRouter>(h.r1).router.lookup_local(&meta.name(), now).is_empty());
    // The root must NOT know it.
    assert!(h.net.node_mut::<SimRouter>(h.root).router.lookup_local(&meta.name(), now).is_empty());
}

#[test]
fn forged_advertisement_rejected() {
    let mut h = hierarchy();
    let meta = metadata("victim");
    let legit = server_principal(50, "legit");
    let thief = server_principal(51, "thief");
    // Thief presents a chain delegated to the legit server.
    let adcert = AdCert::issue(&owner(), meta.name(), legit.name(), false, Scope::Global, 1 << 40);
    let stolen = CapsuleAdvert {
        metadata: meta.clone(),
        chain: ServingChain::direct(adcert, legit.principal().clone()),
    };
    let thief_node = add_endpoint(&mut h.net, h.r1, h.r1_name, thief, vec![stolen]);
    h.net.run_to_quiescence();

    let node = h.net.node_mut::<EndpointNode>(thief_node);
    assert!(node.attached.is_none());
    assert!(node.attach_error.is_some());
    let now = h.net.now();
    assert!(h.net.node_mut::<SimRouter>(h.r1).router.lookup_local(&meta.name(), now).is_empty());
    assert_eq!(h.metrics.counter_value("r1", "adverts_rejected"), 1);
}

#[test]
fn lookup_recurses_to_parent() {
    let mut h = hierarchy();
    let meta = metadata("looked-up");
    let server = server_principal(60, "srv");
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let _srv = add_endpoint(&mut h.net, h.r1, h.r1_name, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[61u8; 32], "asker");
    let client_node = add_endpoint(&mut h.net, h.r2, h.r2_name, client.clone(), vec![]);
    h.net.run_to_quiescence();

    // r2 has no local route for the capsule; a Lookup query must recurse
    // via the root and come back verifiable.
    let query = LookupMsg::Query { query_id: 77, name: meta.name() };
    let pdu = Pdu {
        pdu_type: PduType::Lookup,
        src: client.name(),
        dst: h.r2_name,
        seq: 1,
        payload: query.to_wire().into(),
    };
    h.net.inject(client_node, h.r2, pdu);
    h.net.run_to_quiescence();

    let received = &h.net.node_mut::<EndpointNode>(client_node).received;
    let answer = received.iter().find(|p| p.pdu_type == PduType::Lookup).expect("lookup answer");
    match LookupMsg::from_wire(&answer.payload).unwrap() {
        LookupMsg::Answer { query_id, name, routes } => {
            assert_eq!(query_id, 77);
            assert_eq!(name, meta.name());
            assert_eq!(routes.len(), 1);
            routes[0].verify(h.net.now()).unwrap();
        }
        other => panic!("expected answer, got {other:?}"),
    }
    assert!(h.metrics.counter_value("r2", "lookups_escalated") >= 1);
}

#[test]
fn unroutable_name_yields_error_pdu() {
    let mut h = hierarchy();
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[70u8; 32], "lost");
    let client_name = client.name();
    let client_node = add_endpoint(&mut h.net, h.r2, h.r2_name, client, vec![]);
    h.net.run_to_quiescence();

    let ghost = Name::from_content(b"no such capsule");
    let data = Pdu::data(client_name, ghost, 3, vec![]);
    h.net.inject(client_node, h.r2, data);
    h.net.run_to_quiescence();

    let received = &h.net.node_mut::<EndpointNode>(client_node).received;
    let err = received
        .iter()
        .find(|p| p.pdu_type == PduType::Error)
        .expect("error PDU should be routed back to the source");
    assert_eq!(err.payload, ghost.0.to_vec());
    assert_eq!(err.seq, 3);
}

/// Every Data PDU a router takes in lands in exactly one of three
/// registry counters.
#[test]
fn data_pdu_outcomes_conserve_in_the_registry() {
    let metrics = Metrics::new();
    let mut router = Router::from_seed_with_obs(&[90u8; 32], "counted", &metrics.scope("router"));
    let (parent, local_port, ingress) = (1, 7, 3);
    router.set_parent(parent);
    let local = PrincipalId::from_seed(PrincipalKind::Client, &[91u8; 32], "attached");
    let local_name = local.name();
    let mut attacher = Attacher::new(local, router.name(), vec![], 1 << 40);
    attach_directly(&mut router, local_port, &mut attacher, 0).unwrap();

    let elsewhere = Name::from_content(b"served in another domain");
    // (arrives from, destination, count): attached here; unknown, so up
    // to the parent; unknown and already coming down from the parent.
    let mix = [(ingress, local_name, 5u64), (ingress, elsewhere, 3), (parent, elsewhere, 2)];
    let mut data_in = 0u64;
    for (from, dst, count) in mix {
        for seq in 0..count {
            let _ = router.handle_pdu(1, from, Pdu::data(Name::ZERO, dst, seq, vec![0u8; 64]));
            data_in += 1;
        }
    }
    let counted = |name| metrics.counter_value("router", name);
    let (local, forwarded, no_route) =
        (counted("pdus_delivered_local"), counted("pdus_forwarded"), counted("pdus_no_route"));
    assert_eq!((local, forwarded, no_route), (5, 3, 2));
    assert_eq!(local + forwarded + no_route, data_in);
}

#[test]
fn router_crash_heals_via_second_replica() {
    let mut h = hierarchy();
    let meta = metadata("ha-capsule");
    let srv1 = server_principal(80, "r1-replica");
    let srv2 = server_principal(81, "r2-replica");
    let a1 = capsule_advert(&meta, &srv1, Scope::Global);
    let a2 = capsule_advert(&meta, &srv2, Scope::Global);
    let n1 = add_endpoint(&mut h.net, h.r1, h.r1_name, srv1, vec![a1]);
    let n2 = add_endpoint(&mut h.net, h.r2, h.r2_name, srv2, vec![a2]);
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[82u8; 32], "c");
    let client_name = client.name();
    let client_node = add_endpoint(&mut h.net, h.r2, h.r2_name, client, vec![]);
    h.net.run_to_quiescence();

    // Partition the r2 replica away; its router notices via neighbor_down.
    h.net.set_link_up(n2, h.r2, false);
    h.net.node_mut::<SimRouter>(h.r2).router.neighbor_down(n2);

    let data = Pdu::data(client_name, meta.name(), 11, vec![]);
    h.net.inject(client_node, h.r2, data);
    h.net.run_to_quiescence();
    // The request must reach the remaining replica in domain 1.
    assert_eq!(h.net.node_mut::<EndpointNode>(n1).received.len(), 1);
}
