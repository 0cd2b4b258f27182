//! End-to-end routing tests on the deterministic fabric, the routers
//! running as `NodeRuntime` nodes: secure advertisement over the network,
//! hierarchical forwarding, anycast locality, scope enforcement, and
//! GLookupService recursion.

use gdp_capsule::{CapsuleMetadata, MetadataBuilder};
use gdp_cert::{AdCert, CapsuleAdvert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_obs::Metrics;
use gdp_router::{attach_directly, Attacher, LookupMsg, Router};
use gdp_sim::cluster::DETECT_US;
use gdp_sim::{FaultSpec, LinkSpec, SimAddr, SimCluster, SimEndpoint};
use gdp_wire::{Name, Pdu, PduType, Wire};

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

/// A bare fabric endpoint that ran an attach handshake; whatever the
/// routers deliver to it afterwards waits in its inbox. Stands in for a
/// server or client.
struct Endpoint {
    ep: SimEndpoint,
    attached: Result<Vec<Name>, String>,
}

impl Endpoint {
    fn addr(&self) -> SimAddr {
        self.ep.addr
    }

    /// Everything delivered since the last call.
    fn received(&self) -> Vec<Pdu> {
        std::iter::from_fn(|| self.ep.try_recv().unwrap()).map(|(_, pdu)| pdu).collect()
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

/// Root router ── r1, r2 (WAN); endpoints hang off r1 and r2 (LAN).
struct Hierarchy {
    c: SimCluster,
    root: SimAddr,
    r1: SimAddr,
    r2: SimAddr,
}

impl Hierarchy {
    fn router(&mut self, addr: SimAddr) -> &mut Router {
        self.c.runtime_mut(addr).router_mut().unwrap()
    }

    /// Attaches a bare endpoint to `router`, advertising `entries`.
    fn add_endpoint(
        &mut self,
        router: SimAddr,
        principal: PrincipalId,
        entries: Vec<CapsuleAdvert>,
    ) -> Endpoint {
        let router_name = self.router(router).name();
        let ep = self.c.net.endpoint();
        self.c.net.connect(ep.addr, router, LinkSpec::lan());
        let mut attacher = Attacher::new(principal, router_name, entries, 1 << 40);
        let attached = self.c.attach_endpoint(&ep, router, &mut attacher);
        Endpoint { ep, attached }
    }

    /// Sends `pdu` from `from` into `router` and lets the world go quiet.
    fn inject(&mut self, from: &Endpoint, router: SimAddr, pdu: Pdu) {
        from.ep.send(router, pdu).unwrap();
        self.c.settle();
    }
}

fn hierarchy() -> Hierarchy {
    let mut c = SimCluster::empty(7, FaultSpec::reliable());
    let root = c.add_router(&[10u8; 32], "root", None);
    let r1 = c.add_router(&[11u8; 32], "domain-1", Some(root));
    let r2 = c.add_router(&[12u8; 32], "domain-2", Some(root));
    c.net.connect(root, r1, LinkSpec::wan());
    c.net.connect(root, r2, LinkSpec::wan());
    c.boot();
    Hierarchy { c, root, r1, r2 }
}

#[test]
fn advertisement_and_cross_domain_forwarding() {
    let mut h = hierarchy();
    let meta = metadata("cross-domain");
    let server = server_principal(20, "srv-d1");
    let server_name = server.name();
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let server_node = h.add_endpoint(h.r1, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[21u8; 32], "client-d2");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, client, vec![]);

    h.c.settle();
    assert!(server_node.attached.is_ok());
    assert!(client_node.attached.is_ok());

    // The capsule propagated to the root GLookupService (global scope).
    let now = h.c.net.now();
    let root_routes = h.router(h.root).lookup_local(&meta.name(), now);
    assert_eq!(root_routes.len(), 1);
    root_routes[0].verify(now).unwrap();
    assert_eq!(root_routes[0].server_name(), server_name);

    // Client sends a data PDU addressed to the *capsule name*; it must
    // cross r2 → root → r1 → server.
    let data = Pdu::data(client_name, meta.name(), 99, b"read request".to_vec());
    h.inject(&client_node, h.r2, data);
    let server_rx = server_node.received();
    assert_eq!(server_rx.len(), 1);
    assert_eq!(server_rx[0].seq, 99);

    // And the server can respond to the client's flat name.
    let resp = Pdu::data(server_name, client_name, 99, b"response".to_vec());
    h.inject(&server_node, h.r1, resp);
    let client_rx = client_node.received();
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
    let _n1 = h.add_endpoint(h.r1, srv1, vec![advert1]);
    let n2 = h.add_endpoint(h.r2, srv2, vec![advert2]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[32u8; 32], "client-d2");
    let client_node = h.add_endpoint(h.r2, client, vec![]);
    h.c.settle();

    // A request from domain 2 must be served by the domain-2 replica
    // (distance 0 at r2) without ever reaching the root.
    let before_root = h.c.net.link_delivered(h.r2, h.root);
    let data = Pdu::data(Name::from_content(b"anon"), meta.name(), 5, vec![]);
    h.inject(&client_node, h.r2, data);
    let n2_rx = n2.received();
    assert_eq!(n2_rx.len(), 1, "local replica should receive the request");
    assert_eq!(
        before_root,
        h.c.net.link_delivered(h.r2, h.root),
        "root router should not carry anycast-local traffic"
    );
    // The root still knows both replicas (for clients elsewhere).
    let now = h.c.net.now();
    let routes = h.router(h.root).lookup_local(&meta.name(), now);
    assert_eq!(routes.len(), 2);
    assert!(routes.iter().any(|r| r.server_name() == srv2_name));
}

#[test]
fn scoped_capsule_stays_in_domain() {
    let mut h = hierarchy();
    let meta = metadata("factory-secret");
    let server = server_principal(40, "factory-server");
    // Scope: do not advertise beyond router r1 (the factory domain).
    let factory = h.router(h.r1).name();
    let advert = capsule_advert(&meta, &server, Scope::Domain(factory));
    let _srv_node = h.add_endpoint(h.r1, server, vec![advert]);
    h.c.settle();

    let now = h.c.net.now();
    // r1 knows the capsule.
    assert!(!h.router(h.r1).lookup_local(&meta.name(), now).is_empty());
    // The root must NOT know it.
    assert!(h.router(h.root).lookup_local(&meta.name(), now).is_empty());
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
    let thief_node = h.add_endpoint(h.r1, thief, vec![stolen]);
    h.c.settle();

    assert!(thief_node.attached.is_err());
    let now = h.c.net.now();
    assert!(h.router(h.r1).lookup_local(&meta.name(), now).is_empty());
    assert_eq!(h.c.node_metrics(h.r1).counter_value("router", "adverts_rejected"), 1);
}

#[test]
fn lookup_recurses_to_parent() {
    let mut h = hierarchy();
    let meta = metadata("looked-up");
    let server = server_principal(60, "srv");
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let _srv = h.add_endpoint(h.r1, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[61u8; 32], "asker");
    let client_node = h.add_endpoint(h.r2, client.clone(), vec![]);
    h.c.settle();

    // r2 has no local route for the capsule; a Lookup query must recurse
    // via the root and come back verifiable.
    let query = LookupMsg::Query { query_id: 77, name: meta.name() };
    let pdu = Pdu {
        pdu_type: PduType::Lookup,
        src: client.name(),
        dst: h.router(h.r2).name(),
        seq: 1,
        payload: query.to_wire().into(),
    };
    h.inject(&client_node, h.r2, pdu);

    let received = client_node.received();
    let answer = received.iter().find(|p| p.pdu_type == PduType::Lookup).expect("lookup answer");
    match LookupMsg::from_wire(&answer.payload).unwrap() {
        LookupMsg::Answer { query_id, name, routes } => {
            assert_eq!(query_id, 77);
            assert_eq!(name, meta.name());
            assert_eq!(routes.len(), 1);
            routes[0].verify(h.c.net.now()).unwrap();
        }
        other => panic!("expected answer, got {other:?}"),
    }
    assert!(h.c.node_metrics(h.r2).counter_value("router", "lookups_escalated") >= 1);
}

#[test]
fn unroutable_name_yields_error_pdu() {
    let mut h = hierarchy();
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[70u8; 32], "lost");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, client, vec![]);
    h.c.settle();

    let ghost = Name::from_content(b"no such capsule");
    let data = Pdu::data(client_name, ghost, 3, vec![]);
    h.inject(&client_node, h.r2, data);

    let received = client_node.received();
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
    let n1 = h.add_endpoint(h.r1, srv1, vec![a1]);
    let n2 = h.add_endpoint(h.r2, srv2, vec![a2]);
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[82u8; 32], "c");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, client, vec![]);
    h.c.settle();

    // Partition the r2 replica away; its router's transport notices.
    h.c.partition(n2.addr(), h.r2);
    h.c.run_for(DETECT_US);

    let data = Pdu::data(client_name, meta.name(), 11, vec![]);
    h.inject(&client_node, h.r2, data);
    // The request must reach the remaining replica in domain 1.
    assert_eq!(n1.received().len(), 1);
}
