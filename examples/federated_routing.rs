//! Federation mechanics: trust domains, secure advertisement, anycast to
//! the closest replica, scope policies, and independently verifiable
//! lookups (paper §VII).
//!
//! Run with: `cargo run --example federated_routing`

use gdp::capsule::MetadataBuilder;
use gdp::cert::{AdCert, Scope, ServingChain};
use gdp::crypto::SigningKey;
use gdp::node::HostSpec;
use gdp::sim::cluster::server_identity;
use gdp::sim::{FaultSpec, LinkSpec, SimCluster, FOREVER};

fn main() {
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let writer = SigningKey::from_seed(&[2u8; 32]);

    // Three administrative domains: a global root, a public cloud, and a
    // factory. Each runs its own GDP-router (= its own GLookupService);
    // the cloud and the factory name the root as the router above them.
    let mut cluster = SimCluster::empty(2026, FaultSpec::reliable());
    let root_node = cluster.add_router(&[10u8; 32], "tier-1 root", None);
    let cloud_node = cluster.add_router(&[11u8; 32], "public cloud", Some(root_node));
    let factory_node = cluster.add_router(&[12u8; 32], "factory floor", Some(root_node));
    cluster.net.connect(root_node, cloud_node, LinkSpec::wan());
    cluster.net.connect(root_node, factory_node, LinkSpec::wan());
    cluster.boot();
    let factory_name = cluster.runtime_mut(factory_node).router_name().unwrap();

    // Two capsules: a public dataset (global scope) and the factory's
    // episode log (restricted to the factory domain).
    let public_meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", "public dataset")
        .sign(&owner);
    let secret_meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", "factory episode log")
        .sign(&owner);

    // The factory's server hosts both; the owner scopes the episode log to
    // the factory domain in its AdCert.
    let server_id = server_identity(&[20u8; 32], "factory-server");
    let host = |meta: &gdp::capsule::CapsuleMetadata, scope: Scope| HostSpec {
        metadata: meta.clone(),
        chain: ServingChain::direct(
            AdCert::issue(&owner, meta.name(), server_id.name(), false, scope, FOREVER),
            server_id.principal().clone(),
        ),
        peers: vec![],
    };
    let hosts =
        vec![host(&public_meta, Scope::Global), host(&secret_meta, Scope::Domain(factory_name))];
    let server_node = cluster.add_storage(&[20u8; 32], "factory-server", factory_node, None, hosts);
    cluster.net.connect(server_node, factory_node, LinkSpec::lan());
    cluster.boot();
    cluster.settle();

    println!("secure advertisement completed; checking GLookupService state:\n");
    let now = cluster.net.now();
    for (label, node) in [("factory", factory_node), ("root", root_node), ("cloud", cloud_node)] {
        let r = cluster.runtime_mut(node).router_mut().unwrap();
        let public_known = !r.lookup_local(&public_meta.name(), now).is_empty();
        let secret_known = !r.lookup_local(&secret_meta.name(), now).is_empty();
        println!("  {label:8} GLookupService: public dataset: {public_known:5}  episode log: {secret_known}");
    }

    // The scope policy: the episode log never left the factory domain.
    let root = cluster.runtime_mut(root_node).router_mut().unwrap();
    assert!(root.lookup_local(&secret_meta.name(), now).is_empty());

    // Any party can independently verify a route returned by the (totally
    // untrusted) GLookupService: the chain runs from the capsule name to
    // the AdCert to the RtCert with no PKI.
    let routes = root.lookup_local(&public_meta.name(), now);
    let route = &routes[0];
    route.verify(now).expect("route verifies end to end");
    println!("\nroot route for public dataset:");
    println!("  serving server : {}", route.server_name());
    println!("  delegation     : owner → AdCert → server → RtCert → router");
    println!("  verification   : OK (from the flat name alone) ✔");

    // A forged route (e.g. a MITM router claiming the name) fails.
    let mut forged = route.clone();
    forged.name = secret_meta.name();
    assert!(forged.verify(now).is_err());
    println!("  forged variant : rejected ✔");
}
