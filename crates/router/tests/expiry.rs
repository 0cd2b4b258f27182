//! Advertisement lifecycle: expiry, purge, and extension records
//! (paper §VII: "Advertisements have corresponding expiration times, which
//! can be deferred as a group by appending extension records").

use gdp_capsule::MetadataBuilder;
use gdp_cert::{AdCert, CapsuleAdvert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_router::{attach_directly, Attacher, Router};
use gdp_wire::{Name, Pdu};

const CERT_BOUND: u64 = 1 << 50;

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}

fn setup(advert_expires: u64) -> (Router, Attacher, Name) {
    setup_with_obs(advert_expires, &gdp_obs::Scope::default())
}

/// `setup`, with the router counting into `obs`.
fn setup_with_obs(advert_expires: u64, obs: &gdp_obs::Scope) -> (Router, Attacher, Name) {
    let writer = SigningKey::from_seed(&[2u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", "expiry test")
        .sign(&owner());
    let server = PrincipalId::from_seed(PrincipalKind::Server, &[3u8; 32], "srv");
    let adcert =
        AdCert::issue(&owner(), meta.name(), server.name(), false, Scope::Global, CERT_BOUND);
    let entry = CapsuleAdvert {
        metadata: meta.clone(),
        chain: ServingChain::direct(adcert, server.principal().clone()),
    };
    let router = Router::from_seed_with_obs(&[4u8; 32], "router", obs);
    let attacher = Attacher::new(server, router.name(), vec![entry], advert_expires)
        .with_rtcert_expires(CERT_BOUND);
    (router, attacher, meta.name())
}

fn deliver(router: &mut Router, now: u64, neighbor: usize, pdu: Pdu) {
    let _ = router.handle_pdu(now, neighbor, pdu);
}

#[test]
fn routes_expire_without_extension() {
    let (mut router, mut attacher, capsule) = setup(1000);
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    assert!(router.fib().best(&capsule, 500).is_some());
    // Past the advertisement expiry: the route is dead and purgeable.
    assert!(router.fib().best(&capsule, 1001).is_none());
    router.purge_expired(1001);
    assert!(router.fib().is_empty());
    assert!(router.glookup().is_empty());
}

#[test]
fn installed_route_fails_verify_once_expired_or_tampered() {
    let (mut router, mut attacher, capsule) = setup(1000);
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    let route = router
        .lookup_local(&capsule, 0)
        .into_iter()
        .find(|r| r.entry.is_some())
        .expect("attach installed a chained route");
    assert_eq!(route.expires, 1000);
    route.verify(1000).expect("a live route verifies");
    // One microsecond past expiry the route no longer verifies.
    assert!(route.verify(1001).is_err(), "verify accepted an expired route");
    // A flipped bit in the RtCert signature is rejected.
    let mut tampered = route.clone();
    tampered.rtcert.signature.0[0] ^= 0x01;
    assert!(tampered.verify(1).is_err(), "verify accepted a tampered RtCert");
}

#[test]
fn extension_defers_whole_catalog() {
    let (mut router, mut attacher, capsule) = setup(1000);
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    // Defer to 5000 before the original expiry hits.
    let ext_pdu = attacher.extend(5000).expect("attached, so extendable");
    deliver(&mut router, 900, 5, ext_pdu);
    // Alive well past the original expiry — both the capsule and the
    // server's own name (group deferral).
    assert!(router.fib().best(&capsule, 3000).is_some());
    let server_name = router.fib().best(&capsule, 3000).unwrap().server;
    assert!(router.fib().best(&server_name, 3000).is_some());
    assert_eq!(router.glookup().lookup(&capsule, 3000).len(), 1);
    // But not past the new expiry.
    assert!(router.fib().best(&capsule, 5001).is_none());
}

#[test]
fn extension_cannot_exceed_certificate_bounds() {
    let (mut router, mut attacher, capsule) = setup(1000);
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    // Ask for an absurd deferral: clamped to the AdCert/RtCert bound.
    let ext_pdu = attacher.extend(u64::MAX).unwrap();
    deliver(&mut router, 900, 5, ext_pdu);
    assert!(router.fib().best(&capsule, CERT_BOUND - 1).is_some());
    assert!(router.fib().best(&capsule, CERT_BOUND + 1).is_none());
}

#[test]
fn forged_extension_ignored() {
    let metrics = gdp_obs::Metrics::new();
    let (mut router, mut attacher, capsule) = setup_with_obs(1000, &metrics.scope("router"));
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    // An attacker on the same link forges an extension with its own key.
    let ext_pdu = attacher.extend(5000).unwrap();
    let mut forged = ext_pdu;
    // Corrupt the signature portion of the payload (last bytes). The
    // payload buffer is immutable/shared, so mutate an owned copy.
    let mut tampered = forged.payload.to_vec();
    let len = tampered.len();
    tampered[len - 10] ^= 0xff;
    forged.payload = tampered.into();
    let before = metrics.counter_value("router", "adverts_rejected");
    deliver(&mut router, 900, 5, forged);
    assert_eq!(metrics.counter_value("router", "adverts_rejected"), before + 1);
    // Expiry unchanged.
    assert!(router.fib().best(&capsule, 1001).is_none());
}

#[test]
fn extension_from_wrong_neighbor_ignored() {
    let (mut router, mut attacher, capsule) = setup(1000);
    attach_directly(&mut router, 5, &mut attacher, 0).unwrap();
    let ext_pdu = attacher.extend(5000).unwrap();
    // Delivered from a neighbor that never attached: no catalog, no effect.
    deliver(&mut router, 99, 900, ext_pdu);
    assert!(router.fib().best(&capsule, 1001).is_none());
}
