//! The GDP-router: a sans-I/O state machine.
//!
//! One router per routing domain (the paper's GLookupService "shared
//! database" per domain lives inside it; see `glookup.rs`). Domains form a
//! tree that "mimics physical network topology" (Table I): each router has
//! an optional parent. Forwarding walks the tree: down toward the closest
//! advertised replica when a FIB candidate exists, otherwise up the default
//! route. Secure advertisements gate all FIB state, and scoped capsules are
//! never announced above their designated domain.
//!
//! The struct is transport-agnostic: `handle_pdu(now, from, pdu)` returns
//! the PDUs to emit, so the same code runs on the deterministic simulator,
//! the threaded fabric, or (in a real deployment) sockets.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]
// Non-test matches on wire enums (`Pdu`, `PduType`, `DataMsg`) name every variant: a
// new variant is a compile error here, not silent message loss behind a `_ =>`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![allow(
    clippy::disallowed_methods,
    reason = "Counter::inc_single_writer: each Router instance is owned by exactly one thread, the gdpd event loop (or the simulator driving it)"
)]

use crate::fib::{Fib, FibEntry, NeighborId};
use crate::glookup::GLookup;
use crate::messages::{AdvertiseMsg, ControlMsg, LookupMsg, VerifiedRoute};
use gdp_cert::{Challenge, Principal, PrincipalId, PrincipalKind, Scope};
use gdp_obs::{Counter, Scope as ObsScope};
use gdp_wire::{FastMap, Name, Pdu, PduType, Wire};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Most attach challenges kept outstanding per neighbor. Big enough that
/// every handshake cycle a retrying-but-honest advertiser can have in
/// flight stays answerable; small enough to bound per-neighbor state.
const MAX_OUTSTANDING_CHALLENGES: usize = 4;

/// Cached observability handles: resolved once at construction so the
/// data plane only ever touches atomics; carries the sparse
/// attach/no-route traces too.
struct RouterObs {
    scope: ObsScope,
    pdus_forwarded: Counter,
    pdus_delivered_local: Counter,
    pdus_no_route: Counter,
    fib_hits: Counter,
    fib_misses: Counter,
    glookup_hits: Counter,
    glookup_misses: Counter,
    attach_hellos: Counter,
    adverts_accepted: Counter,
    adverts_rejected: Counter,
    announces_accepted: Counter,
    announces_rejected: Counter,
    lookups_local: Counter,
    lookups_escalated: Counter,
    ctrl_undecodable: Counter,
}

impl RouterObs {
    fn new(scope: &ObsScope) -> RouterObs {
        RouterObs {
            pdus_forwarded: scope.counter("pdus_forwarded"),
            pdus_delivered_local: scope.counter("pdus_delivered_local"),
            pdus_no_route: scope.counter("pdus_no_route"),
            fib_hits: scope.counter("fib_hits"),
            fib_misses: scope.counter("fib_misses"),
            glookup_hits: scope.counter("glookup_hits"),
            glookup_misses: scope.counter("glookup_misses"),
            attach_hellos: scope.counter("attach_hellos"),
            adverts_accepted: scope.counter("adverts_accepted"),
            adverts_rejected: scope.counter("adverts_rejected"),
            announces_accepted: scope.counter("announces_accepted"),
            announces_rejected: scope.counter("announces_rejected"),
            lookups_local: scope.counter("lookups_local"),
            lookups_escalated: scope.counter("lookups_escalated"),
            ctrl_undecodable: scope.counter("ctrl_undecodable"),
            scope: scope.clone(),
        }
    }

    fn trace(&self, at_us: u64, event: &str, fields: &[(&str, String)]) {
        self.scope.trace(at_us, event, fields);
    }
}

/// What the router remembers about an attached catalog, so later
/// extension records can be validated and applied.
struct AttachedCatalog {
    digest: [u8; 32],
    advertiser: Principal,
    /// (name, cert-bound expiry): extensions never exceed the bound set by
    /// the underlying certificates.
    names: Vec<(Name, u64)>,
}

/// The router state machine.
pub struct Router {
    id: PrincipalId,
    parent: Option<NeighborId>,
    fib: Fib,
    glookup: GLookup,
    /// Outstanding attach challenges per neighbor. A small *set*, not a
    /// single slot: retried Hellos (lossy links, duplication) put several
    /// handshake cycles in flight at once, and if each new challenge
    /// overwrote the last, a proof could only ever match the *latest*
    /// challenge — two interleaved cycles then reject each other forever
    /// (attach livelock, found by seed 160 of the chaos sweep). A proof is
    /// accepted against any outstanding challenge; failures consume none.
    pending_challenges: FastMap<NeighborId, Vec<Challenge>>,
    /// Principals attached directly (neighbor → principal name).
    attached: FastMap<NeighborId, Name>,
    /// Catalogs by attaching neighbor (for extension records).
    catalogs: FastMap<NeighborId, AttachedCatalog>,
    /// In-flight lookup escalations: local id → (original id, requester).
    pending_lookups: FastMap<u64, (u64, NeighborId)>,
    next_query_id: u64,
    /// Cached metric handles (shared registry when built `with_obs`).
    obs: RouterObs,
    /// Where routers at this level send unknown names (`None` = root, which
    /// drops and reports).
    seq: u64,
    /// Nonce generator for attach challenges. Entropy-seeded by default;
    /// [`Router::set_rng_seed`] makes it replayable under the simulator.
    rng: StdRng,
}

/// PDUs to emit, paired with the neighbor to emit them to.
pub type Outbox = Vec<(NeighborId, Pdu)>;

/// True when a router named `router_name` would *forward* this PDU in
/// the data plane rather than consume it in the control plane. This is
/// the predicate [`Router::handle_pdu_into`] dispatches on; adding a
/// `PduType` variant forces a routing decision through this one match.
#[inline]
pub fn is_data_plane(pdu: &Pdu, router_name: &Name) -> bool {
    match pdu.pdu_type {
        // Data first: the forwarding fast path evaluates no name guards.
        PduType::Data => true,
        // Advertisements are consumed by the router they address; transit
        // advertisements (toward some other router) are forwarded.
        PduType::Advertise => pdu.dst != *router_name,
        // Lookups and router control are consumed when addressed to this
        // router or the hop-by-hop wildcard zero name.
        PduType::Lookup | PduType::RouterControl => !(pdu.dst == *router_name || pdu.dst.is_zero()),
        // Errors always travel the data plane back toward the source.
        PduType::Error => true,
    }
}

impl Router {
    /// Creates a router whose identity derives from `seed` and `label`,
    /// with a private metric registry.
    pub fn from_seed(seed: &[u8; 32], label: &str) -> Router {
        Router::from_seed_with_obs(seed, label, &ObsScope::default())
    }

    /// [`Router::from_seed`] registering its metrics under `obs` — the
    /// scope a node hands out from its shared per-node [`gdp_obs::Metrics`].
    pub fn from_seed_with_obs(seed: &[u8; 32], label: &str, obs: &ObsScope) -> Router {
        Router {
            id: PrincipalId::from_seed(PrincipalKind::Router, seed, label),
            parent: None,
            fib: Fib::new(),
            glookup: GLookup::new(),
            pending_challenges: FastMap::default(),
            attached: FastMap::default(),
            catalogs: FastMap::default(),
            pending_lookups: FastMap::default(),
            next_query_id: 1,
            obs: RouterObs::new(obs),
            seq: 0,
            rng: StdRng::from_entropy(),
        }
    }

    /// Replaces the challenge-nonce generator with a deterministic one.
    /// Only the simulator should call this: with a fixed seed the router's
    /// entire output becomes a pure function of its inputs.
    pub fn set_rng_seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Sets the parent-domain router's neighbor id (default route).
    pub fn set_parent(&mut self, parent: NeighborId) {
        self.parent = Some(parent);
    }

    /// This router's flat name (= its routing-domain identifier).
    pub fn name(&self) -> Name {
        self.id.name()
    }

    /// Read access to the domain's GLookupService.
    pub fn glookup(&self) -> &GLookup {
        &self.glookup
    }

    /// Read access to the FIB.
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Handles a link-down event for a neighbor.
    pub fn neighbor_down(&mut self, neighbor: NeighborId) {
        self.fib.purge_neighbor(neighbor);
        self.attached.remove(&neighbor);
        self.catalogs.remove(&neighbor);
        self.pending_challenges.remove(&neighbor);
    }

    /// Periodic maintenance: drop expired routing state.
    pub fn purge_expired(&mut self, now: u64) {
        self.fib.purge_expired(now);
        self.glookup.purge_expired(now);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Main entry point: processes one PDU, returning PDUs to emit.
    pub fn handle_pdu(&mut self, now: u64, from: NeighborId, pdu: Pdu) -> Outbox {
        let mut out = Outbox::new();
        self.handle_pdu_into(now, from, pdu, &mut out);
        out
    }

    /// Allocation-free variant of [`handle_pdu`](Router::handle_pdu):
    /// emitted PDUs are appended to a caller-owned outbox, so a tight
    /// forwarding loop can reuse one `Vec` across millions of PDUs. The
    /// append order is identical to `handle_pdu`'s return order, keeping
    /// simulator determinism intact.
    pub fn handle_pdu_into(&mut self, now: u64, from: NeighborId, pdu: Pdu, out: &mut Outbox) {
        // The forward-vs-consume split is the [`is_data_plane`] predicate.
        if is_data_plane(&pdu, &self.name()) {
            return self.forward_into(now, from, pdu, out);
        }
        // Control traffic addressed to this router (or to the wildcard
        // zero name, used hop-by-hop between routers) is consumed here.
        // Named explicitly -- not `_` -- so adding a PduType variant
        // forces a routing decision in `is_data_plane` *and* a
        // consumption arm here.
        match pdu.pdu_type {
            PduType::Advertise => {
                let emitted = self.handle_advertise(now, from, pdu);
                out.extend(emitted);
            }
            PduType::Lookup => {
                let emitted = self.handle_lookup(now, from, pdu);
                out.extend(emitted);
            }
            PduType::RouterControl => {
                let emitted = self.handle_control(now, from, pdu);
                out.extend(emitted);
            }
            // `is_data_plane` is unconditionally true for these, so they
            // took the forwarding branch above.
            PduType::Data | PduType::Error => {}
        }
    }

    // ---- data plane -----------------------------------------------------

    fn forward_into(&mut self, now: u64, from: NeighborId, pdu: Pdu, out: &mut Outbox) {
        if let Some(best) = self.fib.best(&pdu.dst, now) {
            // Hot-path counters use the single-writer increment (plain
            // load/store, no locked RMW): a Router instance is driven by
            // exactly one thread, scrapers only read.
            self.obs.fib_hits.inc_single_writer();
            // Never bounce a PDU back out the neighbor it arrived on —
            // prefer an alternate candidate (multi-replica), else fall
            // through to the parent.
            if best.neighbor != from {
                // `distance == 0` is exactly "attached at this router":
                // only `admit` installs distance-0 entries, and both the
                // FIB entry and the `attached` slot die together on
                // `neighbor_down`. Checking the distance avoids a second
                // map lookup on the forwarding fast path.
                if best.distance == 0 {
                    self.obs.pdus_delivered_local.inc_single_writer();
                } else {
                    self.obs.pdus_forwarded.inc_single_writer();
                }
                out.push((best.neighbor, pdu));
                return;
            }
            if let Some(alt) =
                self.fib.candidates(&pdu.dst, now).into_iter().find(|e| e.neighbor != from)
            {
                self.obs.pdus_forwarded.inc();
                out.push((alt.neighbor, pdu));
                return;
            }
        } else {
            self.obs.fib_misses.inc_single_writer();
        }
        match self.parent {
            Some(parent) if parent != from => {
                self.obs.pdus_forwarded.inc();
                out.push((parent, pdu));
            }
            _ => {
                self.obs.pdus_no_route.inc();
                self.obs.trace(now, "no_route", &[("dst", pdu.dst.to_hex())]);
                // Report unreachability to the source if we can route back.
                let err = Pdu {
                    pdu_type: PduType::Error,
                    src: self.name(),
                    dst: pdu.src,
                    seq: pdu.seq,
                    payload: pdu.dst.0.to_vec().into(),
                };
                match self.fib.best(&err.dst, now) {
                    Some(e) => out.push((e.neighbor, err)),
                    None if from != usize::MAX => out.push((from, err)),
                    None => {}
                }
            }
        }
    }

    // ---- secure advertisement (§VII) ------------------------------------

    fn handle_advertise(&mut self, now: u64, from: NeighborId, pdu: Pdu) -> Outbox {
        let msg = match AdvertiseMsg::from_wire(&pdu.payload) {
            Ok(m) => m,
            Err(_) => {
                self.obs.ctrl_undecodable.inc();
                return Vec::new();
            }
        };
        match msg {
            AdvertiseMsg::Hello => {
                self.obs.attach_hellos.inc();
                let challenge = Challenge::from_rng(&mut self.rng);
                let outstanding = self.pending_challenges.entry(from).or_default();
                // Bound the set: a flapping or hostile neighbor must not
                // grow state without limit. Oldest challenges die first.
                if outstanding.len() >= MAX_OUTSTANDING_CHALLENGES {
                    outstanding.remove(0);
                }
                outstanding.push(challenge);
                let reply = AdvertiseMsg::ChallengeMsg(challenge);
                vec![(from, self.advertise_pdu(pdu.src, pdu.seq, &reply))]
            }
            AdvertiseMsg::Attach { proof, advertisement, rtcert } => {
                match self.admit(now, from, &proof, &advertisement, &rtcert) {
                    Ok((accepted, mut announcements)) => {
                        self.obs.adverts_accepted.inc();
                        self.obs.trace(
                            now,
                            "attach_accepted",
                            &[
                                ("advertiser", pdu.src.to_hex()),
                                ("names", accepted.len().to_string()),
                            ],
                        );
                        let reply = AdvertiseMsg::Accepted { accepted };
                        let mut out = vec![(from, self.advertise_pdu(pdu.src, pdu.seq, &reply))];
                        out.append(&mut announcements);
                        out
                    }
                    Err(reason) => {
                        self.obs.adverts_rejected.inc();
                        self.obs.trace(
                            now,
                            "attach_rejected",
                            &[("advertiser", pdu.src.to_hex()), ("reason", reason.to_string())],
                        );
                        let reply = AdvertiseMsg::Rejected { reason: reason.to_string() };
                        vec![(from, self.advertise_pdu(pdu.src, pdu.seq, &reply))]
                    }
                }
            }
            AdvertiseMsg::Extend { extension } => self.handle_extension(from, &extension),
            // Router-originated messages arriving here are protocol misuse.
            AdvertiseMsg::ChallengeMsg(_)
            | AdvertiseMsg::Accepted { .. }
            | AdvertiseMsg::Rejected { .. } => Vec::new(),
        }
    }

    fn advertise_pdu(&self, dst: Name, seq: u64, msg: &AdvertiseMsg) -> Pdu {
        Pdu {
            pdu_type: PduType::Advertise,
            src: self.name(),
            dst,
            seq,
            payload: msg.to_wire().into(),
        }
    }

    /// Verifies and installs an attachment. Returns accepted names and the
    /// announcements to propagate to the parent.
    fn admit(
        &mut self,
        now: u64,
        from: NeighborId,
        proof: &gdp_cert::ChallengeProof,
        advertisement: &gdp_cert::Advertisement,
        rtcert: &gdp_cert::RtCert,
    ) -> Result<(Vec<Name>, Outbox), &'static str> {
        let outstanding = self.pending_challenges.get(&from).ok_or("no outstanding challenge")?;
        // Accept a proof of *any* outstanding challenge for this neighbor;
        // a failed proof consumes none of them, so a stale or duplicated
        // Attach cannot cancel the handshake cycle that is still live.
        if !outstanding.iter().any(|c| proof.verify(c, &self.name()).is_ok()) {
            return Err("challenge proof failed");
        }
        self.pending_challenges.remove(&from);
        if proof.principal != advertisement.advertiser {
            return Err("proof principal is not the advertiser");
        }
        advertisement.verify(now).map_err(|_| "advertisement failed verification")?;
        let advertiser = advertisement.advertiser.name();
        if rtcert.principal != advertiser || rtcert.router != self.name() {
            return Err("rtcert does not bind advertiser to this router");
        }
        rtcert
            .verify(&advertisement.advertiser.key, now)
            .map_err(|_| "rtcert signature invalid")?;

        self.attached.insert(from, advertiser);
        let mut accepted = Vec::new();
        let mut announcements: Outbox = Vec::new();
        let mut catalog_names: Vec<(Name, u64)> = Vec::new();

        // The advertiser's own name: always installed, always global.
        let own_route = VerifiedRoute {
            entry: None,
            name: advertiser,
            server: advertisement.advertiser.clone(),
            rtcert: rtcert.clone(),
            expires: advertisement.expires.min(rtcert.expires),
        };
        self.install_route(from, 0, &own_route);
        accepted.push(advertiser);
        catalog_names.push((advertiser, rtcert.expires));
        if let Some(parent) = self.parent {
            // `own_route` is moved into the announcement — no clone.
            announcements.push((
                parent,
                self.control_pdu(ControlMsg::Announce { route: own_route, distance: 1 }),
            ));
        }

        // Each capsule entry.
        for entry in &advertisement.entries {
            let capsule = entry.capsule();
            let expires = advertisement.expires.min(rtcert.expires).min(entry.chain.adcert.expires);
            let route = VerifiedRoute {
                entry: Some(Box::new(entry.clone())),
                name: capsule,
                server: advertisement.advertiser.clone(),
                rtcert: rtcert.clone(),
                expires,
            };
            self.install_route(from, 0, &route);
            accepted.push(capsule);
            catalog_names.push((capsule, rtcert.expires.min(entry.chain.adcert.expires)));
            if self.may_propagate(&entry.chain.adcert.scope) {
                if let Some(parent) = self.parent {
                    announcements.push((
                        parent,
                        self.control_pdu(ControlMsg::Announce { route, distance: 1 }),
                    ));
                }
            }
        }
        self.catalogs.insert(
            from,
            AttachedCatalog {
                digest: advertisement.digest(),
                advertiser: advertisement.advertiser.clone(),
                names: catalog_names,
            },
        );
        Ok((accepted, announcements))
    }

    /// Applies a verified extension record: the whole catalog's expiry is
    /// deferred as a group, bounded per name by its certificate expiries.
    fn handle_extension(&mut self, from: NeighborId, ext: &gdp_cert::AdvertExtension) -> Outbox {
        let Some(catalog) = self.catalogs.get(&from) else {
            return Vec::new();
        };
        // gdp-lint: allow(CT01) -- advert digests are public record identifiers; the security decision is the signature verification on the next clause
        if ext.advert_digest != catalog.digest || ext.verify(&catalog.advertiser).is_err() {
            self.obs.adverts_rejected.inc();
            return Vec::new();
        }
        let server = catalog.advertiser.name();
        // Disjoint-field borrows: `catalog` borrows `self.catalogs` while
        // the FIB/GLookup are updated — no clone of the name list needed.
        for (name, bound) in &catalog.names {
            let new_expires = ext.new_expires.min(*bound);
            self.fib.extend(name, &server, new_expires);
            self.glookup.extend(name, &server, new_expires);
        }
        // Re-announce extended routes upstream so parent domains defer too.
        let mut out = Vec::new();
        if let Some(parent) = self.parent {
            for (name, _) in &catalog.names {
                for route in self.glookup.lookup(name, 0) {
                    if route.server_name() == server {
                        let scope_ok = match &route.entry {
                            Some(entry) => self.may_propagate(&entry.chain.adcert.scope),
                            None => true,
                        };
                        if scope_ok {
                            out.push((
                                parent,
                                self.control_pdu(ControlMsg::Announce { route, distance: 1 }),
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Scope policy: a capsule restricted to domain `d` is not announced
    /// beyond the router named `d`.
    fn may_propagate(&self, scope: &Scope) -> bool {
        match scope {
            Scope::Global => true,
            Scope::Domain(d) => *d != self.name(),
        }
    }

    fn install_route(&mut self, neighbor: NeighborId, distance: u32, route: &VerifiedRoute) {
        self.fib.install(
            route.name,
            FibEntry { neighbor, distance, expires: route.expires, server: route.server_name() },
        );
        self.glookup.insert(route.clone());
    }

    fn control_pdu(&self, msg: ControlMsg) -> Pdu {
        // Hop-by-hop router control uses the wildcard zero destination: the
        // next router consumes it regardless of its own name.
        Pdu {
            pdu_type: PduType::RouterControl,
            src: self.name(),
            dst: Name::ZERO,
            seq: 0,
            payload: msg.to_wire().into(),
        }
    }

    // ---- route announcements from children -------------------------------

    fn handle_control(&mut self, now: u64, from: NeighborId, pdu: Pdu) -> Outbox {
        let ControlMsg::Announce { route, distance } = match ControlMsg::from_wire(&pdu.payload) {
            Ok(m) => m,
            Err(_) => {
                self.obs.ctrl_undecodable.inc();
                return Vec::new();
            }
        };
        // Independently re-verify: child routers are in other trust
        // domains.
        if route.verify(now).is_err() {
            self.obs.announces_rejected.inc();
            return Vec::new();
        }
        self.obs.announces_accepted.inc();
        let scope_ok = match &route.entry {
            Some(entry) => self.may_propagate(&entry.chain.adcert.scope),
            None => true,
        };
        self.install_route(from, distance, &route);
        if scope_ok {
            if let Some(parent) = self.parent {
                return vec![(
                    parent,
                    self.control_pdu(ControlMsg::Announce { route, distance: distance + 1 }),
                )];
            }
        }
        Vec::new()
    }

    // ---- GLookupService queries ------------------------------------------

    fn handle_lookup(&mut self, now: u64, from: NeighborId, pdu: Pdu) -> Outbox {
        match LookupMsg::from_wire(&pdu.payload) {
            Ok(LookupMsg::Query { query_id, name }) => {
                let routes = self.glookup.lookup(&name, now);
                if routes.is_empty() {
                    self.obs.glookup_misses.inc();
                } else {
                    self.obs.glookup_hits.inc();
                }
                match self.parent {
                    Some(parent) if routes.is_empty() => {
                        self.obs.lookups_escalated.inc();
                        let local_id = self.next_query_id;
                        self.next_query_id += 1;
                        self.pending_lookups.insert(local_id, (query_id, from));
                        let query = LookupMsg::Query { query_id: local_id, name };
                        vec![(parent, self.lookup_pdu(Name::ZERO, &query))]
                    }
                    _ => {
                        self.obs.lookups_local.inc();
                        let answer = LookupMsg::Answer { query_id, name, routes };
                        vec![(from, self.lookup_pdu(pdu.src, &answer))]
                    }
                }
            }
            Ok(LookupMsg::Answer { query_id, name, routes }) => {
                // Re-verify before caching: the parent GLookupService is
                // untrusted.
                let verified: Vec<VerifiedRoute> = routes
                    .into_iter()
                    .filter(|r| r.name == name && r.verify(now).is_ok())
                    .collect();
                for r in &verified {
                    // Cache: reachable via the neighbor that answered.
                    self.install_route(from, u32::MAX / 2, r);
                }
                match self.pending_lookups.remove(&query_id) {
                    Some((orig_id, requester)) => {
                        let answer =
                            LookupMsg::Answer { query_id: orig_id, name, routes: verified };
                        vec![(requester, self.lookup_pdu(Name::ZERO, &answer))]
                    }
                    None => Vec::new(),
                }
            }
            Err(_) => {
                self.obs.ctrl_undecodable.inc();
                Vec::new()
            }
        }
    }

    fn lookup_pdu(&self, dst: Name, msg: &LookupMsg) -> Pdu {
        Pdu {
            pdu_type: PduType::Lookup,
            src: self.name(),
            dst,
            seq: self.seq,
            payload: msg.to_wire().into(),
        }
    }

    /// Local (same-process) GLookupService query used by co-located tools;
    /// network clients use `LookupMsg` PDUs instead.
    pub fn lookup_local(&mut self, name: &Name, now: u64) -> Vec<VerifiedRoute> {
        let _ = self.next_seq();
        let routes = self.glookup.lookup(name, now);
        if routes.is_empty() {
            self.obs.glookup_misses.inc();
        } else {
            self.obs.glookup_hits.inc();
        }
        routes
    }
}
