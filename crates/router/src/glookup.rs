//! The GLookupService: a verified routing database.
//!
//! "Within a routing domain, all routing information is kept in a shared
//! database that we call a GLookupService ... essentially a key-value store
//! and is not required to be trusted" (paper §VII/§VIII): every stored
//! route carries the full certificate chain, so queriers re-verify answers
//! themselves. One instance lives in each domain router; misses recurse to
//! the parent domain, and the root instance is the global GLookupService.

use crate::messages::VerifiedRoute;
use gdp_wire::{FastMap, Name};

/// Verified routing database for one routing domain.
#[derive(Clone, Debug, Default)]
pub struct GLookup {
    /// Keyed by flat name (SHA-256 output → [`FastMap`] hashing is safe).
    routes: FastMap<Name, Vec<VerifiedRoute>>,
}

impl GLookup {
    /// Creates an empty database.
    pub fn new() -> GLookup {
        GLookup::default()
    }

    /// Inserts (or refreshes) a verified route. The caller is responsible
    /// for having verified the chain; the database itself is untrusted
    /// storage and queriers re-verify.
    pub fn insert(&mut self, route: VerifiedRoute) {
        // Most names have one route: start the slot at capacity 1, not
        // the 4 a first `push` would reserve.
        let slot = self.routes.entry(route.name).or_insert_with(|| Vec::with_capacity(1));
        if let Some(existing) = slot.iter_mut().find(|r| r.server == route.server) {
            *existing = route;
        } else {
            slot.push(route);
        }
    }

    /// Live routes for a name.
    pub fn lookup(&self, name: &Name, now: u64) -> Vec<VerifiedRoute> {
        self.routes
            .get(name)
            .map(|slot| slot.iter().filter(|r| r.expires > now).cloned().collect())
            .unwrap_or_default()
    }

    /// True if at least one live route exists.
    pub fn contains(&self, name: &Name, now: u64) -> bool {
        !self.lookup(name, now).is_empty()
    }

    /// Re-stamps the expiry of `name`'s route served by `server`.
    pub fn extend(&mut self, name: &Name, server: &Name, new_expires: u64) {
        if let Some(slot) = self.routes.get_mut(name) {
            for r in slot.iter_mut().filter(|r| r.server_name() == *server) {
                r.expires = r.expires.max(new_expires);
            }
        }
    }

    /// Drops expired routes.
    pub fn purge_expired(&mut self, now: u64) {
        for slot in self.routes.values_mut() {
            slot.retain(|r| r.expires > now);
        }
        self.routes.retain(|_, slot| !slot.is_empty());
    }

    /// Number of names known.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_cert::{PrincipalId, PrincipalKind, RtCert};

    fn route(name_bytes: &[u8], server_seed: u8, expires: u64) -> VerifiedRoute {
        let server = PrincipalId::from_seed(PrincipalKind::Server, &[server_seed; 32], "s");
        let router = PrincipalId::from_seed(PrincipalKind::Router, &[99u8; 32], "r");
        VerifiedRoute {
            entry: None,
            name: Name::from_content(name_bytes),
            server: server.principal().clone(),
            rtcert: RtCert::issue(server.signing_key(), server.name(), router.name(), expires),
            expires,
        }
    }

    #[test]
    fn insert_lookup() {
        let mut g = GLookup::new();
        g.insert(route(b"a", 1, 100));
        g.insert(route(b"a", 2, 100)); // second replica
        g.insert(route(b"b", 1, 100));
        assert_eq!(g.lookup(&Name::from_content(b"a"), 0).len(), 2);
        assert_eq!(g.lookup(&Name::from_content(b"b"), 0).len(), 1);
        assert!(g.lookup(&Name::from_content(b"zzz"), 0).is_empty());
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn refresh_same_server() {
        let mut g = GLookup::new();
        g.insert(route(b"a", 1, 100));
        g.insert(route(b"a", 1, 500));
        let routes = g.lookup(&Name::from_content(b"a"), 0);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].expires, 500);
    }

    #[test]
    fn expiry() {
        let mut g = GLookup::new();
        g.insert(route(b"a", 1, 100));
        assert!(g.contains(&Name::from_content(b"a"), 99));
        assert!(!g.contains(&Name::from_content(b"a"), 100));
        g.purge_expired(100);
        assert!(g.is_empty());
    }

    #[test]
    fn a_bare_principal_route_costs_one_small_slot() {
        let mut g = GLookup::new();
        for i in 0u8..16 {
            g.insert(route(&[i], 1, 100));
        }
        for slot in g.routes.values() {
            assert_eq!(slot.capacity(), 1);
        }
        // The capsule advert is boxed, so a bare route carries no advert's
        // worth of inline space.
        assert!(std::mem::size_of::<VerifiedRoute>() <= 256);
    }
}
