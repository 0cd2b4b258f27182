//! Bounded verification cache for Ed25519-signed routing objects.
//!
//! Steady-state forwarding re-verifies the same advertisements, RtCerts,
//! and announced routes on every refresh and every lookup answer — at
//! ~50 µs per Ed25519 verification that dominates the control-plane
//! budget (the same observation NDN forwarding work makes about
//! per-packet signature cost). The cache memoizes *successful*
//! verifications, keyed by a SHA-256 digest over a domain-separation tag,
//! the object's full canonical encoding, and the signer's public key.
//! Any flipped bit — in the payload, the signature, the expiry, or the
//! key — changes the digest and forces a full re-verification, so a
//! cached hit is exactly as strong as the verification it memoized.
//!
//! Expiry is enforced on every hit: the stored deadline is the *minimum*
//! over every certificate expiry the original verification checked, so a
//! hit can never outlive any constituent certificate. First-sight and
//! post-expiry paths always run the real verifier. Challenge proofs are
//! never cached (each nonce is unique by construction).
//!
//! Capacity is bounded; eviction is insertion-ordered (FIFO), which is
//! enough because entries are immutable facts, not working-set state —
//! re-verifying an evicted entry is only a latency cost, never a
//! correctness one.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::messages::VerifiedRoute;
use gdp_cert::{Advertisement, RtCert};
use gdp_crypto::sha256;
use gdp_wire::{Encoder, FastMap, Wire};
use std::collections::VecDeque;

/// Default entry capacity: covers a busy router's live neighbor set many
/// times over while bounding memory to ~40 bytes per entry.
pub const DEFAULT_VERIFY_CACHE_CAP: usize = 1024;

/// Memoization table for successful signature verifications.
#[derive(Debug, Default)]
pub struct VerifyCache {
    cap: usize,
    /// digest → effective expiry (µs since epoch).
    entries: FastMap<[u8; 32], u64>,
    /// Insertion order for FIFO eviction. May briefly hold digests already
    /// removed from `entries` (expired on access); eviction skips those.
    order: VecDeque<[u8; 32]>,
}

impl VerifyCache {
    /// A cache holding at most `cap` verified digests.
    pub fn new(cap: usize) -> VerifyCache {
        VerifyCache { cap, entries: FastMap::default(), order: VecDeque::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns true iff `digest` was verified before and its effective
    /// expiry has not passed. An expired entry is removed and reported as
    /// a miss, forcing the caller back onto the full verification path.
    pub fn hit(&mut self, digest: &[u8; 32], now: u64) -> bool {
        match self.entries.get(digest) {
            Some(&expires) if now <= expires => true,
            Some(_) => {
                self.entries.remove(digest);
                false
            }
            None => false,
        }
    }

    /// Records a successful verification valid until `expires`.
    pub fn insert(&mut self, digest: [u8; 32], expires: u64) {
        if self.cap == 0 || self.entries.contains_key(&digest) {
            return;
        }
        while self.entries.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break, // order desynced (all stale): give up evicting
            }
        }
        self.entries.insert(digest, expires);
        self.order.push_back(digest);
        // Drop stale order slots so the deque cannot outgrow the map
        // unboundedly under heavy expiry churn.
        while self.order.len() > self.cap * 2 {
            if let Some(front) = self.order.pop_front() {
                if self.entries.contains_key(&front) {
                    self.order.push_front(front);
                    break;
                }
            }
        }
    }
}

fn tagged_digest(tag: &str, parts: &[&[u8]]) -> [u8; 32] {
    let mut enc = Encoder::with_capacity(64 + parts.iter().map(|p| p.len()).sum::<usize>());
    enc.string(tag);
    for p in parts {
        enc.bytes(p);
    }
    sha256(&enc.finish())
}

/// Cache key for a [`VerifiedRoute`]: tag ‖ full route encoding. The
/// encoding already contains the server principal (signer key), the
/// RtCert, and the capsule chain, so every signed byte is bound.
pub fn route_digest(route: &VerifiedRoute) -> [u8; 32] {
    tagged_digest("gdp/vcache/route/v1", &[&route.to_wire()])
}

/// Effective expiry of a route: the minimum over every certificate the
/// full verification checks. A cached hit must never outlive any of them.
pub fn route_expiry(route: &VerifiedRoute) -> u64 {
    let mut exp = route.expires.min(route.rtcert.expires);
    if let Some(entry) = &route.entry {
        exp = exp.min(chain_expiry(&entry.chain));
    }
    exp
}

/// Cache key for an advertisement catalog: tag ‖ catalog digest ‖ signer
/// key ‖ catalog signature. `Advertisement::digest()` covers the
/// advertiser principal and entries but not the signature, so it is mixed
/// in explicitly — a forged signature must never collide with a cached
/// good one.
pub fn advert_digest(advertisement: &Advertisement) -> [u8; 32] {
    tagged_digest(
        "gdp/vcache/advert/v1",
        &[
            &advertisement.digest(),
            &advertisement.advertiser.key.to_bytes(),
            &advertisement.signature.to_bytes(),
        ],
    )
}

/// Effective expiry of an advertisement: catalog expiry capped by every
/// entry's chain expiries.
pub fn advert_expiry(advertisement: &Advertisement) -> u64 {
    let mut exp = advertisement.expires;
    for entry in &advertisement.entries {
        exp = exp.min(chain_expiry(&entry.chain));
    }
    exp
}

/// Cache key for an RtCert verification: tag ‖ cert encoding ‖ signer key
/// (the key is *not* part of the cert encoding, so it must be mixed in —
/// the same cert bytes verified against a different key is a different
/// fact).
pub fn rtcert_digest(rtcert: &RtCert, signer_key: &gdp_crypto::VerifyingKey) -> [u8; 32] {
    tagged_digest("gdp/vcache/rtcert/v1", &[&rtcert.to_wire(), &signer_key.to_bytes()])
}

fn chain_expiry(chain: &gdp_cert::ServingChain) -> u64 {
    let mut exp = chain.adcert.expires;
    for (cert, _) in &chain.memberships {
        exp = exp.min(cert.expires);
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(b: u8) -> [u8; 32] {
        [b; 32]
    }

    #[test]
    fn hit_respects_expiry() {
        let mut c = VerifyCache::new(8);
        c.insert(d(1), 100);
        assert!(c.hit(&d(1), 50));
        assert!(c.hit(&d(1), 100));
        // Past the deadline: miss, and the entry is gone for good.
        assert!(!c.hit(&d(1), 101));
        assert!(!c.hit(&d(1), 50));
    }

    #[test]
    fn unknown_digest_misses() {
        let mut c = VerifyCache::new(8);
        c.insert(d(1), 100);
        assert!(!c.hit(&d(2), 0));
    }

    #[test]
    fn capacity_bounded_fifo() {
        let mut c = VerifyCache::new(4);
        for i in 0..10u8 {
            c.insert(d(i), 1000);
        }
        assert!(c.len() <= 4);
        // The newest survive, the oldest were evicted.
        assert!(c.hit(&d(9), 0));
        assert!(!c.hit(&d(0), 0));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = VerifyCache::new(0);
        c.insert(d(1), 1000);
        assert!(!c.hit(&d(1), 0));
        assert_eq!(c.len(), 0);
    }
}
