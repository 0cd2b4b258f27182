//! Forwarding Information Base.
//!
//! Maps flat names to candidate next hops. A name may have several
//! candidates — one per replica subtree — enabling anycast: the router
//! picks the minimum-distance candidate ("the underlying routing network
//! ensures that the requests are automatically directed to the closest
//! replica", paper §VI).

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use gdp_wire::{FastMap, Name};

/// Identifier of a neighbor attachment (a link endpoint), shared with the
/// network substrate.
pub type NeighborId = usize;

/// One candidate next hop for a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FibEntry {
    /// Neighbor to forward to.
    pub neighbor: NeighborId,
    /// Router-hop distance to the serving attachment point (0 = attached
    /// directly to this router).
    pub distance: u32,
    /// Entry expiry (microseconds since epoch); stale entries are ignored
    /// and lazily purged.
    pub expires: u64,
    /// Name of the serving principal (for diagnostics and dedup).
    pub server: Name,
}

/// The forwarding table.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    /// Keyed by flat name. Names are SHA-256 outputs, so the cheap
    /// [`FastMap`] hasher is safe here (see `gdp_wire::fasthash`).
    entries: FastMap<Name, Vec<FibEntry>>,
}

impl Fib {
    /// Creates an empty FIB.
    pub fn new() -> Fib {
        Fib::default()
    }

    /// Installs (or refreshes) a candidate next hop for `name`.
    pub fn install(&mut self, name: Name, entry: FibEntry) {
        // Most names have one candidate: start the slot at capacity 1, not
        // the 4 a first `push` would reserve.
        let slot = self.entries.entry(name).or_insert_with(|| Vec::with_capacity(1));
        // Replace an existing candidate from the same server via the same
        // neighbor (refresh), otherwise add.
        if let Some(existing) =
            slot.iter_mut().find(|e| e.server == entry.server && e.neighbor == entry.neighbor)
        {
            *existing = entry;
        } else {
            slot.push(entry);
        }
    }

    /// Best (minimum-distance, then lowest server name) live candidate.
    pub fn best(&self, name: &Name, now: u64) -> Option<FibEntry> {
        let slot = self.entries.get(name)?;
        // Single-candidate fast path: the overwhelmingly common case on
        // the forwarding hot loop (one replica per name per router).
        if let [only] = slot.as_slice() {
            return (only.expires > now).then_some(*only);
        }
        slot.iter().filter(|e| e.expires > now).min_by_key(|e| (e.distance, e.server)).copied()
    }

    /// All live candidates (anycast set), sorted by preference.
    pub fn candidates(&self, name: &Name, now: u64) -> Vec<FibEntry> {
        let mut out: Vec<FibEntry> = self
            .entries
            .get(name)
            .map(|slot| slot.iter().filter(|e| e.expires > now).copied().collect())
            .unwrap_or_default();
        out.sort_by_key(|e| (e.distance, e.server));
        out
    }

    /// Re-stamps the expiry of entries for `name` served by `server`
    /// (advertisement extension records).
    pub fn extend(&mut self, name: &Name, server: &Name, new_expires: u64) {
        if let Some(slot) = self.entries.get_mut(name) {
            for e in slot.iter_mut().filter(|e| e.server == *server) {
                e.expires = e.expires.max(new_expires);
            }
        }
    }

    /// Removes all entries pointing at a neighbor (link failure).
    pub fn purge_neighbor(&mut self, neighbor: NeighborId) {
        for slot in self.entries.values_mut() {
            slot.retain(|e| e.neighbor != neighbor);
        }
        self.entries.retain(|_, slot| !slot.is_empty());
    }

    /// Drops expired entries.
    pub fn purge_expired(&mut self, now: u64) {
        for slot in self.entries.values_mut() {
            slot.retain(|e| e.expires > now);
        }
        self.entries.retain(|_, slot| !slot.is_empty());
    }

    /// Number of names with at least one candidate.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no names are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all (name, entries) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Vec<FibEntry>)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(b: &[u8]) -> Name {
        Name::from_content(b)
    }

    fn entry(neighbor: NeighborId, distance: u32, expires: u64, server: &[u8]) -> FibEntry {
        FibEntry { neighbor, distance, expires, server: name(server) }
    }

    #[test]
    fn best_prefers_closest() {
        let mut fib = Fib::new();
        let n = name(b"capsule");
        fib.install(n, entry(1, 3, 100, b"far"));
        fib.install(n, entry(2, 1, 100, b"near"));
        assert_eq!(fib.best(&n, 0).unwrap().neighbor, 2);
        assert_eq!(fib.candidates(&n, 0).len(), 2);
    }

    #[test]
    fn expired_entries_skipped() {
        let mut fib = Fib::new();
        let n = name(b"c");
        fib.install(n, entry(1, 0, 50, b"s"));
        assert!(fib.best(&n, 49).is_some());
        assert!(fib.best(&n, 50).is_none());
        fib.purge_expired(50);
        assert!(fib.is_empty());
    }

    #[test]
    fn refresh_replaces_same_server_same_neighbor() {
        let mut fib = Fib::new();
        let n = name(b"c");
        fib.install(n, entry(1, 0, 50, b"s"));
        fib.install(n, entry(1, 0, 500, b"s"));
        assert_eq!(fib.candidates(&n, 0).len(), 1);
        assert_eq!(fib.best(&n, 100).unwrap().expires, 500);
    }

    #[test]
    fn purge_neighbor_removes_routes() {
        let mut fib = Fib::new();
        let n = name(b"c");
        fib.install(n, entry(1, 0, 100, b"a"));
        fib.install(n, entry(2, 1, 100, b"b"));
        fib.purge_neighbor(1);
        assert_eq!(fib.best(&n, 0).unwrap().neighbor, 2);
        fib.purge_neighbor(2);
        assert!(fib.best(&n, 0).is_none());
    }

    #[test]
    fn a_name_with_one_candidate_holds_one_slot() {
        let mut fib = Fib::new();
        for i in 0u8..16 {
            fib.install(name(&[i]), entry(1, 0, 100, b"s"));
        }
        for (_, slot) in fib.iter() {
            assert_eq!(slot.capacity(), 1);
        }
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut fib = Fib::new();
        let n = name(b"c");
        fib.install(n, entry(1, 1, 100, b"server-b"));
        fib.install(n, entry(2, 1, 100, b"server-a"));
        let best1 = fib.best(&n, 0).unwrap();
        let best2 = fib.best(&n, 0).unwrap();
        assert_eq!(best1, best2);
    }
}
