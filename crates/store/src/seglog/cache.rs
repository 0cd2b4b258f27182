//! Shared bounded block cache for sealed-segment reads.
//!
//! Sealed segments are immutable, so their bytes can be cached without a
//! write-invalidation protocol: fixed-size blocks (`read_block_bytes`)
//! are read once per miss and stored as refcounted [`Bytes`], so a cache
//! hit hands out a zero-copy slice of the block — a range read over a
//! warm segment allocates nothing per record.
//!
//! Integrity: the cache stores *raw* block bytes; the entry CRC is
//! checked the first time an entry is assembled from a block (the fill
//! path), and the block remembers which entry offsets it has verified.
//! Warm hits on a verified entry skip the CRC; because the verified set
//! lives inside the block and dies with it, eviction + refill always
//! re-verifies — a disk bit-flip under a previously-cached entry
//! surfaces as a typed `StoreError::Corrupt`, never as stale or garbled
//! data. Entries that span blocks are assembled by copy and re-verified
//! on every read (rare: only entries straddling a block boundary).
//!
//! Coherence: sealed segments are never rewritten or deleted, so a
//! cached block never goes stale and needs no invalidation.
//!
//! Eviction is LRU by a logical tick, scanning for the minimum on
//! overflow — block counts are small (capacity / block size), so the
//! scan stays cheaper than maintaining an ordered structure on every
//! hit.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use gdp_wire::Bytes;
use std::collections::{HashMap, HashSet};

pub(crate) struct BlockCache {
    block_bytes: usize,
    capacity: usize,
    /// Sum of cached block lengths (tail blocks are short).
    bytes: usize,
    tick: u64,
    blocks: HashMap<(u64, u64), CachedBlock>,
}

struct CachedBlock {
    data: Bytes,
    /// Entry offsets (relative to the block start) whose CRC has been
    /// verified against *these* bytes; valid exactly as long as the
    /// block lives.
    verified: HashSet<u32>,
    touch: u64,
}

impl BlockCache {
    pub fn new(capacity: usize, block_bytes: usize) -> BlockCache {
        BlockCache {
            block_bytes: block_bytes.max(64),
            capacity,
            bytes: 0,
            tick: 0,
            blocks: HashMap::new(),
        }
    }

    /// The fixed block size reads are aligned to.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Bytes currently cached (test/diagnostic hook).
    #[cfg(test)]
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes the resident blocks keep alive: each block's whole backing
    /// allocation (test/diagnostic hook).
    #[cfg(test)]
    pub fn resident_backing_bytes(&self) -> usize {
        self.blocks.values().map(|b| b.data.backing_len()).sum()
    }

    /// Whether `(seg, idx)` is resident, without bumping its LRU touch.
    pub fn contains(&self, seg: u64, idx: u64) -> bool {
        self.blocks.contains_key(&(seg, idx))
    }

    /// The cached block `(seg, idx)`, bumping its LRU touch. The returned
    /// [`Bytes`] shares the cached allocation (O(1)).
    pub fn get(&mut self, seg: u64, idx: u64) -> Option<Bytes> {
        self.tick += 1;
        let tick = self.tick;
        let b = self.blocks.get_mut(&(seg, idx))?;
        b.touch = tick;
        Some(b.data.clone())
    }

    /// Inserts a freshly-read block, evicting coldest blocks while over
    /// the byte budget; returns how many blocks were evicted. Replacing
    /// an existing block resets its verified set (refill ⇒ re-verify).
    pub fn insert(&mut self, seg: u64, idx: u64, data: Bytes) -> u64 {
        self.tick += 1;
        let len = data.len();
        if let Some(old) = self
            .blocks
            .insert((seg, idx), CachedBlock { data, verified: HashSet::new(), touch: self.tick })
        {
            self.bytes = self.bytes.saturating_sub(old.data.len());
        }
        self.bytes += len;
        let mut evicted = 0;
        while self.bytes > self.capacity {
            let coldest = self.blocks.iter().min_by_key(|(_, b)| b.touch).map(|(k, _)| *k);
            let Some(key) = coldest else { break };
            if let Some(b) = self.blocks.remove(&key) {
                self.bytes = self.bytes.saturating_sub(b.data.len());
                evicted += 1;
            }
        }
        evicted
    }

    /// Whether the entry starting at `off_in_block` inside `(seg, idx)`
    /// has been CRC-verified against the currently-cached bytes.
    pub fn is_verified(&self, seg: u64, idx: u64, off_in_block: u32) -> bool {
        self.blocks.get(&(seg, idx)).is_some_and(|b| b.verified.contains(&off_in_block))
    }

    /// Records a successful entry CRC check against the cached bytes.
    pub fn mark_verified(&mut self, seg: u64, idx: u64, off_in_block: u32) {
        if let Some(b) = self.blocks.get_mut(&(seg, idx)) {
            b.verified.insert(off_in_block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8, len: usize) -> Bytes {
        Bytes::from_vec(vec![fill; len])
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let mut c = BlockCache::new(256, 64);
        assert_eq!(c.insert(0, 0, block(0, 128)), 0);
        assert_eq!(c.insert(0, 1, block(1, 128)), 0);
        // Touch block 0 so block 1 is the LRU victim.
        assert!(c.get(0, 0).is_some());
        assert_eq!(c.insert(0, 2, block(2, 128)), 1);
        assert!(c.get(0, 1).is_none(), "cold block must have been evicted");
        assert!(c.get(0, 0).is_some());
        assert!(c.resident_bytes() <= 256);
    }

    #[test]
    fn refill_resets_verification() {
        let mut c = BlockCache::new(1024, 64);
        c.insert(3, 7, block(0, 64));
        c.mark_verified(3, 7, 12);
        assert!(c.is_verified(3, 7, 12));
        // Replacing the block (eviction + refill in real life) must force
        // re-verification: the new bytes were never checked.
        c.insert(3, 7, block(1, 64));
        assert!(!c.is_verified(3, 7, 12));
    }

    #[test]
    fn zero_capacity_cache_stays_correct() {
        // A capacity smaller than one block: every insert immediately
        // evicts (possibly itself), but the returned slice stays valid
        // because `Bytes` is refcounted.
        let mut c = BlockCache::new(0, 64);
        let data = block(9, 64);
        c.insert(0, 0, data.clone());
        assert!(c.get(0, 0).is_none());
        assert_eq!(data.len(), 64);
        assert_eq!(c.resident_bytes(), 0);
    }
}
