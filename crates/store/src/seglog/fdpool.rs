//! Bounded LRU pool of read-only fds for sealed segments.
//!
//! Before this pool, every random read of a sealed segment paid an
//! open + `seek` (the `read_entry_at` hot spot): under a
//! read-heavy load over many segments that is one `open(2)`/`close(2)`
//! pair per record. The pool keeps at most `max_open_segments` fds
//! resident, evicting the coldest on overflow, and positional reads
//! (`pread`) mean a pooled fd never carries cursor state.
//!
//! Coherence: sealed segments are immutable and never deleted, so a
//! pooled fd never goes stale.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use super::segment::seg_name;
use crate::io::{Dir, Fd, Mode};
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) struct FdPool {
    cap: usize,
    /// Logical LRU clock; bumped per lookup.
    tick: u64,
    /// Total opens ever made — the regression hook proving
    /// read-heavy runs reopen segments instead of hoarding fds.
    opens: u64,
    files: HashMap<u64, (Arc<Fd>, u64)>,
}

impl FdPool {
    pub fn new(cap: usize) -> FdPool {
        FdPool { cap: cap.max(1), tick: 0, opens: 0, files: HashMap::new() }
    }

    /// Total opens made by this pool.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Fds currently held open (always ≤ the configured cap).
    pub fn open_fds(&self) -> usize {
        self.files.len()
    }

    /// The pooled read-only fd for sealed segment `seg`, opening it (and
    /// evicting the coldest pooled fd when at capacity) on miss. Returns
    /// whether this call opened the file, for per-open accounting.
    ///
    /// The handle is refcounted: the `pread` it serves never borrows the
    /// pool, so pool bookkeeping (eviction) and the read itself are
    /// structurally independent — evicting the fd mid-read just drops the
    /// pool's reference while the in-flight read keeps the file alive
    /// (LK01/LK02 audit: no second lock, and no pool borrow, is ever held
    /// across the `pread`).
    pub fn get(&mut self, dir: &Dir, seg: u64) -> std::io::Result<(Arc<Fd>, bool)> {
        self.tick += 1;
        let tick = self.tick;
        let mut opened = false;
        if !self.files.contains_key(&seg) {
            while self.files.len() >= self.cap {
                let coldest = self.files.iter().min_by_key(|(_, (_, t))| *t).map(|(s, _)| *s);
                match coldest {
                    Some(s) => {
                        self.files.remove(&s);
                    }
                    None => break,
                }
            }
            let file = Arc::new(dir.open(&seg_name(seg), Mode::Read)?);
            self.opens += 1;
            opened = true;
            self.files.insert(seg, (file, tick));
        }
        match self.files.get_mut(&seg) {
            Some((file, t)) => {
                *t = tick;
                Ok((Arc::clone(file), opened))
            }
            None => {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, "pooled fd not inserted"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemFs;

    fn dir_with_segs(n: u64) -> Dir {
        let dir = Dir::from(&MemFs::new());
        for id in 0..n {
            dir.open(&seg_name(id), Mode::CreateNew).unwrap().write_all(&[id as u8]).unwrap();
        }
        dir
    }

    #[test]
    fn pool_caps_open_fds_and_counts_opens() {
        let dir = dir_with_segs(6);
        let mut pool = FdPool::new(2);
        for id in 0..6 {
            let (_, opened) = pool.get(&dir, id).unwrap();
            assert!(opened);
            assert!(pool.open_fds() <= 2, "fd budget exceeded: {}", pool.open_fds());
        }
        assert_eq!(pool.opens(), 6);
        // Hits on the two resident segments do not reopen.
        let (_, opened) = pool.get(&dir, 5).unwrap();
        assert!(!opened);
        assert_eq!(pool.opens(), 6);
        // The LRU victim (seg 4 after touching 5) reopens.
        let (_, opened) = pool.get(&dir, 0).unwrap();
        assert!(opened);
        let (_, opened) = pool.get(&dir, 5).unwrap();
        assert!(!opened, "recently-touched fd evicted out of LRU order");
    }
}
