//! Segmented shared-log storage engine.
//!
//! One append log per *node*, shared by every hosted capsule: records
//! from all capsules multiplex onto a sequence of fixed-size segment
//! files, with a per-capsule in-memory index for random reads that stays
//! resident for as long as the log is open. It is the node's only durable
//! engine: a node hosting millions of capsules cannot afford one file +
//! one fsync per capsule.
//!
//! The moving parts (see DESIGN.md, "Storage engine"):
//!
//! * **Group commit** (`writer.rs`): appends from every stream batch into
//!   one buffer; a flush is one `write_all` + one `fdatasync`. Appends
//!   ack [`AppendAck::Pending`] and become sendable only once the
//!   covering fsync lands — crashing before the flush loses exactly the
//!   *unacked* tail.
//! * **Segment rotation**: the active segment seals past
//!   `segment_max_bytes`; a fresh segment and a checkpoint follow.
//! * **Checkpointed recovery** (`checkpoint.rs`): open reads the last
//!   checkpoint once, decodes every stream's index from it, and replays
//!   only the log tail past it — bounded by write traffic since the last
//!   checkpoint, not log size. Any checkpoint damage, a section failing
//!   its CRC or its decode included, falls back to a full scan.
//! * **Append-only**: a sealed segment is never rewritten or deleted.
//!   Nothing supersedes a record (`append` dedups by address before it
//!   writes), so there is nothing to compact; a physical duplicate found
//!   on disk is indexed once, first occurrence wins.
//! * **One map per stream**: a record's entry location, keyed by the
//!   record's address — its hash-pointer `(seq, hash)` — so the same map
//!   answers point reads, seq lookups and range scans.
//! * **One file layer** ([`crate::io`]): every file operation goes
//!   through a [`Dir`], on the OS or on an in-memory
//!   [`MemFs`](crate::io::MemFs), where tests fail and crash it.

mod cache;
mod checkpoint;
mod fdpool;
mod segment;
mod writer;

pub use checkpoint::{CheckpointPos, CKPT_MAGIC};
pub use segment::{RECOVERY_CHUNK, SEG_MAGIC};

use crate::io::{Dir, Fd, Mode};
use crate::policy::{AppendAck, FsyncPolicy};
use crate::store::StoreError;
use cache::BlockCache;
use checkpoint::{Checkpoint, Section, SectionRecord};
use fdpool::FdPool;
use gdp_capsule::{CapsuleMetadata, Pointer, Record};
use gdp_obs::{Counter, Gauge, Histogram, Scope};
use gdp_wire::{Bytes, Name, Wire};
use segment::{seg_name, ScanEnd};
use std::collections::BTreeMap;
use writer::{entry_crc, GroupCommit, ENTRY_HEADER, KIND_METADATA, KIND_RECORD};

/// Tuning knobs for a [`SegLog`].
#[derive(Clone, Debug)]
pub struct SegConfig {
    /// Durability policy.
    pub policy: FsyncPolicy,
    /// Seal the active segment once it reaches this size.
    pub segment_max_bytes: u64,
    /// Force an inline flush when this many bytes are batched, bounding
    /// buffered (unacked) data independently of the flush interval.
    pub flush_byte_budget: usize,
    /// Byte budget of the shared sealed-segment block cache (0 disables
    /// caching: every read refetches, correctness unchanged).
    pub read_cache_bytes: usize,
    /// Fixed block size sealed-segment reads are aligned to.
    pub read_block_bytes: usize,
    /// On a cache miss with a sequential hint (range scans), read this
    /// many blocks instead of one, each into its own cached allocation.
    pub readahead_blocks: usize,
    /// At most this many sealed-segment fds stay pooled for reads
    /// (LRU-evicted beyond it).
    pub max_open_segments: usize,
}

impl Default for SegConfig {
    fn default() -> SegConfig {
        SegConfig {
            policy: FsyncPolicy::DEFAULT_BATCH,
            segment_max_bytes: 8 * 1024 * 1024,
            flush_byte_budget: 256 * 1024,
            read_cache_bytes: 4 * 1024 * 1024,
            read_block_bytes: 64 * 1024,
            readahead_blocks: 4,
            max_open_segments: 128,
        }
    }
}

/// Cached metric handles (scope "store").
#[derive(Clone)]
struct SegObs {
    entries_appended: Counter,
    bytes_appended: Counter,
    fsyncs: Counter,
    dir_fsyncs: Counter,
    recovery_truncations: Counter,
    crc_failures: Counter,
    group_commits: Counter,
    checkpoints_written: Counter,
    segments_rotated: Counter,
    recovery_tail_entries: Counter,
    recovery_full_scans: Counter,
    read_cache_hits: Counter,
    read_cache_misses: Counter,
    read_cache_evictions: Counter,
    readahead_blocks: Counter,
    reads_served_from_store: Counter,
    segment_fd_opens: Counter,
    segments: Gauge,
    fsync_batch_entries: Histogram,
    fsync_us: Histogram,
}

impl SegObs {
    fn new(scope: &Scope) -> SegObs {
        SegObs {
            entries_appended: scope.counter("entries_appended"),
            bytes_appended: scope.counter("bytes_appended"),
            fsyncs: scope.counter("fsyncs"),
            dir_fsyncs: scope.counter("dir_fsyncs"),
            recovery_truncations: scope.counter("recovery_truncations"),
            crc_failures: scope.counter("crc_failures"),
            group_commits: scope.counter("group_commits"),
            checkpoints_written: scope.counter("checkpoints_written"),
            segments_rotated: scope.counter("segments_rotated"),
            recovery_tail_entries: scope.counter("recovery_tail_entries"),
            recovery_full_scans: scope.counter("recovery_full_scans"),
            read_cache_hits: scope.counter("read_cache_hits"),
            read_cache_misses: scope.counter("read_cache_misses"),
            read_cache_evictions: scope.counter("read_cache_evictions"),
            readahead_blocks: scope.counter("readahead_blocks"),
            reads_served_from_store: scope.counter("reads_served_from_store"),
            segment_fd_opens: scope.counter("segment_fd_opens"),
            segments: scope.gauge("segments"),
            fsync_batch_entries: scope.histogram("fsync_batch_entries"),
            fsync_us: scope.histogram("fsync_us"),
        }
    }
}

/// Where one entry lives in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntryLoc {
    seg: u64,
    off: u64,
}

/// In-memory index of one capsule's stream: where each record's entry
/// lives, by the record's address (in seq order).
#[derive(Default)]
struct StreamIndex {
    metadata: Option<CapsuleMetadata>,
    records: BTreeMap<Pointer, EntryLoc>,
}

impl StreamIndex {
    /// Rebuilds a stream's index from its checkpoint section.
    fn from_section(section: Section) -> StreamIndex {
        let records = section
            .records
            .into_iter()
            .map(|r| (Pointer { seq: r.seq, hash: r.hash }, EntryLoc { seg: r.seg, off: r.off }));
        StreamIndex { metadata: section.metadata, records: records.collect() }
    }

    /// Serializes the index into its checkpoint section payload.
    fn section_payload(&self) -> Vec<u8> {
        let records: Vec<SectionRecord> = self
            .records
            .iter()
            .map(|(at, loc)| SectionRecord {
                hash: at.hash,
                seq: at.seq,
                seg: loc.seg,
                off: loc.off,
            })
            .collect();
        checkpoint::encode_section(self.metadata.as_ref(), &records)
    }
}

/// Per-segment bookkeeping.
#[derive(Clone, Copy, Debug)]
struct SegMeta {
    /// Total bytes (header + entries, durable + buffered for the active).
    len: u64,
}

/// What the last `open()` did (for bounded-recovery assertions).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Entries replayed from the log tail past the checkpoint.
    pub tail_entries: u64,
    /// True when no usable checkpoint existed and the whole log was scanned.
    pub full_scan: bool,
    /// Peak bytes buffered while scanning (bounded by chunk + max entry).
    pub peak_buffer: usize,
}

/// The node's segmented log: one value, owned by the server that mounts
/// it (or by [`crate::StorageEngine::open_boxed`]'s adapter). Every
/// stream is named by its capsule. Reads take `&mut self` too: they fill
/// the block cache and the fd pool, and drop a rotten entry from the
/// index.
pub struct SegLog {
    dir: Dir,
    cfg: SegConfig,
    segments: BTreeMap<u64, SegMeta>,
    active: u64,
    gc: GroupCommit,
    streams: BTreeMap<Name, StreamIndex>,
    /// True once a read found an entry rotten and until the next
    /// checkpoint: a reopen from the older one (or from a scan, which
    /// stops at the rot) would index the rot again and skip a good copy
    /// re-appended since, so the next maintenance pass checkpoints.
    ckpt_names_rot: bool,
    recovery: RecoveryStats,
    /// Block cache for sealed-segment reads (see `cache.rs`).
    read_cache: BlockCache,
    /// Bounded pool of read-only sealed-segment fds (see `fdpool.rs`).
    fds: FdPool,
    obs: SegObs,
}

impl SegLog {
    /// Opens (or creates) the log in `dir` — a path on the OS, or a
    /// [`MemFs`](crate::io::MemFs) — registering metrics under `scope`
    /// (`&Scope::default()` for a private registry).
    pub fn open(dir: impl Into<Dir>, cfg: SegConfig, scope: &Scope) -> Result<SegLog, StoreError> {
        let dir = dir.into();
        dir.create()?;
        let _ = dir.remove(checkpoint::CKPT_TMP);
        let obs = SegObs::new(scope);

        // Inventory segment files.
        let mut segments: BTreeMap<u64, SegMeta> = BTreeMap::new();
        for (name, len) in dir.list()? {
            if let Some(id) = segment::parse_seg_id(&name) {
                segments.insert(id, SegMeta { len });
            }
        }
        // A crash inside `create_segment` can leave the newest segment
        // shorter than its magic (its directory entry reached disk before
        // its first bytes did). Nothing was ever appended to it: re-stamp.
        if let Some((&id, m)) = segments.iter_mut().next_back() {
            if m.len < SEG_MAGIC.len() as u64 {
                let f = dir.open(&seg_name(id), Mode::Create)?;
                f.write_all(&SEG_MAGIC)?;
                f.sync_data()?;
                m.len = SEG_MAGIC.len() as u64;
                obs.recovery_truncations.inc();
            }
        }
        let fresh = segments.is_empty();
        if fresh {
            create_segment(&dir, 0)?;
            obs.dir_fsyncs.inc();
            segments.insert(0, SegMeta { len: SEG_MAGIC.len() as u64 });
        }
        let active = segments.keys().next_back().copied().unwrap_or(0);

        // Validate the checkpoint against the directory: every referenced
        // segment must exist and the position must be inside the log.
        let ckpt = checkpoint::load_snapshot(&dir).filter(|c| {
            c.segs.iter().all(|id| segments.contains_key(id))
                && segments.get(&c.pos.seg).is_some_and(|m| c.pos.off <= m.len)
        });

        let mut log = SegLog {
            // Placeholder until the scan fixes the true durable tail; the
            // file is reopened below.
            gc: GroupCommit::new(open_segment_append(&dir, active)?, 0),
            dir,
            read_cache: BlockCache::new(cfg.read_cache_bytes, cfg.read_block_bytes),
            fds: FdPool::new(cfg.max_open_segments),
            cfg,
            segments,
            active,
            streams: BTreeMap::new(),
            ckpt_names_rot: false,
            recovery: RecoveryStats::default(),
            obs,
        };
        log.recover(ckpt)?;
        Ok(log)
    }

    /// Rebuilds stream indexes: the checkpoint's sections + tail scan (or
    /// a full scan when the checkpoint is missing/damaged).
    fn recover(&mut self, ckpt: Option<Checkpoint>) -> Result<(), StoreError> {
        let scan_from = match ckpt {
            Some(c) => {
                for section in c.sections {
                    self.streams.insert(section.name, StreamIndex::from_section(section));
                }
                c.pos
            }
            None => {
                // A brand-new log (one empty segment, nothing but magic)
                // has nothing to recover: don't report it as a full scan.
                let trivial = self.segments.len() == 1
                    && self.segments.values().next().map(|m| m.len) == Some(SEG_MAGIC.len() as u64);
                if !trivial {
                    self.recovery.full_scan = true;
                    self.obs.recovery_full_scans.inc();
                }
                CheckpointPos { seg: self.segments.keys().next().copied().unwrap_or(0), off: 0 }
            }
        };

        let seg_ids: Vec<u64> =
            self.segments.keys().copied().filter(|id| *id >= scan_from.seg).collect();
        let mut active_valid_end = self.segments[&self.active].len;
        let chunk = self.scan_chunk();
        for id in seg_ids {
            let from = if id == scan_from.seg { scan_from.off } else { 0 };
            // Merge each entry as the scanner yields it: peak memory stays
            // one chunk plus the largest entry (what `peak_buffer` claims),
            // never the decoded contents of a whole segment.
            let dir = self.dir.clone();
            let outcome = segment::scan_segment(&dir, id, from, chunk, |e| {
                self.merge_entry(e.kind, &e.capsule, e.body, EntryLoc { seg: id, off: e.offset })?;
                self.recovery.tail_entries += 1;
                Ok(())
            })?;
            self.recovery.peak_buffer = self.recovery.peak_buffer.max(outcome.peak_buffer);
            match outcome.end {
                ScanEnd::Clean => {}
                ScanEnd::Invalid { valid_end, crc_mismatch } => {
                    if crc_mismatch {
                        self.obs.crc_failures.inc();
                    }
                    if id == self.active {
                        // Torn tail of the active segment: truncate so
                        // appends restart from a clean edge.
                        let f = open_segment_append(&self.dir, id)?;
                        f.set_len(valid_end)?;
                        f.sync_data()?;
                        self.obs.recovery_truncations.inc();
                        active_valid_end = valid_end;
                        if let Some(m) = self.segments.get_mut(&id) {
                            m.len = valid_end;
                        }
                    }
                    // Rot inside a sealed segment: entries past it are
                    // unreachable from this scan; keep going — the
                    // checkpoint may still index earlier entries.
                }
            }
        }
        if !self.recovery.full_scan {
            self.obs.recovery_tail_entries.add(self.recovery.tail_entries);
        }

        let active_file = open_segment_append(&self.dir, self.active)?;
        // The scanned tail proves the bytes reached the OS, not the disk
        // (a crash can land between write_all and sync_data): fsync once
        // before the recovered length backs Durable acks again.
        active_file.sync_data()?;
        self.gc = GroupCommit::new(active_file, active_valid_end);
        self.obs.segments.set(self.segments.len() as i64);
        Ok(())
    }

    /// Merges one scanned entry into the indexes. Dedup by address, first
    /// occurrence wins: a physical duplicate (a log written by a build
    /// that still compacted can hold crash-interrupted copies) is skipped.
    fn merge_entry(
        &mut self,
        kind: u8,
        capsule: &Name,
        body: &[u8],
        loc: EntryLoc,
    ) -> Result<(), StoreError> {
        match kind {
            KIND_METADATA => {
                let meta = CapsuleMetadata::from_wire(body)
                    .map_err(|e| StoreError::Corrupt(format!("metadata: {e}")))?;
                self.streams.entry(*capsule).or_default().metadata.get_or_insert(meta);
            }
            KIND_RECORD => {
                let record = Record::from_wire(body)
                    .map_err(|e| StoreError::Corrupt(format!("record: {e}")))?;
                let idx = self.streams.entry(*capsule).or_default();
                idx.records.entry(record.pointer()).or_insert(loc);
            }
            other => {
                return Err(StoreError::Corrupt(format!("unknown entry kind {other}")));
            }
        }
        Ok(())
    }

    /// Sequential scan chunk for recovery: the readahead window, never
    /// below [`RECOVERY_CHUNK`].
    fn scan_chunk(&self) -> usize {
        (self.cfg.read_block_bytes * self.cfg.readahead_blocks.max(1)).max(RECOVERY_CHUNK)
    }

    fn durability_at(&self, loc: EntryLoc) -> AppendAck {
        if loc.seg < self.active || loc.off < self.gc.durable_len() {
            AppendAck::Durable
        } else {
            AppendAck::Pending(self.gc.pending_epoch())
        }
    }

    /// Persists `capsule`'s metadata. First write wins. Capsule creation
    /// is acked immediately by the server, so the entry is flushed at once;
    /// a call that finds the metadata while a failed flush is outstanding
    /// flushes again, so it never answers `Ok` for metadata that is only
    /// buffered.
    pub fn put_metadata(
        &mut self,
        capsule: &Name,
        metadata: &CapsuleMetadata,
    ) -> Result<(), StoreError> {
        if self.streams.get(capsule).is_some_and(|s| s.metadata.is_some()) {
            if self.gc.failed() {
                self.flush_inner(self.gc.last_now(), true)?;
            }
            return Ok(());
        }
        let body = metadata.to_wire();
        self.gc.append(KIND_METADATA, capsule, &body);
        let disk_len = (ENTRY_HEADER + body.len()) as u64;
        let active = self.active;
        if let Some(m) = self.segments.get_mut(&active) {
            m.len += disk_len;
        }
        self.streams.entry(*capsule).or_default().metadata = Some(metadata.clone());
        self.obs.entries_appended.inc();
        self.obs.bytes_appended.add(disk_len);
        self.flush_inner(self.gc.last_now(), true)?;
        Ok(())
    }

    /// Persists a record of `capsule` and reports whether it is already
    /// durable or waiting on a group-commit fsync: durable at return under
    /// [`FsyncPolicy::Always`], else [`AppendAck::Pending`] with the
    /// covering durability epoch. Idempotent: a duplicate reports the
    /// stored entry's durability, so a retried append never acks ahead of
    /// its covering fsync — and under [`FsyncPolicy::Always`] a retry of
    /// an append whose flush failed flushes again, like the first attempt.
    pub fn append(&mut self, capsule: &Name, record: &Record) -> Result<AppendAck, StoreError> {
        let at = record.pointer();
        if let Some(loc) = self.streams.get(capsule).and_then(|s| s.records.get(&at).copied()) {
            let ack = self.durability_at(loc);
            if ack != AppendAck::Durable && self.cfg.policy == FsyncPolicy::Always {
                self.flush_inner(self.gc.last_now(), true)?;
                return Ok(AppendAck::Durable);
            }
            return Ok(ack);
        }
        let body = record.to_wire();
        let off = self.gc.append(KIND_RECORD, capsule, &body);
        let disk_len = (ENTRY_HEADER + body.len()) as u64;
        let active = self.active;
        if let Some(m) = self.segments.get_mut(&active) {
            m.len += disk_len;
        }
        let loc = EntryLoc { seg: active, off };
        self.streams.entry(*capsule).or_default().records.insert(at, loc);
        self.obs.entries_appended.inc();
        self.obs.bytes_appended.add(disk_len);

        let force = self.cfg.policy == FsyncPolicy::Always
            || self.gc.buffered_bytes() >= self.cfg.flush_byte_budget;
        if force {
            self.flush_inner(self.gc.last_now(), true)?;
            return Ok(AppendAck::Durable);
        }
        Ok(AppendAck::Pending(self.gc.pending_epoch()))
    }

    /// Group-commit flush: when due (or forced), one write + one fsync
    /// covering every batched append. Returns the durable epoch.
    fn flush_inner(&mut self, now_us: u64, force: bool) -> Result<u64, StoreError> {
        let due = match self.cfg.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch { interval_us } => self.gc.due(now_us, interval_us),
        };
        if force || due {
            let t0 = std::time::Instant::now();
            if let Some(entries) = self.gc.flush(now_us)? {
                self.obs.fsyncs.inc();
                self.obs.group_commits.inc();
                self.obs.fsync_batch_entries.observe(entries);
                self.obs.fsync_us.observe(t0.elapsed().as_micros() as u64);
            }
        }
        Ok(self.gc.epoch_durable())
    }

    /// Forces a group-commit flush now; returns the durable epoch.
    pub fn flush_now(&mut self, now_us: u64) -> Result<u64, StoreError> {
        self.flush_inner(now_us, true)
    }

    /// Periodic maintenance, once per server tick for the whole node:
    /// writes and fsyncs the batched appends whose flush window has
    /// elapsed at `now_us` (caller time, sim or wall, in µs), rotates a
    /// full segment and checkpoints after rot. Returns the durable epoch:
    /// acks pending an epoch `<=` it may be released.
    pub fn maintain(&mut self, now_us: u64) -> Result<u64, StoreError> {
        let epoch = self.flush_inner(now_us, false)?;
        if self.gc.total_len() >= self.cfg.segment_max_bytes {
            self.rotate_now(now_us)?;
        }
        if self.ckpt_names_rot {
            self.checkpoint_now(now_us)?;
        }
        Ok(epoch)
    }

    /// Seals the active segment, starts the next and checkpoints
    /// (flushing first).
    pub fn rotate_now(&mut self, now_us: u64) -> Result<(), StoreError> {
        self.flush_inner(now_us, true)?;
        let next = self.active + 1;
        let file = create_segment(&self.dir, next)?;
        self.obs.dir_fsyncs.inc();
        self.gc.rotate_to(file, SEG_MAGIC.len() as u64)?;
        self.active = next;
        self.segments.insert(next, SegMeta { len: SEG_MAGIC.len() as u64 });
        self.obs.segments_rotated.inc();
        self.obs.segments.set(self.segments.len() as i64);
        self.checkpoint_now(now_us)?;
        Ok(())
    }

    /// Writes a checkpoint (flushing first) covering everything durable:
    /// every stream's index, serialized from memory.
    pub fn checkpoint_now(&mut self, now_us: u64) -> Result<(), StoreError> {
        self.flush_inner(now_us, true)?;
        let pos = CheckpointPos { seg: self.active, off: self.gc.durable_len() };
        let sections: Vec<(Name, Vec<u8>)> =
            self.streams.iter().map(|(name, idx)| (*name, idx.section_payload())).collect();
        let segs: Vec<u64> = self.segments.keys().copied().collect();
        checkpoint::write(&self.dir, pos, &segs, &sections)?;
        self.obs.dir_fsyncs.inc();
        self.obs.checkpoints_written.inc();
        self.ckpt_names_rot = false;
        Ok(())
    }

    /// Ids of all live segments, ascending (last is the active one).
    pub fn segment_ids(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }

    /// Streams known to the log: every capsule it has indexed metadata or
    /// a record for.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// What the opening recovery scan did.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The current durable epoch.
    pub fn durable_epoch(&self) -> u64 {
        self.gc.epoch_durable()
    }

    /// Total sealed-segment opens made by the read path
    /// (the fd-pool regression hook: warm reads must not reopen).
    pub fn fd_opens(&self) -> u64 {
        self.fds.opens()
    }

    /// Sealed-segment fds currently pooled (always ≤ `max_open_segments`).
    pub fn open_fds(&self) -> usize {
        self.fds.open_fds()
    }

    /// `capsule`'s metadata.
    pub fn metadata(&self, capsule: &Name) -> Result<CapsuleMetadata, StoreError> {
        let stream = self.streams.get(capsule);
        stream.and_then(|s| s.metadata.clone()).ok_or(StoreError::NoMetadata)
    }

    /// Random read by address: `None` unless `capsule` holds a record with
    /// exactly that seq and hash.
    pub fn get(&mut self, capsule: &Name, at: &Pointer) -> Result<Option<Record>, StoreError> {
        let loc = self.streams.get(capsule).and_then(|s| s.records.get(at).copied());
        loc.map(|loc| self.read_record(capsule, (*at, loc), false)).transpose()
    }

    /// Random read by sequence number (first match in address order on
    /// branches).
    pub fn get_by_seq(&mut self, capsule: &Name, seq: u64) -> Result<Option<Record>, StoreError> {
        let stream = self.streams.get(capsule);
        let first = stream.and_then(|s| s.records.range(Pointer::span(seq, seq)).next());
        let first = first.map(|(at, loc)| (*at, *loc));
        first.map(|at| self.read_record(capsule, at, false)).transpose()
    }

    /// `capsule`'s records in `[from, to]` in address order: every record
    /// at a seq, branches included, for `range(capsule, seq, seq)`.
    pub fn range(&mut self, capsule: &Name, from: u64, to: u64) -> Result<Vec<Record>, StoreError> {
        let stream = self.streams.get(capsule);
        let span = stream.map(|s| s.records.range(Pointer::span(from, to)));
        let at: Vec<(Pointer, EntryLoc)> =
            span.into_iter().flatten().map(|(a, l)| (*a, *l)).collect();
        at.into_iter().map(|at| self.read_record(capsule, at, true)).collect()
    }

    /// `capsule`'s highest stored sequence number (0 when empty).
    pub fn latest_seq(&self, capsule: &Name) -> u64 {
        let stream = self.streams.get(capsule);
        stream.and_then(|s| s.records.keys().next_back()).map_or(0, |at| at.seq)
    }

    /// Number of records stored for `capsule`.
    pub fn len(&self, capsule: &Name) -> usize {
        self.streams.get(capsule).map_or(0, |s| s.records.len())
    }

    /// Addresses of every record stored for `capsule`, in address order.
    pub fn pointers(&self, capsule: &Name) -> Vec<Pointer> {
        let stream = self.streams.get(capsule);
        stream.map(|s| s.records.keys().copied().collect()).unwrap_or_default()
    }

    /// Random read of one record, serving the active segment through the
    /// group-commit buffer and sealed segments through the block cache.
    /// `sequential` hints an in-order range scan (enables readahead).
    ///
    /// An entry that reads back corrupt is reported once and then
    /// forgotten by the stream's index: a rotten entry is not a stored
    /// record, and while the index named it `append` would answer a
    /// re-append of the record — anti-entropy refilling the hole — with
    /// the rotten copy's durability instead of writing a good one.
    fn read_record(
        &mut self,
        capsule: &Name,
        (at, loc): (Pointer, EntryLoc),
        sequential: bool,
    ) -> Result<Record, StoreError> {
        let (kind, cap, body) = match self.read_entry(loc, sequential) {
            Ok(v) => v,
            Err(e) => {
                if matches!(e, StoreError::Corrupt(_)) {
                    self.obs.crc_failures.inc();
                    // Its bytes stay on disk; the index no longer names them.
                    if let Some(idx) = self.streams.get_mut(capsule) {
                        idx.records.remove(&at);
                    }
                    self.ckpt_names_rot = true;
                }
                return Err(e);
            }
        };
        if kind != KIND_RECORD || cap != *capsule {
            return Err(StoreError::Corrupt("entry kind/stream mismatch on read".to_string()));
        }
        // On the sealed (cached) path the record body stays a zero-copy
        // slice of the entry bytes — and through them, of a cached block.
        Record::from_wire_bytes(&body).map_err(|e| StoreError::Corrupt(format!("record: {e}")))
    }

    /// Reads one entry, counting it on success: the conservation law
    /// `read_cache_hits + read_cache_misses == reads_served_from_store`
    /// holds exactly. Active-segment reads serve from the group-commit
    /// buffer (no disk, no cache) and count as hits by convention.
    fn read_entry(
        &mut self,
        loc: EntryLoc,
        sequential: bool,
    ) -> Result<(u8, Name, Bytes), StoreError> {
        if loc.seg == self.active {
            let gc = &self.gc;
            let mut header = [0u8; ENTRY_HEADER];
            let decoded = match gc.read_at(loc.off, &mut header) {
                Ok(()) => segment::decode_entry_header_and_body(&header, |body| {
                    gc.read_at(loc.off + ENTRY_HEADER as u64, body).map_err(segment::rot_eof)
                }),
                Err(e) => Err(segment::rot_eof(e)),
            };
            let (kind, cap, body) = decoded?;
            self.obs.reads_served_from_store.inc();
            self.obs.read_cache_hits.inc();
            return Ok((kind, cap, Bytes::from_vec(body)));
        }
        let mut missed = false;
        let out = self.read_sealed_entry(loc, sequential, &mut missed)?;
        self.obs.reads_served_from_store.inc();
        if missed {
            self.obs.read_cache_misses.inc();
        } else {
            self.obs.read_cache_hits.inc();
        }
        Ok(out)
    }

    /// Assembles one entry from a sealed segment through the block cache.
    /// The body is a zero-copy slice of a cached block when the entry is
    /// block-resident; entries straddling a block boundary are assembled
    /// by copy and CRC-checked on every read. Single-block entries record
    /// their verification in the block itself — the verified set dies
    /// with the block, so eviction + refill always re-verifies, and rot
    /// under a previously-cached entry surfaces as a typed `Corrupt`
    /// after the refill, never as stale or garbled bytes.
    fn read_sealed_entry(
        &mut self,
        loc: EntryLoc,
        sequential: bool,
        missed: &mut bool,
    ) -> Result<(u8, Name, Bytes), StoreError> {
        let seg_len = match self.segments.get(&loc.seg) {
            Some(m) => m.len,
            None => {
                return Err(StoreError::Corrupt(format!("read from unknown segment {}", loc.seg)))
            }
        };
        if loc.off.saturating_add(ENTRY_HEADER as u64) > seg_len {
            return Err(StoreError::Corrupt("entry truncated under read".to_string()));
        }
        let header =
            self.cached_range(loc.seg, loc.off, ENTRY_HEADER as u64, sequential, missed)?;
        let hdr = header.as_slice();
        let kind = hdr[0];
        let len = u32::from_be_bytes(hdr[1..5].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(hdr[5..9].try_into().unwrap());
        let mut name = [0u8; 32];
        name.copy_from_slice(&hdr[9..ENTRY_HEADER]);
        let capsule = Name(name);
        let body_off = loc.off + ENTRY_HEADER as u64;
        // Bound a rotted length field against the segment before trusting
        // it with an allocation or a read loop (same rule as the scanner).
        if len as u64 > seg_len - body_off {
            return Err(StoreError::Corrupt("entry truncated under read".to_string()));
        }
        let bb = self.read_cache.block_bytes() as u64;
        let first_block = loc.off / bb;
        let off_in_block = (loc.off - first_block * bb) as u32;
        let entry_last = body_off + len as u64 - 1;
        let single_block = entry_last / bb == first_block;
        let skip_crc =
            single_block && self.read_cache.is_verified(loc.seg, first_block, off_in_block);
        let body = self.cached_range(loc.seg, body_off, len as u64, sequential, missed)?;
        if !skip_crc {
            if entry_crc(kind, &capsule, &body) != crc {
                return Err(StoreError::Corrupt("crc mismatch on read".to_string()));
            }
            if single_block {
                self.read_cache.mark_verified(loc.seg, first_block, off_in_block);
            }
        }
        Ok((kind, capsule, body))
    }

    /// `len` bytes at `off` of sealed segment `seg`, served from the
    /// block cache: a zero-copy slice when the range sits inside one
    /// block, a copied assembly when it straddles blocks.
    fn cached_range(
        &mut self,
        seg: u64,
        off: u64,
        len: u64,
        sequential: bool,
        missed: &mut bool,
    ) -> Result<Bytes, StoreError> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let bb = self.read_cache.block_bytes() as u64;
        let first = off / bb;
        let last = (off + len - 1) / bb;
        if first == last {
            let block = self.fetch_block(seg, first, sequential, missed)?;
            let s = (off - first * bb) as usize;
            let e = s + len as usize;
            if e > block.len() {
                return Err(StoreError::Corrupt("entry truncated under read".to_string()));
            }
            return Ok(block.slice(s, e));
        }
        let mut out = Vec::with_capacity(len as usize);
        for idx in first..=last {
            let block = self.fetch_block(seg, idx, sequential, missed)?;
            let base = idx * bb;
            let s = (off.max(base) - base) as usize;
            let e = ((off + len).min(base + block.len() as u64).saturating_sub(base)) as usize;
            if e <= s {
                return Err(StoreError::Corrupt("entry truncated under read".to_string()));
            }
            out.extend_from_slice(&block[s..e]);
        }
        if out.len() as u64 != len {
            return Err(StoreError::Corrupt("entry truncated under read".to_string()));
        }
        Ok(Bytes::from_vec(out))
    }

    /// One block of a sealed segment: cache hit, or a pooled-fd `pread`
    /// that fills the cache — followed, when the caller hinted a
    /// sequential scan, by the next `readahead_blocks - 1` blocks not
    /// already resident. Each block is read into an allocation of its
    /// own: a block sliced out of one shared readahead buffer would keep
    /// the whole buffer alive, past the cache's byte budget.
    fn fetch_block(
        &mut self,
        seg: u64,
        idx: u64,
        sequential: bool,
        missed: &mut bool,
    ) -> Result<Bytes, StoreError> {
        if let Some(b) = self.read_cache.get(seg, idx) {
            return Ok(b);
        }
        *missed = true;
        let bb = self.read_cache.block_bytes();
        let blocks = if sequential { self.cfg.readahead_blocks.max(1) } else { 1 };
        // The pooled handle is refcounted: the pread holds no borrow of
        // the pool, so cache/pool bookkeeping is independent of the read
        // (see the LK01/LK02 audit note in `fdpool.rs`).
        let (file, opened) = self.fds.get(&self.dir, seg)?;
        if opened {
            self.obs.segment_fd_opens.inc();
        }
        let mut first = None;
        let mut evicted = 0u64;
        for at in idx..idx + blocks as u64 {
            if at > idx && self.read_cache.contains(seg, at) {
                // Never clobber a resident (possibly verified) block with
                // a readahead copy of the same bytes.
                continue;
            }
            let mut buf = vec![0u8; bb];
            let got = file.read_at(at * bb as u64, &mut buf)?;
            if got == 0 {
                break;
            }
            buf.truncate(got);
            let block = Bytes::from_vec(buf);
            evicted += self.read_cache.insert(seg, at, block.clone());
            if at == idx {
                first = Some(block);
            } else {
                self.obs.readahead_blocks.inc();
            }
            if got < bb {
                break;
            }
        }
        if evicted > 0 {
            self.obs.read_cache_evictions.add(evicted);
        }
        first.ok_or_else(|| StoreError::Corrupt("read past segment end".to_string()))
    }
}

/// Creates segment `id` with its magic, fsyncing file and directory.
/// `id` is past every segment the log holds, so a file already there is
/// what a failed attempt left: it goes, or every later rotation would fail.
fn create_segment(dir: &Dir, id: u64) -> Result<Fd, StoreError> {
    let _ = dir.remove(&seg_name(id));
    let f = dir.open(&seg_name(id), Mode::CreateNew)?;
    f.write_all(&SEG_MAGIC)?;
    f.sync_data()?;
    dir.sync_all()?;
    Ok(f)
}

/// Opens segment `id` for appending (reads allowed for the buffer path).
fn open_segment_append(dir: &Dir, id: u64) -> Result<Fd, StoreError> {
    Ok(dir.open(&seg_name(id), Mode::Append)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemFs;
    use gdp_capsule::RecordHash;
    use gdp_crypto::SigningKey;

    /// `n` chained 4 KiB records of one capsule, sealed in a log on
    /// `MemFs` under `cfg` with 16 KiB blocks and 256 KiB segments.
    fn sealed_log(cfg: SegConfig, n: u64) -> (SegLog, Name, SegConfig) {
        let cfg = SegConfig {
            policy: FsyncPolicy::Always,
            segment_max_bytes: 256 * 1024,
            read_block_bytes: 16 * 1024,
            ..cfg
        };
        let mut log = SegLog::open(&MemFs::new(), cfg.clone(), &Scope::default()).unwrap();
        let writer = SigningKey::from_seed(&[7; 32]);
        let name = Name::from_content(b"block budget");
        let mut prev = RecordHash::anchor(&name);
        for seq in 1..=n {
            let r = Record::create(&name, &writer, seq, seq, prev, vec![], vec![seq as u8; 4096]);
            prev = r.hash();
            log.append(&name, &r).unwrap();
        }
        log.rotate_now(0).unwrap();
        (log, name, cfg)
    }

    /// Readahead fills the cache with blocks that each own their bytes:
    /// after random range reads, whose answers are all dropped, the
    /// resident blocks keep at most the cache's byte budget alive.
    #[test]
    fn resident_blocks_hold_no_more_than_the_cache_budget() {
        let cfg = SegConfig { read_cache_bytes: 256 * 1024, ..SegConfig::default() };
        let (mut log, name, cfg) = sealed_log(cfg, 200);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = [1, 2, 32][(x % 3) as usize];
            let from = 1 + (x >> 8) % (200 - len + 1);
            assert_eq!(log.range(&name, from, from + len - 1).unwrap().len() as u64, len);
        }
        let resident = log.read_cache.resident_backing_bytes();
        assert!(resident > 0, "the reads filled the cache");
        assert!(resident <= cfg.read_cache_bytes, "{resident} B resident");
    }

    /// With no cache, a body read by a range scan keeps at most its one
    /// block alive, not the whole readahead.
    #[test]
    fn an_uncached_body_keeps_at_most_one_block_alive() {
        let cfg = SegConfig { read_cache_bytes: 0, ..SegConfig::default() };
        let (mut log, name, cfg) = sealed_log(cfg, 40);
        let run = log.range(&name, 3, 34).unwrap();
        assert_eq!(run.len(), 32);
        for r in &run {
            assert!(r.body.backing_len() <= cfg.read_block_bytes, "seq {}", r.header.seq);
        }
    }
}
