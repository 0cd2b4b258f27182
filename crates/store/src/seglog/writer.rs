//! Group-commit writer: the hot append/commit path of the segmented
//! engine.
//!
//! Appends from *every* capsule stream are framed into one in-memory
//! batch; [`GroupCommit::flush`] turns the whole batch into a single
//! `write_all` + a single `fdatasync` on the active segment. An entry's
//! segment offset is assigned at append time and never changes, so the
//! per-stream indexes can point at buffered entries before they hit disk;
//! because a flush always writes the entire buffer, an entry is at all
//! times either wholly durable or wholly buffered — never split across
//! the durable boundary.
//!
//! A failed flush keeps the batch, and the next flush first cuts the
//! active segment back to the durable end: whatever part of the batch the
//! failed attempt left there would otherwise shift every entry behind it
//! off the offset it was given. Every fallible step returns `io::Result`.

// Hot path: a panic here takes down a node other domains route through
// (DESIGN.md, "Static analysis"); an exception is a reasoned `#[allow]` at the site.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::crc::Crc32;
use crate::io::Fd;
use gdp_wire::Name;

/// Entry kinds shared with recovery.
pub(crate) const KIND_METADATA: u8 = 0;
pub(crate) const KIND_RECORD: u8 = 1;

/// Fixed entry header: `kind:u8 ‖ len:u32be ‖ crc32:u32be ‖ capsule:32`.
/// The CRC covers `kind ‖ len ‖ capsule ‖ body`, so rot anywhere in the
/// frame — including the stream name — is detected.
pub(crate) const ENTRY_HEADER: usize = 1 + 4 + 4 + 32;

/// CRC-32 over the entry header fields and body (see [`ENTRY_HEADER`]).
pub(crate) fn entry_crc(kind: u8, capsule: &Name, body: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[kind]);
    c.update(&(body.len() as u32).to_be_bytes());
    c.update(capsule.as_bytes());
    c.update(body);
    c.finish()
}

/// Frames one entry onto `out`; returns the framed length.
pub(crate) fn encode_entry(out: &mut Vec<u8>, kind: u8, capsule: &Name, body: &[u8]) -> u64 {
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&entry_crc(kind, capsule, body).to_be_bytes());
    out.extend_from_slice(capsule.as_bytes());
    out.extend_from_slice(body);
    (ENTRY_HEADER + body.len()) as u64
}

/// The batched writer for the active segment.
pub(crate) struct GroupCommit {
    file: Fd,
    /// Bytes durably on disk: `flush` always pairs write with fsync.
    durable_len: u64,
    /// True from a flush's first write until its fsync returns: the file
    /// may hold bytes past `durable_len` that no entry is at.
    torn: bool,
    /// Framed entries awaiting the next flush.
    buf: Vec<u8>,
    buf_entries: u64,
    /// Advances by one per fsync; a buffered entry is covered by epoch
    /// `epoch_durable + 1`.
    epoch_durable: u64,
    /// Caller-clock time (µs) of the last flush, for the batch window.
    last_flush_us: u64,
}

impl GroupCommit {
    /// Wraps an active segment opened in append mode, durable up to
    /// `durable_len` (the recovery scan's valid end).
    pub fn new(file: Fd, durable_len: u64) -> GroupCommit {
        GroupCommit {
            file,
            durable_len,
            torn: false,
            buf: Vec::new(),
            buf_entries: 0,
            epoch_durable: 0,
            last_flush_us: 0,
        }
    }

    /// Buffers one framed entry; returns its (stable) segment offset.
    pub fn append(&mut self, kind: u8, capsule: &Name, body: &[u8]) -> u64 {
        let offset = self.durable_len + self.buf.len() as u64;
        encode_entry(&mut self.buf, kind, capsule, body);
        self.buf_entries += 1;
        offset
    }

    /// Bytes buffered and not yet covered by an fsync.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Bytes durably on disk.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Durable plus buffered bytes (the active segment's logical size).
    pub fn total_len(&self) -> u64 {
        self.durable_len + self.buf.len() as u64
    }

    /// The highest epoch an fsync has covered.
    pub fn epoch_durable(&self) -> u64 {
        self.epoch_durable
    }

    /// The epoch that will cover currently-buffered entries.
    pub fn pending_epoch(&self) -> u64 {
        self.epoch_durable + 1
    }

    /// True once the batch window has elapsed since the last flush.
    pub fn due(&self, now_us: u64, interval_us: u64) -> bool {
        now_us >= self.last_flush_us.saturating_add(interval_us)
    }

    /// Caller-clock time of the last flush (window anchor).
    pub fn last_now(&self) -> u64 {
        self.last_flush_us
    }

    /// True after a failed flush, until one succeeds.
    pub fn failed(&self) -> bool {
        self.torn
    }

    /// One `write_all` + one `fdatasync` covering every buffered append,
    /// after cutting what a failed flush left past the durable end.
    /// Returns the number of entries committed — `None` (window restart
    /// only) when nothing was buffered. On error the batch stays buffered.
    pub fn flush(&mut self, now_us: u64) -> std::io::Result<Option<u64>> {
        self.last_flush_us = self.last_flush_us.max(now_us);
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.torn {
            self.file.set_len(self.durable_len)?;
        }
        self.torn = true;
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        self.torn = false;
        let entries = self.buf_entries;
        self.durable_len += self.buf.len() as u64;
        self.buf.clear();
        self.buf_entries = 0;
        self.epoch_durable += 1;
        Ok(Some(entries))
    }

    /// Reads `dst.len()` bytes at `offset`, serving the in-memory batch
    /// for offsets past the durable boundary.
    pub fn read_at(&self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        if offset >= self.durable_len {
            let rel = (offset - self.durable_len) as usize;
            let end = rel.saturating_add(dst.len());
            match self.buf.get(rel..end) {
                Some(src) => {
                    dst.copy_from_slice(src);
                    Ok(())
                }
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "read past buffered tail",
                )),
            }
        } else {
            self.file.read_exact_at(offset, dst)
        }
    }

    /// Swaps in a freshly-created next segment (rotation). The caller
    /// must have flushed first; rotating with a non-empty buffer would
    /// re-home buffered offsets, so it is refused.
    pub fn rotate_to(&mut self, file: Fd, durable_len: u64) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "rotate with unflushed batch",
            ));
        }
        self.file = file;
        self.durable_len = durable_len;
        Ok(())
    }
}
