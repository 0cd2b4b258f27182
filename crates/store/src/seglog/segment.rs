//! Segment files: naming, bounded-memory scanning, random entry reads.
//!
//! A segment is `GDPSEG\0\x01` followed by entries in the framing defined
//! in `writer.rs`. Scanning streams the file in [`RECOVERY_CHUNK`]-sized
//! reads: peak memory is one chunk plus the largest single entry, never
//! segment size.

use super::writer::{entry_crc, ENTRY_HEADER};
use crate::io::{Dir, Fd, Mode};
use crate::store::StoreError;
use gdp_wire::Name;

/// Leading magic of a shared-log segment file.
pub const SEG_MAGIC: [u8; 8] = *b"GDPSEG\x00\x01";

/// Smallest read size of a recovery scan. Peak scan memory is
/// bounded by the scan chunk plus the largest single entry.
pub const RECOVERY_CHUNK: usize = 64 * 1024;

/// `<id>.seg`, zero-padded so lexical order is id order.
pub(crate) fn seg_name(id: u64) -> String {
    format!("{id:010}.seg")
}

/// Inverse of [`seg_name`].
pub(crate) fn parse_seg_id(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".seg")?;
    if stem.len() != 10 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// One decoded entry handed to the scan callback.
pub(crate) struct ScanEntry<'a> {
    pub kind: u8,
    pub capsule: Name,
    pub body: &'a [u8],
    /// Offset of the entry's first header byte in the segment.
    pub offset: u64,
}

/// Why a scan stopped.
pub(crate) enum ScanEnd {
    /// Every byte parsed cleanly.
    Clean,
    /// A torn or rotted entry at `valid_end`; `crc_mismatch` is true when
    /// a complete frame failed its CRC (rot), false when the frame itself
    /// ran out of file (torn tail).
    Invalid { valid_end: u64, crc_mismatch: bool },
}

/// Outcome of [`scan_segment`].
pub(crate) struct ScanOutcome {
    pub end: ScanEnd,
    /// Peak bytes buffered during the scan (bounded-memory regression hook).
    pub peak_buffer: usize,
}

/// Streams entries from `offset` (or just past the magic when 0),
/// invoking `on_entry` for each CRC-clean frame. Decode errors inside a
/// CRC-clean body are hard [`StoreError::Corrupt`] failures:
/// valid-CRC-invalid-wire means a bug, not rot.
///
/// `chunk` sets the sequential read size (recovery readahead tuning);
/// it is clamped to at least [`RECOVERY_CHUNK`].
pub(crate) fn scan_segment(
    dir: &Dir,
    id: u64,
    offset: u64,
    chunk: usize,
    mut on_entry: impl FnMut(ScanEntry<'_>) -> Result<(), StoreError>,
) -> Result<ScanOutcome, StoreError> {
    let chunk = chunk.max(RECOVERY_CHUNK);
    let file = dir.open(&seg_name(id), Mode::Read)?;
    let file_len = file.len()?;
    let start_at = if offset == 0 { SEG_MAGIC.len() as u64 } else { offset };
    if offset == 0 {
        let mut magic = [0u8; SEG_MAGIC.len()];
        let got = file.read_at(0, &mut magic)?;
        if got < magic.len() || magic != SEG_MAGIC {
            let path = dir.show(&seg_name(id));
            return Err(StoreError::Corrupt(format!("{path}: bad segment magic")));
        }
    }

    let mut win =
        Window { file, read_to: start_at, buf: Vec::new(), start: 0, eof: false, peak: 0 };
    let mut valid_end = start_at;
    loop {
        let invalid = |win: &Window, crc_mismatch| ScanOutcome {
            end: ScanEnd::Invalid { valid_end, crc_mismatch },
            peak_buffer: win.peak,
        };
        if !win.ensure(ENTRY_HEADER, chunk)? {
            if valid_end == file_len {
                return Ok(ScanOutcome { end: ScanEnd::Clean, peak_buffer: win.peak });
            }
            return Ok(invalid(&win, false));
        }
        let (buf, start) = (&win.buf, win.start);
        let kind = buf[start];
        let len = u32::from_be_bytes(buf[start + 1..start + 5].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(buf[start + 5..start + 9].try_into().unwrap());
        let mut name = [0u8; 32];
        name.copy_from_slice(&buf[start + 9..start + ENTRY_HEADER]);
        let capsule = Name(name);
        // Bounds-check `len` against the file before trusting it with an
        // allocation: a rotted length byte must tear, not OOM.
        let remaining = file_len.saturating_sub(valid_end + ENTRY_HEADER as u64);
        if len as u64 > remaining || !win.ensure(ENTRY_HEADER + len, chunk)? {
            return Ok(invalid(&win, false));
        }
        let start = win.start;
        let body = &win.buf[start + ENTRY_HEADER..start + ENTRY_HEADER + len];
        if entry_crc(kind, &capsule, body) != crc {
            return Ok(invalid(&win, true));
        }
        on_entry(ScanEntry { kind, capsule, body, offset: valid_end })?;
        win.start += ENTRY_HEADER + len;
        valid_end += (ENTRY_HEADER + len) as u64;
    }
}

/// The scanner's read window over one file: `buf[start..]` holds the
/// unparsed bytes, read positionally up to file offset `read_to`.
struct Window {
    file: Fd,
    read_to: u64,
    buf: Vec<u8>,
    start: usize,
    eof: bool,
    peak: usize,
}

impl Window {
    /// Bounded top-up: compacts consumed bytes, then reads until `need`
    /// unparsed bytes are available or EOF.
    fn ensure(&mut self, need: usize, chunk: usize) -> std::io::Result<bool> {
        while self.buf.len() - self.start < need && !self.eof {
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let want = need.saturating_sub(self.buf.len()).max(chunk);
            let old = self.buf.len();
            self.buf.resize(old + want, 0);
            let got = self.file.read_at(self.read_to, &mut self.buf[old..])?;
            self.read_to += got as u64;
            self.buf.truncate(old + got);
            self.eof = got == 0;
            self.peak = self.peak.max(self.buf.len());
        }
        Ok(self.buf.len() - self.start >= need)
    }
}

/// EOF while reading a frame means the frame itself is damaged (a rotted
/// length field, a truncated file): typed corruption, not a plain IO
/// error.
pub(crate) fn rot_eof(e: std::io::Error) -> StoreError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StoreError::Corrupt("entry truncated under read".to_string())
    } else {
        StoreError::from(e)
    }
}

/// Shared frame decode for random reads: parses `header`, asks `fill` to
/// produce the body bytes, and CRC-checks the result.
pub(crate) fn decode_entry_header_and_body(
    header: &[u8; ENTRY_HEADER],
    fill: impl FnOnce(&mut [u8]) -> Result<(), StoreError>,
) -> Result<(u8, Name, Vec<u8>), StoreError> {
    let kind = header[0];
    let len = u32::from_be_bytes(header[1..5].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(header[5..9].try_into().unwrap());
    let mut name = [0u8; 32];
    name.copy_from_slice(&header[9..ENTRY_HEADER]);
    let capsule = Name(name);
    let mut body = vec![0u8; len];
    fill(&mut body)?;
    if entry_crc(kind, &capsule, &body) != crc {
        return Err(StoreError::Corrupt("crc mismatch on read".to_string()));
    }
    Ok((kind, capsule, body))
}
