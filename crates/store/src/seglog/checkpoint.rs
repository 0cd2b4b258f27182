//! Checkpoint file: a durable snapshot of every stream's index.
//!
//! Layout of `<dir>/index.ckpt`:
//!
//! ```text
//! magic "GDPCKP\0\x01"
//! pos_seg:u64be pos_off:u64be          -- log position the snapshot covers
//! n_segs:u32be  [seg_id:u64be]*        -- segments the snapshot references
//! n_streams:u32be
//! header_crc:u32be                     -- CRC-32 over all bytes above
//! [ capsule:32 payload_len:u32be payload_crc:u32be payload ]*
//! payload := meta_len:u32be meta n_records:u32be
//!            [ hash:32 seq:u64be seg:u64be off:u64be ]*
//! ```
//!
//! The checkpoint is read once, at open, and every section is decoded
//! then. It is advisory: *any* validation failure — bad magic, bad header
//! CRC, a section failing its CRC or its decode, a referenced segment
//! missing from the directory, a short file — makes recovery ignore the
//! whole of it and fall back to a full scan, which is always correct
//! because the log itself is the source of truth. Writes go through
//! `index.ckpt.tmp` + fsync + rename + directory fsync, so a crash
//! mid-write leaves the previous checkpoint intact.

use crate::crc::Crc32;
use crate::io::{Dir, Mode};
use crate::store::StoreError;
use gdp_capsule::{CapsuleMetadata, RecordHash};
use gdp_wire::{Name, Wire};

/// Leading magic of a checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"GDPCKP\x00\x01";

/// Name of the checkpoint file within a log directory.
pub(crate) const CKPT_FILE: &str = "index.ckpt";
pub(crate) const CKPT_TMP: &str = "index.ckpt.tmp";

/// Log position a checkpoint covers: everything before `(seg, off)` is in
/// the snapshot; recovery replays only entries at or past it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPos {
    /// Segment holding the first un-snapshotted byte.
    pub seg: u64,
    /// Offset of that byte within `seg`.
    pub off: u64,
}

/// A validated checkpoint with every stream's section decoded.
pub(crate) struct Checkpoint {
    pub pos: CheckpointPos,
    pub segs: Vec<u64>,
    pub sections: Vec<Section>,
}

/// One stream's decoded section.
pub(crate) struct Section {
    pub name: Name,
    pub metadata: Option<CapsuleMetadata>,
    pub records: Vec<SectionRecord>,
}

/// One indexed record inside a section payload.
pub(crate) struct SectionRecord {
    pub hash: RecordHash,
    pub seq: u64,
    pub seg: u64,
    pub off: u64,
}

/// Serializes one stream's index into a section payload.
pub(crate) fn encode_section(
    metadata: Option<&CapsuleMetadata>,
    records: &[SectionRecord],
) -> Vec<u8> {
    let meta = metadata.map(|m| m.to_wire()).unwrap_or_default();
    let mut out = Vec::with_capacity(8 + meta.len() + records.len() * 56);
    out.extend_from_slice(&(meta.len() as u32).to_be_bytes());
    out.extend_from_slice(&meta);
    out.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        out.extend_from_slice(&r.hash.0);
        out.extend_from_slice(&r.seq.to_be_bytes());
        out.extend_from_slice(&r.seg.to_be_bytes());
        out.extend_from_slice(&r.off.to_be_bytes());
    }
    out
}

/// Inverse of [`encode_section`]; strict (every byte must be consumed).
fn decode_section(name: Name, payload: &[u8]) -> Option<Section> {
    let mut at = 0usize;
    let meta_len = read_u32(payload, &mut at)? as usize;
    let meta_bytes = payload.get(at..at + meta_len)?;
    at += meta_len;
    let metadata =
        if meta_len == 0 { None } else { Some(CapsuleMetadata::from_wire(meta_bytes).ok()?) };
    let n = read_u32(payload, &mut at)? as usize;
    let mut records = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let hash = RecordHash(payload.get(at..at + 32)?.try_into().ok()?);
        at += 32;
        let seq = read_u64(payload, &mut at)?;
        let seg = read_u64(payload, &mut at)?;
        let off = read_u64(payload, &mut at)?;
        records.push(SectionRecord { hash, seq, seg, off });
    }
    (at == payload.len()).then_some(Section { name, metadata, records })
}

/// Atomically replaces the checkpoint: tmp + fsync + rename + dir fsync.
/// Returns the bytes written (for observability).
pub(crate) fn write(
    dir: &Dir,
    pos: CheckpointPos,
    segs: &[u64],
    sections: &[(Name, Vec<u8>)],
) -> Result<u64, StoreError> {
    let mut header = Vec::with_capacity(32 + segs.len() * 8);
    header.extend_from_slice(&CKPT_MAGIC);
    header.extend_from_slice(&pos.seg.to_be_bytes());
    header.extend_from_slice(&pos.off.to_be_bytes());
    header.extend_from_slice(&(segs.len() as u32).to_be_bytes());
    for s in segs {
        header.extend_from_slice(&s.to_be_bytes());
    }
    header.extend_from_slice(&(sections.len() as u32).to_be_bytes());
    let mut crc = Crc32::new();
    crc.update(&header);
    header.extend_from_slice(&crc.finish().to_be_bytes());

    let mut bytes = 0u64;
    {
        let f = dir.open(CKPT_TMP, Mode::Create)?;
        f.write_all(&header)?;
        bytes += header.len() as u64;
        for (name, payload) in sections {
            let mut sh = Vec::with_capacity(40);
            sh.extend_from_slice(name.as_bytes());
            sh.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            sh.extend_from_slice(&section_crc(name, payload).to_be_bytes());
            f.write_all(&sh)?;
            f.write_all(payload)?;
            bytes += (sh.len() + payload.len()) as u64;
        }
        f.sync_data()?;
    }
    dir.rename(CKPT_TMP, CKPT_FILE)?;
    dir.sync_all()?;
    Ok(bytes)
}

/// Reads, validates and decodes the whole checkpoint. `None` on any
/// inconsistency: recovery then falls back to a full scan.
pub(crate) fn load_snapshot(dir: &Dir) -> Option<Checkpoint> {
    let f = dir.open(CKPT_FILE, Mode::Read).ok()?;
    let file_len = f.len().ok()?;
    let mut at = 0u64;
    let mut read = |dst: &mut [u8]| {
        let ok = f.read_exact_at(at, dst).is_ok();
        at += dst.len() as u64;
        ok.then_some(())
    };
    // Header fixed part through n_segs.
    let mut fixed = [0u8; 28];
    read(&mut fixed)?;
    if fixed[..8] != CKPT_MAGIC {
        return None;
    }
    let pos = CheckpointPos {
        seg: u64::from_be_bytes(fixed[8..16].try_into().ok()?),
        off: u64::from_be_bytes(fixed[16..24].try_into().ok()?),
    };
    let n_segs = u32::from_be_bytes(fixed[24..28].try_into().ok()?) as usize;
    if n_segs > 1 << 20 {
        return None;
    }
    let mut rest = vec![0u8; n_segs * 8 + 8];
    read(&mut rest)?;
    let mut segs = Vec::with_capacity(n_segs);
    for i in 0..n_segs {
        segs.push(u64::from_be_bytes(rest[i * 8..i * 8 + 8].try_into().ok()?));
    }
    let n_streams = u32::from_be_bytes(rest[n_segs * 8..n_segs * 8 + 4].try_into().ok()?) as usize;
    let stored_crc = u32::from_be_bytes(rest[n_segs * 8 + 4..n_segs * 8 + 8].try_into().ok()?);
    let mut crc = Crc32::new();
    crc.update(&fixed);
    crc.update(&rest[..n_segs * 8 + 4]);
    if crc.finish() != stored_crc {
        return None;
    }
    // Decode every section: a payload failing its CRC or its decode voids
    // the whole checkpoint (full scan), so no stream is ever served from
    // half a snapshot while its segments are fine.
    let mut sections = Vec::with_capacity(n_streams.min(1 << 16));
    let mut payload_end = (fixed.len() + rest.len()) as u64;
    for _ in 0..n_streams {
        let mut sh = [0u8; 40];
        read(&mut sh)?;
        let mut nb = [0u8; 32];
        nb.copy_from_slice(&sh[..32]);
        let payload_len = u32::from_be_bytes(sh[32..36].try_into().ok()?);
        let payload_crc = u32::from_be_bytes(sh[36..40].try_into().ok()?);
        payload_end += 40 + payload_len as u64;
        if payload_end > file_len {
            return None;
        }
        let mut payload = vec![0u8; payload_len as usize];
        read(&mut payload)?;
        let name = Name(nb);
        if section_crc(&name, &payload) != payload_crc {
            return None;
        }
        sections.push(decode_section(name, &payload)?);
    }
    (payload_end == file_len).then_some(Checkpoint { pos, segs, sections })
}

/// CRC-32 over a section's name, length, and payload: a flip anywhere in
/// a section — including the capsule name that keys it — voids it.
fn section_crc(name: &Name, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(name.as_bytes());
    crc.update(&(payload.len() as u32).to_be_bytes());
    crc.update(payload);
    crc.finish()
}

fn read_u32(b: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_be_bytes(b.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn read_u64(b: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_be_bytes(b.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}
