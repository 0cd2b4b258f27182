//! The file layer: the segmented log's only way to reach files.
//!
//! A [`Dir`] is a directory on one of two file systems:
//!
//! * the OS (`Dir::Os`, what `gdpd` runs with a `data_dir`);
//! * [`MemFs`], an in-memory file system that models what a crash keeps.
//!   It tracks each file's written and synced lengths and the directory's
//!   entries as of its last sync; [`MemFs::crash`] drops everything that
//!   was not synced. A fault schedule ([`MemFs::fail`]) fails chosen
//!   operations with EIO, with ENOSPC, or as a short write.
//!
//! Dispatch is a two-arm `match`: no trait object, no generic parameter.
//! Every read is positional, so a shared fd never carries cursor state.
//! The file system travels with the directory: `SegLog::open` takes
//! `impl Into<Dir>`, and any path means the OS.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{Error, ErrorKind, Result, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A directory the log lives in.
#[derive(Clone, Debug)]
pub enum Dir {
    /// A directory of the OS file system.
    Os(PathBuf),
    /// The one directory of an in-memory file system.
    Mem(MemFs),
}

impl<P: AsRef<Path>> From<P> for Dir {
    fn from(path: P) -> Dir {
        Dir::Os(path.as_ref().to_path_buf())
    }
}

impl From<&MemFs> for Dir {
    fn from(fs: &MemFs) -> Dir {
        Dir::Mem(fs.clone())
    }
}

/// How [`Dir::open`] opens a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Read-only; the file must exist.
    Read,
    /// Read and append; the file must exist.
    Append,
    /// Read and append a file that must not exist yet.
    CreateNew,
    /// Write, creating the file or truncating it to empty.
    Create,
}

/// An open file. Every method takes `&self`: a pooled fd is shared.
pub(crate) enum Fd {
    Os(std::fs::File),
    Mem(MemFs, Arc<Mutex<Node>>),
}

impl Dir {
    /// Creates the directory (and its parents) if missing.
    pub(crate) fn create(&self) -> Result<()> {
        match self {
            Dir::Os(path) => std::fs::create_dir_all(path),
            Dir::Mem(_) => Ok(()),
        }
    }

    /// Every file in the directory with its length.
    pub(crate) fn list(&self) -> Result<Vec<(String, u64)>> {
        match self {
            Dir::Os(path) => {
                let mut out = Vec::new();
                for entry in std::fs::read_dir(path)? {
                    let entry = entry?;
                    if let Some(name) = entry.file_name().to_str() {
                        out.push((name.to_string(), entry.metadata()?.len()));
                    }
                }
                Ok(out)
            }
            Dir::Mem(fs) => {
                fs.check(Op::List)?;
                let st = fs.0.lock();
                Ok(st
                    .names
                    .iter()
                    .map(|(n, node)| (n.clone(), node.lock().data.len() as u64))
                    .collect())
            }
        }
    }

    pub(crate) fn open(&self, name: &str, mode: Mode) -> Result<Fd> {
        match self {
            Dir::Os(path) => {
                let mut o = std::fs::OpenOptions::new();
                match mode {
                    Mode::Read => o.read(true),
                    Mode::Append => o.read(true).append(true),
                    Mode::CreateNew => o.read(true).append(true).create_new(true),
                    Mode::Create => o.write(true).create(true).truncate(true),
                };
                Ok(Fd::Os(o.open(path.join(name))?))
            }
            Dir::Mem(fs) => {
                fs.check(Op::Open)?;
                let mut st = fs.0.lock();
                let node = match (st.names.get(name), mode) {
                    (Some(_), Mode::CreateNew) => return Err(ErrorKind::AlreadyExists.into()),
                    (Some(node), Mode::Create) => {
                        node.lock().set_len(0);
                        node.clone()
                    }
                    (Some(node), _) => node.clone(),
                    (None, Mode::Read | Mode::Append) => return Err(ErrorKind::NotFound.into()),
                    (None, Mode::CreateNew | Mode::Create) => {
                        let node = Arc::new(Mutex::new(Node::default()));
                        st.names.insert(name.to_string(), node.clone());
                        node
                    }
                };
                Ok(Fd::Mem(fs.clone(), node))
            }
        }
    }

    /// Renames `from` over `to`.
    pub(crate) fn rename(&self, from: &str, to: &str) -> Result<()> {
        match self {
            Dir::Os(path) => std::fs::rename(path.join(from), path.join(to)),
            Dir::Mem(fs) => {
                fs.check(Op::Rename)?;
                let mut st = fs.0.lock();
                let node = st.names.remove(from).ok_or(ErrorKind::NotFound)?;
                st.names.insert(to.to_string(), node);
                Ok(())
            }
        }
    }

    pub(crate) fn remove(&self, name: &str) -> Result<()> {
        match self {
            Dir::Os(path) => std::fs::remove_file(path.join(name)),
            Dir::Mem(fs) => {
                fs.check(Op::Remove)?;
                fs.0.lock().names.remove(name).map(drop).ok_or_else(|| ErrorKind::NotFound.into())
            }
        }
    }

    /// Makes the directory's entries durable (fsync on the directory).
    pub(crate) fn sync_all(&self) -> Result<()> {
        match self {
            Dir::Os(path) => std::fs::File::open(path)?.sync_all(),
            Dir::Mem(fs) => {
                fs.check(Op::Sync)?;
                let mut st = fs.0.lock();
                st.synced_names = st.names.clone();
                Ok(())
            }
        }
    }

    /// `name` in this directory, for messages.
    pub(crate) fn show(&self, name: &str) -> String {
        match self {
            Dir::Os(path) => path.join(name).display().to_string(),
            Dir::Mem(_) => format!("memfs:{name}"),
        }
    }
}

impl Fd {
    /// Appends all of `buf` (a file opened to write starts at its end).
    pub(crate) fn write_all(&self, mut buf: &[u8]) -> Result<()> {
        match self {
            Fd::Os(file) => (&*file).write_all(buf),
            Fd::Mem(fs, node) => {
                while !buf.is_empty() {
                    let n = match fs.tick(Op::Write) {
                        None => buf.len(),
                        Some(Fault::ShortWrite) if buf.len() > 1 => buf.len() / 2,
                        Some(fault) => return Err(fault.error()),
                    };
                    node.lock().data.extend_from_slice(&buf[..n]);
                    buf = &buf[n..];
                }
                Ok(())
            }
        }
    }

    /// Makes the file's contents durable (`fdatasync`).
    pub(crate) fn sync_data(&self) -> Result<()> {
        match self {
            Fd::Os(file) => file.sync_data(),
            Fd::Mem(fs, node) => {
                fs.check(Op::Sync)?;
                let mut node = node.lock();
                node.synced = node.data.len();
                Ok(())
            }
        }
    }

    /// Positional read at `offset` until `dst` is full or EOF; returns
    /// the bytes read.
    pub(crate) fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        match self {
            Fd::Os(file) => pread_fill(file, offset, dst),
            Fd::Mem(fs, node) => {
                fs.check(Op::Read)?;
                let n = {
                    let node = node.lock();
                    let from = offset.min(node.data.len() as u64) as usize;
                    let n = dst.len().min(node.data.len() - from);
                    dst[..n].copy_from_slice(&node.data[from..from + n]);
                    n
                };
                fs.0.lock().read_bytes += n as u64;
                Ok(n)
            }
        }
    }

    /// [`Fd::read_at`] that fails with `UnexpectedEof` unless `dst` fills.
    pub(crate) fn read_exact_at(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        if self.read_at(offset, dst)? < dst.len() {
            return Err(Error::new(ErrorKind::UnexpectedEof, "read past end of file"));
        }
        Ok(())
    }

    pub(crate) fn len(&self) -> Result<u64> {
        match self {
            Fd::Os(file) => Ok(file.metadata()?.len()),
            Fd::Mem(fs, node) => {
                fs.check(Op::Read)?;
                Ok(node.lock().data.len() as u64)
            }
        }
    }

    /// Truncates (or zero-extends) the file to `len` bytes.
    pub(crate) fn set_len(&self, len: u64) -> Result<()> {
        match self {
            Fd::Os(file) => file.set_len(len),
            Fd::Mem(fs, node) => {
                fs.check(Op::SetLen)?;
                node.lock().set_len(len as usize);
                Ok(())
            }
        }
    }
}

/// Retries `Interrupted`; never moves the fd's cursor.
#[cfg(unix)]
fn pread_fill(file: &std::fs::File, offset: u64, dst: &mut [u8]) -> Result<usize> {
    use std::os::unix::fs::FileExt;
    let mut total = 0;
    while total < dst.len() {
        match file.read_at(&mut dst[total..], offset + total as u64) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Portable fallback: seek + read (the cursor moves).
#[cfg(not(unix))]
fn pread_fill(file: &std::fs::File, offset: u64, dst: &mut [u8]) -> Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    let mut total = 0;
    while total < dst.len() {
        match f.read(&mut dst[total..]) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// The kinds of operation [`MemFs`] counts and can fail. Opening counts
/// as `Open`, a file's length as `Read`, a directory sync as `Sync`, and
/// each pass of a write loop as one `Write`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Open,
    Read,
    Write,
    Sync,
    SetLen,
    Rename,
    Remove,
    List,
}

/// How a scheduled operation fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `EIO`.
    Eio,
    /// `ENOSPC`.
    Enospc,
    /// A write stores the first half of its bytes and reports that much;
    /// the write loop goes on with the rest as its next operation. Any
    /// other operation (or a one-byte write) fails with an error.
    ShortWrite,
}

impl Fault {
    fn error(self) -> Error {
        match self {
            Fault::Eio => Error::other("injected EIO"),
            Fault::Enospc => Error::new(ErrorKind::StorageFull, "injected ENOSPC"),
            Fault::ShortWrite => Error::new(ErrorKind::WriteZero, "injected short write"),
        }
    }
}

/// An in-memory file system of one directory, cheap to clone (clones
/// share it). Deterministic: no clock, no randomness.
#[derive(Clone, Debug, Default)]
pub struct MemFs(Arc<Mutex<MemState>>);

#[derive(Debug, Default)]
struct MemState {
    /// Live directory entries.
    names: BTreeMap<String, Arc<Mutex<Node>>>,
    /// The entries as of the last directory sync: what a crash keeps.
    synced_names: BTreeMap<String, Arc<Mutex<Node>>>,
    /// Operations so far, all kinds together and per [`Op`].
    ops: u64,
    ops_of: [u64; 8],
    faults: Vec<(Option<Op>, Range<u64>, Fault)>,
    read_bytes: u64,
}

/// One file: its bytes and how many of them a sync has made durable.
#[derive(Debug, Default)]
pub(crate) struct Node {
    data: Vec<u8>,
    synced: usize,
}

impl Node {
    /// A truncation is durable at once: it can only drop bytes.
    fn set_len(&mut self, len: usize) {
        self.data.resize(len, 0);
        self.synced = self.synced.min(len);
    }
}

impl MemFs {
    /// An empty file system.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Fails every operation whose index falls in `at`: the index counts
    /// every operation when `kind` is `None`, else only those of `kind`
    /// (0 is the first). Indices are absolute; see [`MemFs::ops`].
    pub fn fail(&self, kind: Option<Op>, at: Range<u64>, fault: Fault) {
        self.0.lock().faults.push((kind, at, fault));
    }

    /// Clears the fault schedule.
    pub fn heal(&self) {
        self.0.lock().faults.clear();
    }

    /// Operations so far: every one (`None`) or those of one kind.
    pub fn ops(&self, kind: Option<Op>) -> u64 {
        let st = self.0.lock();
        match kind {
            None => st.ops,
            Some(op) => st.ops_of[op as usize],
        }
    }

    /// Bytes read from files so far.
    pub fn read_bytes(&self) -> u64 {
        self.0.lock().read_bytes
    }

    /// The power goes out: the directory reverts to its entries as of
    /// its last sync and every file to its synced length. Handles opened
    /// before the crash must not be used after it.
    pub fn crash(&self) {
        let mut st = self.0.lock();
        st.names = st.synced_names.clone();
        for node in st.names.values() {
            let mut node = node.lock();
            let synced = node.synced;
            node.data.truncate(synced);
        }
    }

    /// Counts one operation; returns the fault scheduled for it.
    fn tick(&self, op: Op) -> Option<Fault> {
        let mut st = self.0.lock();
        let all = st.ops;
        st.ops += 1;
        let nth = st.ops_of[op as usize];
        st.ops_of[op as usize] += 1;
        let hit = |(kind, at, _): &&(Option<Op>, Range<u64>, Fault)| match kind {
            None => at.contains(&all),
            Some(k) => *k == op && at.contains(&nth),
        };
        st.faults.iter().find(hit).map(|f| f.2)
    }

    fn check(&self, op: Op) -> Result<()> {
        self.tick(op).map_or(Ok(()), |fault| Err(fault.error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_positional_on_both_file_systems() {
        let os = std::env::temp_dir().join(format!("gdp-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&os);
        for dir in [Dir::from(&os), Dir::from(&MemFs::new())] {
            dir.create().unwrap();
            let fd = dir.open("f", Mode::CreateNew).unwrap();
            fd.write_all(b"0123456789").unwrap();
            let mut buf = [0u8; 4];
            assert_eq!(fd.read_at(3, &mut buf).unwrap(), 4);
            assert_eq!(&buf, b"3456");
            // A short read at the tail reports the bytes it got.
            let mut tail = [0u8; 8];
            assert_eq!(fd.read_at(7, &mut tail).unwrap(), 3);
            assert_eq!(&tail[..3], b"789");
            assert!(dir.open("f", Mode::CreateNew).is_err());
            assert_eq!(dir.list().unwrap(), vec![("f".to_string(), 10)]);
        }
        let _ = std::fs::remove_dir_all(&os);
    }

    #[test]
    fn a_crash_keeps_exactly_what_was_synced() {
        let fs = MemFs::new();
        let dir = Dir::from(&fs);
        let kept = dir.open("kept", Mode::CreateNew).unwrap();
        kept.write_all(b"durable").unwrap();
        kept.sync_data().unwrap();
        dir.sync_all().unwrap();
        kept.write_all(b" and lost").unwrap();
        let unlisted = dir.open("unlisted", Mode::CreateNew).unwrap();
        unlisted.write_all(b"synced, but its entry is not").unwrap();
        unlisted.sync_data().unwrap();
        fs.crash();
        assert_eq!(dir.list().unwrap(), vec![("kept".to_string(), 7)]);
    }

    #[test]
    fn the_schedule_fails_the_chosen_operations() {
        let fs = MemFs::new();
        let dir = Dir::from(&fs);
        let fd = dir.open("f", Mode::CreateNew).unwrap();
        let w = fs.ops(Some(Op::Write));
        fs.fail(Some(Op::Write), w..w + 1, Fault::ShortWrite);
        fs.fail(Some(Op::Write), w + 1..w + 2, Fault::Enospc);
        let err = fd.write_all(b"abcd").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(fd.len().unwrap(), 2, "the short write kept half");
        fd.write_all(b"ef").unwrap();
        let all = fs.ops(None);
        fs.fail(None, all..u64::MAX, Fault::Eio);
        assert!(fd.sync_data().unwrap_err().to_string().contains("injected"));
        fs.heal();
        fd.sync_data().unwrap();
        let mut buf = [0u8; 4];
        fd.read_exact_at(0, &mut buf).unwrap();
        assert_eq!((&buf, fs.read_bytes()), (b"abef", 4));
    }
}
