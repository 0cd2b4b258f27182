//! Low-level file-IO helpers of the segmented log.
//!
//! The recovery scanner streams files through short reads; the
//! read path does positional reads against pooled, shared fds. These
//! helpers are the one place the retry-on-`Interrupted` loop lives.

use std::fs::File;
use std::io::Read;

/// `read` until `dst` is full or EOF; returns bytes read.
pub(crate) fn read_fill(file: &mut File, mut dst: &mut [u8]) -> std::io::Result<usize> {
    let mut total = 0;
    while !dst.is_empty() {
        match file.read(dst) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                dst = &mut dst[n..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Positional read at `offset` until `dst` is full or EOF; returns bytes
/// read. Never moves the fd's cursor, so pooled read-only fds can serve
/// concurrent callers without seek coordination.
#[cfg(unix)]
pub(crate) fn pread_fill(file: &File, offset: u64, dst: &mut [u8]) -> std::io::Result<usize> {
    use std::os::unix::fs::FileExt;
    let mut total = 0;
    while total < dst.len() {
        match file.read_at(&mut dst[total..], offset + total as u64) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Portable fallback: seek-based positional read (the cursor moves, but
/// non-unix builds get correctness over sharing).
#[cfg(not(unix))]
pub(crate) fn pread_fill(file: &File, offset: u64, dst: &mut [u8]) -> std::io::Result<usize> {
    use std::io::{Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    let mut total = 0;
    while total < dst.len() {
        match f.read(&mut dst[total..]) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn pread_fill_reads_at_offset_without_moving_shared_state() {
        let dir = std::env::temp_dir().join(format!("gdp-io-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pread.bin");
        let mut f = File::create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        let f = File::open(&path).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(pread_fill(&f, 3, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"3456");
        // Short read at the tail reports actual bytes, not an error.
        let mut tail = [0u8; 8];
        assert_eq!(pread_fill(&f, 7, &mut tail).unwrap(), 3);
        assert_eq!(&tail[..3], b"789");
        let _ = std::fs::remove_file(&path);
    }
}
