// LK02 fixture: blocking work inside a hot-path critical section. The
// path fragment `fixtures/lk02/` is on the default blocking-sensitive
// list. One direct primitive, one interprocedural witness.

use parking_lot::Mutex;
use std::fs::File;

pub struct Ledger {
    pub cursor: Mutex<u64>,
}

pub fn flush_under_lock(l: &Ledger, f: &mut File) {
    let g = l.cursor.lock();
    f.sync_all().ok();
    drop(g);
}

fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn wait_under_lock(l: &Ledger) {
    let g = l.cursor.lock();
    settle();
    drop(g);
}

// The store's file layer: a positional read of a segment is blocking I/O
// like any other, wherever the fd comes from.
pub fn read_under_lock(l: &Ledger, fd: &gdp_store::io::Fd) {
    let g = l.cursor.lock();
    let mut block = [0u8; 64];
    fd.read_at(0, &mut block).ok();
    drop(g);
}
