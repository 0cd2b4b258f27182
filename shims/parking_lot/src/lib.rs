//! Offline shim for the subset of `parking_lot` 0.12 this workspace uses:
//! [`Mutex`] and [`RwLock`] with infallible, non-poisoning `lock`/`read`/
//! `write`. Backed by `std::sync`; a poisoned std lock (a panic while held)
//! is recovered rather than propagated, matching parking_lot's semantics
//! of not tracking poison at all.
//!
//! ## ThreadSanitizer awareness (`--cfg gdp_tsan`)
//!
//! `scripts/verify.sh --tsan` builds with `-Zsanitizer=thread` but without
//! `-Zbuild-std`, so the `std::sync` primitives underneath stay
//! un-instrumented and TSan cannot see the happens-before edges their
//! futexes establish — every correctly-locked structure would be reported
//! as racing. Under `--cfg gdp_tsan` each lock carries a fence word
//! (`TsanClock`) in *instrumented* code: unlock does a release-increment
//! while still holding the lock, lock does an acquire-load right after
//! acquiring. Mutual exclusion orders the increment before the next
//! holder's load, so TSan derives exactly the happens-before edges the
//! real lock provides. Outside `gdp_tsan` the fence word is a zero-sized
//! no-op and the guards compile down to the plain std guards.

use std::ops::{Deref, DerefMut};

/// TSan-visible happens-before fence word; zero-sized no-op unless built
/// with `--cfg gdp_tsan` (see module docs).
#[derive(Debug, Default)]
struct TsanClock {
    #[cfg(gdp_tsan)]
    clock: std::sync::atomic::AtomicUsize,
}

impl TsanClock {
    const fn new() -> TsanClock {
        TsanClock {
            #[cfg(gdp_tsan)]
            clock: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Called immediately after acquiring the underlying lock.
    #[inline(always)]
    fn acquired(&self) {
        #[cfg(gdp_tsan)]
        self.clock.load(std::sync::atomic::Ordering::Acquire);
    }

    /// Called immediately before releasing the underlying lock (i.e.
    /// while still holding it, so the increment is ordered before the
    /// next holder's acquire-load).
    #[inline(always)]
    fn releasing(&self) {
        #[cfg(gdp_tsan)]
        self.clock.fetch_add(1, std::sync::atomic::Ordering::Release);
    }
}

/// A mutual-exclusion lock with parking_lot's infallible API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    hb: TsanClock,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    hb: &'a TsanClock,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Runs before the field drop that unlocks, i.e. still locked.
        self.hb.releasing();
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { hb: TsanClock::new(), inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        self.hb.acquired();
        MutexGuard { hb: &self.hb, inner }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        self.hb.acquired();
        Some(MutexGuard { hb: &self.hb, inner })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

/// A reader-writer lock with parking_lot's infallible API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    hb: TsanClock,
    inner: std::sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    hb: &'a TsanClock,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    hb: &'a TsanClock,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.hb.releasing();
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.hb.releasing();
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { hb: TsanClock::new(), inner: std::sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = self.inner.read().unwrap_or_else(|p| p.into_inner());
        self.hb.acquired();
        RwLockReadGuard { hb: &self.hb, inner }
    }

    /// Acquires exclusive write access, blocking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = self.inner.write().unwrap_or_else(|p| p.into_inner());
        self.hb.acquired();
        RwLockWriteGuard { hb: &self.hb, inner }
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        self.hb.acquired();
        Some(RwLockReadGuard { hb: &self.hb, inner })
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        self.hb.acquired();
        Some(RwLockWriteGuard { hb: &self.hb, inner })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn try_variants() {
        let m = Mutex::new(0u8);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());

        let l = RwLock::new(0u8);
        let r = l.read();
        assert!(l.try_write().is_none());
        assert!(l.try_read().is_some());
        drop(r);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7u8));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn cross_thread_counting() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
