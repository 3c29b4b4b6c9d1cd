//! Offline stand-in for `parking_lot` (see `crates/shims/README.md`).
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s poison-free API:
//! `lock()` returns the guard directly, and a poisoned std lock (a thread
//! panicked while holding it) is transparently recovered, matching
//! `parking_lot`'s behaviour of not propagating poison.
//!
//! **No eventual fairness.** `parking_lot` 0.12's `Mutex` hands the lock
//! straight to a waiter when that waiter has been kept out for about
//! half a millisecond; std's mutex, and so this one, never does. A thread
//! that unlocks and re-locks in a loop can starve a blocked waiter for
//! as long as the loop runs — and yielding between the two does not
//! help. Code must not rely on a waiter getting in between another
//! thread's critical sections; hand work over with a condvar instead.

use std::time::Duration;

/// A mutex that does not propagate poisoning, mirroring `parking_lot::Mutex`
/// — except for fairness: a waiter is never handed the lock (see the
/// crate docs).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A reader-writer lock mirroring `parking_lot::RwLock`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII read guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// RAII write guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock. Never poisons.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires an exclusive write lock. Never poisons.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable mirroring `parking_lot::Condvar`, whose wait
/// methods take the guard by `&mut` rather than by value.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[must_use]
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks until notified. Spurious wakeups are possible — callers must
    /// re-check their predicate in a loop.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        replace_guard(guard, |g| {
            self.inner
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        });
    }

    /// Blocks until notified or until `timeout` elapses. Spurious wakeups
    /// are possible — callers must re-check their predicate in a loop.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        // Single-threaded handoff: the closure runs on this thread before
        // the read below, so a plain Cell suffices.
        let timed_out = std::cell::Cell::new(false);
        replace_guard(guard, |g| {
            let (g, r) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            timed_out.set(r.timed_out());
            g
        });
        WaitTimeoutResult {
            timed_out: timed_out.get(),
        }
    }
}

/// Applies a guard-consuming closure through a `&mut` guard, as
/// `parking_lot`'s wait API requires. While `f` owns the duplicated
/// guard, the slot must not be dropped; a panic inside `f` (not expected:
/// the wait calls above recover poison) aborts the process instead of
/// unwinding into a double drop of the guard.
fn replace_guard<'a, T>(
    slot: &mut MutexGuard<'a, T>,
    f: impl FnOnce(MutexGuard<'a, T>) -> MutexGuard<'a, T>,
) {
    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    // SAFETY: `slot` is a valid guard we temporarily take ownership of;
    // `f` always returns a replacement guard for the same mutex, which is
    // written back before anyone can observe `slot` again. If `f` were to
    // unwind, `bomb` aborts before the duplicated guard could be dropped
    // twice.
    unsafe {
        let guard = std::ptr::read(slot);
        let bomb = AbortOnUnwind;
        let new_guard = f(guard);
        std::mem::forget(bomb);
        std::ptr::write(slot, new_guard);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

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
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            *ready = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        t.join().expect("signaller");
        assert!(*ready);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = lock.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn lock_survives_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        assert_eq!(*m.lock(), 7);
    }
}
