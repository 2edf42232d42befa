//! Deterministic fault injection (test-only hooks).
//!
//! Every thread has a current fault handle: an [`Arc<Faults>`] whose
//! switches are all off, created the first time the thread consults
//! it. The free functions below arm, read and fire the calling
//! thread's handle, so a test that arms a fault reaches only the code
//! it runs itself — two tests running side by side cannot see each
//! other's faults, and no lock is needed. A component that moves work
//! onto threads of its own passes its caller's handle along with
//! [`current`] and [`install`]: `pm-serve` captures the handle of the
//! thread that starts a daemon and installs it on every daemon thread,
//! so a fault armed after startup still reaches that daemon, and no
//! other one. Production code never arms a switch; a disarmed check
//! costs one thread-local lookup and one relaxed atomic load.
//!
//! Faults fire at an exact byte offset or request, not at random, so a
//! test can assert the fault surfaces as the right typed error or
//! degraded response. Hook → injection point:
//!
//! * [`set_torn_write_at`] — [`crate::write_atomic`] persists exactly
//!   `k` payload bytes to the temp file, then fails as if the process
//!   crashed (the rename never runs);
//! * [`set_disk_full_at`] — writes fail with ENOSPC after `k` bytes,
//!   but the process *survives*: [`crate::write_atomic`] must clean up
//!   its temp file and leave the target untouched, and
//!   [`crate::log::SalesLog::append`] must leave a tail the next open
//!   truncates away;
//! * [`set_vanish_parent_before_rename`] — [`crate::write_atomic`]
//!   removes the target's parent directory right before its rename;
//! * [`set_short_read_at`] — [`crate::read_file`] returns only the
//!   first `k` bytes, as if the file were truncated on disk;
//! * [`set_corrupt_byte_at`] — [`crate::read_file`] flips the low bit
//!   of byte `k`, as if the medium decayed;
//! * [`set_read_delay_ms`] — [`crate::read_file`] sleeps first (slow
//!   disk / cold NFS), for reload-under-latency tests;
//! * [`set_compute_delay_ms`] / [`set_compute_panic`] — consulted by
//!   `pm-serve` inside its per-request compute section, to force the
//!   deadline-blown and matcher-error degraded paths;
//! * [`set_handle_panic`] — consulted by `pm-serve` in its
//!   per-connection handling *outside* the compute section, to prove
//!   that a panic there is unwind-isolated (counted, logged, connection
//!   dropped) instead of killing the worker thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One set of fault switches, all off until armed. Threads share a set
/// through [`current`] and [`install`]. A byte-offset hook stores
/// `k + 1`, so the all-zero default is "off".
#[derive(Debug, Default)]
pub struct Faults {
    torn_write_at: AtomicUsize,
    disk_full_at: AtomicUsize,
    vanish_parent: AtomicBool,
    short_read_at: AtomicUsize,
    corrupt_byte_at: AtomicUsize,
    read_delay_ms: AtomicU64,
    compute_delay_ms: AtomicU64,
    compute_panic: AtomicBool,
    handle_panic: AtomicBool,
}

thread_local! {
    static CURRENT: RefCell<Arc<Faults>> = RefCell::new(Arc::default());
}

/// The calling thread's fault handle.
pub fn current() -> Arc<Faults> {
    CURRENT.with(|c| Arc::clone(&c.borrow()))
}

/// Make `handle` the calling thread's fault handle, so this thread
/// fires the faults armed on it (typically another thread's
/// [`current`] handle).
pub fn install(handle: Arc<Faults>) {
    CURRENT.with(|c| *c.borrow_mut() = handle);
}

fn with<R>(f: impl FnOnce(&Faults) -> R) -> R {
    CURRENT.with(|c| f(&c.borrow()))
}

fn set_offset(cell: &AtomicUsize, k: Option<usize>) {
    cell.store(k.map_or(0, |k| k.saturating_add(1)), Ordering::Relaxed);
}

fn offset(cell: &AtomicUsize) -> Option<usize> {
    cell.load(Ordering::Relaxed).checked_sub(1)
}

fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Make the next writes crash after persisting `k` payload bytes.
pub fn set_torn_write_at(k: Option<usize>) {
    with(|f| set_offset(&f.torn_write_at, k));
}

/// The active torn-write offset, if any.
pub fn torn_write_at() -> Option<usize> {
    with(|f| offset(&f.torn_write_at))
}

/// Make the next writes fail with ENOSPC ("No space left on device")
/// after persisting `k` bytes — a full disk mid-write. Unlike
/// [`set_torn_write_at`] the process survives the error, so the
/// graceful-failure paths (temp cleanup, intact target, recoverable
/// log tail) are what's under test.
pub fn set_disk_full_at(k: Option<usize>) {
    with(|f| set_offset(&f.disk_full_at, k));
}

/// The active disk-full offset, if any.
pub fn disk_full_at() -> Option<usize> {
    with(|f| offset(&f.disk_full_at))
}

/// Make the next atomic write's target parent directory vanish between
/// the temp-file write and the rename — as if a concurrent cleanup
/// removed the data directory mid-write. One-shot: the hook disarms
/// itself when it fires, so the test can recreate the directory and
/// retry without re-tripping.
pub fn set_vanish_parent_before_rename(on: bool) {
    with(|f| f.vanish_parent.store(on, Ordering::Relaxed));
}

/// Consume the vanish-parent fault if armed. Called by
/// [`crate::write_atomic`] right before its rename.
pub fn take_vanish_parent() -> bool {
    with(|f| f.vanish_parent.swap(false, Ordering::Relaxed))
}

/// Make reads return only the first `k` bytes.
pub fn set_short_read_at(k: Option<usize>) {
    with(|f| set_offset(&f.short_read_at, k));
}

/// The active short-read offset, if any.
pub fn short_read_at() -> Option<usize> {
    with(|f| offset(&f.short_read_at))
}

/// Make reads flip the low bit of byte `k`.
pub fn set_corrupt_byte_at(k: Option<usize>) {
    with(|f| set_offset(&f.corrupt_byte_at, k));
}

/// The active corruption offset, if any.
pub fn corrupt_byte_at() -> Option<usize> {
    with(|f| offset(&f.corrupt_byte_at))
}

/// Delay every read by `ms` milliseconds (0 = off).
pub fn set_read_delay_ms(ms: u64) {
    with(|f| f.read_delay_ms.store(ms, Ordering::Relaxed));
}

/// Sleep for the configured read delay, if any.
pub fn apply_read_delay() {
    sleep_ms(with(|f| f.read_delay_ms.load(Ordering::Relaxed)));
}

/// Delay every serve-side compute section by `ms` milliseconds (0 = off).
pub fn set_compute_delay_ms(ms: u64) {
    with(|f| f.compute_delay_ms.store(ms, Ordering::Relaxed));
}

/// Sleep for the configured compute delay, if any. Called by `pm-serve`
/// inside the per-request deadline window.
pub fn apply_compute_delay() {
    sleep_ms(with(|f| f.compute_delay_ms.load(Ordering::Relaxed)));
}

/// Make the serve-side compute section panic (a stand-in for a matcher
/// bug), to exercise the catch-and-degrade path.
pub fn set_compute_panic(on: bool) {
    with(|f| f.compute_panic.store(on, Ordering::Relaxed));
}

/// Panic if the compute-panic fault is armed. Called by `pm-serve`
/// inside its unwind-isolated compute section.
pub fn apply_compute_panic() {
    if with(|f| f.compute_panic.load(Ordering::Relaxed)) {
        panic!("injected matcher panic (pm_store::faults::set_compute_panic)");
    }
}

/// Make `pm-serve`'s per-connection handling panic *outside* the
/// unwind-isolated compute section — a stand-in for a bug anywhere in
/// the request path — to exercise the connection-level panic isolation.
/// One-shot: the hook disarms itself when it fires, so the daemon can be
/// shown to keep answering afterwards.
pub fn set_handle_panic(on: bool) {
    with(|f| f.handle_panic.store(on, Ordering::Relaxed));
}

/// Panic (once) if the handle-panic fault is armed. Called by `pm-serve`
/// in per-connection handling, outside the compute section.
pub fn apply_handle_panic() {
    if with(|f| f.handle_panic.swap(false, Ordering::Relaxed)) {
        panic!("injected connection-handling panic (pm_store::faults::set_handle_panic)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arm every hook on a helper thread; the caller's thread, and any
    /// thread it starts afterwards, stays inert.
    fn arm_everything_elsewhere() {
        std::thread::spawn(|| {
            set_torn_write_at(Some(7));
            set_disk_full_at(Some(9));
            set_vanish_parent_before_rename(true);
            set_short_read_at(Some(3));
            set_corrupt_byte_at(Some(0));
            set_read_delay_ms(60_000);
            set_compute_delay_ms(60_000);
            set_compute_panic(true);
            set_handle_panic(true);
            assert_eq!(torn_write_at(), Some(7));
            assert_eq!(disk_full_at(), Some(9));
        })
        .join()
        .unwrap();
    }

    fn assert_inert() {
        assert_eq!(torn_write_at(), None);
        assert_eq!(disk_full_at(), None);
        assert!(!take_vanish_parent());
        assert_eq!(short_read_at(), None);
        assert_eq!(corrupt_byte_at(), None);
        apply_read_delay(); // must not sleep a minute
        apply_compute_delay();
        apply_compute_panic(); // must not panic
        apply_handle_panic();
    }

    #[test]
    fn a_fresh_thread_is_inert() {
        arm_everything_elsewhere();
        assert_inert();
        std::thread::spawn(assert_inert).join().unwrap();
    }

    #[test]
    fn an_installed_handle_is_shared() {
        let handle = current();
        std::thread::spawn(move || {
            install(handle);
            set_short_read_at(Some(4));
            set_compute_panic(true);
        })
        .join()
        .unwrap();
        // Armed on the other thread, visible here: one handle, not a copy.
        assert_eq!(short_read_at(), Some(4));
        assert!(std::panic::catch_unwind(apply_compute_panic).is_err());
        // Installing a fresh handle disarms this thread again.
        install(Arc::default());
        assert_inert();
    }

    #[test]
    fn handle_panic_is_one_shot() {
        set_handle_panic(true);
        assert!(std::panic::catch_unwind(apply_handle_panic).is_err());
        // The hook disarmed itself on firing.
        apply_handle_panic();
    }
}
