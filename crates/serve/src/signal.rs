//! Process signal handling without external crates: raw `signal(2)`
//! hooks, a shared stop flag for graceful shutdown, and async-signal-safe
//! "unlink my partial output" guards.
//!
//! Two installation modes, matching how the CLI's subcommands want to
//! die:
//!
//! * [`install_graceful`] — first SIGINT/SIGTERM only flips the returned
//!   stop flag; the run notices (the engine's
//!   [`CancelFlag`](flowzip_engine::CancelFlag), `flowzip serve`'s window
//!   loop) and finalizes a **valid** partial archive. A second signal
//!   means "really stop": registered partial files are unlinked and the
//!   process exits `128 + signo` immediately.
//! * [`install_oneshot`] — any signal unlinks registered partials and
//!   exits at once. For runs with nothing worth finalizing (decompress,
//!   query), where the only cleanup is removing the half-written
//!   `.part` scratch file.
//!
//! The handler body touches only async-signal-safe territory: atomics,
//! `unlink(2)`, `_exit(2)`. Paths are copied into fixed static buffers
//! at registration time (see [`guard_partial`]) so the handler never
//! allocates.
//!
//! On non-Unix targets everything is a no-op: flags never flip, guards
//! do nothing, and runs end only with their input.

use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU8, Ordering};
use std::sync::Arc;

/// Paths a signal may need to unlink, registered via [`guard_partial`].
const GUARD_SLOTS: usize = 8;
/// Longest registerable path, NUL terminator included.
const GUARD_PATH_MAX: usize = 4096;

const SLOT_FREE: u8 = 0;
const SLOT_WRITING: u8 = 1;
const SLOT_ARMED: u8 = 2;

struct Slot {
    state: AtomicU8,
    path: std::cell::UnsafeCell<[u8; GUARD_PATH_MAX]>,
}

// The path bytes are only written while `state == SLOT_WRITING` (claimed
// by exactly one thread via compare-exchange) and only read by the
// signal handler when `state == SLOT_ARMED`.
unsafe impl Sync for Slot {}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    state: AtomicU8::new(SLOT_FREE),
    path: std::cell::UnsafeCell::new([0; GUARD_PATH_MAX]),
};

static SLOTS: [Slot; GUARD_SLOTS] = [EMPTY_SLOT; GUARD_SLOTS];

/// The graceful-mode stop flag, leaked into a static so the handler can
/// reach it. Null before [`install_graceful`].
static STOP_PTR: std::sync::atomic::AtomicPtr<AtomicBool> =
    std::sync::atomic::AtomicPtr::new(std::ptr::null_mut());

/// Last signal delivered (0 = none) — lets `main` exit `128 + signo`
/// after a graceful finish.
static RECEIVED: AtomicI32 = AtomicI32::new(0);

/// The signal number received so far, if any. After a graceful run the
/// conventional exit code is `128 + signo`.
pub fn received() -> Option<i32> {
    match RECEIVED.load(Ordering::Relaxed) {
        0 => None,
        sig => Some(sig),
    }
}

/// RAII registration of a partial-output path: while the guard lives, a
/// fatal signal unlinks the file before exiting. Dropping the guard
/// (the happy path: the file was renamed into place) disarms the slot.
#[derive(Debug)]
pub struct PartialGuard {
    slot: usize,
}

impl Drop for PartialGuard {
    fn drop(&mut self) {
        SLOTS[self.slot].state.store(SLOT_FREE, Ordering::Release);
    }
}

/// Registers `path` for unlink-on-signal. Returns `None` when all
/// `GUARD_SLOTS` guard slots are busy or the path does not fit — the caller
/// proceeds unguarded (worst case a `.part` scratch file survives an
/// interrupt) — and when `path` exists and is not a regular file, which
/// is never unlinked.
pub fn guard_partial(path: &std::path::Path) -> Option<PartialGuard> {
    // An existing FIFO, device or symlink to one (`/dev/stdout`) is
    // written straight through, never staged: it is not ours to unlink.
    if flowzip_pipeline::PartFile::writes_through(path) {
        return None;
    }
    let bytes = path.as_os_str().as_encoded_bytes();
    if bytes.is_empty() || bytes.len() >= GUARD_PATH_MAX || bytes.contains(&0) {
        return None;
    }
    for (i, slot) in SLOTS.iter().enumerate() {
        if slot
            .state
            .compare_exchange(
                SLOT_FREE,
                SLOT_WRITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            // Sole owner while SLOT_WRITING: the handler skips non-armed
            // slots, and no other thread can claim this one.
            unsafe {
                let buf = &mut *slot.path.get();
                buf[..bytes.len()].copy_from_slice(bytes);
                buf[bytes.len()] = 0;
            }
            slot.state.store(SLOT_ARMED, Ordering::Release);
            return Some(PartialGuard { slot: i });
        }
    }
    None
}

/// Installs SIGINT/SIGTERM handlers for **graceful** shutdown and
/// returns the shared stop flag. The first signal flips the flag (wire
/// it into [`CancelFlag`](flowzip_engine::CancelFlag) or a serve
/// session's stop flag); the second unlinks guarded partials and exits
/// `128 + signo` immediately.
pub fn install_graceful() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    // One strong count is leaked into the static; the handler borrows it
    // for the rest of the process lifetime.
    let raw = Arc::into_raw(flag.clone()) as *mut AtomicBool;
    if let Err(prev) = STOP_PTR.compare_exchange(
        std::ptr::null_mut(),
        raw,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        // Already installed (second call): hand back the existing flag
        // and balance the refcount we just leaked.
        unsafe { drop(Arc::from_raw(raw)) };
        return unsafe {
            Arc::increment_strong_count(prev);
            Arc::from_raw(prev)
        };
    }
    imp::hook(imp::graceful_handler as *const () as usize);
    flag
}

/// Installs SIGINT/SIGTERM handlers that unlink guarded partials and
/// exit `128 + signo` on the **first** signal — for runs with nothing
/// worth finalizing.
pub fn install_oneshot() {
    imp::hook(imp::oneshot_handler as *const () as usize);
}

#[cfg(unix)]
mod imp {
    use super::*;

    pub(super) const SIGINT: i32 = 2;
    pub(super) const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn unlink(path: *const u8) -> i32;
        fn _exit(code: i32) -> !;
    }

    pub(super) fn hook(handler: usize) {
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Async-signal-safe: unlink every armed guard slot.
    fn unlink_partials() {
        for slot in &SLOTS {
            if slot.state.load(Ordering::Acquire) == SLOT_ARMED {
                unsafe { unlink((*slot.path.get()).as_ptr()) };
            }
        }
    }

    pub(super) extern "C" fn graceful_handler(sig: i32) {
        RECEIVED.store(sig, Ordering::Relaxed);
        let ptr = STOP_PTR.load(Ordering::Acquire);
        if !ptr.is_null() {
            let first = !unsafe { &*ptr }.swap(true, Ordering::SeqCst);
            if first {
                // Graceful: the run notices the flag and finalizes.
                return;
            }
        }
        unlink_partials();
        unsafe { _exit(128 + sig) }
    }

    pub(super) extern "C" fn oneshot_handler(sig: i32) {
        RECEIVED.store(sig, Ordering::Relaxed);
        unlink_partials();
        unsafe { _exit(128 + sig) }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn hook(_handler: usize) {}
    pub(super) fn graceful_handler() {}
    pub(super) fn oneshot_handler() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_claim_and_release_slots() {
        let dir = std::env::temp_dir();
        let g1 = guard_partial(&dir.join("a.part")).unwrap();
        let g2 = guard_partial(&dir.join("b.part")).unwrap();
        assert_ne!(g1.slot, g2.slot);
        let s1 = g1.slot;
        drop(g1);
        // Freed slots are reused.
        let g3 = guard_partial(&dir.join("c.part")).unwrap();
        assert_eq!(g3.slot, s1);
        drop(g2);
        drop(g3);
    }

    #[test]
    fn oversized_and_nul_paths_are_refused() {
        let long = "x".repeat(GUARD_PATH_MAX + 1);
        assert!(guard_partial(std::path::Path::new(&long)).is_none());
        assert!(guard_partial(std::path::Path::new("")).is_none());
    }

    #[test]
    fn graceful_install_is_idempotent_and_shares_one_flag() {
        let a = install_graceful();
        let b = install_graceful();
        a.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst), "both handles see one flag");
        a.store(false, Ordering::SeqCst);
    }
}
