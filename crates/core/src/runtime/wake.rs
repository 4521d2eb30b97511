//! [`WakeSlot`]: the one park/wake primitive — the pool's workers and
//! waiters park on it — a futex word on Linux, a mutex + condvar everywhere
//! else.
//!
//! # Why not just the condvar
//!
//! The worker pool's per-launch handoff (submit → wake a worker → worker
//! claims) and completion handoff (last participant → wake the waiter) both
//! went through `std::sync::Condvar`. A condvar wake takes the associated
//! mutex on the waiter's way out and round-trips through the parking-lot
//! machinery; on small engines that latency dominates the dispatch tail
//! (`runtime.wake_us_p50` in `benchmark/` is the number to watch). A raw
//! futex word needs no mutex to *wait* — the kernel compares the word and
//! sleeps atomically — so the completion wait in
//! `WorkerPool::help_and_wait` becomes entirely lock-free, and wake-ups are
//! one `FUTEX_WAKE` syscall with no mutex handoff.
//!
//! # The epoch protocol
//!
//! A [`WakeSlot`] holds a 32-bit *epoch* counter. The coordination contract
//! (the same one condvars have, made explicit):
//!
//! 1. A waiter reads [`WakeSlot::epoch`] **while holding the mutex that
//!    guards the predicate** (or, for lock-free predicates like a `done`
//!    flag, before re-checking the predicate), re-checks the predicate, and
//!    if it must block calls [`WakeSlot::wait`] with that epoch — which
//!    returns immediately if the epoch has moved on.
//! 2. A waker makes the predicate true, calls [`WakeSlot::bump`] while the
//!    predicate's guard is still held (so the bump cannot slip between a
//!    waiter's predicate check and its `wait`), then calls
//!    [`WakeSlot::wake_one`]/[`WakeSlot::wake_all`] — after dropping the
//!    guard, if it likes.
//!
//! [`WakeSlot::wait`] may return spuriously; callers always loop around
//! their predicate, exactly as with a condvar.
//!
//! # Platform gating
//!
//! The futex implementation is behind
//! `#[cfg(all(feature = "futex", target_os = "linux", target_arch =
//! "x86_64"))]` — a raw `syscall` instruction, no new dependencies. The
//! `futex` feature is on by default; building with
//! `--no-default-features` (or on any other platform) selects the condvar
//! fallback, which implements the identical epoch protocol.

use std::sync::atomic::{AtomicU32, Ordering};

/// Futex-word implementation: the epoch *is* the futex word.
#[cfg(all(feature = "futex", target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::{AtomicU32, Ordering};

    const SYS_FUTEX: i64 = 202;
    /// `FUTEX_WAIT | FUTEX_PRIVATE_FLAG` — private: all waiters share this
    /// process, sparing the kernel the cross-process hash lookup.
    const FUTEX_WAIT_PRIVATE: u64 = 128;
    /// `FUTEX_WAKE | FUTEX_PRIVATE_FLAG`.
    const FUTEX_WAKE_PRIVATE: u64 = 1 | 128;

    pub(super) struct Imp {
        epoch: AtomicU32,
    }

    impl Imp {
        pub(super) fn new() -> Imp {
            Imp { epoch: AtomicU32::new(0) }
        }

        pub(super) fn epoch(&self) -> u32 {
            self.epoch.load(Ordering::Acquire)
        }

        pub(super) fn bump(&self) {
            self.epoch.fetch_add(1, Ordering::Release);
        }

        pub(super) fn wait(&self, epoch: u32) {
            if self.epoch.load(Ordering::Acquire) != epoch {
                return;
            }
            // FUTEX_WAIT re-checks `word == epoch` inside the kernel before
            // sleeping, atomically with respect to FUTEX_WAKE — a bump
            // between our load above and the syscall makes it return
            // immediately (EAGAIN). Errors (EINTR included) surface as a
            // spurious return; callers loop on their predicate.
            // SAFETY: `self.epoch` is a live futex word for the whole call,
            // and FUTEX_WAIT only reads it.
            unsafe { futex(&self.epoch, FUTEX_WAIT_PRIVATE, epoch as u64) };
        }

        pub(super) fn wake_one(&self) {
            // SAFETY: `self.epoch` is a live futex word for the whole call,
            // and FUTEX_WAKE touches no memory of this process.
            unsafe { futex(&self.epoch, FUTEX_WAKE_PRIVATE, 1) };
        }

        pub(super) fn wake_all(&self) {
            // SAFETY: as in `wake_one`.
            unsafe { futex(&self.epoch, FUTEX_WAKE_PRIVATE, i32::MAX as u64) };
        }
    }

    /// Raw `futex(word, op, val, NULL, ...)` syscall. The last two futex
    /// arguments (`uaddr2`, `val3`) are ignored by WAIT/WAKE and left unset.
    ///
    /// # Safety
    ///
    /// `word` must outlive the call (guaranteed: it's a reference). The
    /// syscall itself cannot corrupt process state for WAIT/WAKE ops.
    unsafe fn futex(word: &AtomicU32, op: u64, val: u64) -> i64 {
        let ret: i64;
        // SAFETY: x86_64 Linux syscall ABI — args in rdi/rsi/rdx/r10, number
        // in rax, return in rax; rcx and r11 are clobbered by `syscall`.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_FUTEX => ret,
                in("rdi") word.as_ptr(),
                in("rsi") op,
                in("rdx") val,
                in("r10") 0u64, // timeout = NULL: wait indefinitely
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

/// Condvar fallback: same epoch protocol, portable everywhere. The internal
/// mutex protects only the park/notify race (a waker takes it briefly before
/// notifying, so a waiter that saw a stale epoch is already parked).
#[cfg(not(all(feature = "futex", target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::{AtomicU32, Ordering};
    use std::sync::{Condvar, Mutex};

    pub(super) struct Imp {
        epoch: AtomicU32,
        lock: Mutex<()>,
        cv: Condvar,
    }

    impl Imp {
        pub(super) fn new() -> Imp {
            Imp { epoch: AtomicU32::new(0), lock: Mutex::new(()), cv: Condvar::new() }
        }

        pub(super) fn epoch(&self) -> u32 {
            self.epoch.load(Ordering::Acquire)
        }

        pub(super) fn bump(&self) {
            self.epoch.fetch_add(1, Ordering::Release);
        }

        pub(super) fn wait(&self, epoch: u32) {
            let mut guard = self.lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            while self.epoch.load(Ordering::Acquire) == epoch {
                guard = self.cv.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }

        pub(super) fn wake_one(&self) {
            // Lock-then-notify: a waiter between its epoch check and its
            // park holds the lock, so by the time we acquire it the waiter
            // is parked (and gets the notify) or not yet locked (and will
            // see the bumped epoch).
            drop(self.lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner()));
            self.cv.notify_one();
        }

        pub(super) fn wake_all(&self) {
            drop(self.lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner()));
            self.cv.notify_all();
        }
    }
}

/// An epoch-counted park/wake slot: futex-backed on Linux x86_64 (with the
/// default `futex` feature), condvar-backed elsewhere. See the
/// [module docs](self) for the protocol.
pub(crate) struct WakeSlot {
    imp: imp::Imp,
}

impl WakeSlot {
    /// A fresh slot at epoch zero.
    pub(crate) fn new() -> WakeSlot {
        WakeSlot { imp: imp::Imp::new() }
    }

    /// The current epoch. Read it under the mutex that guards the waited-on
    /// predicate (or before re-checking a lock-free predicate), then pass it
    /// to [`WakeSlot::wait`].
    pub(crate) fn epoch(&self) -> u32 {
        self.imp.epoch()
    }

    /// Block until the epoch moves past `epoch` — or spuriously; callers
    /// loop around their predicate. Returns immediately if the epoch has
    /// already moved.
    pub(crate) fn wait(&self, epoch: u32) {
        self.imp.wait(epoch);
    }

    /// Advance the epoch. Call while the predicate's guard is still held so
    /// the bump cannot fall between a waiter's predicate check and its
    /// `wait`.
    pub(crate) fn bump(&self) {
        self.imp.bump();
    }

    /// Wake one waiter (callable after the guard is dropped).
    pub(crate) fn wake_one(&self) {
        self.imp.wake_one();
    }

    /// Wake every waiter (callable after the guard is dropped).
    pub(crate) fn wake_all(&self) {
        self.imp.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn wait_returns_immediately_on_stale_epoch() {
        let slot = WakeSlot::new();
        let epoch = slot.epoch();
        slot.bump();
        let start = Instant::now();
        slot.wait(epoch); // epoch already moved: must not block
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_ne!(slot.epoch(), epoch);
    }

    #[test]
    fn bump_then_wake_releases_a_parked_waiter() {
        let slot = Arc::new(WakeSlot::new());
        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let slot = Arc::clone(&slot);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                // Condvar discipline: loop on the predicate (here: "epoch
                // has moved past the one we captured").
                let epoch = slot.epoch();
                while slot.epoch() == epoch {
                    slot.wait(epoch);
                }
                released.store(true, Ordering::SeqCst);
            })
        };
        // Give the waiter a chance to park, then wake it.
        std::thread::sleep(Duration::from_millis(20));
        slot.bump();
        slot.wake_all();
        waiter.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn wake_one_chains_across_many_waiters() {
        let slot = Arc::new(WakeSlot::new());
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let woken = Arc::clone(&woken);
                std::thread::spawn(move || {
                    let epoch = slot.epoch();
                    while slot.epoch() == epoch {
                        slot.wait(epoch);
                    }
                    woken.fetch_add(1, Ordering::SeqCst);
                    // Notify-one chain: each released waiter wakes the next.
                    slot.wake_one();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        slot.bump();
        slot.wake_one();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::SeqCst), 4);
    }
}
