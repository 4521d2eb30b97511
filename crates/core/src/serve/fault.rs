//! Fault injection for chaos-testing the serving stack, compiled only under
//! `cfg(test)` or the `fault-injection` feature. The hooks are global, armed
//! countdowns consumed by **kernel-job entries** — where a pool participant
//! is about to run a compiled kernel, exactly where a real crash in generated
//! code would surface. Under them a panicked kernel job fails only its own
//! request (a typed [`crate::serve::ServerResponse::Failed`]), and the server
//! stays usable.
//!
//! Because the state is process-global, tests that arm faults must
//! serialize through [`exclusive`] and should compute any reference results
//! **before** arming — every kernel-job entry in the process consumes
//! tickets, including plain [`crate::JitSpmm::execute`] calls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The panic message of an injected kernel fault; chaos tests match on it
/// to tell injected failures from real ones.
pub const INJECTED_PANIC: &str = "fault-injection: kernel job panic";

/// Fast-path switch: kernel entries load this (relaxed) and return when no
/// fault is armed, so the hook costs one atomic load in the common case.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Fire a panic on the Nth kernel entry from arming: the countdown starts
/// at N and the entry that decrements it to zero panics. 0 = disarmed.
static PANIC_COUNTDOWN: AtomicU64 = AtomicU64::new(0);

/// How many upcoming kernel entries sleep before running, and for how long.
static DELAY_TICKETS: AtomicU64 = AtomicU64::new(0);
static DELAY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Serializes fault-armed tests; faults are process-global state.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Holds the fault-injection lock; disarms everything when dropped, so a
/// panicking test cannot leak an armed fault into the next one.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Take the process-wide fault-injection lock (disarming any leftovers from
/// a previous holder). Every test that arms faults must hold one of these
/// for its whole duration.
pub fn exclusive() -> FaultGuard {
    let lock = EXCLUSIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    disarm();
    FaultGuard { _lock: lock }
}

/// Arm a one-shot panic on the `nth` kernel-job entry from now (1 = the
/// very next one). Exactly one entry fires, however many race.
pub fn arm_kernel_panic(nth: u64) {
    PANIC_COUNTDOWN.store(nth.max(1), Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Make the next `count` kernel-job entries sleep `delay` before running —
/// a slow launch (or one slow shard of one), for ordering tests.
pub fn arm_kernel_delay(delay: Duration, count: u64) {
    DELAY_NANOS.store(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX), Ordering::SeqCst);
    DELAY_TICKETS.store(count, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Clear every armed fault.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    PANIC_COUNTDOWN.store(0, Ordering::SeqCst);
    DELAY_TICKETS.store(0, Ordering::SeqCst);
    DELAY_NANOS.store(0, Ordering::SeqCst);
}

/// The hook: called at every kernel-job entry (`KernelJob::run`). No-op
/// unless a fault is armed.
pub(crate) fn kernel_entry() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    // Slow-launch tickets: each claims one and sleeps.
    loop {
        let left = DELAY_TICKETS.load(Ordering::SeqCst);
        if left == 0 {
            break;
        }
        if DELAY_TICKETS
            .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            std::thread::sleep(Duration::from_nanos(DELAY_NANOS.load(Ordering::SeqCst)));
            break;
        }
    }
    // Panic countdown: the entry that claims ticket 1 fires, exactly once.
    loop {
        let left = PANIC_COUNTDOWN.load(Ordering::SeqCst);
        if left == 0 {
            break;
        }
        if PANIC_COUNTDOWN
            .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            if left == 1 {
                panic!("{INJECTED_PANIC}");
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once_on_the_nth_entry() {
        let _guard = exclusive();
        arm_kernel_panic(3);
        kernel_entry();
        kernel_entry();
        let fired = std::panic::catch_unwind(kernel_entry);
        assert!(fired.is_err(), "third entry fires the armed panic");
        // Spent: later entries are clean again.
        kernel_entry();
        kernel_entry();
    }

    #[test]
    fn delay_tickets_are_consumed_per_entry() {
        let _guard = exclusive();
        arm_kernel_delay(Duration::from_millis(1), 2);
        let start = std::time::Instant::now();
        kernel_entry();
        kernel_entry();
        assert!(start.elapsed() >= Duration::from_millis(2));
        assert_eq!(DELAY_TICKETS.load(Ordering::SeqCst), 0);
        // Spent tickets: no further sleeping (bounded by being instant-ish;
        // just assert it runs).
        kernel_entry();
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _guard = exclusive();
            arm_kernel_panic(1);
        }
        let _guard = exclusive();
        assert!(!ARMED.load(Ordering::SeqCst));
        kernel_entry();
    }
}
