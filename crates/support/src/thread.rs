//! Scoped-thread and synchronization shims over the standard library.
//!
//! The API mirrors the external crates these replaced at their call
//! sites: [`scope`] works like the crossbeam scope (modulo the closure
//! taking no argument and the result not being wrapped in a
//! `Result`), and [`Mutex`] is a `std::sync::Mutex` whose `lock()`
//! returns the guard directly, treating poisoning as recoverable the
//! way parking_lot does.

use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::PoisonError;

pub use std::sync::mpsc::{channel, Receiver, Sender};
pub use std::thread::{Scope, ScopedJoinHandle};

/// A fixed-capacity Chase-Lev work-stealing deque over plain `u64`
/// payloads: the owning worker pushes and pops at the bottom (LIFO, so
/// it keeps working the subtree it just split), thieves steal from the
/// top (FIFO, so they take the *oldest* — largest — pending task).
///
/// The payload is a bare `u64` (callers pack their task encoding into
/// it), which lets the buffer be a ring of `AtomicU64` slots and the
/// whole structure safe Rust: the one classically racy read — a thief
/// loading a slot the owner is concurrently recycling after the ring
/// wrapped — is an atomic load of a stale value whose `top` CAS then
/// fails, exactly the resolution the original algorithm relies on.
///
/// Capacity is fixed at construction (rounded up to a power of two):
/// [`push`](Self::push) reports `false` when the ring is full and the
/// caller simply keeps the task for itself — in a recursive search
/// "run it inline" is always a correct fallback, and a bounded ring
/// keeps the scheduler allocation-free after setup.
#[derive(Debug)]
pub struct WorkDeque {
    buf: Vec<AtomicU64>,
    mask: i64,
    /// Next steal position; only ever incremented (by a successful
    /// steal's CAS or the owner claiming the last element).
    top: AtomicI64,
    /// Next push position; written only by the owner.
    bottom: AtomicI64,
}

impl WorkDeque {
    /// A deque holding at most `capacity` tasks (rounded up to a power
    /// of two, at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        WorkDeque {
            buf: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as i64 - 1,
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
        }
    }

    fn slot(&self, index: i64) -> &AtomicU64 {
        &self.buf[(index & self.mask) as usize]
    }

    /// Owner-only: pushes `task` at the bottom. Returns `false` (task
    /// not enqueued) when the ring is full.
    pub fn push(&self, task: u64) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buf.len() as i64 {
            return false;
        }
        self.slot(b).store(task, Ordering::Relaxed);
        // the Release pairs with the thief's Acquire load of `bottom`:
        // a thief that observes b+1 also observes the slot write
        self.bottom.store(b + 1, Ordering::Release);
        true
    }

    /// Owner-only: pops the most recently pushed task, racing thieves
    /// for the last element.
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // full fence: the bottom decrement must be globally visible
        // before we read `top`, or a concurrent thief and the owner
        // could both claim the same last element
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // empty: undo the reservation
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let task = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // last element: win it via the same CAS thieves use
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(task);
        }
        Some(task)
    }

    /// Thief: steals the oldest task. `None` means empty *or* lost a
    /// race — callers treat both as "nothing taken, look elsewhere".
    pub fn steal(&self) -> Option<u64> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let task = self.slot(t).load(Ordering::Relaxed);
        // the CAS validates the read: if the owner recycled the slot
        // (ring wrapped) or another thief won, `top` moved and we fail
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
            .then_some(task)
    }

    /// `true` when the deque currently holds no tasks (advisory under
    /// concurrency, exact when the owner is quiescent).
    pub fn is_empty(&self) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        t >= b
    }
}

/// Spawns scoped threads that may borrow from the enclosing stack
/// frame; joins them all before returning.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

/// A mutex whose `lock()` never forces the caller to handle
/// poisoning: a panic while holding the lock leaves the data
/// accessible to later lockers.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value` in a mutex.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_joins_and_returns() {
        let data = [1u32, 2, 3, 4];
        let total: u32 = scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move || chunk.iter().sum::<u32>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 10);
    }

    #[test]
    fn channel_reexport_works_across_scope() {
        let (tx, rx) = channel();
        scope(|s| {
            for i in 0..4u32 {
                let tx = tx.clone();
                s.spawn(move || tx.send(i).unwrap());
            }
        });
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    crate::check! {
        #![config(cases = 128)]

        /// Any interleaving of owner pushes/pops and (serialized) steals
        /// hands back exactly the accepted pushes — no loss, no
        /// duplication — with shrinking finding a minimal op script.
        #[test]
        fn work_deque_is_a_permutation_of_pushes(
            cap in crate::check::select(vec![2usize, 3, 5, 8]),
            script in crate::check::collection::vec(0u8..=255, 0..64),
        ) {
            let d = WorkDeque::new(cap);
            let mut pushed = Vec::new();
            let mut out = Vec::new();
            let mut next = 0u64;
            for op in script {
                match op {
                    0..=149 => {
                        if d.push(next) {
                            pushed.push(next);
                            next += 1;
                        }
                    }
                    150..=199 => out.extend(d.pop()),
                    _ => out.extend(d.steal()),
                }
            }
            while let Some(v) = d.pop() {
                out.push(v);
            }
            out.sort_unstable();
            crate::prop_assert_eq!(out, pushed);
        }
    }

    #[test]
    fn work_deque_empty_steal_and_pop() {
        let d = WorkDeque::new(8);
        assert!(d.is_empty());
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
        // stays usable after the empty probes
        assert!(d.push(7));
        assert_eq!(d.pop(), Some(7));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn work_deque_owner_is_lifo_thief_is_fifo() {
        let d = WorkDeque::new(8);
        for v in 1..=4u64 {
            assert!(d.push(v));
        }
        assert_eq!(d.steal(), Some(1), "thief takes the oldest");
        assert_eq!(d.pop(), Some(4), "owner takes the newest");
        assert_eq!(d.steal(), Some(2));
        assert_eq!(d.pop(), Some(3));
        assert!(d.is_empty());
    }

    #[test]
    fn work_deque_full_push_fails_at_capacity_boundary() {
        // capacity rounds up to a power of two; the boundary push fails
        // and the deque still drains exactly what was accepted
        let d = WorkDeque::new(3);
        let mut accepted = 0u64;
        while d.push(100 + accepted) {
            accepted += 1;
        }
        assert_eq!(accepted, 4, "3 rounds up to 4 slots");
        assert!(!d.push(999), "full deque keeps rejecting");
        // freeing one slot re-enables pushing
        assert_eq!(d.steal(), Some(100));
        assert!(d.push(999));
        let mut drained = Vec::new();
        while let Some(v) = d.pop() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![101, 102, 103, 999]);
    }

    #[test]
    fn work_deque_single_item_owner_thief_race() {
        // the classic Chase-Lev corner: one element, owner popping while
        // a thief steals — exactly one side may win it, never both/none
        for _ in 0..200 {
            let d = WorkDeque::new(4);
            assert!(d.push(42));
            let (popped, stolen) = scope(|s| {
                let thief = s.spawn(|| d.steal());
                let popped = d.pop();
                (popped, thief.join().unwrap())
            });
            match (popped, stolen) {
                (Some(42), None) | (None, Some(42)) => {}
                other => panic!("single element claimed {other:?}"),
            }
        }
    }

    #[test]
    fn work_deque_steal_after_owner_abandons_work() {
        // a worker that halts (budget exhaustion) stops draining; the
        // tasks it leaves behind stay stealable by everyone else
        let d = WorkDeque::new(16);
        for v in 0..10u64 {
            assert!(d.push(v));
        }
        d.pop(); // owner ran one task, then halted
        let taken = Mutex::new(Vec::new());
        scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while let Some(v) = d.steal() {
                        taken.lock().push(v);
                    }
                });
            }
        });
        let mut got = taken.into_inner();
        got.sort_unstable();
        assert_eq!(got, (0..9u64).collect::<Vec<_>>());
        assert!(d.is_empty());
    }

    #[test]
    fn work_deque_concurrent_hammer_hands_out_each_task_once() {
        const TASKS: u64 = 2000;
        let d = WorkDeque::new(64);
        let seen = Mutex::new(vec![0u32; TASKS as usize]);
        scope(|s| {
            // three thieves churn while the owner pushes and pops
            for _ in 0..3 {
                s.spawn(|| loop {
                    match d.steal() {
                        Some(u64::MAX) => break,
                        Some(v) => seen.lock()[v as usize] += 1,
                        None => std::thread::yield_now(),
                    }
                });
            }
            let mut next = 0u64;
            while next < TASKS {
                if d.push(next) {
                    next += 1;
                } else if let Some(v) = d.pop() {
                    seen.lock()[v as usize] += 1;
                }
            }
            while let Some(v) = d.pop() {
                seen.lock()[v as usize] += 1;
            }
            // poison pills release the thieves (one each; a thief exits
            // after eating one)
            let mut pills = 0;
            while pills < 3 {
                if d.push(u64::MAX) {
                    pills += 1;
                }
            }
        });
        assert!(
            seen.lock().iter().all(|&c| c == 1),
            "every task claimed exactly once"
        );
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
