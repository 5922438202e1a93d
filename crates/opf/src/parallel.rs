//! Scoped-thread fan-out for the workspace's embarrassingly parallel
//! loops (multistart runs, per-attack scoring, threshold sweeps).
//!
//! Built on `std::thread::scope` only — no external runtime — and
//! written so results are **independent of scheduling**: workers pull
//! indices from a shared counter but every result lands back in its
//! item's slot, so [`par_map`] returns exactly what the equivalent
//! serial `map` would, in the same order. Combined with per-item RNG
//! streams (seeded by index, never shared) this gives the workspace its
//! determinism contract: parallel output is bit-identical to serial.
//!
//! The worker count comes from [`available_threads`], which resolves
//! (highest precedence first):
//!
//! 1. the **scoped, per-call budget** ([`with_thread_budget`]) — what
//!    `MtdSession` applies around every entry point, so two sessions
//!    with different `threads(n)` settings can run concurrently in one
//!    process without racing each other;
//! 2. the `GRIDMTD_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The scoped budget is carried in a thread-local that [`par_map`]
//! re-establishes inside every worker it spawns, so nested fan-outs (a
//! parallel threshold sweep whose inner multistart also fans out)
//! inherit the budget of the call that spawned them. Nested fan-outs
//! briefly oversubscribe the machine but never deadlock, since every
//! layer spawns plain scoped threads.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Scoped per-call worker budget (0 = unset). Established by
    /// [`with_thread_budget`] and re-established inside every [`par_map`]
    /// worker, so it follows the call tree across fan-out layers.
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The scoped per-call worker budget in force on this thread, if any.
pub fn thread_budget() -> Option<usize> {
    match THREAD_BUDGET.with(Cell::get) {
        0 => None,
        n => Some(n),
    }
}

/// Runs `f` under a scoped worker budget: for the duration of the call
/// (including every nested [`par_map`] fan-out it performs, on this
/// thread or on workers those fan-outs spawn), [`available_threads`]
/// returns `budget`. `None` leaves whatever budget is already in force
/// untouched, so wrappers can apply an optional cap unconditionally.
///
/// Budgets do not race: two threads can run differently-budgeted scopes
/// concurrently and each fan-out sees exactly the budget of the call
/// tree it belongs to.
pub fn with_thread_budget<R>(budget: Option<usize>, f: impl FnOnce() -> R) -> R {
    match budget {
        None => f(),
        Some(n) => {
            let previous = THREAD_BUDGET.with(|b| b.replace(n.max(1)));
            // Restore on every exit path (including unwinds) so a
            // panicking workload cannot leak its budget into unrelated
            // work later scheduled on this thread.
            struct Restore(usize);
            impl Drop for Restore {
                fn drop(&mut self) {
                    THREAD_BUDGET.with(|b| b.set(self.0));
                }
            }
            let _restore = Restore(previous);
            f()
        }
    }
}

/// Worker count used by [`par_map`]: the scoped [`with_thread_budget`]
/// value if one is in force on this thread, else `GRIDMTD_THREADS`
/// (minimum 1), else the machine's available parallelism.
pub fn available_threads() -> usize {
    if let Some(n) = thread_budget() {
        return n;
    }
    if let Ok(v) = std::env::var("GRIDMTD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on [`available_threads`] workers, preserving
/// input order in the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(available_threads(), items, f)
}

/// [`par_map`] with a per-item state factory: `init(i, item)` builds the
/// state (typically a warm [`crate::OpfContext`]) and `f` consumes it.
///
/// The state is created fresh for every item — never shared across items
/// or workers — so the output stays bit-identical to serial no matter
/// how items are scheduled, while the many solves *within* one item
/// (a multistart run, a sweep point's OPF sequence) still warm-start
/// from each other through the state. This is the hook the declarative
/// scenario engine uses to give every sweep point its own warm context.
pub fn par_map_with<T, S, R, Init, F>(items: &[T], init: Init, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    Init: Fn(usize, &T) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map(items, |i, item| {
        let mut state = init(i, item);
        f(&mut state, i, item)
    })
}

/// [`par_map`] with an explicit worker count (`threads <= 1` runs
/// inline with no thread machinery — the serial reference path).
///
/// The output is bit-identical for every `threads` value as long as `f`
/// itself is a pure function of `(index, item)`.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    // Workers are fresh OS threads, so the caller's scoped budget must
    // be re-established inside each one for nested fan-outs to inherit
    // it (precedence is documented on `available_threads`).
    let budget = thread_budget();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    with_thread_budget(budget, || {
                        let mut produced: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            produced.push((i, f(i, &items[i])));
                        }
                        produced
                    })
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index processed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<usize> = (0..103).collect();
        let serial = par_map_threads(1, &items, |i, &v| i * 1000 + v * v);
        let parallel = par_map_threads(8, &items, |i, &v| i * 1000 + v * v);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 5 * 1000 + 25);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map_threads(4, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map_threads(4, &[7u8], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        // Float accumulation per item is self-contained, so any worker
        // count produces the same bits.
        let items: Vec<f64> = (0..64).map(|i| 0.1 * i as f64).collect();
        let reference = par_map_threads(1, &items, |i, &v| (v.sin() * i as f64).exp());
        for threads in [2, 3, 8, 64] {
            let out = par_map_threads(threads, &items, |i, &v| (v.sin() * i as f64).exp());
            assert!(reference
                .iter()
                .zip(out.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn par_map_with_gives_every_item_private_state() {
        // Each item's state starts from its own init value; mutation in
        // one item can never leak into another, so output equals the
        // serial reference for any scheduling.
        let items: Vec<usize> = (0..41).collect();
        let out = par_map_with(
            &items,
            |i, _| i * 10,
            |state, _, &v| {
                *state += v;
                *state
            },
        );
        let reference: Vec<usize> = items.iter().map(|&v| v * 10 + v).collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn scoped_budget_beats_global_and_restores() {
        // The scoped budget wins over the environment and the machine
        // inside the scope and disappears after it.
        assert_eq!(thread_budget(), None);
        let inside = with_thread_budget(Some(3), || (available_threads(), thread_budget()));
        assert_eq!(inside, (3, Some(3)));
        assert_eq!(thread_budget(), None);
        // `None` inherits the surrounding budget instead of clearing it.
        let nested = with_thread_budget(Some(2), || with_thread_budget(None, available_threads));
        assert_eq!(nested, 2);
    }

    #[test]
    fn scoped_budget_restores_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_budget(Some(5), || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn scoped_budget_propagates_into_nested_workers() {
        // Every worker of an outer fan-out (and of a fan-out nested
        // inside it) must observe the scope's budget, even though
        // workers are fresh OS threads.
        let items: Vec<usize> = (0..8).collect();
        let observed = with_thread_budget(Some(2), || {
            par_map(&items, |_, _| {
                let inner: Vec<usize> = (0..4).collect();
                let nested = par_map(&inner, |_, _| available_threads());
                (available_threads(), nested)
            })
        });
        for (outer, nested) in observed {
            assert_eq!(outer, 2);
            assert!(nested.iter().all(|&n| n == 2));
        }
    }

    #[test]
    fn concurrent_scopes_keep_independent_budgets() {
        // Scoped budgets are per call tree: two workloads built with
        // different `threads(n)` caps, run concurrently, each observe
        // exactly their own cap.
        let barrier = std::sync::Barrier::new(2);
        let items: Vec<usize> = (0..16).collect();
        let observe = |budget: usize| {
            barrier.wait();
            with_thread_budget(Some(budget), || par_map(&items, |_, _| available_threads()))
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| observe(1));
            let b = scope.spawn(|| observe(4));
            assert!(a.join().unwrap().iter().all(|&n| n == 1));
            assert!(b.join().unwrap().iter().all(|&n| n == 4));
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_threads(4, &items, |_, &v| {
                assert!(v != 9, "boom");
                v
            })
        });
        assert!(caught.is_err());
    }
}
