//! Dependency-free parallel experiment driver.
//!
//! The program × machine × variant experiment matrix is embarrassingly
//! parallel: every cell compiles and emulates in isolation. This module
//! fans a work list across OS threads with [`std::thread::scope`] — no
//! external crates — while keeping the *result order deterministic*:
//! `map_ordered` always returns `f(0), f(1), …` in item order, whatever
//! order the workers finished in. Golden outputs therefore regenerate
//! byte-identical at any `--jobs` level.
//!
//! Workers pull the next item index from a shared atomic counter
//! (work-stealing by index), so uneven item costs — `vpcc` runs an order
//! of magnitude longer than `wc` — still load-balance.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller passes `jobs = 0`
/// ("auto"): the machine's available parallelism, or 1 if unknown.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A worker closure panicked while processing one item. The panic is
/// caught inside the worker — the other items still complete and the
/// pool stays alive — and surfaces to the caller as this typed value
/// instead of unwinding through `std::thread::scope`.
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic message (`&str`/`String` payloads; a placeholder for
    /// any other payload type).
    pub message: String,
    /// The original payload, kept so [`WorkerPanic::resume`] can rethrow
    /// it unchanged.
    payload: Box<dyn Any + Send>,
}

impl WorkerPanic {
    fn new(index: usize, payload: Box<dyn Any + Send>) -> WorkerPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerPanic {
            index,
            message,
            payload,
        }
    }

    /// Rethrow the original panic on the calling thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPanic")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

/// Apply `f` to every item of `items` across `jobs` worker threads and
/// return the results **in item order**. `jobs = 0` means auto-detect;
/// `jobs = 1` runs inline on the calling thread with no thread overhead.
///
/// `f` receives `(index, &item)`. A panic in any worker propagates to
/// the caller (the original payload is rethrown on the calling thread,
/// lowest item index first) after every other item has completed — it
/// never aborts the process or loses the siblings' work. Callers that
/// need the panic as a value use [`try_map_ordered`].
pub fn map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in try_map_ordered(items, jobs, f) {
        match r {
            Ok(v) => out.push(v),
            Err(p) => p.resume(),
        }
    }
    out
}

/// [`map_ordered`] with panic isolation: each item's result is `Ok(R)`
/// or the [`WorkerPanic`] its closure raised. Workers never die — a
/// panicking item is caught with [`std::panic::catch_unwind`], recorded,
/// and the worker moves on to the next item — so a long-lived pool (the
/// `br-serve` daemon, the torture driver) survives a panicking job and
/// can report it as a typed error response.
pub fn try_map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let call = |i: usize, t: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|payload| WorkerPanic::new(i, payload))
    };
    let jobs = if jobs == 0 { available_jobs() } else { jobs };
    let jobs = jobs.min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| call(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, WorkerPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = call(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [0, 1, 2, 7] {
            let out = map_ordered(&items, jobs, |i, &x| {
                // Make late items finish first to stress ordering.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                x * 2
            });
            let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_lists() {
        let none: Vec<i32> = Vec::new();
        assert!(map_ordered(&none, 4, |_, &x| x).is_empty());
        assert_eq!(map_ordered(&[9], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = map_ordered(&[1, 2, 3], 64, |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn auto_jobs_detects_at_least_one() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn panicking_worker_surfaces_as_typed_error_and_siblings_complete() {
        let items: Vec<u32> = (0..40).collect();
        for jobs in [1, 2, 8] {
            let out = try_map_ordered(&items, jobs, |_, &x| {
                if x == 17 {
                    panic!("boom on {x}");
                }
                x + 1
            });
            assert_eq!(out.len(), items.len(), "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 17 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 17);
                    assert_eq!(p.message, "boom on 17");
                    assert_eq!(p.to_string(), "worker panicked on item 17: boom on 17");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 + 1, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn map_ordered_rethrows_the_earliest_panic_on_the_caller() {
        for jobs in [1, 4] {
            let items: Vec<u32> = (0..20).collect();
            let err = std::panic::catch_unwind(|| {
                map_ordered(&items, jobs, |_, &x| {
                    if x >= 5 {
                        panic!("item {x}");
                    }
                    x
                })
            })
            .expect_err("panic must propagate");
            // Deterministic: always the lowest panicking index's payload.
            let msg = err
                .downcast_ref::<String>()
                .expect("string payload survives the rethrow");
            assert_eq!(msg, "item 5", "jobs={jobs}");
        }
    }

    #[test]
    fn non_string_panic_payload_gets_placeholder_message() {
        let out = try_map_ordered(&[0u8], 1, |_, _| -> u8 {
            std::panic::panic_any(7usize);
        });
        let p = out.into_iter().next().unwrap().unwrap_err();
        assert_eq!(p.message, "non-string panic payload");
    }
}
