//! Worker-identified thread-join error propagation.
//!
//! A bare `h.join().unwrap()` on a panicked campaign worker reports
//! `Any { .. }` — no worker index, no panic message. The helpers here
//! join *every* handle first (so a panicking worker never leaves
//! siblings running when the caller unwinds mid-scope), then surface
//! the first failure as a [`WorkerPanic`] carrying the worker index and
//! the panic payload text.

use std::any::Any;
use std::fmt;
use std::thread::ScopedJoinHandle;

/// A joined worker thread had panicked.
#[derive(Debug)]
pub struct WorkerPanic {
    /// Index of the worker in the join order (the spawn order for every
    /// caller in this crate).
    pub worker: usize,
    /// The panic payload, stringified when it was a `&str`/`String`.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn payload_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Joins every handle in order and collects the results. If any worker
/// panicked, returns the *first* panic (by join order) — but only after
/// all handles have been joined, so no thread outlives the call.
///
/// The handles come as a `Vec`, so every worker was spawned before the
/// first join: a lazy iterator would join each worker before spawning
/// the next, running them one after another.
pub fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Result<Vec<T>, WorkerPanic> {
    let mut out = Vec::with_capacity(handles.len());
    let mut first: Option<WorkerPanic> = None;
    for (worker, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(v) => out.push(v),
            Err(payload) => {
                if first.is_none() {
                    first = Some(WorkerPanic {
                        worker,
                        message: payload_text(payload.as_ref()),
                    });
                }
            }
        }
    }
    match first {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn collects_results_in_join_order() {
        let got =
            std::thread::scope(|s| join_all((0..4).map(|i| s.spawn(move || i * 10)).collect()));
        assert_eq!(got.unwrap(), vec![0, 10, 20, 30]);
    }

    #[test]
    fn identifies_the_panicking_worker() {
        let err = std::thread::scope(|s| {
            join_all(
                (0..3)
                    .map(|i| {
                        s.spawn(move || {
                            if i == 1 {
                                panic!("worker {i} exploded");
                            }
                            i
                        })
                    })
                    .collect(),
            )
        })
        .unwrap_err();
        assert_eq!(err.worker, 1);
        assert!(err.message.contains("worker 1 exploded"), "{}", err.message);
        assert!(err.to_string().starts_with("worker 1 panicked:"));
    }

    #[test]
    fn joins_all_handles_even_after_a_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        // All four start together and the siblings sleep before counting,
        // so they are still running when the first worker has died and
        // been joined: a `join_all` that returned at that first panic
        // would read fewer than three. The sleep is long because a
        // process's first panic can take tens of milliseconds to unwind.
        let started = Barrier::new(4);
        let (err, joined) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (finished, started) = (&finished, &started);
                    s.spawn(move || {
                        started.wait();
                        if i == 0 {
                            panic!("first worker dies");
                        }
                        std::thread::sleep(Duration::from_millis(200));
                        finished.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            let err = join_all(handles).unwrap_err();
            // Read before the scope's own implicit join.
            (err, finished.load(Ordering::SeqCst))
        });
        assert_eq!(err.worker, 0);
        // The slow siblings were all joined before the error surfaced.
        assert_eq!(joined, 3);
    }
}
