//! The work-stealing session scheduler.
//!
//! Tenants are independent state machines whose sessions must run **in
//! order**; different tenants may run anywhere. The scheduler models
//! exactly that: each tenant lives in its own slot, a shared ready queue
//! holds the indices of tenants with a runnable next session, and idle
//! workers steal from the queue. A worker claims a tenant, runs *one*
//! session, then requeues the tenant at the tail — round-robin across the
//! fleet, serial within a tenant.
//!
//! Two properties fall out of the shape:
//!
//! * **Scheduling-independence.** A tenant's sessions run serially on
//!   whatever thread claims them, and tenants share no mutable state, so
//!   every session result is a pure function of `(tenant, session
//!   index)` — the same with 1 worker or 8.
//! * **Failure isolation.** Each session runs under
//!   [`std::panic::catch_unwind`]; a panicking or `Err`-returning session
//!   marks **its own tenant** degraded (remaining sessions are skipped)
//!   and the worker moves on. Sibling tenants never observe it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What one tenant produced: per-session results (in session order) and
/// wall-clock timings, plus the degradation marker if a session failed.
#[derive(Debug)]
pub struct TenantOutcome<R> {
    /// Results of the sessions that completed, in session order.
    pub results: Vec<R>,
    /// Wall-clock nanoseconds per completed session (same order; the
    /// degraded session, if any, is not included).
    pub session_nanos: Vec<u64>,
    /// `Some((session index, error))` if a session failed or panicked;
    /// sessions after it were skipped.
    pub degraded: Option<(usize, String)>,
}

impl<R> TenantOutcome<R> {
    fn new() -> Self {
        TenantOutcome {
            results: Vec::new(),
            session_nanos: Vec::new(),
            degraded: None,
        }
    }
}

struct Slot<T, R> {
    tenant: T,
    sessions: usize,
    next: usize,
    outcome: TenantOutcome<R>,
}

/// Render a panic payload the way `std::panic` would print it. Shared
/// with the fleet's session wrapper so a panic caught inside a recording
/// scope (to save its partial trace) degrades the tenant with exactly
/// the message the scheduler's own backstop would have produced.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("session panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("session panicked: {s}")
    } else {
        "session panicked".to_string()
    }
}

/// Run every tenant's sessions across `workers` threads and return the
/// tenants (with whatever state their sessions left behind) plus one
/// [`TenantOutcome`] per tenant, both in input order.
///
/// `sessions[i]` is tenant `i`'s session count; `run_one(tenant, s)` runs
/// session `s` (sessions of one tenant are invoked serially, in order).
/// `workers == 0` resolves to [`pipa_core::runner::default_jobs`];
/// `workers == 1` still goes through the same queue discipline, just on
/// the calling thread, so both paths exercise identical code.
///
/// A session that returns `Err` or panics degrades its tenant: the error
/// is recorded, the tenant leaves the ready queue for good, and every
/// other tenant proceeds untouched.
pub fn run_tenants<T, R, F>(
    workers: usize,
    tenants: Vec<T>,
    sessions: &[usize],
    run_one: F,
) -> (Vec<T>, Vec<TenantOutcome<R>>)
where
    T: Send,
    R: Send,
    F: Fn(&mut T, usize) -> Result<R, String> + Sync,
{
    assert_eq!(
        tenants.len(),
        sessions.len(),
        "one session count per tenant"
    );
    let workers = if workers == 0 {
        pipa_core::runner::default_jobs()
    } else {
        workers
    };

    let slots: Vec<Mutex<Slot<T, R>>> = tenants
        .into_iter()
        .zip(sessions)
        .map(|(tenant, &n)| {
            Mutex::new(Slot {
                tenant,
                sessions: n,
                next: 0,
                outcome: TenantOutcome::new(),
            })
        })
        .collect();
    let ready: Vec<usize> = (0..slots.len()).filter(|&i| sessions[i] > 0).collect();
    let live = AtomicUsize::new(ready.len());
    let queue = Mutex::new(VecDeque::from(ready));
    let idle = Condvar::new();

    let worker = || {
        loop {
            // Claim a runnable tenant, or exit once none will ever appear.
            let i = {
                let mut q = queue.lock().expect("ready queue");
                loop {
                    if let Some(i) = q.pop_front() {
                        break i;
                    }
                    if live.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    q = idle.wait(q).expect("ready queue");
                }
            };
            // The index was in exactly one place (the queue), so this
            // lock is uncontended; holding it for the session keeps the
            // tenant's state machine single-threaded.
            let mut slot = slots[i].lock().expect("tenant slot");
            let s = slot.next;
            slot.next += 1;
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| run_one(&mut slot.tenant, s)));
            let nanos = started.elapsed().as_nanos() as u64;
            match result {
                Ok(Ok(r)) => {
                    slot.outcome.results.push(r);
                    slot.outcome.session_nanos.push(nanos);
                }
                Ok(Err(e)) => slot.outcome.degraded = Some((s, e)),
                Err(payload) => slot.outcome.degraded = Some((s, panic_message(payload))),
            }
            let finished = slot.outcome.degraded.is_some() || slot.next == slot.sessions;
            drop(slot);
            if finished {
                if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last tenant done: wake every parked worker to exit.
                    // The notify must happen with the queue lock held —
                    // a waiter releases that lock atomically with parking
                    // in `idle.wait`, so taking it here means the wake
                    // cannot land in the window between a waiter's `live`
                    // check and its park (a lost wake-up would sleep that
                    // worker forever, since nothing notifies afterwards).
                    let _q = queue.lock().expect("ready queue");
                    idle.notify_all();
                }
            } else {
                queue.lock().expect("ready queue").push_back(i);
                idle.notify_one();
            }
        }
    };

    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers.min(slots.len().max(1)) {
                scope.spawn(worker);
            }
        });
    }

    slots
        .into_iter()
        .map(|m| {
            let slot = m.into_inner().expect("tenant slot");
            (slot.tenant, slot.outcome)
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tenant whose sessions append to its own log; session results
    /// depend only on (tenant id, session index, prior sessions).
    struct Counter {
        id: usize,
        log: Vec<usize>,
    }

    fn run(workers: usize, n_tenants: usize, n_sessions: usize) -> Vec<TenantOutcome<String>> {
        let tenants: Vec<Counter> = (0..n_tenants)
            .map(|id| Counter { id, log: vec![] })
            .collect();
        let (tenants, outcomes) = run_tenants(
            workers,
            tenants,
            &vec![n_sessions; n_tenants],
            |t: &mut Counter, s| {
                t.log.push(s);
                Ok(format!("t{}s{}len{}", t.id, s, t.log.len()))
            },
        );
        for t in &tenants {
            assert_eq!(
                t.log,
                (0..n_sessions).collect::<Vec<_>>(),
                "in-order sessions"
            );
        }
        outcomes
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let a: Vec<Vec<String>> = run(1, 5, 4).into_iter().map(|o| o.results).collect();
        for workers in [2, 8] {
            let b: Vec<Vec<String>> = run(workers, 5, 4).into_iter().map(|o| o.results).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn empty_fleet_and_sessionless_tenants() {
        let (t, o) = run_tenants::<u8, (), _>(4, vec![], &[], |_, _| Ok(()));
        assert!(t.is_empty() && o.is_empty());
        let (_, o) = run_tenants(4, vec![1u8, 2], &[0, 2], |t, s| Ok(*t as usize + s));
        assert!(o[0].results.is_empty());
        assert_eq!(o[1].results, vec![2, 3]);
    }

    #[test]
    fn a_panicking_tenant_degrades_alone() {
        for workers in [1, 4] {
            let (_, outcomes) = run_tenants(
                workers,
                vec![0usize, 1, 2],
                &[3, 3, 3],
                |t: &mut usize, s| {
                    if *t == 1 && s == 1 {
                        panic!("tenant 1 blew up");
                    }
                    Ok(s * 10)
                },
            );
            assert_eq!(outcomes[0].results, vec![0, 10, 20]);
            assert_eq!(outcomes[2].results, vec![0, 10, 20]);
            // Tenant 1 completed session 0, then degraded at session 1.
            assert_eq!(outcomes[1].results, vec![0]);
            let (at, msg) = outcomes[1].degraded.as_ref().expect("degraded");
            assert_eq!(*at, 1);
            assert!(msg.contains("tenant 1 blew up"), "{msg}");
            assert!(outcomes[0].degraded.is_none() && outcomes[2].degraded.is_none());
        }
    }

    #[test]
    fn an_err_session_skips_the_tenants_remaining_sessions() {
        let calls = Mutex::new(Vec::new());
        let (_, outcomes) = run_tenants(2, vec![0usize, 1], &[4, 4], |t: &mut usize, s| {
            calls.lock().unwrap().push((*t, s));
            if *t == 0 && s == 2 {
                Err("replay miss".to_string())
            } else {
                Ok(s)
            }
        });
        assert_eq!(outcomes[0].results, vec![0, 1]);
        assert_eq!(outcomes[0].degraded, Some((2, "replay miss".to_string())));
        assert_eq!(outcomes[1].results, vec![0, 1, 2, 3]);
        // Session 3 of tenant 0 never ran.
        assert!(!calls.lock().unwrap().contains(&(0, 3)));
    }

    #[test]
    fn shutdown_never_strands_a_parked_worker() {
        // Regression for a lost-wakeup deadlock: the final notify_all
        // used to fire without the queue lock, so a worker that had just
        // seen an empty queue and `live != 0` but not yet parked missed
        // the only wake-up and slept forever. Many tiny fleets with more
        // workers than work maximize the odds of hitting that window.
        for round in 0..200usize {
            let n = 1 + round % 3;
            let (_, outcomes) = run_tenants(8, vec![0usize; n], &vec![1; n], |_, s| Ok(s));
            assert_eq!(outcomes.len(), n, "round {round}");
        }
    }

    #[test]
    fn timings_cover_exactly_the_completed_sessions() {
        let o = run(3, 2, 5);
        for out in o {
            assert_eq!(out.session_nanos.len(), out.results.len());
        }
    }
}
