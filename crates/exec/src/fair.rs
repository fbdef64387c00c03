//! Fair admission: a per-tenant deficit round-robin gate.
//!
//! Left alone, whoever asks first runs first — exactly wrong once many
//! tenants share one machine: a tenant with ten thousand requests in
//! flight starves everyone behind it. [`FairScheduler`] meters who may
//! proceed instead. [`admit`] waits in the tenant's bounded FIFO queue
//! until a deficit round-robin pass (Shreedhar & Varghese's DRR, the
//! classic packet-scheduling discipline) grants it an in-flight slot,
//! then returns an [`Admission`] guard. Every visit tops a tenant's
//! deficit up by one quantum; a waiter of cost `c` may only pass when
//! the deficit covers `c`. Over any window, tenants with waiters
//! therefore share admitted cost equally, no matter how unbalanced
//! their arrival rates are.
//!
//! The gate runs nothing itself: no task, no channel, no pool hop. The
//! admitted work runs on the thread that called [`admit`], which was
//! going to wait for the answer anyway. A caller that finds a free slot
//! and no queue ahead of it is admitted without ever parking.
//!
//! Two bounds make it a backpressure device as well as a fairness one:
//!
//! * a **per-tenant queue cap** — a full queue refuses [`admit`] at
//!   once with [`Refused::Saturated`], which the server layer turns
//!   into `Nack::Overloaded` (the client backs off; nothing blocks), and
//! * a **global in-flight cap** — at most `max_inflight` admissions are
//!   held at once, so a burst never oversubscribes the cores and the
//!   DRR pass, not the OS scheduler, decides who runs next.
//!
//! The slot is given back when the [`Admission`] drops, during an
//! unwind too, so a panicking admitted section cannot wedge the gate.
//!
//! [`admit`]: FairScheduler::admit

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// Tuning knobs for a [`FairScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct FairPolicy {
    /// Deficit added per round-robin visit. Costs are caller-defined
    /// units (the server layer passes virtual nanoseconds); a tenant
    /// whose head waiter costs more than one quantum simply waits more
    /// visits — expensive work is amortised, never refused.
    pub quantum: u64,
    /// Per-tenant queue bound; a full queue refuses `admit`.
    pub queue_cap: usize,
    /// Admissions held at once.
    pub max_inflight: usize,
}

impl Default for FairPolicy {
    fn default() -> FairPolicy {
        FairPolicy {
            quantum: 1_000_000,
            queue_cap: 64,
            max_inflight: 0, // 0 = twice `available_parallelism`
        }
    }
}

/// Why `admit` did not admit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The tenant's queue was full; refused at once, without waiting.
    Saturated {
        /// The tenant whose queue was full.
        key: u64,
        /// The queue bound it hit.
        cap: usize,
    },
    /// [`FairScheduler::purge`] dropped the waiter before its turn.
    Purged {
        /// The purged tenant.
        key: u64,
    },
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refused::Saturated { key, cap } => {
                write!(f, "tenant {key} queue full ({cap} waiting)")
            }
            Refused::Purged { key } => write!(f, "tenant {key} purged while waiting"),
        }
    }
}

impl std::error::Error for Refused {}

/// A tenant's scheduler-side counters, snapshotted under the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Waiters accepted into the queue.
    pub submitted: u64,
    /// Admissions given back (dropped, or unwound).
    pub completed: u64,
    /// `admit` calls refused with [`Refused::Saturated`].
    pub rejected: u64,
    /// Waiters queued, not yet admitted.
    pub queued: usize,
    /// Admissions held right now.
    pub inflight: usize,
}

const WAITING: u8 = 0;
const GRANTED: u8 = 1;
const PURGED: u8 = 2;

/// One queued `admit` call: the verdict it waits for and the thread to
/// wake once the verdict is in.
struct Ticket {
    verdict: AtomicU8,
    thread: Thread,
}

impl Ticket {
    /// Called under the state lock. The `Release` store pairs with the
    /// `Acquire` load in `admit`, so a woken waiter sees every update the
    /// deciding thread made before it, including the slot accounting.
    fn decide(&self, verdict: u8) {
        self.verdict.store(verdict, Ordering::Release);
        self.thread.unpark();
    }
}

struct Tenant {
    queue: VecDeque<(u64, Arc<Ticket>)>,
    deficit: u64,
    in_ring: bool,
    inflight: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
}

impl Tenant {
    fn new() -> Tenant {
        Tenant {
            queue: VecDeque::new(),
            deficit: 0,
            in_ring: false,
            inflight: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
        }
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.inflight == 0
    }
}

struct State {
    tenants: HashMap<u64, Tenant>,
    /// Keys with queued waiters, in round-robin order.
    ring: VecDeque<u64>,
    inflight: usize,
}

struct Inner {
    quantum: u64,
    queue_cap: usize,
    max_inflight: usize,
    state: Mutex<State>,
    idle: Condvar,
}

/// See the module docs. Cloning shares the scheduler.
#[derive(Clone)]
pub struct FairScheduler {
    inner: Arc<Inner>,
}

/// A held in-flight slot for one tenant. Dropping it gives the slot
/// back and lets the next waiter in.
#[must_use = "the slot is given back as soon as the admission drops"]
pub struct Admission<'a> {
    gate: &'a FairScheduler,
    key: u64,
}

impl FairScheduler {
    /// A gate under `policy`.
    pub fn new(policy: FairPolicy) -> FairScheduler {
        let max_inflight = if policy.max_inflight == 0 {
            thread::available_parallelism()
                .map_or(1, |n| n.get())
                .saturating_mul(2)
        } else {
            policy.max_inflight
        };
        FairScheduler {
            inner: Arc::new(Inner {
                quantum: policy.quantum.max(1),
                queue_cap: policy.queue_cap.max(1),
                max_inflight,
                state: Mutex::new(State {
                    tenants: HashMap::new(),
                    ring: VecDeque::new(),
                    inflight: 0,
                }),
                idle: Condvar::new(),
            }),
        }
    }

    /// Never panics on a poisoned lock: admissions drop during unwinds,
    /// and no user code ever runs while the lock is held.
    fn state(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for tenant `key`'s DRR turn and a free in-flight slot, at
    /// DRR cost `cost` (0 is treated as 1 so a flood of "free" callers
    /// still round-robins). Refuses at once — never blocks — when the
    /// tenant's queue is full; returns [`Refused::Purged`] when
    /// [`purge`](Self::purge) drops the waiter first.
    pub fn admit(&self, key: u64, cost: u64) -> Result<Admission<'_>, Refused> {
        let ticket = {
            let mut state = self.state();
            let tenant = state.tenants.entry(key).or_insert_with(Tenant::new);
            if tenant.queue.len() >= self.inner.queue_cap {
                tenant.rejected += 1;
                return Err(Refused::Saturated {
                    key,
                    cap: self.inner.queue_cap,
                });
            }
            tenant.submitted += 1;
            let ticket = Arc::new(Ticket {
                verdict: AtomicU8::new(WAITING),
                thread: thread::current(),
            });
            tenant.queue.push_back((cost.max(1), ticket.clone()));
            if !tenant.in_ring {
                tenant.in_ring = true;
                state.ring.push_back(key);
            }
            self.pump(&mut state);
            ticket
        };
        loop {
            match ticket.verdict.load(Ordering::Acquire) {
                GRANTED => return Ok(Admission { gate: self, key }),
                PURGED => return Err(Refused::Purged { key }),
                // Spurious wakeups just re-check the verdict.
                _ => thread::park(),
            }
        }
    }

    /// Refuse every still-queued waiter for `key` with
    /// [`Refused::Purged`] (held admissions run to completion). Returns
    /// how many were purged.
    pub fn purge(&self, key: u64) -> usize {
        let mut state = self.state();
        let Some(tenant) = state.tenants.get_mut(&key) else {
            return 0;
        };
        let purged = tenant.queue.len();
        for (_, ticket) in tenant.queue.drain(..) {
            ticket.decide(PURGED);
        }
        let idle = tenant.idle();
        if tenant.in_ring {
            tenant.in_ring = false;
            state.ring.retain(|&k| k != key);
        }
        if purged > 0 && idle {
            self.inner.idle.notify_all();
        }
        purged
    }

    /// Block until tenant `key` has nothing queued and nothing in
    /// flight (trivially true for a tenant that never asked).
    pub fn drain(&self, key: u64) {
        let mut state = self.state();
        while state.tenants.get(&key).is_some_and(|t| !t.idle()) {
            state = self
                .inner
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The tenant's counters right now.
    pub fn stats(&self, key: u64) -> TenantStats {
        match self.state().tenants.get(&key) {
            None => TenantStats::default(),
            Some(t) => TenantStats {
                submitted: t.submitted,
                completed: t.completed,
                rejected: t.rejected,
                queued: t.queue.len(),
                inflight: t.inflight,
            },
        }
    }

    /// Forget an idle tenant's bookkeeping entirely. No-op (returning
    /// `false`) while it still has queued or in-flight work.
    pub fn forget(&self, key: u64) -> bool {
        let mut state = self.state();
        if state.tenants.get(&key).is_some_and(|t| !t.idle()) {
            return false;
        }
        state.tenants.remove(&key).is_some()
    }

    /// One DRR pass: admit queued waiters until the in-flight cap is hit
    /// or every queue is empty. Called with the lock held from `admit`
    /// and from every admission's drop.
    fn pump(&self, state: &mut State) {
        let State {
            tenants,
            ring,
            inflight,
        } = state;
        let max_inflight = self.inner.max_inflight;
        while *inflight < max_inflight {
            let Some(&key) = ring.front() else {
                break;
            };
            let tenant = tenants.get_mut(&key).expect("ring key exists");
            tenant.deficit = tenant.deficit.saturating_add(self.inner.quantum);
            while *inflight < max_inflight {
                let Some(&(cost, _)) = tenant.queue.front() else {
                    break;
                };
                if tenant.deficit < cost {
                    break;
                }
                let (cost, ticket) = tenant.queue.pop_front().expect("front exists");
                tenant.deficit -= cost;
                tenant.inflight += 1;
                *inflight += 1;
                ticket.decide(GRANTED);
            }
            if tenant.queue.is_empty() {
                // An empty queue leaves the ring and forfeits its
                // deficit — classic DRR, so an idle tenant cannot bank
                // credit and burst past the others later.
                tenant.deficit = 0;
                tenant.in_ring = false;
                ring.pop_front();
            } else {
                // Still backlogged: move to the back of the ring so the
                // next visit serves someone else.
                ring.rotate_left(1);
            }
        }
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        let gate = self.gate;
        let mut state = gate.state();
        state.inflight -= 1;
        if let Some(tenant) = state.tenants.get_mut(&self.key) {
            tenant.inflight -= 1;
            tenant.completed += 1;
        }
        gate.pump(&mut state);
        if state.tenants.get(&self.key).is_none_or(Tenant::idle) {
            gate.inner.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const DEADLINE: Duration = Duration::from_secs(10);

    fn gate(quantum: u64, queue_cap: usize, max_inflight: usize) -> FairScheduler {
        FairScheduler::new(FairPolicy {
            quantum,
            queue_cap,
            max_inflight,
        })
    }

    /// Poll until `key` has `n` waiters queued.
    fn await_queued(fair: &FairScheduler, key: u64, n: usize) {
        let started = Instant::now();
        while fair.stats(key).queued < n {
            assert!(
                started.elapsed() < DEADLINE,
                "tenant {key} never queued {n} waiters"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn hog_cannot_starve_a_light_tenant() {
        let fair = gate(1, 1024, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Hold the only slot while both tenants queue up, so the order
        // they are let in is the DRR pass's alone.
        let door = fair.admit(0, 1).unwrap();
        let waiter = |key: u64| {
            let (fair, log) = (fair.clone(), log.clone());
            thread::spawn(move || {
                let _slot = fair.admit(key, 1).unwrap();
                log.lock().unwrap().push(key);
            })
        };
        // The hog floods first; the mouse arrives behind its backlog.
        let mut threads: Vec<_> = (0..40).map(|_| waiter(1)).collect();
        await_queued(&fair, 1, 40);
        threads.extend((0..10).map(|_| waiter(2)));
        await_queued(&fair, 2, 10);
        drop(door);
        for t in threads {
            t.join().unwrap();
        }
        let order = log.lock().unwrap().clone();
        let mouse_done = order.iter().rposition(|&k| k == 2).expect("mouse ran");
        let hog_before = order[..mouse_done].iter().filter(|&&k| k == 1).count();
        // Round-robin lets the mouse's 10 waiters in alternately with
        // the hog's, not after the hog's entire backlog.
        assert!(
            hog_before <= 11,
            "mouse finished after {hog_before} of 40 hog admissions: {order:?}"
        );
        assert_eq!(fair.stats(1).completed, 40);
        assert_eq!(fair.stats(2).completed, 10);
    }

    #[test]
    fn full_queue_saturates_instead_of_blocking() {
        let fair = gate(1, 2, 1);
        let held = fair.admit(7, 1).unwrap();
        // One in flight (held here) + two queued = full.
        let queued: Vec<_> = (0..2)
            .map(|_| {
                let fair = fair.clone();
                thread::spawn(move || drop(fair.admit(7, 1).unwrap()))
            })
            .collect();
        await_queued(&fair, 7, 2);
        let started = Instant::now();
        let err = fair.admit(7, 1).err().expect("queue is full");
        assert!(started.elapsed() < DEADLINE, "refusal must not wait");
        assert_eq!(err, Refused::Saturated { key: 7, cap: 2 });
        assert_eq!(fair.stats(7).rejected, 1);
        // Another tenant is unaffected by 7's saturation: it queues.
        let other = {
            let fair = fair.clone();
            thread::spawn(move || drop(fair.admit(8, 1).unwrap()))
        };
        await_queued(&fair, 8, 1);
        drop(held);
        for t in queued.into_iter().chain([other]) {
            t.join().unwrap();
        }
        fair.drain(7);
        fair.drain(8);
        assert_eq!(fair.stats(7).completed, 3);
        assert_eq!(fair.stats(8).completed, 1);
    }

    #[test]
    fn purge_drops_queued_work_and_drain_returns() {
        let fair = gate(1, 64, 1);
        let held = fair.admit(3, 1).unwrap();
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            let (fair, tx) = (fair.clone(), tx.clone());
            thread::spawn(move || {
                let out = fair.admit(3, 1).map(drop);
                tx.send(out).unwrap();
            });
        }
        await_queued(&fair, 3, 5);
        assert_eq!(fair.purge(3), 5, "every queued waiter purged");
        for _ in 0..5 {
            let out = rx.recv_timeout(DEADLINE).expect("purged waiter woke");
            assert_eq!(out, Err(Refused::Purged { key: 3 }));
        }
        // The held admission was never purged: it still counts.
        assert_eq!(fair.stats(3).inflight, 1);
        assert!(!fair.forget(3), "busy tenants are not forgotten");
        drop(held);
        fair.drain(3);
        assert_eq!(fair.stats(3).completed, 1, "only the held admission");
        assert!(fair.forget(3));
        assert_eq!(fair.stats(3), TenantStats::default());
    }

    #[test]
    fn panicking_section_gives_its_slot_back() {
        let fair = gate(1, 8, 1);
        let panicker = {
            let fair = fair.clone();
            thread::spawn(move || {
                let _slot = fair.admit(5, 1).unwrap();
                panic!("admitted section failed");
            })
        };
        assert!(panicker.join().is_err(), "the section did panic");
        fair.drain(5);
        assert_eq!(fair.stats(5).inflight, 0);
        assert_eq!(fair.stats(5).completed, 1);
        // The single slot is free again: admitted without waiting.
        drop(fair.admit(6, 1).unwrap());
    }

    #[test]
    fn in_flight_cap_holds_across_tenants() {
        let fair = gate(1, 8, 2);
        let a = fair.admit(1, 1).unwrap();
        let b = fair.admit(2, 1).unwrap();
        let third = {
            let fair = fair.clone();
            thread::spawn(move || drop(fair.admit(3, 1).unwrap()))
        };
        await_queued(&fair, 3, 1);
        assert_eq!(fair.stats(3).inflight, 0, "cap of 2 is full");
        drop(a);
        third.join().unwrap();
        drop(b);
        assert_eq!(fair.stats(3).completed, 1);
    }

    #[test]
    fn costly_tasks_wait_more_visits_but_run() {
        let fair = gate(10, 8, 1);
        // Cost far above one quantum: admitted only once the deficit
        // accumulates across visits.
        drop(fair.admit(1, 95).unwrap());
        assert_eq!(fair.stats(1).completed, 1);
    }
}
