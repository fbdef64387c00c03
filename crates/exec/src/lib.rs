//! # worlds-exec — the execution substrate for speculative worlds
//!
//! The paper's economics (§3–4) only work if speculation is cheap: fork
//! a world, run the alternative, and — for the losers — get out of the
//! way. The original thread executor paid an OS `thread::spawn` per
//! alternative per block and a per-frame recycler lock per eliminated
//! world. This crate replaces both:
//!
//! * [`Executor`] — a persistent work-stealing pool (per-worker LIFO
//!   deques, an injector for external submissions, steal-from-the-front)
//!   shared by every `Speculation` session. Submission reserves a free
//!   worker or spawns a fallback thread, so arbitrary blocking tasks —
//!   including nested speculation — can never starve queued work (see
//!   the `pool` module docs for the invariant). The pool is for
//!   compute: nothing that blocks indefinitely (an accept loop, a
//!   connection handler) is parked on it, or every submission would pay
//!   for a fallback thread.
//! * [`Scope`] — scoped submission: tasks that borrow the caller's
//!   frame, sound because `Executor::scope` joins them before returning.
//! * [`Reaper`] — batched asynchronous elimination: losing worlds queue
//!   up and a background thread tears them down in batches, one
//!   `Recycler` lock acquisition per batch instead of per frame, while
//!   emitting exactly the per-world `frame_free` events a sequential
//!   teardown would.
//! * [`FairScheduler`] — per-tenant deficit round-robin admission with
//!   bounded queues (backpressure) and a global in-flight cap, so many
//!   tenants can share the machine without any of them starving the
//!   rest. It runs no work itself: an admitted caller does its work on
//!   its own thread (see the `fair` module docs).

mod fair;
mod pool;
mod reaper;

pub use fair::{Admission, FairPolicy, FairScheduler, Refused, TenantStats};
pub use pool::{Executor, Scope, WORKERS_ENV};
pub use reaper::Reaper;
