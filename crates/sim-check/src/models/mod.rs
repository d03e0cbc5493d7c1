//! Explorer fixtures: two small synchronization algorithms written
//! against the [modeled primitives](crate::sync), so the explorer can
//! walk every interleaving of a real algorithm — its operations, its
//! memory orderings, its lock scopes:
//!
//! * [`ModelSpinBarrier`] — a sense-reversing centralized thread
//!   barrier whose waiters spin briefly and then park on a condvar;
//! * [`ModelEpochGate`] — per-worker doorbells (an un-rung worker stays
//!   parked) plus one join latch per round.
//!
//! They began as op-for-op mirrors of the thread barrier and epoch gate
//! of the simulator's multi-worker engine. That engine has been
//! removed; the models stay because they are what the explorer is
//! tested on — they no longer mirror live code, and nothing needs to be
//! kept in step with them.
//!
//! The spin budget is a constructor parameter: every distinct spin/park
//! outcome is already reachable with a budget of 0 or 1, and a larger
//! one only adds scheduling points.
//!
//! Each fixture also has a **deliberately broken** constructor seeding
//! a real-world bug class; `tests/broken.rs` proves the explorer
//! detects both. That is the regression corpus guarding the checker
//! itself: if a refactor of the explorer stopped finding these, the
//! suite fails.

mod epoch_gate;
mod spin_barrier;

pub use epoch_gate::ModelEpochGate;
pub use spin_barrier::ModelSpinBarrier;
