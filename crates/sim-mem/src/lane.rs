//! The core-facing memory interface.
//!
//! A core pipeline only ever touches its *own* tile's L1: issuing
//! requests, polling responses, and probing the spin-classification
//! hooks. [`CoreMem`] captures exactly that surface, so the core model
//! can run against the whole [`MemorySystem`](crate::MemorySystem) or
//! against a wrapper that watches what the core asks of it (the trace
//! recorder in `sim-cmp`).

use crate::proto::{CoreReq, CoreResp};
use sim_base::{CoreId, Cycle};

/// What a core pipeline needs from the memory hierarchy. Implemented by
/// [`MemorySystem`](crate::MemorySystem); the `core` argument always
/// names the calling core (a core never reaches across tiles).
pub trait CoreMem {
    /// Issues a data access for `core` (one outstanding each).
    fn request(&mut self, core: CoreId, req: CoreReq);
    /// Returns `core`'s completed response, if ready.
    fn poll(&mut self, core: CoreId) -> Option<CoreResp>;
    /// The ready cycle of `core`'s pending response, if any.
    fn resp_ready_at(&self, core: CoreId) -> Option<Cycle>;
    /// True when `core`'s L1 has protocol work in flight (outstanding
    /// miss or a deferred coherence message).
    fn l1_busy(&self, core: CoreId) -> bool;
    /// `core`'s pending response if it is a load: `(ready, value)`.
    fn peek_resp_load(&self, core: CoreId) -> Option<(Cycle, u64)>;
    /// See [`L1Ctrl::spin_probe_load`](crate::l1::L1Ctrl::spin_probe_load).
    fn spin_probe_load(&self, core: CoreId, addr: u64) -> Option<u64>;
    /// See [`L1Ctrl::line_value`](crate::l1::L1Ctrl::line_value).
    fn spin_line_value(&self, core: CoreId, addr: u64) -> Option<u64>;
    /// See [`L1Ctrl::spin_replay`](crate::l1::L1Ctrl::spin_replay).
    fn spin_replay(&mut self, core: CoreId, addr: u64, hits: u64, final_ready: Option<Cycle>);
    /// See [`L1Ctrl::take_resp_for_replay`](crate::l1::L1Ctrl::take_resp_for_replay).
    fn take_resp_for_replay(&mut self, core: CoreId) -> Option<CoreResp>;
}
