//! Simulated time.
//!
//! The whole CMP is simulated cycle-by-cycle under a single clock domain
//! (the paper's 3 GHz cores, routers and G-lines all tick together), so
//! a point in time is one `u64`.

/// A point in simulated time, measured in core clock cycles.
pub type Cycle = u64;
