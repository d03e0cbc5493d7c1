//! Statistics plumbing: the categories of Figures 6 and 7, counters and
//! histograms.
//!
//! The paper breaks **execution time** into `Barrier`, `Write`, `Read`,
//! `Lock` and `Busy` (Figure 6) and **network traffic** into `Coherence`,
//! `Request` and `Reply` messages (Figure 7). These enums are shared by the
//! memory system, the NoC and the reporting harness so every crate counts
//! into the same buckets.

use std::fmt;
use std::ops::{AddAssign, Index, IndexMut};

/// Execution-time categories of Figure 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimeCat {
    /// Time in barrier notification + busy-wait + release (S1+S2+S3).
    Barrier,
    /// Stall cycles attributable to stores.
    Write,
    /// Stall cycles attributable to loads.
    Read,
    /// Time in lock acquisition/release.
    Lock,
    /// Computation (issue of ALU ops and non-stalled cycles).
    Busy,
}

impl TimeCat {
    /// All categories, in the paper's legend order.
    pub const ALL: [TimeCat; 5] = [
        TimeCat::Barrier,
        TimeCat::Write,
        TimeCat::Read,
        TimeCat::Lock,
        TimeCat::Busy,
    ];

    /// Dense index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TimeCat::Barrier => 0,
            TimeCat::Write => 1,
            TimeCat::Read => 2,
            TimeCat::Lock => 3,
            TimeCat::Busy => 4,
        }
    }

    /// Display label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            TimeCat::Barrier => "Barrier",
            TimeCat::Write => "Write",
            TimeCat::Read => "Read",
            TimeCat::Lock => "Lock",
            TimeCat::Busy => "Busy",
        }
    }
}

/// Network-traffic categories of Figure 7. Each maps to one virtual
/// network in the NoC, which also gives protocol deadlock freedom.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Load/store/atomic requests travelling to an L2 home bank.
    Request,
    /// Data and acknowledgement replies.
    Reply,
    /// Protocol-generated traffic: invalidations, fetches, write-backs,
    /// invalidation acks.
    Coherence,
}

impl MsgClass {
    /// All classes, in the paper's legend order (bottom-up in Fig. 7).
    pub const ALL: [MsgClass; 3] = [MsgClass::Request, MsgClass::Reply, MsgClass::Coherence];

    /// Dense index; also the virtual-network number.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Reply => 1,
            MsgClass::Coherence => 2,
        }
    }

    /// Display label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Request => "Request",
            MsgClass::Reply => "Reply",
            MsgClass::Coherence => "Coherence",
        }
    }
}

/// Cycles accumulated per [`TimeCat`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    cycles: [u64; 5],
}

impl TimeBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> TimeBreakdown {
        TimeBreakdown::default()
    }

    /// Adds `n` cycles to a category.
    #[inline]
    pub fn add(&mut self, cat: TimeCat, n: u64) {
        self.cycles[cat.index()] += n;
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of the total in `cat` (0 when empty).
    pub fn fraction(&self, cat: TimeCat) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self[cat] as f64 / t as f64
        }
    }
}

impl Index<TimeCat> for TimeBreakdown {
    type Output = u64;
    fn index(&self, cat: TimeCat) -> &u64 {
        &self.cycles[cat.index()]
    }
}

impl IndexMut<TimeCat> for TimeBreakdown {
    fn index_mut(&mut self, cat: TimeCat) -> &mut u64 {
        &mut self.cycles[cat.index()]
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        for i in 0..self.cycles.len() {
            self.cycles[i] += rhs.cycles[i];
        }
    }
}

/// Message counts per [`MsgClass`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficBreakdown {
    msgs: [u64; 3],
}

impl TrafficBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> TrafficBreakdown {
        TrafficBreakdown::default()
    }

    /// Counts one message of class `c`.
    #[inline]
    pub fn add(&mut self, c: MsgClass, n: u64) {
        self.msgs[c.index()] += n;
    }

    /// Total messages.
    pub fn total(&self) -> u64 {
        self.msgs.iter().sum()
    }
}

impl Index<MsgClass> for TrafficBreakdown {
    type Output = u64;
    fn index(&self, c: MsgClass) -> &u64 {
        &self.msgs[c.index()]
    }
}

impl IndexMut<MsgClass> for TrafficBreakdown {
    fn index_mut(&mut self, c: MsgClass) -> &mut u64 {
        &mut self.msgs[c.index()]
    }
}

impl AddAssign for TrafficBreakdown {
    fn add_assign(&mut self, rhs: TrafficBreakdown) {
        for i in 0..self.msgs.len() {
            self.msgs[i] += rhs.msgs[i];
        }
    }
}

/// A simple power-of-two-bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`, except bucket 0 which
/// counts 0 and 1. Cheap enough to keep per message class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = if v <= 1 {
            0
        } else {
            64 - (v.leading_zeros() as usize) - 1
        };
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        // Saturate: a sample near u64::MAX (itself saturated upstream)
        // must not wrap the running sum.
        self.sum = self.sum.saturating_add(v);
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Folds another histogram into this one, as if every sample of
    /// `other` had been [`record`](Self::record)ed here directly.
    ///
    /// Associative and commutative (bucket counts, counts and
    /// saturating sums add; min/max combine), so any reduction order
    /// over partial histograms yields the identical merged histogram.
    /// Property-tested below.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        // The empty sentinels (min = u64::MAX, max = 0) are the
        // identities of min/max, so empty histograms merge as no-ops
        // and the result stays field-identical to direct recording.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} max={}",
            self.count,
            self.mean(),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut b = TimeBreakdown::new();
        b.add(TimeCat::Busy, 100);
        b.add(TimeCat::Barrier, 50);
        b.add(TimeCat::Barrier, 25);
        assert_eq!(b[TimeCat::Barrier], 75);
        assert_eq!(b.total(), 175);
        assert!((b.fraction(TimeCat::Busy) - 100.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_add_assign() {
        let mut a = TimeBreakdown::new();
        a.add(TimeCat::Read, 10);
        let mut b = TimeBreakdown::new();
        b.add(TimeCat::Read, 5);
        b.add(TimeCat::Write, 7);
        a += b;
        assert_eq!(a[TimeCat::Read], 15);
        assert_eq!(a[TimeCat::Write], 7);
    }

    #[test]
    fn traffic_accumulates() {
        let mut t = TrafficBreakdown::new();
        t.add(MsgClass::Request, 3);
        t.add(MsgClass::Reply, 2);
        t.add(MsgClass::Coherence, 1);
        assert_eq!(t.total(), 6);
        assert_eq!(t[MsgClass::Request], 3);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum must clamp, not wrap");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        // The mean of a clamped sum is still finite and sane.
        assert!(h.mean() <= u64::MAX as f64);
    }

    /// Draws a histogram of 0..=24 samples spanning empty, tiny and
    /// huge (near-saturating) values — the shapes `merge` has to get
    /// right.
    fn arbitrary_histogram(rng: &mut crate::rng::SplitMix64) -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..rng.next_below(25) {
            let v = match rng.next_below(4) {
                0 => rng.next_below(4),
                1 => rng.next_below(1 << 20),
                2 => rng.next_u64(),
                _ => u64::MAX - rng.next_below(3),
            };
            h.record(v);
        }
        h
    }

    #[test]
    fn histogram_merge_matches_direct_recording() {
        // merge(a, b) must be field-identical to recording all of a's
        // and b's samples into one histogram; replay the samples by
        // regenerating them from the same seeds.
        crate::check::forall("histogram_merge_direct", |rng| {
            let samples: Vec<u64> = (0..rng.next_below(40))
                .map(|_| match rng.next_below(3) {
                    0 => rng.next_below(8),
                    1 => rng.next_below(1 << 30),
                    _ => rng.next_u64(),
                })
                .collect();
            let split = if samples.is_empty() {
                0
            } else {
                rng.next_below(samples.len() as u64 + 1) as usize
            };
            let mut merged = Histogram::new();
            let mut right = Histogram::new();
            for v in &samples[..split] {
                merged.record(*v);
            }
            for v in &samples[split..] {
                right.record(*v);
            }
            merged.merge(&right);
            let mut direct = Histogram::new();
            for v in &samples {
                direct.record(*v);
            }
            assert_eq!(merged, direct, "merge diverges from direct recording");
        });
    }

    #[test]
    fn histogram_merge_is_commutative() {
        crate::check::forall("histogram_merge_commutes", |rng| {
            let a = arbitrary_histogram(rng);
            let b = arbitrary_histogram(rng);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must commute");
        });
    }

    #[test]
    fn histogram_merge_is_associative() {
        crate::check::forall("histogram_merge_assoc", |rng| {
            let a = arbitrary_histogram(rng);
            let b = arbitrary_histogram(rng);
            let c = arbitrary_histogram(rng);
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must associate");
        });
    }

    #[test]
    fn histogram_merge_empty_is_identity() {
        crate::check::forall("histogram_merge_identity", |rng| {
            let a = arbitrary_histogram(rng);
            let mut left = Histogram::new();
            left.merge(&a);
            assert_eq!(left, a, "empty.merge(a) != a");
            let mut right = a.clone();
            right.merge(&Histogram::new());
            assert_eq!(right, a, "a.merge(empty) != a");
        });
    }

    #[test]
    fn fraction_of_empty_is_zero() {
        let b = TimeBreakdown::new();
        assert_eq!(b.fraction(TimeCat::Lock), 0.0);
    }

    #[test]
    fn category_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for c in TimeCat::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        let mut seen = [false; 3];
        for c in MsgClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }
}
