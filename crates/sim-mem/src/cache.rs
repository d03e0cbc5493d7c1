//! A generic set-associative cache array with true-LRU replacement.
//!
//! Used for both the L1s (state = MESI state) and the L2 banks
//! (state = dirty bit). The array stores the line data inline.
//!
//! Sets are filled on demand: construction allocates one `u32` per set
//! and nothing else, and a set's first fill carves a chunk of `ways`
//! contiguous entries from the array's one pool. A 1,024-tile machine
//! has over a million sets, and a run touches a few thousand of them.

use crate::proto::LineData;
use sim_base::config::{CacheConfig, MAX_CACHE_WAYS};
use sim_base::ids::LineAddr;

/// One resident line.
#[derive(Clone, Debug)]
pub struct Entry<S> {
    /// The line address (full tag — the array stores whole line numbers).
    pub line: LineAddr,
    /// Caller-defined state (MESI state, dirty bit, …).
    pub state: S,
    /// Line contents.
    pub data: LineData,
}

/// Set-associative array. Each set is kept in LRU order: index 0 is the
/// most recently used way.
#[derive(Clone, Debug)]
pub struct SetAssoc<S> {
    /// Per set: 0 = never filled, else 1 + the index of its chunk.
    sets: Vec<u32>,
    /// Per chunk: how many of its entries are resident (a prefix).
    fill: Vec<u8>,
    /// Chunk `c` is `pool[c * ways..(c + 1) * ways]`; entries past its
    /// fill count are stale copies, never read.
    pool: Vec<Entry<S>>,
    ways: usize,
    set_mask: u64,
}

impl<S: Clone> SetAssoc<S> {
    /// Builds the array from a [`CacheConfig`]. No set is allocated
    /// until its first fill.
    ///
    /// # Panics
    /// Panics on a geometry [`CmpConfig::validate`] rejects.
    ///
    /// [`CmpConfig::validate`]: sim_base::config::CmpConfig::validate
    pub fn new(cfg: &CacheConfig) -> SetAssoc<S> {
        let sets = cfg.num_sets();
        assert!(
            cfg.ways <= MAX_CACHE_WAYS,
            "{} ways overflow the fill counter",
            cfg.ways
        );
        SetAssoc {
            sets: vec![0; sets as usize],
            fill: Vec::new(),
            pool: Vec::new(),
            ways: cfg.ways as usize,
            set_mask: sets - 1,
        }
    }

    /// The chunk holding `line`'s set, if the set was ever filled.
    #[inline]
    fn chunk(&self, line: LineAddr) -> Option<usize> {
        let slot = self.sets[(line.0 & self.set_mask) as usize];
        slot.checked_sub(1).map(|c| c as usize)
    }

    /// The resident entries of chunk `c`, MRU first.
    #[inline]
    fn resident(&self, c: usize) -> &[Entry<S>] {
        let base = c * self.ways;
        &self.pool[base..base + self.fill[c] as usize]
    }

    #[inline]
    fn resident_mut(&mut self, c: usize) -> &mut [Entry<S>] {
        let base = c * self.ways;
        &mut self.pool[base..base + self.fill[c] as usize]
    }

    /// `line`'s resident set, MRU first (empty if never filled).
    #[inline]
    fn set(&self, line: LineAddr) -> &[Entry<S>] {
        self.chunk(line).map_or(&[], |c| self.resident(c))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.fill.iter().map(|&f| f as usize).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.fill.iter().all(|&f| f == 0)
    }

    /// Number of sets ever filled, each holding one chunk of the pool
    /// for the array's lifetime (a set emptied by removals keeps it).
    pub fn filled_sets(&self) -> usize {
        self.fill.len()
    }

    /// Immutable lookup without touching LRU order.
    pub fn probe(&self, line: LineAddr) -> Option<&Entry<S>> {
        self.set(line).iter().find(|e| e.line == line)
    }

    /// Mutable lookup that also promotes the line to MRU.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut Entry<S>> {
        let c = self.chunk(line)?;
        let set = self.resident_mut(c);
        let pos = set.iter().position(|e| e.line == line)?;
        set[..=pos].rotate_right(1);
        Some(&mut set[0])
    }

    /// Removes a line, returning it if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<Entry<S>> {
        let c = self.chunk(line)?;
        let set = self.resident_mut(c);
        let pos = set.iter().position(|e| e.line == line)?;
        set[pos..].rotate_left(1);
        let e = set[set.len() - 1].clone();
        self.fill[c] -= 1;
        Some(e)
    }

    /// True when inserting `line` would require evicting something.
    pub fn set_full(&self, line: LineAddr) -> bool {
        self.set(line).len() >= self.ways
    }

    /// The LRU victim of `line`'s set that satisfies `evictable`, if an
    /// eviction is needed for an insert. Scans from LRU to MRU.
    pub fn pick_victim(
        &self,
        line: LineAddr,
        evictable: impl Fn(&Entry<S>) -> bool,
    ) -> Option<LineAddr> {
        let set = self.set(line);
        if set.len() < self.ways {
            return None;
        }
        set.iter().rev().find(|e| evictable(e)).map(|e| e.line)
    }

    /// Inserts a line as MRU. The set's first fill carves its chunk.
    ///
    /// # Panics
    /// Panics if the set is full (the caller must evict first) or the
    /// line is already present.
    pub fn insert(&mut self, line: LineAddr, state: S, data: LineData) {
        let entry = Entry { line, state, data };
        let c = match self.chunk(line) {
            Some(c) => c,
            None => {
                let c = self.fill.len();
                self.sets[(line.0 & self.set_mask) as usize] =
                    u32::try_from(c + 1).expect("chunk index fits the set slot");
                self.fill.push(0);
                self.pool.resize(self.pool.len() + self.ways, entry.clone());
                c
            }
        };
        let n = self.fill[c] as usize;
        assert!(n < self.ways, "insert into a full set (evict first)");
        assert!(
            !self.resident(c).iter().any(|e| e.line == line),
            "line {line:?} already resident"
        );
        let base = c * self.ways;
        self.pool[base + n] = entry;
        self.pool[base..=base + n].rotate_right(1);
        self.fill[c] += 1;
    }

    /// Iterates over all resident entries (set by set, MRU first).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<S>> {
        self.sets
            .iter()
            .filter_map(|&slot| slot.checked_sub(1))
            .flat_map(|c| self.resident(c as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        // 4 sets × 2 ways of 64-byte lines.
        CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            extra_data_latency: 0,
        }
    }

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn insert_probe_lookup() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        c.insert(l(0), 1, [7; 8]);
        assert_eq!(c.probe(l(0)).unwrap().state, 1);
        assert_eq!(c.lookup(l(0)).unwrap().data, [7; 8]);
        assert!(c.probe(l(1)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_order_and_victim() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(l(0), 0, [0; 8]);
        c.insert(l(4), 0, [0; 8]);
        assert!(c.set_full(l(8)));
        // LRU victim is line 0 …
        assert_eq!(c.pick_victim(l(8), |_| true), Some(l(0)));
        // … unless a touch promotes it.
        c.lookup(l(0));
        assert_eq!(c.pick_victim(l(8), |_| true), Some(l(4)));
    }

    #[test]
    fn victim_respects_evictability() {
        let mut c: SetAssoc<bool> = SetAssoc::new(&cfg());
        c.insert(l(0), false, [0; 8]); // not evictable
        c.insert(l(4), true, [0; 8]); // evictable (MRU)
        assert_eq!(c.pick_victim(l(8), |e| e.state), Some(l(4)));
        assert_eq!(c.pick_victim(l(8), |e| !e.state), Some(l(0)));
        assert_eq!(c.pick_victim(l(8), |_| false), None);
    }

    #[test]
    fn no_victim_needed_when_space() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        c.insert(l(0), 0, [0; 8]);
        assert_eq!(c.pick_victim(l(4), |_| true), None);
        assert!(!c.set_full(l(4)));
    }

    #[test]
    fn remove_frees_the_way() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        c.insert(l(0), 9, [1; 8]);
        let e = c.remove(l(0)).unwrap();
        assert_eq!(e.state, 9);
        assert!(c.is_empty());
        assert!(c.remove(l(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "full set")]
    fn insert_into_full_set_panics() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        c.insert(l(0), 0, [0; 8]);
        c.insert(l(4), 0, [0; 8]);
        c.insert(l(8), 0, [0; 8]);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        for i in 0..4 {
            c.insert(l(i), 0, [0; 8]);
        }
        assert_eq!(c.len(), 4);
        assert!(!c.set_full(l(4)) || c.probe(l(0)).is_some());
    }
}
