//! A generic set-associative cache array with true-LRU replacement.
//!
//! Used for both the L1s (state = MESI state) and the L2 banks
//! (state = dirty bit). The array stores the line data inline.
//!
//! Its storage follows the lines a run makes resident, not the
//! geometry: construction allocates nothing. The sets are grouped into
//! pages of `PAGE_SETS` (32), and the first fill of any set of a page
//! carves the page's chunk slots (one `u32` per set). A set's first
//! fill carves its chunk: `ways` records of (line, entry index), kept
//! MRU first, so that lookups and LRU rotations move 12 bytes a way.
//! The entries themselves (line, state, data) live in one pool per
//! array. A removed line's entry goes on a free list and the next
//! insert reuses it, so the pool holds the most lines ever resident at
//! once, and a set emptied by invalidations pins no entry. A 1,024-tile
//! machine has over a million sets, and a run touches a few thousand of
//! them.

use crate::proto::LineData;
use sim_base::config::{CacheConfig, MAX_CACHE_WAYS};
use sim_base::ids::LineAddr;

/// Sets per page of the set index: the first fill of any of them
/// carves the page's chunk slots.
const PAGE_SETS: usize = 32;

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

/// One way of a chunk: a resident line and the index of its entry in
/// the pool. The line is kept as two `u32` halves, so that a record is
/// 12 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    line: [u32; 2],
    entry: u32,
}

impl Way {
    fn new(line: LineAddr, entry: u32) -> Way {
        Way {
            line: halves(line),
            entry,
        }
    }

    #[inline]
    fn holds(&self, line: LineAddr) -> bool {
        self.line == halves(line)
    }
}

#[inline]
fn halves(line: LineAddr) -> [u32; 2] {
    [line.0 as u32, (line.0 >> 32) as u32]
}

/// Set-associative array. Each set is kept in LRU order: record 0 of
/// its chunk is the most recently used way.
#[derive(Clone, Debug)]
pub struct SetAssoc<S> {
    /// Per page of [`PAGE_SETS`] sets: 0 = no set of it ever filled,
    /// else 1 + where its chunk slots start in `slots`. Empty until the
    /// first fill.
    pages: Vec<u32>,
    /// The carved pages' chunk slots, [`PAGE_SETS`] per page in carving
    /// order, one per set: 0 = never filled, else 1 + the set's chunk.
    slots: Vec<u32>,
    /// Per chunk: how many of its records are resident (a prefix).
    fill: Vec<u8>,
    /// Chunk `c` is `ways[c * assoc..(c + 1) * assoc]`, MRU first;
    /// records past its fill count are stale.
    ways: Vec<Way>,
    /// The entries; those whose index is on `free` are stale, and the
    /// next inserts reuse them.
    pool: Vec<Entry<S>>,
    free: Vec<u32>,
    assoc: usize,
    set_mask: u64,
}

impl<S: Clone> SetAssoc<S> {
    /// Builds the array from a [`CacheConfig`]. Nothing is allocated
    /// until the first fill.
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
            pages: Vec::new(),
            slots: Vec::new(),
            fill: Vec::new(),
            ways: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
            assoc: cfg.ways as usize,
            set_mask: sets - 1,
        }
    }

    /// `line`'s set, split into its page and its offset in the page.
    #[inline]
    fn page_of(&self, line: LineAddr) -> (usize, usize) {
        let set = (line.0 & self.set_mask) as usize;
        (set / PAGE_SETS, set % PAGE_SETS)
    }

    /// The chunk holding `line`'s set, if the set was ever filled.
    #[inline]
    fn chunk(&self, line: LineAddr) -> Option<usize> {
        let (page, off) = self.page_of(line);
        let base = self.pages.get(page)?.checked_sub(1)? as usize;
        self.slots[base + off].checked_sub(1).map(|c| c as usize)
    }

    /// The first record of chunk `c` and its number of resident records.
    #[inline]
    fn span(&self, c: usize) -> (usize, usize) {
        (c * self.assoc, self.fill[c] as usize)
    }

    /// `line`'s chunk and its position there, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let c = self.chunk(line)?;
        let (base, n) = self.span(c);
        let pos = self.ways[base..base + n]
            .iter()
            .position(|w| w.holds(line))?;
        Some((c, pos))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.pool.len() - self.free.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sets ever filled, each holding one chunk of records
    /// for the array's lifetime (a set emptied by removals keeps it).
    pub fn filled_sets(&self) -> usize {
        self.fill.len()
    }

    /// Entries in the pool, resident or free: the most lines ever
    /// resident at once.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Immutable lookup without touching LRU order.
    pub fn probe(&self, line: LineAddr) -> Option<&Entry<S>> {
        let (c, pos) = self.find(line)?;
        Some(&self.pool[self.ways[c * self.assoc + pos].entry as usize])
    }

    /// Mutable lookup that also promotes the line to MRU.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut Entry<S>> {
        let (c, pos) = self.find(line)?;
        let base = c * self.assoc;
        if pos > 0 {
            self.ways[base..=base + pos].rotate_right(1);
        }
        Some(&mut self.pool[self.ways[base].entry as usize])
    }

    /// Removes a line, returning it if present. Its entry goes on the
    /// free list.
    pub fn remove(&mut self, line: LineAddr) -> Option<Entry<S>> {
        let (c, pos) = self.find(line)?;
        let (base, n) = self.span(c);
        let i = self.ways[base + pos].entry;
        self.ways[base + pos..base + n].rotate_left(1);
        self.fill[c] -= 1;
        // Never allocates: `insert` keeps room for every entry.
        self.free.push(i);
        Some(self.pool[i as usize].clone())
    }

    /// True when inserting `line` would require evicting something.
    pub fn set_full(&self, line: LineAddr) -> bool {
        self.chunk(line).map_or(0, |c| self.fill[c] as usize) >= self.assoc
    }

    /// The LRU victim of `line`'s set that satisfies `evictable`, if an
    /// eviction is needed for an insert. Scans from LRU to MRU.
    pub fn pick_victim(
        &self,
        line: LineAddr,
        evictable: impl Fn(&Entry<S>) -> bool,
    ) -> Option<LineAddr> {
        let (base, n) = self.span(self.chunk(line)?);
        if n < self.assoc {
            return None;
        }
        self.ways[base..base + n]
            .iter()
            .rev()
            .map(|w| &self.pool[w.entry as usize])
            .find(|e| evictable(e))
            .map(|e| e.line)
    }

    /// Inserts a line as MRU. The set's first fill carves its chunk
    /// (and its page's slots, on the page's first fill); the entry
    /// reuses a removed line's, if any.
    ///
    /// # Panics
    /// Panics if the set is full (the caller must evict first) or the
    /// line is already present.
    pub fn insert(&mut self, line: LineAddr, state: S, data: LineData) {
        let c = match self.chunk(line) {
            Some(c) => c,
            None => self.carve(line),
        };
        let (base, n) = self.span(c);
        assert!(n < self.assoc, "insert into a full set (evict first)");
        assert!(
            !self.ways[base..base + n].iter().any(|w| w.holds(line)),
            "line {line:?} already resident"
        );
        let entry = Entry { line, state, data };
        let i = match self.free.pop() {
            Some(i) => {
                self.pool[i as usize] = entry;
                i
            }
            None => {
                let i = u32::try_from(self.pool.len()).expect("entry pool outgrew u32 indices");
                self.pool.push(entry);
                // Room for every entry to be free at once, so that
                // `remove` never allocates.
                self.free.reserve(self.pool.len());
                i
            }
        };
        self.ways[base + n] = Way::new(line, i);
        self.ways[base..=base + n].rotate_right(1);
        self.fill[c] += 1;
    }

    /// Carves the chunk of `line`'s never-filled set, and its page's
    /// slots if no set of the page was filled before.
    fn carve(&mut self, line: LineAddr) -> usize {
        let (page, off) = self.page_of(line);
        if self.pages.is_empty() {
            let sets = self.set_mask as usize + 1;
            self.pages = vec![0; sets.div_ceil(PAGE_SETS)];
        }
        if self.pages[page] == 0 {
            let base = self.slots.len();
            self.pages[page] = u32::try_from(base + 1).expect("page slots fit the page table");
            self.slots.resize(base + PAGE_SETS, 0);
        }
        let base = (self.pages[page] - 1) as usize;
        let c = self.fill.len();
        self.slots[base + off] = u32::try_from(c + 1).expect("chunk index fits the set slot");
        self.fill.push(0);
        self.ways
            .resize(self.ways.len() + self.assoc, Way::default());
        // Room for one entry per filled set, the common case of a sparse
        // set holding one line, and, once a page's worth of sets is
        // filled, for every way of them: a densely used array tends to
        // fill its ways too. Inserts into sets already filled allocate
        // only past that room.
        let sets = self.fill.len();
        let room = if sets >= PAGE_SETS {
            sets * self.assoc
        } else {
            sets
        };
        self.pool.reserve(room.saturating_sub(self.pool.len()));
        self.free.reserve(room.saturating_sub(self.free.len()));
        c
    }

    /// Iterates over all resident entries (set by set, MRU first),
    /// walking the set index only as far as the last of them.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<S>> {
        self.pages
            .iter()
            .filter_map(|&page| page.checked_sub(1))
            .flat_map(|base| &self.slots[base as usize..base as usize + PAGE_SETS])
            .filter_map(|&slot| slot.checked_sub(1))
            .flat_map(|c| {
                let (base, n) = self.span(c as usize);
                &self.ways[base..base + n]
            })
            .map(|w| &self.pool[w.entry as usize])
            .take(self.len())
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
    fn a_way_record_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Way>(), 12);
        let far = l(0xdead_beef_0000_0007);
        assert!(Way::new(far, 3).holds(far));
        assert!(!Way::new(far, 3).holds(l(7)));
    }

    #[test]
    fn removed_entries_are_reused() {
        let mut c: SetAssoc<u8> = SetAssoc::new(&cfg());
        for round in 0..10 {
            c.insert(l(round), 0, [round; 8]);
            c.insert(l(round + 1), 1, [round; 8]);
            c.remove(l(round));
            c.remove(l(round + 1));
        }
        assert!(c.is_empty());
        assert_eq!(c.pooled(), 2, "the pool outgrew the peak of two lines");
        assert_eq!(c.filled_sets(), 4);
    }

    #[test]
    fn far_apart_sets_carve_only_their_pages() {
        // 4,096 sets: 128 pages, of which the first, the last and one in
        // the middle are filled, out of set order.
        let big = CacheConfig {
            size_bytes: 4096 * 64,
            ways: 1,
            ..cfg()
        };
        let mut c: SetAssoc<u8> = SetAssoc::new(&big);
        for n in [4095, 0, 2048 + 31, 2048, 1] {
            c.insert(l(n), 0, [n; 8]);
        }
        assert_eq!(c.slots.len(), 3 * PAGE_SETS);
        let lines: Vec<u64> = c.iter().map(|e| e.line.0).collect();
        assert_eq!(
            lines,
            [0, 1, 2048, 2048 + 31, 4095],
            "sets in ascending order"
        );
        assert_eq!(c.probe(l(4096 + 4095)).map(|e| e.line), None);
        assert!(c.set_full(l(4096 + 2048)));
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
