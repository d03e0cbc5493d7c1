//! Property tests for the foundations: mesh geometry, address math,
//! histogram invariants, the deterministic RNG and the active-set bitset.
//!
//! Runs on the in-repo seed-sweep harness ([`sim_base::check`]) instead of
//! an external property-testing crate, so the suite builds fully offline.

use sim_base::active::ActiveSet;
use sim_base::check::forall;
use sim_base::geom::Dir;
use sim_base::ids::Addr;
use sim_base::rng::SplitMix64;
use sim_base::stats::Histogram;
use sim_base::{Coord, Mesh2D};
use std::collections::BTreeSet;

#[test]
fn mesh_id_coord_bijection() {
    forall("mesh_id_coord_bijection", |r| {
        let (rows, cols) = loop {
            let rows = 1 + r.next_below(63) as u16;
            let cols = 1 + r.next_below(63) as u16;
            if (rows as usize) * (cols as usize) <= 4096 {
                break (rows, cols);
            }
        };
        let m = Mesh2D::new(rows, cols);
        for id in m.tiles() {
            assert_eq!(m.id_of(m.coord_of(id)), id);
        }
        let mut count = 0;
        for c in m.coords() {
            assert_eq!(m.coord_of(m.id_of(c)), c);
            count += 1;
        }
        assert_eq!(count, m.num_tiles());
    });
}

#[test]
fn xy_route_always_terminates_at_destination() {
    forall("xy_route_always_terminates_at_destination", |r| {
        let rows = 1 + r.next_below(15) as u16;
        let cols = 1 + r.next_below(15) as u16;
        let m = Mesh2D::new(rows, cols);
        let from = Coord::new(
            r.next_below(rows as u64) as u16,
            r.next_below(cols as u64) as u16,
        );
        let to = Coord::new(
            r.next_below(rows as u64) as u16,
            r.next_below(cols as u64) as u16,
        );
        let mut cur = from;
        let mut hops = 0u32;
        loop {
            let d = m.xy_next(cur, to);
            if d == Dir::Local {
                break;
            }
            cur = m
                .neighbor(cur, d)
                .expect("XY routing never leaves the mesh");
            hops += 1;
            assert!(hops <= (rows as u32 + cols as u32));
        }
        assert_eq!(cur, to);
        assert_eq!(hops, m.manhattan(from, to));
    });
}

#[test]
fn squarest_covers_exactly_n() {
    forall("squarest_covers_exactly_n", |r| {
        let n = 1 + r.next_below(2047) as usize;
        let m = Mesh2D::squarest(n);
        assert_eq!(m.num_tiles(), n);
        assert!(m.rows <= m.cols, "prefers wide meshes");
    });
}

#[test]
fn neighbor_relation_is_symmetric() {
    forall("neighbor_relation_is_symmetric", |r| {
        let rows = 1 + r.next_below(9) as u16;
        let cols = 1 + r.next_below(9) as u16;
        let m = Mesh2D::new(rows, cols);
        for c in m.coords() {
            for d in Dir::MESH {
                if let Some(nb) = m.neighbor(c, d) {
                    assert_eq!(m.neighbor(nb, d.opposite()), Some(c));
                }
            }
        }
    });
}

#[test]
fn addr_line_math_consistent() {
    forall("addr_line_math_consistent", |r| {
        let word = r.next_below(1_000_000);
        let line_bytes = 1u64 << (4 + r.next_below(6));
        let a = Addr::of_word(word);
        let l = a.line(line_bytes);
        assert!(l.base(line_bytes).0 <= a.0);
        assert!(a.0 < l.base(line_bytes).0 + line_bytes);
        assert_eq!(a.line_offset(line_bytes), a.0 - l.base(line_bytes).0);
    });
}

#[test]
fn histogram_count_sum_min_max() {
    forall("histogram_count_sum_min_max", |r| {
        let n = 1 + r.next_below(99) as usize;
        let samples: Vec<u64> = (0..n).map(|_| r.next_below(1_000_000)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.min(), samples.iter().min().copied());
        assert_eq!(h.max(), samples.iter().max().copied());
        let mean = h.mean();
        assert!(mean >= h.min().unwrap() as f64 && mean <= h.max().unwrap() as f64);
    });
}

#[test]
fn rng_bounded_is_in_range_and_deterministic() {
    forall("rng_bounded_is_in_range_and_deterministic", |r| {
        let seed = r.next_u64();
        let bound = 1 + r.next_below(1_000_000);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            assert!(x < bound);
            assert_eq!(x, b.next_below(bound));
        }
    });
}

/// The bitset [`ActiveSet`] against a `BTreeSet` model, at domain sizes
/// on both sides of the 64-bit word boundaries. `collect`/`for_each_live`
/// must report the model's members in ascending order, also after the
/// set was mutated while a collected snapshot of it was being walked (the
/// simulator's ticks remove and re-insert members mid-iteration).
#[test]
fn active_set_matches_btreeset_model() {
    for n in [1usize, 63, 64, 65, 1024] {
        forall(&format!("active_set_matches_btreeset_model/{n}"), |r| {
            let mut set = ActiveSet::new(n);
            let mut model = BTreeSet::new();
            let mut snap = Vec::new();
            for _ in 0..400 {
                // Favour the ends of the domain and the word boundaries.
                let i = match r.next_below(4) {
                    0 => [0, n - 1, 63 % n, 64 % n][r.next_below(4) as usize],
                    _ => r.next_below(n as u64) as usize,
                };
                let op = r.next_below(8);
                match op {
                    0..=2 => {
                        set.insert(i);
                        model.insert(i);
                    }
                    3..=4 => {
                        set.remove(i);
                        model.remove(&i);
                    }
                    5 => {
                        let mut seen = Vec::new();
                        set.for_each_live(|m| seen.push(m));
                        assert_eq!(seen, model.iter().copied().collect::<Vec<_>>());
                    }
                    6 => {}
                    _ => {
                        // Mutate while walking the words: drop every
                        // other member visited and add its successor.
                        let mut k = 0;
                        for w in 0..set.num_words() {
                            for m in set.word_members(w) {
                                assert!(model.contains(&m), "visited a non-member");
                                if k % 2 == 0 {
                                    set.remove(m);
                                    model.remove(&m);
                                } else if m + 1 < n {
                                    set.insert(m + 1);
                                    model.insert(m + 1);
                                }
                                k += 1;
                            }
                        }
                    }
                }
                if op >= 6 {
                    snap.clear();
                    set.for_each_live(|m| snap.push(m));
                    assert_eq!(snap, model.iter().copied().collect::<Vec<_>>());
                }
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
                assert_eq!(set.contains(i), model.contains(&i));
            }
        });
    }
}
