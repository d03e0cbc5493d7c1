//! Property tests for the memory hierarchy: the coherent system must be
//! indistinguishable from a flat memory under serialized access, atomics
//! must never lose updates under concurrency, and every cycle must keep
//! the single-writer invariant with a directory that covers the holders
//! (`MemorySystem::check_coherence`). Below them, the cache array must
//! match a true-LRU model set for set; above them, no config file,
//! however mangled, may make building the hierarchy panic.
//!
//! Runs on the in-repo seed-sweep harness ([`sim_base::check`]) instead of
//! an external property-testing crate, so the suite builds fully offline.

#![allow(clippy::needless_range_loop)] // indexing parallel arrays

use std::collections::VecDeque;

use sim_base::check::forall_cases;
use sim_base::config::{CacheConfig, CmpConfig, LINE_BYTES};
use sim_base::fxmap::FxHashMap;
use sim_base::ids::LineAddr;
use sim_base::json::{self, ToJson};
use sim_base::rng::SplitMix64;
use sim_base::CoreId;
use sim_isa::inst::AmoOp;
use sim_mem::cache::{Entry, SetAssoc};
use sim_mem::{CoreReq, CoreResp, MemorySystem};

#[derive(Clone, Debug)]
enum Op {
    Load {
        core: usize,
        slot: usize,
    },
    Store {
        core: usize,
        slot: usize,
        value: u64,
    },
    Amo {
        core: usize,
        slot: usize,
        operand: u64,
        swap: bool,
    },
}

fn arb_op(rng: &mut SplitMix64, cores: usize, slots: usize) -> Op {
    let core = rng.next_below(cores as u64) as usize;
    let slot = rng.next_below(slots as u64) as usize;
    match rng.next_below(3) {
        0 => Op::Load { core, slot },
        1 => Op::Store {
            core,
            slot,
            value: rng.next_u64(),
        },
        _ => Op::Amo {
            core,
            slot,
            operand: rng.next_u64(),
            swap: rng.chance(0.5),
        },
    }
}

/// Slot → byte address. Slots are spread across lines AND packed within
/// lines, so the pattern exercises false sharing and home interleaving.
fn addr(slot: usize) -> u64 {
    (slot as u64 / 3) * 64 + (slot as u64 % 3) * 8
}

/// Checks the coherence invariants of `sys`, then ticks it.
fn checked_tick(sys: &mut MemorySystem) {
    if let Err(e) = sys.check_coherence() {
        panic!("cycle {}: {e}", sys.now());
    }
    sys.tick();
}

fn complete(sys: &mut MemorySystem, core: CoreId) -> CoreResp {
    let mut guard = 0;
    loop {
        if let Some(r) = sys.poll(core) {
            return r;
        }
        checked_tick(sys);
        guard += 1;
        assert!(guard < 100_000, "request never completed");
    }
}

/// Serialized random accesses from many cores must behave exactly
/// like a flat memory (coherence is invisible to a serial observer).
#[test]
fn serialized_accesses_match_flat_memory() {
    forall_cases("serialized_accesses_match_flat_memory", 32, |rng| {
        let n_ops = 1 + rng.next_below(119) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| arb_op(rng, 8, 24)).collect();
        let cfg = CmpConfig::icpp2010_with_cores(8);
        let mut sys = MemorySystem::new(&cfg);
        let mut flat: FxHashMap<u64, u64> = FxHashMap::default();
        for op in &ops {
            match *op {
                Op::Load { core, slot } => {
                    let a = addr(slot);
                    sys.request(CoreId::from(core), CoreReq::Load { addr: a });
                    let got = complete(&mut sys, CoreId::from(core));
                    assert_eq!(
                        got,
                        CoreResp::LoadValue(*flat.get(&a).unwrap_or(&0)),
                        "load {op:?}"
                    );
                }
                Op::Store { core, slot, value } => {
                    let a = addr(slot);
                    sys.request(CoreId::from(core), CoreReq::Store { addr: a, value });
                    assert_eq!(complete(&mut sys, CoreId::from(core)), CoreResp::StoreDone);
                    flat.insert(a, value);
                }
                Op::Amo {
                    core,
                    slot,
                    operand,
                    swap,
                } => {
                    let a = addr(slot);
                    let op = if swap { AmoOp::Swap } else { AmoOp::Add };
                    sys.request(
                        CoreId::from(core),
                        CoreReq::Amo {
                            addr: a,
                            op,
                            operand,
                        },
                    );
                    let old = *flat.get(&a).unwrap_or(&0);
                    assert_eq!(
                        complete(&mut sys, CoreId::from(core)),
                        CoreResp::AmoOld(old)
                    );
                    flat.insert(a, op.apply(old, operand));
                }
            }
        }
        // Final state agrees everywhere that was touched.
        for (&a, &v) in &flat {
            assert_eq!(sys.peek_word(a), v, "address 0x{a:x}");
        }
    });
}

/// Fully concurrent atomic increments never lose updates and return
/// distinct old values — the linearizability core of fetch&add. Cores
/// also read the counter between their increments, so the line is
/// shared between writes and every increment must invalidate the readers.
#[test]
fn concurrent_amoadds_are_linearizable() {
    forall_cases("concurrent_amoadds_are_linearizable", 32, |rng| {
        let per_core = 1 + rng.next_below(11) as usize;
        let cores = 2 + rng.next_below(7) as usize;
        let cfg = CmpConfig::icpp2010_with_cores(cores);
        let mut sys = MemorySystem::new(&cfg);
        let a = 0x400u64;
        let mut remaining: Vec<usize> = vec![per_core; cores];
        let mut olds = Vec::new();
        let mut guard = 0;
        loop {
            for c in 0..cores {
                if remaining[c] > 0 && sys.ready(CoreId::from(c)) {
                    let req = if rng.chance(0.5) {
                        CoreReq::Load { addr: a }
                    } else {
                        CoreReq::Amo {
                            addr: a,
                            op: AmoOp::Add,
                            operand: 1,
                        }
                    };
                    sys.request(CoreId::from(c), req);
                }
                if let Some(CoreResp::AmoOld(v)) = sys.poll(CoreId::from(c)) {
                    olds.push(v);
                    remaining[c] -= 1;
                }
            }
            if remaining.iter().all(|&r| r == 0) {
                break;
            }
            checked_tick(&mut sys);
            guard += 1;
            assert!(guard < 1_000_000, "increments never finished");
        }
        let total = cores * per_core;
        assert_eq!(sys.peek_word(a), total as u64);
        olds.sort_unstable();
        assert_eq!(
            olds,
            (0..total as u64).collect::<Vec<_>>(),
            "every fetch&add must observe a distinct old value"
        );
    });
}

/// Concurrent writers to disjoint addresses never interfere, while
/// each core also reads its neighbour's column between its own writes.
#[test]
fn disjoint_concurrent_writes_all_land() {
    forall_cases("disjoint_concurrent_writes_all_land", 32, |rng| {
        let cores = 2 + rng.next_below(7) as usize;
        let writes_per_core = 1 + rng.next_below(9) as usize;
        let cfg = CmpConfig::icpp2010_with_cores(cores);
        let mut sys = MemorySystem::new(&cfg);
        // Each core writes its own column of addresses (may share lines
        // with other cores' columns → false sharing exercised).
        let plan: Vec<Vec<(u64, u64)>> = (0..cores)
            .map(|c| {
                (0..writes_per_core)
                    .map(|i| ((c as u64 * 8) + (i as u64) * 64 * 7, rng.next_u64()))
                    .collect()
            })
            .collect();
        let mut idx = vec![0usize; cores];
        let mut pending = vec![false; cores];
        let mut guard = 0;
        loop {
            let mut done = true;
            for c in 0..cores {
                if pending[c] {
                    if let Some(r) = sys.poll(CoreId::from(c)) {
                        pending[c] = false;
                        idx[c] += usize::from(r == CoreResp::StoreDone);
                    }
                }
                if !pending[c] && idx[c] < writes_per_core {
                    let req = if rng.chance(0.5) {
                        let peer = &plan[(c + 1) % cores];
                        let a = peer[rng.next_below(peer.len() as u64) as usize].0;
                        CoreReq::Load { addr: a }
                    } else {
                        let (a, v) = plan[c][idx[c]];
                        CoreReq::Store { addr: a, value: v }
                    };
                    sys.request(CoreId::from(c), req);
                    pending[c] = true;
                }
                if pending[c] || idx[c] < writes_per_core {
                    done = false;
                }
            }
            if done {
                break;
            }
            checked_tick(&mut sys);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        for c in 0..cores {
            for &(a, v) in &plan[c] {
                assert_eq!(sys.peek_word(a), v, "core {c} address 0x{a:x}");
            }
        }
    });
}

/// One resident line of the cache-array model: (line, state, data word).
type ModelEntry = (u64, u8, u64);

/// `SetAssoc` against a per-set `VecDeque` true-LRU model (front = MRU):
/// random probe/lookup/insert/remove/set_full/pick_victim sequences with
/// random `evictable` predicates, 1–8 ways and 1–1,024 sets. Arrays of
/// up to 16 sets (one partial index page) draw from every set; larger
/// ones, up to 32 index pages, from a few sets picked anywhere, so that
/// far-apart pages are carved out of order. Each touched set sees three
/// times its ways in lines, so sets fill, overflow, empty and refill,
/// and removals of resident lines free entries for later inserts to
/// reuse. After every operation the resident entries must match the
/// model in `iter()` order (sets ascending, MRU first), exactly the sets
/// ever filled must hold a chunk, and the entry pool must hold exactly
/// the most lines ever resident at once.
#[test]
fn set_assoc_matches_true_lru_model() {
    let mut reused = 0;
    forall_cases("set_assoc_matches_true_lru_model", 96, |rng| {
        let ways = 1 + rng.next_below(8) as usize;
        let sets = 1usize << rng.next_below(11);
        let cfg = CacheConfig {
            size_bytes: (sets * ways) as u64 * LINE_BYTES,
            ways: ways as u32,
            line_bytes: LINE_BYTES,
            hit_latency: 1,
            extra_data_latency: 0,
        };
        let hot: Vec<u64> = if sets <= 16 {
            (0..sets as u64).collect()
        } else {
            (0..1 + rng.next_below(6))
                .map(|_| rng.next_below(sets as u64))
                .collect()
        };
        let mut cache: SetAssoc<u8> = SetAssoc::new(&cfg);
        let mut model: Vec<VecDeque<ModelEntry>> = vec![VecDeque::new(); sets];
        let mut filled = vec![false; sets];
        let mut peak = 0;
        for step in 0..400u64 {
            let s = hot[rng.next_below(hot.len() as u64) as usize];
            let mut l = s + sets as u64 * rng.next_below(3 * ways as u64);
            if rng.chance(0.1) {
                // A resident line anywhere, so that removals free entries.
                let resident: Vec<u64> = model.iter().flatten().map(|e| e.0).collect();
                if !resident.is_empty() {
                    l = resident[rng.next_below(resident.len() as u64) as usize];
                }
            }
            let s = (l % sets as u64) as usize;
            let set = &mut model[s];
            let pos = set.iter().position(|e| e.0 == l);
            let line = LineAddr(l);
            match rng.next_below(6) {
                0 => assert_eq!(cache.probe(line).map(view), pos.map(|p| set[p])),
                1 => {
                    let got = cache.lookup(line).map(|e| {
                        e.state = e.state.wrapping_add(1);
                        view(e)
                    });
                    let want = pos.map(|p| {
                        let mut e = set.remove(p).expect("position is in range");
                        e.1 = e.1.wrapping_add(1);
                        set.push_front(e);
                        e
                    });
                    assert_eq!(got, want, "lookup {l}");
                }
                2 => {
                    let got = cache.remove(line).map(|e| view(&e));
                    assert_eq!(got, pos.and_then(|p| set.remove(p)), "remove {l}");
                }
                3 => assert_eq!(cache.set_full(line), set.len() >= ways, "set_full {l}"),
                4 => {
                    // Evictable iff the state's bit is set in a random mask.
                    let mask = rng.next_u64();
                    let ok = |state: u8| mask >> (state % 64) & 1 == 1;
                    let want = if set.len() < ways {
                        None
                    } else {
                        set.iter().rev().find(|e| ok(e.1)).map(|e| e.0)
                    };
                    let got = cache.pick_victim(line, |e| ok(e.state));
                    assert_eq!(got.map(|v| v.0), want, "pick_victim {l}");
                }
                _ if pos.is_none() => {
                    // A fill, evicting the LRU line first if the set is full.
                    if set.len() == ways {
                        let victim = cache.pick_victim(line, |_| true).expect("full set");
                        let lru = set.pop_back().expect("full set");
                        assert_eq!(victim.0, lru.0, "LRU victim for {l}");
                        assert_eq!(cache.remove(victim).map(|e| view(&e)), Some(lru));
                    }
                    let state = rng.next_below(256) as u8;
                    if cache.len() < cache.pooled() {
                        reused += 1;
                    }
                    cache.insert(line, state, [step; 8]);
                    set.push_front((l, state, step));
                    filled[s] = true;
                }
                _ => {}
            }
            let want: Vec<ModelEntry> = model.iter().flatten().copied().collect();
            let got: Vec<ModelEntry> = cache.iter().map(view).collect();
            assert_eq!(got, want, "after step {step}");
            assert_eq!(cache.len(), want.len());
            assert_eq!(cache.is_empty(), want.is_empty());
            let ever = filled.iter().filter(|&&f| f).count();
            assert_eq!(cache.filled_sets(), ever, "one chunk per set ever filled");
            peak = peak.max(want.len());
            assert_eq!(
                cache.pooled(),
                peak,
                "entries pooled past the peak resident count"
            );
        }
    });
    assert!(reused > 1000, "only {reused} inserts reused a freed entry");
}

fn view(e: &Entry<u8>) -> ModelEntry {
    (e.line.0, e.state, e.data[0])
}

/// Values a number in a config file is swapped for: the boundaries of
/// every integer width a field is stored in, zero, fractions, negatives
/// and exponents.
const ODD_NUMBERS: &str = "0 1 2 3 7 63 64 65 128 255 256 300 65535 65536 \
    4294967295 4294967296 18446744073709551615 18446744073709551616 \
    -1 -0 0.5 2.0 1e3 1e300 -1e300";

/// Byte ranges of the number tokens in `text`.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'-' || b[i].is_ascii_digit() {
            let start = i;
            i += 1;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// One random edit of a config file: truncation, a byte flip, a number
/// swapped for one of [`ODD_NUMBERS`] or a nearby value, or a change of
/// nesting (a bracket dropped, a number wrapped in an array or object, or
/// replaced by nested arrays that may cross the parser's depth limit).
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut t = text.to_string();
    if t.is_empty() {
        return t;
    }
    let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
    let brackets: Vec<usize> = t
        .match_indices(['{', '}', '[', ']'])
        .map(|(i, _)| i)
        .collect();
    let numbers = number_spans(&t);
    match rng.next_below(8) {
        0 => t.truncate(pick(rng, t.len())),
        1 => {
            let mut bytes = t.into_bytes();
            let at = pick(rng, bytes.len());
            bytes[at] = rng.next_below(128) as u8;
            t = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        }
        2 if !brackets.is_empty() => {
            t.remove(brackets[pick(rng, brackets.len())]);
        }
        _ if !numbers.is_empty() => {
            let (a, b) = numbers[pick(rng, numbers.len())];
            let n: u64 = t[a..b].parse().unwrap_or(1);
            let with = match rng.next_below(8) {
                0 => format!("[{}]", &t[a..b]),
                1 => format!("{{\"n\": {}}}", &t[a..b]),
                2 => {
                    let depth = 1 + pick(rng, 2 * json::MAX_DEPTH);
                    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
                }
                3 | 4 => {
                    let odd: Vec<&str> = ODD_NUMBERS.split_whitespace().collect();
                    odd[pick(rng, odd.len())].to_string()
                }
                // Nearby values, which often still validate.
                5 => n.saturating_mul(2).to_string(),
                6 => (n / 2).to_string(),
                _ => n.saturating_add(1).to_string(),
            };
            t.replace_range(a..b, &with);
        }
        _ => {}
    }
    t
}

/// Never-panic: Table 1's config JSON under one to three random edits,
/// run through `parse → CmpConfig::from_json → MemorySystem::new`, must
/// give `Ok` or a named `Err` at each step. A config that validates is
/// built when its cache-set slots fit a small host budget (an edit can
/// legitimately ask for a multi-gigabyte machine).
#[test]
fn mangled_config_json_never_panics() {
    let table1 = CmpConfig::icpp2010().to_json().pretty();
    let mut built = 0;
    forall_cases("mangled_config_json_never_panics", 2048, |rng| {
        let mut text = table1.clone();
        for _ in 0..1 + rng.next_below(3) {
            text = mutate(&text, rng);
        }
        let Ok(doc) = json::parse(&text) else { return };
        let Ok(cfg) = CmpConfig::from_json(&doc) else {
            return;
        };
        let slots = cfg.num_cores() as u64 * (cfg.l1.num_sets() + cfg.l2.num_sets());
        if cfg.num_cores() <= 4096 && slots <= 1 << 22 {
            drop(MemorySystem::new(&cfg));
            built += 1;
        }
    });
    assert!(
        built > 100,
        "only {built} mangled configs reached MemorySystem::new"
    );
}
