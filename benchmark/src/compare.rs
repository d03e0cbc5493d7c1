//! `glbench compare OLD NEW` and `glbench agree A B`: the trajectory
//! across commits as a diff of two result files.

use crate::metrics::{self, END_TO_END};
use crate::result::{ResultFile, WorkloadResult};
use crate::stats::{verdict, worsening, Verdict};

const FINGERPRINT: &str = "sim_cmp.stats_fingerprint";

/// What a comparison printed and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Lines to print.
    pub lines: Vec<String>,
    /// Pairings judged `worse`, or exact values that differ.
    pub worse: usize,
    /// Pairings whose own spread is wider than the bound.
    pub unresolved: usize,
}

fn pairs<'a>(
    old: &'a ResultFile,
    new: &'a ResultFile,
    report: &mut Report,
) -> Vec<(&'a WorkloadResult, &'a WorkloadResult)> {
    let mut out = Vec::new();
    for w in &old.workloads {
        match new.workload(&w.name) {
            Some(n) => out.push((w, n)),
            None => report
                .lines
                .push(format!("{}: only in the first file", w.name)),
        }
    }
    for n in &new.workloads {
        if old.workload(&n.name).is_none() {
            report
                .lines
                .push(format!("{}: only in the second file", n.name));
        }
    }
    out
}

/// Compares values that must repeat exactly.
fn exact(name: &str, a: Option<f64>, b: Option<f64>, workload: &str, report: &mut Report) {
    let same = a == b;
    let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| format!("{v}"));
    report.lines.push(format!(
        "{workload:<14} {name:<26} {:>18} {:>18}   {}",
        show(a),
        show(b),
        if same { "identical" } else { "DIFFERS" }
    ));
    if !same {
        report.worse += 1;
    }
}

fn exact_metrics(o: &WorkloadResult, n: &WorkloadResult, report: &mut Report) {
    for m in END_TO_END.iter().filter(|m| m.bound.is_none()) {
        let get = |w: &WorkloadResult| w.end_to_end(m.name).map(|s| s.value);
        exact(m.name, get(o), get(n), &o.name, report);
    }
    // Absent from both when neither file had a traced pass.
    let fp = |w: &WorkloadResult| w.per_layer(FINGERPRINT).map(|s| s.value);
    if fp(o).is_some() || fp(n).is_some() {
        exact(FINGERPRINT, fp(o), fp(n), &o.name, report);
    }
}

/// `compare`: per workload × end-to-end metric, both values, the ratio
/// with its base, and a verdict; exact metrics and the statistics
/// fingerprint are diffed exactly.
pub fn compare(old: &ResultFile, new: &ResultFile) -> Report {
    let mut report = Report::default();
    if old.smoke || new.smoke {
        report
            .lines
            .push("note: a smoke result carries no comparable timing".into());
    }
    if old.seed != new.seed {
        report.lines.push(format!(
            "note: seeds differ ({} vs {}); exact values are expected to differ",
            old.seed, new.seed
        ));
    }
    report.lines.push(format!(
        "{:<14} {:<26} {:>18} {:>18}   verdict",
        "workload", "metric", "old value", "new value"
    ));
    for (o, n) in pairs(old, new, &mut report) {
        for m in &END_TO_END {
            let Some(bound) = m.bound else { continue };
            let (Some(a), Some(b)) = (o.end_to_end(m.name), n.end_to_end(m.name)) else {
                continue;
            };
            let v = verdict(a, b, m.better, bound);
            match v {
                Verdict::Worse => report.worse += 1,
                Verdict::Unresolved => report.unresolved += 1,
                _ => {}
            }
            report.lines.push(format!(
                "{:<14} {:<26} {:>18.6} {:>18.6}   {} (new/old = {:.3}, base: old {:.6} {}; bound {:.0} %, {} is better)",
                o.name,
                m.name,
                a.value,
                b.value,
                v.label(),
                b.value / a.value,
                a.value,
                m.unit,
                bound * 100.0,
                m.better.label()
            ));
        }
        exact_metrics(o, n, &mut report);
    }
    report
}

/// `agree`: do two sets of runs of the same code agree within each
/// metric's own bound (in either direction), with identical exact
/// metrics and fingerprints? `worse` counts the disagreements.
pub fn agree(a: &ResultFile, b: &ResultFile) -> Report {
    let mut report = Report::default();
    for (x, y) in pairs(a, b, &mut report) {
        for m in &END_TO_END {
            let Some(bound) = m.bound else { continue };
            let (Some(p), Some(q)) = (x.end_to_end(m.name), y.end_to_end(m.name)) else {
                continue;
            };
            let apart = worsening(p.value, q.value, m.better).abs();
            let ok = apart <= bound;
            if !ok {
                report.worse += 1;
            }
            report.lines.push(format!(
                "{:<14} {:<26} {:>18.6} {:>18.6}   {} ({:.1} % apart, bound {:.0} %)",
                x.name,
                m.name,
                p.value,
                q.value,
                if ok { "agree" } else { "DISAGREE" },
                apart * 100.0,
                bound * 100.0
            ));
        }
        exact_metrics(x, y, &mut report);
    }
    report
}

/// Prints metrics by name with unit and value and, where there are
/// several estimates behind one, their quartiles, extremes and the
/// sample count. A pass timing's estimates are half-run ones (see
/// `stats::fastest`), which can all lie above its value.
pub fn print_metrics(title: &str, ms: &crate::result::Metrics) {
    if ms.is_empty() {
        return;
    }
    println!("{title}");
    for (name, s) in ms {
        let unit = metrics::unit_of(name);
        if s.n == 1 {
            println!("  {name:<40} {:>18.6} {unit}", s.value);
            continue;
        }
        let p99 = s.p99.map_or(String::new(), |p| format!(" p99 {p:.6}"));
        println!(
            "  {name:<40} {:>18.6} {unit}  (q1 {:.6} q3 {:.6} min {:.6} max {:.6}{p99} n={})",
            s.value, s.q1, s.q3, s.min, s.max, s.n
        );
    }
}
