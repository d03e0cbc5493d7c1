//! `figures` — regenerates the paper's tables and figures.
//!
//! Usage:
//! ```text
//! figures [--table1] [--table2] [--fig2] [--fig5] [--fig6] [--fig7]
//!         [--all] [--paper] [--json FILE] [--jobs N]
//! ```
//!
//! With no selection flags, `--all` is implied. The benchmarks run at
//! `workloads::eval`'s Quick sizes (seconds), or at the paper's with
//! `--paper` (about an hour for Table 2 and Figures 6–7). `--json`
//! additionally writes the raw experiment data as JSON. `--jobs N` sets
//! the worker-thread count for the simulation sweeps (default: all host
//! cores; the output is bit-identical for any N). An unknown flag, a
//! `--json` without a path or a `--jobs` that is not a positive integer
//! exits 1 before anything runs.

use bench::experiments as exp;
use bench::sweep::default_workers;
use sim_base::json::{Json, ToJson};
use workloads::eval::Scale;

fn rows<T: ToJson>(rows: &[T]) -> Json {
    Json::arr(rows.iter().map(ToJson::to_json))
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(1);
}

const SELECTORS: [&str; 7] = [
    "--all", "--table1", "--table2", "--fig2", "--fig5", "--fig6", "--fig7",
];

fn main() {
    let mut selected: Vec<&str> = Vec::new();
    let mut scale = Scale::Quick;
    let mut json_path = None;
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str, what: &str| {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--json" => json_path = Some(value("--json", "a file path")),
            "--jobs" => {
                let v = value("--jobs", "a worker count");
                match v.parse() {
                    Ok(n) if n > 0 => workers = Some(n),
                    _ => die(&format!("--jobs needs a positive integer, got {v}")),
                }
            }
            a => match SELECTORS.iter().find(|&&s| s == a) {
                Some(&s) => selected.push(s),
                None => die(&format!("unknown option {a}")),
            },
        }
    }
    let all = selected.is_empty() || selected.contains(&"--all");
    let has = |f: &str| all || selected.contains(&f);
    let workers = workers.unwrap_or_else(default_workers);
    let mut json = Vec::new();

    println!(
        "gline-cmp evaluation harness — scale: {scale:?}, {workers} worker thread(s) \
         (use --paper for the paper's input sizes, --jobs N to set workers)\n"
    );

    if has("--table1") {
        println!("{}", exp::table1());
    }
    if has("--fig2") {
        println!("{}", exp::figure2());
    }
    let (want_table2, want_figs) = (has("--table2"), has("--fig6") || has("--fig7"));
    if want_table2 || want_figs {
        eprintln!("[table2/fig6/fig7] running the benchmark suite…");
    }
    let (table2, figs) = exp::table2_fig6_fig7(scale, workers, want_table2, want_figs);
    if let Some(table2) = table2 {
        println!("{}", exp::render_table2(&table2));
        json.push(("table2", rows(&table2)));
    }
    if has("--fig5") {
        eprintln!("[fig5] sweeping core counts × barrier implementations…");
        let fig5 = exp::fig5(scale, workers);
        println!("{}", exp::render_fig5(&fig5));
        json.push(("fig5", rows(&fig5)));
    }
    if let Some(figs) = figs {
        if has("--fig6") {
            println!("{}", exp::render_fig6(&figs));
        }
        if has("--fig7") {
            println!("{}", exp::render_fig7(&figs));
        }
        json.push(("fig6_fig7", rows(&figs)));
    }

    if let Some(path) = json_path {
        std::fs::write(&path, Json::obj(json).pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
}
