//! DESIGN.md's references must resolve, so that a reader who follows one
//! lands on what it names:
//!
//! * every `DESIGN.md §N` in the repository's `*.rs`, `*.md` and `*.yml`
//!   files (CHANGES.md excepted: it is history, in the numbering of its
//!   day) and every bare `§N` inside DESIGN.md names a `## N.` heading,
//!   and a quoted subsection after it (`§6 "Pass-through"`) names a
//!   `### ` heading of that section; `paper §N` is the paper's;
//! * every `path.rs::name` (or `path.rs::{a, b}`) in DESIGN.md names a
//!   file that defines `fn name`;
//! * every backticked path in DESIGN.md exists, from the repository
//!   root.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// DESIGN.md's sections: number → the `### ` headings inside it.
fn sections(design: &str) -> BTreeMap<u32, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut current = None;
    for line in design.lines() {
        if let Some(rest) = line.strip_prefix("## ") {
            current = rest.split_once('.').and_then(|(n, _)| n.parse().ok());
            if let Some(n) = current {
                out.insert(n, Vec::new());
            }
        } else if let (Some(name), Some(n)) = (line.strip_prefix("### "), current) {
            out.get_mut(&n).unwrap().push(name.trim().to_string());
        }
    }
    out
}

/// Skips whitespace and comment leaders (`//`, `//!`, `///`), so that a
/// reference wrapped across comment lines still parses.
fn skip_gap(s: &str) -> &str {
    let mut s = s;
    loop {
        let t = s.trim_start();
        let t = t.trim_start_matches("//!").trim_start_matches("///");
        let t = t.trim_start_matches("//");
        if t.len() == s.len() {
            return s;
        }
        s = t;
    }
}

/// Parses `§N` at the start of `s`: the section number and the rest.
fn section_number(s: &str) -> Option<(u32, &str)> {
    let s = s.strip_prefix('§')?;
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// The section references starting at `s` (which begins with `§`): the
/// first `§N`, then any `, §M` / `and §M` after it, each with the quoted
/// subsection names that follow it.
fn parse_refs(s: &str) -> Vec<(u32, Vec<String>)> {
    let mut refs: Vec<(u32, Vec<String>)> = Vec::new();
    let Some((n, mut rest)) = section_number(s) else {
        return refs;
    };
    refs.push((n, Vec::new()));
    loop {
        let mut t = skip_gap(rest);
        if let Some(after) = t.strip_prefix(',') {
            t = skip_gap(after);
        } else if let Some(after) = t.strip_prefix("and ") {
            t = skip_gap(after);
        }
        if let Some(quoted) = t.strip_prefix('"') {
            let Some(end) = quoted.find('"') else { break };
            let name = quoted[..end].split_whitespace().collect::<Vec<_>>();
            let name = name.join(" ").replace("//! ", "").replace("/// ", "");
            refs.last_mut().unwrap().1.push(name);
            rest = &quoted[end + 1..];
        } else if let Some((n, after)) = section_number(t) {
            refs.push((n, Vec::new()));
            rest = after;
        } else {
            break;
        }
    }
    refs
}

/// Every section reference in `text`: after each `DESIGN.md` (backticked
/// or not) when `bare` is false, at every `§` not preceded by `paper`
/// when it is true.
fn refs_in(text: &str, bare: bool) -> Vec<(u32, Vec<String>)> {
    let mut out = Vec::new();
    if bare {
        for (i, _) in text.match_indices('§') {
            let before = text[..i].trim_end();
            if !before.ends_with("paper") {
                out.extend(parse_refs(&text[i..]));
            }
        }
    } else {
        for (i, m) in text.match_indices("DESIGN.md") {
            let after = &text[i + m.len()..];
            let after = skip_gap(after.strip_prefix('`').unwrap_or(after));
            if after.starts_with('§') {
                out.extend(parse_refs(after));
            }
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        let name = entry.file_name();
        let ty = entry.file_type().unwrap();
        if ty.is_dir() && name != "target" && name != ".git" {
            walk(&path, out);
        } else if ty.is_file()
            && path
                .extension()
                .is_some_and(|e| e == "rs" || e == "md" || e == "yml")
        {
            out.push(path);
        }
    }
}

/// The inline code spans of a markdown text, fenced blocks skipped.
fn code_spans(md: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

const FILE_EXTENSIONS: [&str; 8] = [
    ".rs", ".md", ".json", ".yml", ".toml", ".sh", ".golden", ".txt",
];

#[test]
fn design_references_resolve() {
    let design = fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let sections = sections(&design);
    assert!(
        sections.len() >= 10,
        "DESIGN.md has {} sections",
        sections.len()
    );
    let mut broken = Vec::new();

    // (a) Section pointers, from every file and inside DESIGN.md.
    let mut files = Vec::new();
    walk(root(), &mut files);
    let mut checked = 0;
    for path in files {
        let rel = path.strip_prefix(root()).unwrap().display().to_string();
        if rel == "CHANGES.md" {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let bare = rel == "DESIGN.md";
        for (n, names) in refs_in(&text, bare) {
            checked += 1;
            match sections.get(&n) {
                None => broken.push(format!("{rel}: §{n} names no `## {n}.` heading")),
                Some(headings) => {
                    for name in names.iter().filter(|name| !headings.contains(name)) {
                        broken.push(format!("{rel}: §{n} has no subsection \"{name}\""));
                    }
                }
            }
        }
    }
    assert!(checked > 20, "only {checked} section references found");

    // (b) and (c): named functions and paths in DESIGN.md.
    for span in code_spans(&design) {
        let (path, names) = match span.split_once(".rs::") {
            Some((file, names)) => (format!("{file}.rs"), Some(names)),
            None => (span.clone(), None),
        };
        let is_path = path.contains('/') || FILE_EXTENSIONS.iter().any(|e| path.ends_with(e));
        let pattern = path.contains(char::is_whitespace) || path.contains(['*', ':']);
        if !is_path || pattern {
            continue;
        }
        let file = root().join(path.trim_end_matches('/'));
        if !file.exists() {
            broken.push(format!("DESIGN.md: `{span}`: no such path"));
            continue;
        }
        let Some(names) = names else { continue };
        let source = fs::read_to_string(&file).unwrap();
        let names = names.trim_start_matches('{').trim_end_matches('}');
        for name in names.split(',').map(str::trim) {
            let defined = [format!("fn {name}("), format!("fn {name}<")];
            if !defined.iter().any(|d| source.contains(d.as_str())) {
                broken.push(format!("DESIGN.md: `{span}`: {path} defines no fn {name}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "unresolved references:\n{}",
        broken.join("\n")
    );
}

#[test]
fn reference_parser_reads_lists_and_subsections() {
    // Spelled `D.md` here so that the scan of this file does not see it.
    let text = "see D.md §8, §6 \"Pass-through\" and `D.md`\n//! §7 \"Cache\n//! arrays\", \"Sharer sets\"; paper §5";
    let refs = refs_in(&text.replace("D.md", "DESIGN.md"), false);
    let want = [
        (8, vec![]),
        (6, vec!["Pass-through".to_string()]),
        (
            7,
            vec!["Cache arrays".to_string(), "Sharer sets".to_string()],
        ),
    ];
    assert_eq!(refs, want);
    assert_eq!(refs_in("as in paper §5 and §2", true), vec![(2, vec![])]);
}
