//! Image directory layout: `manifest.json` plus one `core<i>.trace`
//! file per core.
//!
//! The manifest carries the format version, the core count, the
//! workload label and the initial memory image (addresses and values as
//! decimal strings, so the full `u64` range survives the JSON float
//! representation). Everything cross-file — core count vs. trace files,
//! each file's embedded core id — is validated on read.

use crate::{decode_core, encode_core, TraceError, TraceSet, FORMAT_VERSION};
use sim_base::json::{parse, Json};
use std::path::Path;

fn io_err(path: &Path, e: std::io::Error) -> TraceError {
    TraceError::Io(path.display().to_string(), e)
}

fn core_file(dir: &Path, i: usize) -> std::path::PathBuf {
    dir.join(format!("core{i}.trace"))
}

/// Writes `set` into `dir`, creating the directory if needed.
///
/// # Errors
/// [`TraceError::Io`] on any filesystem failure.
pub fn write_dir(dir: &Path, set: &TraceSet) -> Result<(), TraceError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let pokes = Json::arr(
        set.pokes
            .iter()
            .map(|&(a, v)| Json::arr([Json::from(a.to_string()), Json::from(v.to_string())])),
    );
    let manifest = Json::obj([
        ("version", Json::from(FORMAT_VERSION as u64)),
        ("cores", Json::from(set.cores.len() as u64)),
        ("workload", Json::from(set.workload.as_str())),
        ("pokes", pokes),
    ]);
    let mpath = dir.join("manifest.json");
    std::fs::write(&mpath, manifest.pretty()).map_err(|e| io_err(&mpath, e))?;
    for (i, t) in set.cores.iter().enumerate() {
        let path = core_file(dir, i);
        std::fs::write(&path, encode_core(t)).map_err(|e| io_err(&path, e))?;
    }
    Ok(())
}

fn manifest_corrupt(what: impl Into<String>) -> TraceError {
    TraceError::Corrupt {
        offset: 0,
        what: format!("manifest.json: {}", what.into()),
    }
}

fn parse_poke(entry: &Json) -> Result<(u64, u64), TraceError> {
    let pair = entry
        .as_arr()
        .filter(|p| p.len() == 2)
        .ok_or_else(|| manifest_corrupt("poke entry is not an [addr, value] pair"))?;
    let num = |j: &Json| -> Result<u64, TraceError> {
        j.as_str()
            .and_then(|s| s.parse().ok())
            .or_else(|| j.as_u64())
            .ok_or_else(|| manifest_corrupt("poke field is not a u64"))
    };
    Ok((num(&pair[0])?, num(&pair[1])?))
}

/// Reads an image back from `dir`, validating the manifest against the
/// per-core files.
///
/// # Errors
/// [`TraceError`] on filesystem failures, malformed JSON, malformed or
/// unassemblable core files, version mismatches, or manifest/file
/// disagreements.
pub fn read_dir(dir: &Path) -> Result<TraceSet, TraceError> {
    let mpath = dir.join("manifest.json");
    let text = std::fs::read_to_string(&mpath).map_err(|e| io_err(&mpath, e))?;
    let manifest = parse(&text).map_err(|e| manifest_corrupt(format!("not valid JSON ({e:?})")))?;
    let version = manifest
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| manifest_corrupt("missing version"))?;
    if version != FORMAT_VERSION as u64 {
        return Err(TraceError::BadVersion(version as u32));
    }
    let cores = manifest
        .get("cores")
        .and_then(Json::as_u64)
        .ok_or_else(|| manifest_corrupt("missing core count"))?;
    if cores == 0 || cores > 4096 {
        return Err(manifest_corrupt(format!("implausible core count {cores}")));
    }
    let workload = manifest
        .get("workload")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let mut pokes = Vec::new();
    if let Some(list) = manifest.get("pokes") {
        let list = list
            .as_arr()
            .ok_or_else(|| manifest_corrupt("pokes is not an array"))?;
        for entry in list {
            pokes.push(parse_poke(entry)?);
        }
    }
    let mut traces = Vec::with_capacity(cores as usize);
    for i in 0..cores as usize {
        let path = core_file(dir, i);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let t = decode_core(&bytes)?;
        if t.core as usize != i {
            return Err(TraceError::Inconsistent(format!(
                "{} holds core {}'s trace",
                path.display(),
                t.core
            )));
        }
        traces.push(t);
    }
    Ok(TraceSet {
        cores: traces,
        pokes,
        workload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreTrace;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sim-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_set() -> TraceSet {
        let prog = sim_isa::assemble("busy 5\nhalt").unwrap();
        let core = |i: u32| CoreTrace {
            core: i,
            prog: prog.clone(),
        };
        TraceSet {
            cores: (0..2).map(core).collect(),
            pokes: vec![(0x1_0000, u64::MAX), (0x2_0000, 7)],
            workload: "unit".into(),
        }
    }

    #[test]
    fn directory_round_trips() {
        let dir = temp_dir("roundtrip");
        let set = sample_set();
        write_dir(&dir, &set).unwrap();
        assert_eq!(read_dir(&dir).unwrap(), set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let dir = temp_dir("missing");
        assert!(matches!(read_dir(&dir), Err(TraceError::Io(..))));
    }

    #[test]
    fn mismatched_core_id_is_inconsistent() {
        let dir = temp_dir("coreid");
        let mut set = sample_set();
        write_dir(&dir, &set).unwrap();
        set.cores[1].core = 0;
        std::fs::write(core_file(&dir, 1), encode_core(&set.cores[1])).unwrap();
        assert!(matches!(read_dir(&dir), Err(TraceError::Inconsistent(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_manifest_is_rejected() {
        let dir = temp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), "{not json").unwrap();
        assert!(matches!(read_dir(&dir), Err(TraceError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
