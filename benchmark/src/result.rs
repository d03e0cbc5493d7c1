//! The result file: what one `glbench run` measured, in the one schema
//! `compare` and `agree` read. Serialized through `sim_base::json`.

use sim_base::json::{self, Json};

use crate::metrics;
use crate::stats::Summary;

/// Schema tag; bump when the layout changes.
pub const SCHEMA: &str = "glbench-result-1";

/// Named summaries, in printing order.
pub type Metrics = Vec<(String, Summary)>;

/// One workload's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Untraced passes behind the end-to-end metrics.
    pub passes: usize,
    /// Simulations attempted, over all passes.
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// One line per failed simulation: its name and what differed.
    pub failures: Vec<String>,
    /// End-to-end metrics (from the untraced passes).
    pub end_to_end: Metrics,
    /// Per-layer metrics (from the traced passes; empty without one).
    pub per_layer: Metrics,
    /// Per-simulation rows: detail, not named metrics.
    pub sims: Vec<Json>,
}

/// A whole run: every workload measured, the isolated probes, and where
/// it was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    /// Workload seed.
    pub seed: u64,
    /// Reduced-size run: correctness only, no timing is comparable.
    pub smoke: bool,
    /// Host provenance (`nproc`, CPU model, rustc, commit).
    pub host: Json,
    /// Measured workloads.
    pub workloads: Vec<WorkloadResult>,
    /// Isolated-layer probes (`*.probe.*`), printed once per run.
    pub probes: Metrics,
}

fn metrics_json(ms: &Metrics) -> Json {
    Json::obj(ms.iter().map(|(name, s)| {
        let Json::Obj(mut pairs) = s.to_json() else {
            unreachable!("a summary serializes to an object")
        };
        pairs.insert(0, ("unit".to_string(), Json::from(metrics::unit_of(name))));
        (name.as_str(), Json::Obj(pairs))
    }))
}

fn metrics_from(j: Option<&Json>) -> Result<Metrics, String> {
    match j {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, v)| {
                Summary::from_json(v)
                    .map(|s| (name.clone(), s))
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect(),
        _ => Err("expected an object of metrics".into()),
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

impl WorkloadResult {
    /// Looks up an end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> Option<&Summary> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Looks up a per-layer metric.
    pub fn per_layer(&self, name: &str) -> Option<&Summary> {
        self.per_layer
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("passes", Json::from(self.passes)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            ("sims", Json::Arr(self.sims.clone())),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let name = field(j, "name")?
            .as_str()
            .ok_or("`name` is not a string")?
            .to_string();
        let in_workload = |e: String| format!("workload {name}: {e}");
        Ok(WorkloadResult {
            passes: u64_field(j, "passes").map_err(in_workload)? as usize,
            attempted: u64_field(j, "attempted").map_err(in_workload)?,
            failed: u64_field(j, "failed").map_err(in_workload)?,
            failures: field(j, "failures")
                .map_err(in_workload)?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            end_to_end: metrics_from(j.get("end_to_end")).map_err(in_workload)?,
            per_layer: metrics_from(j.get("per_layer")).map_err(in_workload)?,
            sims: j.get("sims").and_then(Json::as_arr).unwrap_or(&[]).to_vec(),
            name,
        })
    }
}

impl ResultFile {
    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Serializes. `claim` is always `null`: a result file states what
    /// was measured, never a gain.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("claim", Json::Null),
            ("seed", Json::from(self.seed)),
            ("smoke", Json::from(self.smoke)),
            ("host", self.host.clone()),
            (
                "workloads",
                Json::arr(self.workloads.iter().map(WorkloadResult::to_json)),
            ),
            ("probes", metrics_json(&self.probes)),
        ])
    }

    /// Parses a result file's JSON tree.
    pub fn from_json(j: &Json) -> Result<ResultFile, String> {
        match j.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
        }
        Ok(ResultFile {
            seed: u64_field(j, "seed")?,
            smoke: field(j, "smoke")?
                .as_bool()
                .ok_or("`smoke` is not a bool")?,
            host: j.get("host").cloned().unwrap_or(Json::Null),
            workloads: field(j, "workloads")?
                .as_arr()
                .ok_or("`workloads` is not an array")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
            probes: metrics_from(j.get("probes"))?,
        })
    }

    /// Reads and parses the file at `path`.
    pub fn read(path: &std::path::Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let tree = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultFile::from_json(&tree).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the file at `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        write_json(path, &self.to_json())
    }
}

/// Writes `json` at `path`, creating its directory.
pub fn write_json(path: &std::path::Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
