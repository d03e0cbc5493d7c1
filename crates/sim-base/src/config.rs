//! Configuration of the simulated CMP.
//!
//! [`CmpConfig::icpp2010`] reproduces Table 1 of the paper exactly:
//!
//! | Parameter              | Value                      |
//! |------------------------|----------------------------|
//! | Number of cores        | 32                         |
//! | Core                   | 3 GHz, in-order 2-way      |
//! | Cache line size        | 64 bytes                   |
//! | L1 I/D-cache           | 32 KB, 4-way, 1 cycle      |
//! | L2 cache (per core)    | 256 KB, 4-way, 6+2 cycles  |
//! | Memory access time     | 400 cycles                 |
//! | Network configuration  | 2D mesh                    |
//! | Network bandwidth      | 75 GB/s                    |
//! | Link width             | 75 bytes                   |

use crate::geom::Mesh2D;
use crate::json::{Json, ToJson};

/// Core pipeline parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency in GHz (only used to convert cycles to wall time in
    /// reports; the simulation itself is cycle-based).
    pub freq_ghz: f64,
    /// Maximum instructions issued per cycle (paper: in-order 2-way).
    pub issue_width: u8,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            freq_ghz: 3.0,
            issue_width: 2,
        }
    }
}

/// The cache line size in bytes (Table 1), at both levels: the
/// coherence protocol moves whole 64-byte lines, so it is fixed rather
/// than a free parameter of [`CacheConfig`].
pub const LINE_BYTES: u64 = 64;

/// Largest [`CacheConfig::ways`]: the cache arrays count a set's
/// resident lines in a byte.
pub const MAX_CACHE_WAYS: u32 = u8::MAX as u32;

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes; [`CmpConfig::validate`] requires
    /// [`LINE_BYTES`].
    pub line_bytes: u64,
    /// Access latency in cycles (for L2 this is the tag latency; see
    /// [`CacheConfig::extra_data_latency`]).
    pub hit_latency: u32,
    /// Additional cycles for the data array (the paper's "6+2 cycles" L2:
    /// 6-cycle tag + 2-cycle data).
    pub extra_data_latency: u32,
}

impl CacheConfig {
    /// Number of sets. Panics if the geometry is inconsistent.
    pub fn num_sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways as u64),
            "cache lines {lines} not divisible by ways {}",
            self.ways
        );
        let sets = lines / self.ways as u64;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        sets
    }

    /// Full hit latency (tag + data).
    pub fn total_latency(&self) -> u32 {
        self.hit_latency.saturating_add(self.extra_data_latency)
    }
}

/// Largest [`NocConfig::vc_buffer_flits`]: the routers index their
/// input-VC rings with bytes.
pub const MAX_VC_BUFFER_FLITS: u32 = u8::MAX as u32;

/// Network-on-chip parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocConfig {
    /// Flit width in bytes (Table 1: 75-byte links, so a 64-byte line plus
    /// header fits in one flit).
    pub link_bytes: u32,
    /// Cycles a flit spends traversing one router (route + VC alloc +
    /// switch + output).
    pub router_latency: u32,
    /// Cycles to cross one inter-router link.
    pub link_latency: u32,
    /// Flit buffer depth of each input virtual channel.
    pub vc_buffer_flits: u32,
    /// Size in bytes of a protocol message header (src, dst, type, addr).
    pub header_bytes: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            link_bytes: 75,
            router_latency: 3,
            link_latency: 1,
            vc_buffer_flits: 4,
            header_bytes: 11,
        }
    }
}

/// Main-memory parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemConfig {
    /// Access latency in cycles (Table 1: 400).
    pub latency: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig { latency: 400 }
    }
}

/// G-line barrier-network parameters (Section 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlineConfig {
    /// Cycles for a signal to cross one G-line (paper: 1; the "longer
    /// latency G-lines" future-work variant uses more).
    pub line_latency: u32,
    /// Electrical limit: transmitters supported per G-line.
    ///
    /// The paper cites 6 transmitters + 1 receiver per line (giving "up to
    /// 7×7 cores"), yet its own evaluation runs a 32-core 2D mesh whose
    /// 4×8 layout puts 7 slave transmitters on each row's gather line. We
    /// therefore default to 7 so the paper's Table 1 machine is
    /// constructible; set 6 to enforce the strict published budget.
    pub max_transmitters: u32,
    /// Number of independent barrier contexts (the paper's future-work
    /// space multiplexing; the baseline design has 1).
    pub contexts: u32,
}

impl Default for GlineConfig {
    fn default() -> Self {
        GlineConfig {
            line_latency: 1,
            max_transmitters: 7,
            contexts: 1,
        }
    }
}

/// Complete configuration of the simulated CMP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CmpConfig {
    /// Mesh shape; `mesh.num_tiles()` is the core count.
    pub mesh: Mesh2D,
    /// Core parameters.
    pub core: CoreConfig,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Per-tile bank of the shared distributed L2.
    pub l2: CacheConfig,
    /// NoC parameters.
    pub noc: NocConfig,
    /// Memory backend.
    pub mem: MemConfig,
    /// G-line barrier network.
    pub gline: GlineConfig,
}

impl CmpConfig {
    /// The exact ICPP 2010 Table 1 configuration: 32 cores on a 4×8 mesh.
    pub fn icpp2010() -> CmpConfig {
        CmpConfig {
            mesh: Mesh2D::new(4, 8),
            core: CoreConfig::default(),
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: LINE_BYTES,
                hit_latency: 1,
                extra_data_latency: 0,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 4,
                line_bytes: LINE_BYTES,
                hit_latency: 6,
                extra_data_latency: 2,
            },
            noc: NocConfig::default(),
            mem: MemConfig::default(),
            gline: GlineConfig::default(),
        }
    }

    /// The Table 1 configuration scaled to `n` cores (used by the Figure 5
    /// core-count sweep). The mesh is the squarest factorization of `n`.
    pub fn icpp2010_with_cores(n: usize) -> CmpConfig {
        let mut c = CmpConfig::icpp2010();
        c.mesh = Mesh2D::squarest(n);
        c
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.mesh.num_tiles()
    }

    /// Total G-lines needed per barrier context:
    /// `2 × (rows + 1)` for an `R × C` mesh (two per row plus two for the
    /// first column) — the paper's `2 × (√NumCores + 1)` for square meshes.
    pub fn glines_per_barrier(&self) -> u32 {
        2 * (self.mesh.rows as u32 + 1)
    }

    /// True when the mesh exceeds the flat single-level G-line budget and
    /// barrier hardware must be the two-level clustered composition
    /// (`max_transmitters` slave transmitters plus the master per line).
    pub fn needs_clustered_gline(&self) -> bool {
        let dim = self.gline.max_transmitters as u64 + 1;
        self.mesh.rows as u64 > dim || self.mesh.cols as u64 > dim
    }

    /// Structural consistency check, run automatically by
    /// [`from_json`](Self::from_json). Errors name the offending config
    /// field so front ends can surface them without a backtrace.
    pub fn validate(&self) -> Result<(), String> {
        // `Mesh2D` itself guarantees nonzero dimensions; re-check here so
        // hand-built configs get the same named error as JSON ones.
        if self.mesh.rows == 0 || self.mesh.cols == 0 {
            return Err(format!(
                "mesh.rows and mesh.cols must be nonzero (got {}x{})",
                self.mesh.rows, self.mesh.cols
            ));
        }
        if self.core.issue_width == 0 {
            return Err("core.issue_width must be at least 1".into());
        }
        if !(self.core.freq_ghz.is_finite() && self.core.freq_ghz > 0.0) {
            return Err(format!(
                "core.freq_ghz must be a positive number (got {})",
                self.core.freq_ghz
            ));
        }
        validate_cache("l1", &self.l1)?;
        validate_cache("l2", &self.l2)?;
        if self.noc.link_bytes == 0 {
            return Err("noc.link_bytes must be at least 1".into());
        }
        // A flit lands in a later tick than the one that sent it.
        if self.noc.router_latency == 0 {
            return Err("noc.router_latency must be at least 1".into());
        }
        if self
            .noc
            .router_latency
            .checked_add(self.noc.link_latency)
            .is_none()
        {
            return Err(format!(
                "noc.router_latency + noc.link_latency must fit 32 bits (got {} + {})",
                self.noc.router_latency, self.noc.link_latency
            ));
        }
        if !(1..=MAX_VC_BUFFER_FLITS).contains(&self.noc.vc_buffer_flits) {
            return Err(format!(
                "noc.vc_buffer_flits must be between 1 and {MAX_VC_BUFFER_FLITS} (got {})",
                self.noc.vc_buffer_flits
            ));
        }
        if self.gline.line_latency == 0 {
            return Err("gline.line_latency must be at least 1".into());
        }
        if self.gline.max_transmitters == 0 {
            return Err("gline.max_transmitters must be at least 1".into());
        }
        if self.gline.contexts == 0 {
            return Err("gline.contexts must be at least 1".into());
        }
        // Two G-line levels span at most (max_transmitters + 1)² tiles
        // per dimension; beyond that a third level would be required.
        let dim = self.gline.max_transmitters as u64 + 1;
        let span = dim.saturating_mul(dim);
        if self.mesh.rows as u64 > span || self.mesh.cols as u64 > span {
            return Err(format!(
                "{}x{} mesh needs more than two G-line levels at \
                 gline.max_transmitters = {} (limit {span} rows/cols; \
                 raise gline.max_transmitters or shrink the mesh)",
                self.mesh.rows, self.mesh.cols, self.gline.max_transmitters
            ));
        }
        Ok(())
    }
}

fn validate_cache(name: &str, c: &CacheConfig) -> Result<(), String> {
    if c.line_bytes != LINE_BYTES {
        return Err(format!(
            "{name}.line_bytes must be {LINE_BYTES}, the coherence protocol's line (got {})",
            c.line_bytes
        ));
    }
    if !(1..=MAX_CACHE_WAYS).contains(&c.ways) {
        return Err(format!(
            "{name}.ways must be between 1 and {MAX_CACHE_WAYS} (got {})",
            c.ways
        ));
    }
    if c.size_bytes == 0 || !c.size_bytes.is_multiple_of(c.line_bytes) {
        return Err(format!(
            "{name}.size_bytes must be a nonzero multiple of {name}.line_bytes \
             (got {} / {})",
            c.size_bytes, c.line_bytes
        ));
    }
    let lines = c.size_bytes / c.line_bytes;
    if !lines.is_multiple_of(c.ways as u64) {
        return Err(format!(
            "{name}: {lines} cache lines not divisible by {name}.ways = {}",
            c.ways
        ));
    }
    let sets = lines / c.ways as u64;
    if !sets.is_power_of_two() {
        return Err(format!(
            "{name}: set count {sets} must be a power of two \
             (adjust {name}.size_bytes or {name}.ways)"
        ));
    }
    // The cache arrays number their sets' chunks with a `u32`.
    if sets > u32::MAX as u64 {
        return Err(format!(
            "{name}: set count {sets} exceeds {} (shrink {name}.size_bytes)",
            u32::MAX
        ));
    }
    Ok(())
}

/// Reading a config back from JSON can fail on missing or mistyped keys.
fn field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Reads integer field `key` of section `section`. Fractional,
/// negative and out-of-range values are named errors, never clamped.
fn uint(v: &Json, section: &str, key: &str, max: u64) -> Result<u64, String> {
    let x = v
        .get(key)
        .ok_or_else(|| format!("missing numeric field \"{section}.{key}\""))?;
    match x.as_u64() {
        Some(n) if n <= max => Ok(n),
        _ => Err(format!(
            "{section}.{key} must be an integer between 0 and {max} (got {x})"
        )),
    }
}

/// [`uint`] for a `u32` field.
fn uint32(v: &Json, section: &str, key: &str) -> Result<u32, String> {
    uint(v, section, key, u32::MAX.into()).map(|n| n as u32)
}

impl ToJson for CmpConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "mesh",
                Json::obj([
                    ("rows", Json::from(self.mesh.rows)),
                    ("cols", Json::from(self.mesh.cols)),
                ]),
            ),
            (
                "core",
                Json::obj([
                    ("freq_ghz", Json::from(self.core.freq_ghz)),
                    ("issue_width", Json::from(self.core.issue_width)),
                ]),
            ),
            ("l1", cache_json(&self.l1)),
            ("l2", cache_json(&self.l2)),
            (
                "noc",
                Json::obj([
                    ("link_bytes", Json::from(self.noc.link_bytes)),
                    ("router_latency", Json::from(self.noc.router_latency)),
                    ("link_latency", Json::from(self.noc.link_latency)),
                    ("vc_buffer_flits", Json::from(self.noc.vc_buffer_flits)),
                    ("header_bytes", Json::from(self.noc.header_bytes)),
                ]),
            ),
            (
                "mem",
                Json::obj([("latency", Json::from(self.mem.latency))]),
            ),
            (
                "gline",
                Json::obj([
                    ("line_latency", Json::from(self.gline.line_latency)),
                    ("max_transmitters", Json::from(self.gline.max_transmitters)),
                    ("contexts", Json::from(self.gline.contexts)),
                ]),
            ),
        ])
    }
}

fn cache_json(c: &CacheConfig) -> Json {
    Json::obj([
        ("size_bytes", Json::from(c.size_bytes)),
        ("ways", Json::from(c.ways)),
        ("line_bytes", Json::from(c.line_bytes)),
        ("hit_latency", Json::from(c.hit_latency)),
        ("extra_data_latency", Json::from(c.extra_data_latency)),
    ])
}

fn cache_from_json(v: &Json, name: &str) -> Result<CacheConfig, String> {
    Ok(CacheConfig {
        size_bytes: uint(v, name, "size_bytes", u64::MAX)?,
        ways: uint32(v, name, "ways")?,
        line_bytes: uint(v, name, "line_bytes", u64::MAX)?,
        hit_latency: uint32(v, name, "hit_latency")?,
        extra_data_latency: uint32(v, name, "extra_data_latency")?,
    })
}

impl CmpConfig {
    /// Reads a configuration back from the [`ToJson`] representation.
    pub fn from_json(v: &Json) -> Result<CmpConfig, String> {
        let sub = |key: &str| v.get(key).ok_or_else(|| format!("missing section {key:?}"));
        let mesh = sub("mesh")?;
        let core = sub("core")?;
        let noc = sub("noc")?;
        let gline = sub("gline")?;
        let rows = uint(mesh, "mesh", "rows", u16::MAX.into())? as u16;
        let cols = uint(mesh, "mesh", "cols", u16::MAX.into())? as u16;
        if rows == 0 || cols == 0 {
            // Checked before `Mesh2D::new`, which would panic.
            return Err(format!(
                "mesh.rows and mesh.cols must be nonzero (got {rows}x{cols})"
            ));
        }
        let cfg = CmpConfig {
            mesh: Mesh2D::new(rows, cols),
            core: CoreConfig {
                freq_ghz: field(core, "freq_ghz")?,
                issue_width: uint(core, "core", "issue_width", u8::MAX.into())? as u8,
            },
            l1: cache_from_json(sub("l1")?, "l1")?,
            l2: cache_from_json(sub("l2")?, "l2")?,
            noc: NocConfig {
                link_bytes: uint32(noc, "noc", "link_bytes")?,
                router_latency: uint32(noc, "noc", "router_latency")?,
                link_latency: uint32(noc, "noc", "link_latency")?,
                vc_buffer_flits: uint32(noc, "noc", "vc_buffer_flits")?,
                header_bytes: uint32(noc, "noc", "header_bytes")?,
            },
            mem: MemConfig {
                latency: uint32(sub("mem")?, "mem", "latency")?,
            },
            gline: GlineConfig {
                line_latency: uint32(gline, "gline", "line_latency")?,
                max_transmitters: uint32(gline, "gline", "max_transmitters")?,
                contexts: uint32(gline, "gline", "contexts")?,
            },
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = CmpConfig::icpp2010();
        assert_eq!(c.num_cores(), 32);
        assert_eq!(c.core.issue_width, 2);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.line_bytes, 64);
        assert_eq!(c.l1.total_latency(), 1);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.total_latency(), 8); // 6+2 cycles
        assert_eq!(c.mem.latency, 400);
        assert_eq!(c.noc.link_bytes, 75);
    }

    #[test]
    fn cache_set_counts() {
        let c = CmpConfig::icpp2010();
        assert_eq!(c.l1.num_sets(), 128); // 32KB / 64B / 4
        assert_eq!(c.l2.num_sets(), 1024); // 256KB / 64B / 4
    }

    #[test]
    fn gline_count_matches_paper_formula() {
        // Paper: 10 G-lines for a 16-core (4×4) CMP.
        let mut c = CmpConfig::icpp2010_with_cores(16);
        assert_eq!(c.glines_per_barrier(), 10);
        // 32 cores → 4×8 mesh → 2×(4+1) = 10 as well (4 rows).
        c = CmpConfig::icpp2010();
        assert_eq!(c.glines_per_barrier(), 10);
    }

    #[test]
    fn with_cores_shapes() {
        assert_eq!(CmpConfig::icpp2010_with_cores(1).mesh, Mesh2D::new(1, 1));
        assert_eq!(CmpConfig::icpp2010_with_cores(4).mesh, Mesh2D::new(2, 2));
        assert_eq!(CmpConfig::icpp2010_with_cores(8).mesh, Mesh2D::new(2, 4));
        assert_eq!(CmpConfig::icpp2010_with_cores(32).mesh, Mesh2D::new(4, 8));
    }

    #[test]
    fn config_json_round_trip() {
        let c = CmpConfig::icpp2010();
        let s = c.to_json().pretty();
        let d = CmpConfig::from_json(&crate::json::parse(&s).unwrap()).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn config_from_json_reports_missing_fields() {
        let v = crate::json::parse("{}").unwrap();
        let e = CmpConfig::from_json(&v).unwrap_err();
        assert!(e.contains("mesh"), "{e}");
    }

    #[test]
    fn from_json_rejects_zero_mesh_dims_without_panicking() {
        let mut c = CmpConfig::icpp2010();
        let s = c.to_json().pretty().replace("\"rows\": 4", "\"rows\": 0");
        let e = CmpConfig::from_json(&crate::json::parse(&s).unwrap()).unwrap_err();
        assert!(e.contains("mesh.rows"), "{e}");
        c.mesh.cols = 0; // hand-built configs get the same named error
        assert!(c.validate().unwrap_err().contains("mesh.cols"));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut c = CmpConfig::icpp2010();
        assert_eq!(c.validate(), Ok(()));
        c.gline.contexts = 0;
        assert!(c.validate().unwrap_err().contains("gline.contexts"));
        c = CmpConfig::icpp2010();
        c.l1.ways = 3;
        assert!(c.validate().unwrap_err().contains("l1"));
        c = CmpConfig::icpp2010();
        c.l2.size_bytes = 100;
        assert!(c.validate().unwrap_err().contains("l2.size_bytes"));
    }

    #[test]
    fn noc_fields_the_routers_cannot_build_are_named_not_asserted() {
        let json_with = |field: &str, value: u32| {
            let s = CmpConfig::icpp2010().to_json().pretty();
            let old = match field {
                "link_bytes" => "\"link_bytes\": 75",
                "router_latency" => "\"router_latency\": 3",
                "link_latency" => "\"link_latency\": 1",
                _ => "\"vc_buffer_flits\": 4",
            };
            assert!(s.contains(old), "{s}");
            let s = s.replace(old, &format!("\"{field}\": {value}"));
            CmpConfig::from_json(&crate::json::parse(&s).unwrap())
        };
        for (field, value) in [
            ("vc_buffer_flits", 0),
            ("vc_buffer_flits", MAX_VC_BUFFER_FLITS + 1),
            ("link_bytes", 0),
            ("router_latency", 0),
            ("link_latency", u32::MAX),
        ] {
            let e = json_with(field, value).unwrap_err();
            assert!(
                e.contains(&format!("noc.{field}")),
                "{field} = {value}: {e}"
            );
        }
        let cfg = json_with("vc_buffer_flits", MAX_VC_BUFFER_FLITS).unwrap();
        assert_eq!(cfg.noc.vc_buffer_flits, MAX_VC_BUFFER_FLITS);
        assert_eq!(json_with("link_bytes", 1).unwrap().noc.link_bytes, 1);
        assert_eq!(
            json_with("router_latency", 1).unwrap().noc.router_latency,
            1
        );
        // A zero-cycle link is fine: the router stage keeps arrivals in
        // a later tick.
        assert_eq!(json_with("link_latency", 0).unwrap().noc.link_latency, 0);
    }

    #[test]
    fn integer_fields_are_rejected_by_name_never_clamped() {
        let table1 = CmpConfig::icpp2010().to_json().pretty();
        for (old, new, named) in [
            (
                "\"issue_width\": 2",
                "\"issue_width\": 300",
                "core.issue_width",
            ),
            (
                "\"issue_width\": 2",
                "\"issue_width\": 1.5",
                "core.issue_width",
            ),
            ("\"ways\": 4", "\"ways\": -4", "l1.ways"),
            ("\"rows\": 4", "\"rows\": 65536", "mesh.rows"),
            ("\"latency\": 400", "\"latency\": 4294967296", "mem.latency"),
            ("\"contexts\": 1", "\"contexts\": \"1\"", "gline.contexts"),
        ] {
            assert!(table1.contains(old), "{old}");
            let s = table1.replacen(old, new, 1);
            let e = CmpConfig::from_json(&crate::json::parse(&s).unwrap()).unwrap_err();
            assert!(e.contains(named), "{new}: {e}");
        }
    }

    #[test]
    fn lines_are_the_protocols_64_bytes_and_ways_fit_the_fill_counter() {
        let mut c = CmpConfig::icpp2010();
        c.l1.line_bytes = 128;
        assert!(c.validate().unwrap_err().contains("l1.line_bytes"));
        c = CmpConfig::icpp2010();
        c.l2.line_bytes = 32;
        assert!(c.validate().unwrap_err().contains("l2.line_bytes"));
        c = CmpConfig::icpp2010();
        c.l2.ways = MAX_CACHE_WAYS + 1;
        c.l2.size_bytes = LINE_BYTES * c.l2.ways as u64;
        assert!(c.validate().unwrap_err().contains("l2.ways"));
        c.l2.ways = 128;
        c.l2.size_bytes = LINE_BYTES * 128 * 8;
        assert_eq!(c.validate(), Ok(()));
        c.core.freq_ghz = f64::NAN;
        assert!(c.validate().unwrap_err().contains("core.freq_ghz"));
    }

    #[test]
    fn validate_rejects_three_level_meshes_and_flags_clustering() {
        let mut c = CmpConfig::icpp2010_with_cores(1024);
        assert_eq!(c.mesh, Mesh2D::new(32, 32));
        assert!(c.needs_clustered_gline(), "32x32 exceeds the flat budget");
        assert_eq!(c.validate(), Ok(()), "two levels span 64x64");
        assert!(!CmpConfig::icpp2010().needs_clustered_gline());

        c.mesh = Mesh2D::new(65, 65);
        let e = c.validate().unwrap_err();
        assert!(e.contains("more than two G-line levels"), "{e}");
        assert!(e.contains("gline.max_transmitters"), "{e}");
    }
}
