//! A first-order energy model — the paper's §5 future work ("we will
//! measure the efficiency of our method in terms of power consumption").
//!
//! The paper argues energy savings from traffic reduction, citing that
//! the interconnect approaches 40% of total chip energy (Wang et al.,
//! MICRO'03) and that G-lines are low-power (Krishna et al., HOTI'08).
//! This model turns the simulator's event counts into picojoules with
//! coefficients of the same order as those papers report for ~45 nm
//! technology. The coefficients are configurable; the *ratios* between
//! a software barrier's coherence storm and the GL barrier's handful of
//! one-bit signals are what matter, and they are insensitive to the
//! exact constants.

use crate::stats::SystemReport;
use sim_base::json::{Json, ToJson};

/// Energy coefficients in picojoules per event.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// One flit crossing one router + link (75-byte flit).
    pub flit_hop_pj: f64,
    /// Injection + ejection overhead per message (NI buffers, packetization).
    pub msg_endpoint_pj: f64,
    /// One 1-bit G-line broadcast (low-swing global wire + S-CSMA sense).
    pub gline_signal_pj: f64,
    /// One L1 access.
    pub l1_access_pj: f64,
    /// One L2 bank access (tag + data).
    pub l2_access_pj: f64,
    /// One main-memory line access.
    pub mem_access_pj: f64,
}

impl EnergyModel {
    /// Coefficients of the right order for a ~45 nm CMP: ~0.1 pJ/bit/hop
    /// for the NoC (600-bit flits → 60 pJ), a few pJ for cache accesses,
    /// ~2 pJ per G-line broadcast, tens of nJ per DRAM access.
    pub fn nominal_45nm() -> EnergyModel {
        EnergyModel {
            flit_hop_pj: 60.0,
            msg_endpoint_pj: 20.0,
            gline_signal_pj: 2.0,
            l1_access_pj: 10.0,
            l2_access_pj: 50.0,
            mem_access_pj: 15_000.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::nominal_45nm()
    }
}

/// An energy estimate broken down by subsystem, in nanojoules.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyEstimate {
    /// Data NoC: flit-hops plus per-message endpoints.
    pub noc_nj: f64,
    /// The dedicated G-line barrier network.
    pub gline_nj: f64,
    /// L1 accesses (hits + misses touch the array once here).
    pub l1_nj: f64,
    /// L2 bank accesses.
    pub l2_nj: f64,
    /// Memory accesses.
    pub mem_nj: f64,
}

impl EnergyEstimate {
    /// Total across subsystems.
    pub fn total_nj(&self) -> f64 {
        self.noc_nj + self.gline_nj + self.l1_nj + self.l2_nj + self.mem_nj
    }

    /// Interconnect-only energy (NoC + G-lines) — the paper's argument
    /// concerns this slice.
    pub fn interconnect_nj(&self) -> f64 {
        self.noc_nj + self.gline_nj
    }
}

impl ToJson for EnergyEstimate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("noc_nj", Json::from(self.noc_nj)),
            ("gline_nj", Json::from(self.gline_nj)),
            ("l1_nj", Json::from(self.l1_nj)),
            ("l2_nj", Json::from(self.l2_nj)),
            ("mem_nj", Json::from(self.mem_nj)),
            ("total_nj", Json::from(self.total_nj())),
        ])
    }
}

impl EnergyModel {
    /// Estimates the energy of a finished run.
    pub fn estimate(&self, rep: &SystemReport) -> EnergyEstimate {
        EnergyEstimate {
            noc_nj: (rep.flit_hops as f64 * self.flit_hop_pj
                + rep.traffic.total() as f64 * self.msg_endpoint_pj)
                / 1000.0,
            gline_nj: rep.gl_signals as f64 * self.gline_signal_pj / 1000.0,
            l1_nj: (rep.l1_hits + rep.l1_misses) as f64 * self.l1_access_pj / 1000.0,
            l2_nj: (rep.l2_hits + rep.l2_misses) as f64 * self.l2_access_pj / 1000.0,
            mem_nj: rep.l2_misses as f64 * self.mem_access_pj / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{BarrierEnv, BarrierKind};
    use crate::System;
    use sim_base::config::CmpConfig;
    use sim_isa::{ProgBuilder, Program};

    fn barrier_loop(kind: BarrierKind, n: usize, iters: usize) -> SystemReport {
        let env = BarrierEnv::new(kind, n, 0x1_0000);
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                for _ in 0..iters {
                    env.emit(&mut b, c);
                }
                b.halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(CmpConfig::icpp2010_with_cores(n), progs);
        sys.run(100_000_000).unwrap();
        sys.report()
    }

    #[test]
    fn gl_barrier_interconnect_energy_is_orders_cheaper() {
        let model = EnergyModel::nominal_45nm();
        let gl = model.estimate(&barrier_loop(BarrierKind::Gl, 16, 10));
        let dsw = model.estimate(&barrier_loop(BarrierKind::Dsw, 16, 10));
        assert!(gl.noc_nj == 0.0, "GL must not touch the NoC");
        assert!(gl.gline_nj > 0.0);
        assert!(
            dsw.interconnect_nj() > 100.0 * gl.interconnect_nj(),
            "DSW {} nJ vs GL {} nJ",
            dsw.interconnect_nj(),
            gl.interconnect_nj()
        );
    }

    #[test]
    fn totals_add_up() {
        let e = EnergyEstimate {
            noc_nj: 1.0,
            gline_nj: 2.0,
            l1_nj: 3.0,
            l2_nj: 4.0,
            mem_nj: 5.0,
        };
        assert!((e.total_nj() - 15.0).abs() < 1e-12);
        assert!((e.interconnect_nj() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_scales_linearly_with_coefficients() {
        let rep = barrier_loop(BarrierKind::Dsw, 8, 4);
        let m1 = EnergyModel::nominal_45nm();
        let mut m2 = m1;
        m2.flit_hop_pj *= 2.0;
        let e1 = m1.estimate(&rep);
        let e2 = m2.estimate(&rep);
        let flits_nj = rep.flit_hops as f64 * m1.flit_hop_pj / 1000.0;
        assert!((e2.noc_nj - e1.noc_nj - flits_nj).abs() < 1e-9);
    }
}
