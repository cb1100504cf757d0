//! The floating-gate capacitance network — eq. (2) and (3) of the paper.
//!
//! ```text
//! CT  = CFC + CFS + CFB + CFD                          (2)
//! VFG = GCR·VGS + QFG/CT,   GCR = CFC/CT               (3)
//! ```
//!
//! The generalised form implemented by
//! [`CapacitanceNetwork::floating_gate_voltage_full`] keeps the source,
//! drain and body terms; the paper's eq. (3) is the special case with all
//! of them grounded (exactly how the paper treats the 50 mV drain bias,
//! §III).

use gnr_units::{Capacitance, Charge, Voltage};

use crate::geometry::FgtGeometry;
use crate::{DeviceError, Result};
use gnr_materials::oxide::Oxide;

/// The four capacitances coupling the floating gate to its terminals.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CapacitanceNetwork {
    /// Floating gate ↔ control gate (through the control oxide).
    cfc: Capacitance,
    /// Floating gate ↔ source overlap.
    cfs: Capacitance,
    /// Floating gate ↔ body/channel (through the tunnel oxide).
    cfb: Capacitance,
    /// Floating gate ↔ drain overlap.
    cfd: Capacitance,
}

impl CapacitanceNetwork {
    /// Creates the network from four explicit capacitances.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidParameter`] when `CFC` is non-positive or any
    /// other capacitance is negative.
    pub fn new(
        cfc: Capacitance,
        cfs: Capacitance,
        cfb: Capacitance,
        cfd: Capacitance,
    ) -> Result<Self> {
        if cfc.as_farads() <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "cfc",
                value: cfc.as_farads(),
                constraint: "must be positive",
            });
        }
        for (name, c) in [("cfs", cfs), ("cfb", cfb), ("cfd", cfd)] {
            if c.as_farads() < 0.0 {
                return Err(DeviceError::InvalidParameter {
                    name,
                    value: c.as_farads(),
                    constraint: "must be non-negative",
                });
            }
        }
        Ok(Self { cfc, cfs, cfb, cfd })
    }

    /// Builds the network from parallel-plate estimates over the cell
    /// geometry: `CFC` spans the full gate area through the control
    /// oxide; the tunnel-oxide capacitance is split between body (80 %)
    /// and the source/drain overlaps (10 % each).
    ///
    /// Real cells tune `GCR` with wrap-around control gates; use
    /// [`Self::from_gcr`] to pin the paper's `GCR = 0.6` exactly.
    #[must_use]
    pub fn from_geometry(
        geometry: &FgtGeometry,
        tunnel_oxide: &Oxide,
        control_oxide: &Oxide,
    ) -> Self {
        let area = geometry.gate_area();
        let cfc = control_oxide.capacitance_per_area(geometry.control_oxide_thickness()) * area;
        let c_tox = tunnel_oxide.capacitance_per_area(geometry.tunnel_oxide_thickness()) * area;
        Self {
            cfc,
            cfs: c_tox * 0.1,
            cfb: c_tox * 0.8,
            cfd: c_tox * 0.1,
        }
    }

    /// Builds a network with an exact gate-coupling ratio and total
    /// capacitance — the parameterisation the paper sweeps (Figures 6
    /// and 8 vary GCR directly). The non-control capacitance is split
    /// body 80 %, source 10 %, drain 10 %.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidParameter`] unless `0 < gcr < 1` and
    /// `total > 0`.
    pub fn from_gcr(gcr: f64, total: Capacitance) -> Result<Self> {
        if !(gcr > 0.0 && gcr < 1.0) {
            return Err(DeviceError::InvalidParameter {
                name: "gcr",
                value: gcr,
                constraint: "must lie strictly between 0 and 1",
            });
        }
        if total.as_farads() <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "total",
                value: total.as_farads(),
                constraint: "must be positive",
            });
        }
        let cfc = total * gcr;
        let rest = total * (1.0 - gcr);
        Ok(Self {
            cfc,
            cfs: rest * 0.1,
            cfb: rest * 0.8,
            cfd: rest * 0.1,
        })
    }

    /// Floating gate ↔ control gate capacitance `CFC`.
    #[must_use]
    pub fn cfc(&self) -> Capacitance {
        self.cfc
    }

    /// Floating gate ↔ source capacitance `CFS`.
    #[must_use]
    pub fn cfs(&self) -> Capacitance {
        self.cfs
    }

    /// Floating gate ↔ body capacitance `CFB`.
    #[must_use]
    pub fn cfb(&self) -> Capacitance {
        self.cfb
    }

    /// Floating gate ↔ drain capacitance `CFD`.
    #[must_use]
    pub fn cfd(&self) -> Capacitance {
        self.cfd
    }

    /// Total capacitance `CT` — eq. (2).
    #[must_use]
    pub fn total(&self) -> Capacitance {
        self.cfc + self.cfs + self.cfb + self.cfd
    }

    /// Gate-coupling ratio `GCR = CFC / CT`.
    #[must_use]
    pub fn gcr(&self) -> f64 {
        self.cfc / self.total()
    }

    /// Floating-gate potential — eq. (3): `VFG = GCR·VGS + QFG/CT`
    /// (source, drain and body grounded).
    #[must_use]
    pub fn floating_gate_voltage(&self, vgs: Voltage, qfg: Charge) -> Voltage {
        Voltage::from_volts(self.gcr() * vgs.as_volts()) + qfg / self.total()
    }

    /// Generalised floating-gate potential with all terminal biases:
    /// `VFG = (CFC·VGS + CFS·VS + CFB·VB + CFD·VD + QFG)/CT`.
    ///
    /// Reduces exactly to eq. (3) when `VS = VB = VD = 0`.
    #[must_use]
    pub fn floating_gate_voltage_full(
        &self,
        vgs: Voltage,
        vs: Voltage,
        vb: Voltage,
        vd: Voltage,
        qfg: Charge,
    ) -> Voltage {
        let num = self.cfc * vgs + self.cfs * vs + self.cfb * vb + self.cfd * vd;
        Voltage::from_volts((num.as_coulombs() + qfg.as_coulombs()) / self.total().as_farads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_units::Length;

    #[test]
    fn papers_worked_example_vfg_9v() {
        // §III: VGS = 15 V, GCR = 0.6, QFG = 0 → VFG = 9 V.
        let net = CapacitanceNetwork::from_gcr(0.6, Capacitance::from_attofarads(5.0)).unwrap();
        let vfg = net.floating_gate_voltage(Voltage::from_volts(15.0), Charge::ZERO);
        assert!((vfg.as_volts() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn stored_electrons_lower_vfg() {
        // §III: "Negative charge accumulation on floating gate lowers VFG".
        let net = CapacitanceNetwork::from_gcr(0.6, Capacitance::from_attofarads(5.0)).unwrap();
        let vgs = Voltage::from_volts(15.0);
        let v0 = net.floating_gate_voltage(vgs, Charge::ZERO);
        let v1 = net.floating_gate_voltage(vgs, Charge::from_electrons(-50.0));
        assert!(v1 < v0);
    }

    #[test]
    fn total_is_sum_of_four() {
        let net = CapacitanceNetwork::new(
            Capacitance::from_attofarads(3.0),
            Capacitance::from_attofarads(0.5),
            Capacitance::from_attofarads(1.0),
            Capacitance::from_attofarads(0.5),
        )
        .unwrap();
        assert!((net.total().as_attofarads() - 5.0).abs() < 1e-12);
        assert!((net.gcr() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn from_gcr_round_trips() {
        for gcr in [0.3, 0.5, 0.6, 0.8] {
            let net = CapacitanceNetwork::from_gcr(gcr, Capacitance::from_attofarads(4.0)).unwrap();
            assert!((net.gcr() - gcr).abs() < 1e-12);
            assert!((net.total().as_attofarads() - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gcr_bounds_enforced() {
        let c = Capacitance::from_attofarads(4.0);
        assert!(CapacitanceNetwork::from_gcr(0.0, c).is_err());
        assert!(CapacitanceNetwork::from_gcr(1.0, c).is_err());
        assert!(CapacitanceNetwork::from_gcr(0.5, Capacitance::ZERO).is_err());
    }

    #[test]
    fn full_form_reduces_to_eq3_when_grounded() {
        let net = CapacitanceNetwork::from_gcr(0.55, Capacitance::from_attofarads(5.0)).unwrap();
        let vgs = Voltage::from_volts(12.0);
        let q = Charge::from_electrons(-20.0);
        let simple = net.floating_gate_voltage(vgs, q);
        let full =
            net.floating_gate_voltage_full(vgs, Voltage::ZERO, Voltage::ZERO, Voltage::ZERO, q);
        assert!((simple.as_volts() - full.as_volts()).abs() < 1e-12);
    }

    #[test]
    fn drain_bias_couples_through_cfd() {
        // The paper's 50 mV drain bias perturbs VFG by (CFD/CT)·50 mV —
        // small, which is why the paper neglects it.
        let net = CapacitanceNetwork::from_gcr(0.6, Capacitance::from_attofarads(5.0)).unwrap();
        let with_vd = net.floating_gate_voltage_full(
            Voltage::from_volts(15.0),
            Voltage::ZERO,
            Voltage::ZERO,
            Voltage::from_millivolts(50.0),
            Charge::ZERO,
        );
        let delta = with_vd.as_volts() - 9.0;
        assert!(delta > 0.0 && delta < 0.005, "delta = {delta}");
    }

    #[test]
    fn from_geometry_produces_physical_values() {
        use gnr_materials::oxide::Oxide;
        let g = crate::geometry::FgtGeometry::paper_nominal();
        let net = CapacitanceNetwork::from_geometry(
            &g,
            &Oxide::silicon_dioxide(),
            &Oxide::silicon_dioxide(),
        );
        // Attofarad scale for a 22x22 nm cell.
        let total = net.total().as_attofarads();
        assert!(total > 1.0 && total < 10.0, "CT = {total} aF");
        // Planar stack: thick control oxide means modest GCR.
        assert!(net.gcr() > 0.2 && net.gcr() < 0.4, "GCR = {}", net.gcr());
    }

    #[test]
    fn with_thinner_xto_cfb_grows() {
        use gnr_materials::oxide::Oxide;
        let g = crate::geometry::FgtGeometry::paper_nominal();
        let g_thin = g.with_tunnel_oxide(Length::from_nanometers(4.0)).unwrap();
        let ox = Oxide::silicon_dioxide();
        let base = CapacitanceNetwork::from_geometry(&g, &ox, &ox);
        let thin = CapacitanceNetwork::from_geometry(&g_thin, &ox, &ox);
        assert!(thin.cfb() > base.cfb());
        assert!(thin.gcr() < base.gcr());
    }
}
