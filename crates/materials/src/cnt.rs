//! Carbon nanotube models — the paper's floating-gate material.
//!
//! The floating gate of the proposed device is a CNT layer (paper Figure
//! 1). For the charge-storage model the relevant properties are the work
//! function (sets the barrier for charge *leaving* the floating gate), the
//! metallicity (a metallic gate equilibrates stored charge quickly) and the
//! geometric capacitance contribution of the tube array.

use gnr_units::{Energy, Length};

use crate::graphene;
use crate::{MaterialError, Result};

/// A chirality index pair `(n, m)` with `n ≥ m ≥ 0`, `n > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Chirality {
    n: u32,
    m: u32,
}

impl Chirality {
    /// Creates a chirality pair.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] unless `n ≥ m` and `n > 0`.
    pub fn new(n: u32, m: u32) -> Result<Self> {
        if n == 0 || m > n {
            return Err(MaterialError::InvalidParameter {
                name: "chirality",
                value: f64::from(n),
                constraint: "requires n > 0 and n >= m",
            });
        }
        Ok(Self { n, m })
    }

    /// First index `n`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Second index `m`.
    #[must_use]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Metallic when `(n − m) mod 3 == 0` (armchair and 1/3 of the rest).
    #[must_use]
    pub fn is_metallic(&self) -> bool {
        (self.n - self.m).is_multiple_of(3)
    }

    /// Tube diameter `d = a·√(n² + nm + m²)/π` with `a` the graphene
    /// lattice constant.
    #[must_use]
    pub fn diameter(&self) -> Length {
        let n = f64::from(self.n);
        let m = f64::from(self.m);
        let a = graphene::lattice_constant().as_meters();
        Length::from_meters(a * (n * n + n * m + m * m).sqrt() / core::f64::consts::PI)
    }
}

/// A single-walled carbon nanotube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Cnt {
    chirality: Chirality,
}

impl Cnt {
    /// Creates a nanotube with the given chirality.
    #[must_use]
    pub fn new(chirality: Chirality) -> Self {
        Self { chirality }
    }

    /// The metallic (10, 10) armchair tube used as the paper's
    /// floating-gate preset (metallic tubes equilibrate stored charge
    /// across the gate, behaving like a conventional conductive FG).
    #[must_use]
    pub fn paper_floating_gate() -> Self {
        Self::new(Chirality::new(10, 10).expect("(10, 10) is valid"))
    }

    /// Chirality indices.
    #[must_use]
    pub fn chirality(&self) -> Chirality {
        self.chirality
    }

    /// Tube diameter.
    #[must_use]
    pub fn diameter(&self) -> Length {
        self.chirality.diameter()
    }

    /// Band gap: 0 for metallic tubes, else the textbook
    /// `E_g ≈ 2 γ₀ a_cc / d ≈ 0.84 eV·nm / d` scaling.
    #[must_use]
    pub fn band_gap(&self) -> Energy {
        if self.chirality.is_metallic() {
            return Energy::from_ev(0.0);
        }
        let d_nm = self.diameter().as_nanometers();
        let prefactor_ev_nm =
            2.0 * graphene::hopping_energy().as_ev() * graphene::bond_length().as_nanometers();
        Energy::from_ev(prefactor_ev_nm / d_nm)
    }

    /// Work function: the graphite-like bulk value 4.7 eV with the
    /// curvature correction `+0.2 eV·nm / d` for small tubes
    /// (photoemission-fitted trend).
    #[must_use]
    pub fn work_function(&self) -> Energy {
        let d_nm = self.diameter().as_nanometers();
        Energy::from_ev(4.7 + 0.2 * (1.0 / d_nm - 1.0 / 1.356).clamp(-0.5, 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armchair_tubes_are_metallic() {
        assert!(Chirality::new(10, 10).unwrap().is_metallic());
        assert!(Chirality::new(9, 0).unwrap().is_metallic());
        assert!(!Chirality::new(10, 0).unwrap().is_metallic());
        assert!(!Chirality::new(8, 0).unwrap().is_metallic());
    }

    #[test]
    fn diameter_of_10_10_tube() {
        // (10,10): d = 2.46 Å * sqrt(300) / π ≈ 13.56 Å.
        let d = Chirality::new(10, 10).unwrap().diameter();
        assert!((d.as_angstroms() - 13.56).abs() < 0.05);
    }

    #[test]
    fn semiconducting_gap_scales_inverse_diameter() {
        let small = Cnt::new(Chirality::new(10, 0).unwrap());
        let large = Cnt::new(Chirality::new(20, 0).unwrap());
        assert!(small.band_gap() > large.band_gap());
        // (10,0): d ≈ 0.78 nm → Eg ≈ 0.98 eV. Accept the textbook window.
        let gap = small.band_gap().as_ev();
        assert!(gap > 0.7 && gap < 1.3, "gap = {gap}");
    }

    #[test]
    fn metallic_tube_has_zero_gap() {
        assert_eq!(Cnt::paper_floating_gate().band_gap().as_ev(), 0.0);
    }

    #[test]
    fn work_function_in_photoemission_range() {
        let wf = Cnt::paper_floating_gate().work_function().as_ev();
        assert!(wf > 4.5 && wf < 5.0, "wf = {wf}");
    }

    #[test]
    fn smaller_tubes_have_larger_work_function() {
        let small = Cnt::new(Chirality::new(7, 7).unwrap());
        let large = Cnt::new(Chirality::new(15, 15).unwrap());
        assert!(small.work_function() > large.work_function());
    }

    #[test]
    fn invalid_chirality_rejected() {
        assert!(Chirality::new(0, 0).is_err());
        assert!(Chirality::new(5, 6).is_err());
    }
}
