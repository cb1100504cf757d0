//! Graphene nanoribbon (GNR) band structure.
//!
//! Armchair GNRs (AGNR) are semiconducting with a width-dependent gap that
//! splits into three families by the dimer-line count `N mod 3`; zigzag
//! ribbons are (in the simple picture used here) quasi-metallic. The
//! analytic gap model is the standard `E_g ≈ α_family / W` scaling fitted
//! to first-principles results (Son–Cohen–Louie); it is an approximation,
//! which is sufficient because the flash-memory model consumes only the
//! work function and a coarse gap classification.

use gnr_units::{Energy, Length};

use crate::graphene;
use crate::{MaterialError, Result};

/// Ribbon edge termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Edge {
    /// Armchair edge — semiconducting families.
    Armchair,
    /// Zigzag edge — quasi-metallic (edge states).
    Zigzag,
}

/// The three armchair families by dimer count `N mod 3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum ArmchairFamily {
    /// `N = 3p`: moderate gap.
    ThreeP,
    /// `N = 3p + 1`: largest gap.
    ThreePPlusOne,
    /// `N = 3p + 2`: smallest gap (quasi-metallic in tight binding).
    ThreePPlusTwo,
}

/// A graphene nanoribbon specified by edge type and dimer-line count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Nanoribbon {
    edge: Edge,
    dimer_lines: u32,
}

impl Nanoribbon {
    /// Creates a ribbon with `dimer_lines` dimer lines across its width.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] when `dimer_lines < 3` (below
    /// that the "ribbon" is a polymer chain, not graphene).
    pub fn new(edge: Edge, dimer_lines: u32) -> Result<Self> {
        if dimer_lines < 3 {
            return Err(MaterialError::InvalidParameter {
                name: "dimer_lines",
                value: f64::from(dimer_lines),
                constraint: "must be at least 3",
            });
        }
        Ok(Self { edge, dimer_lines })
    }

    /// Edge termination.
    #[must_use]
    pub fn edge(&self) -> Edge {
        self.edge
    }

    /// Dimer-line count `N`.
    #[must_use]
    pub fn dimer_lines(&self) -> u32 {
        self.dimer_lines
    }

    /// Armchair family, or `None` for zigzag ribbons.
    #[must_use]
    pub fn family(&self) -> Option<ArmchairFamily> {
        match self.edge {
            Edge::Zigzag => None,
            Edge::Armchair => Some(match self.dimer_lines % 3 {
                0 => ArmchairFamily::ThreeP,
                1 => ArmchairFamily::ThreePPlusOne,
                _ => ArmchairFamily::ThreePPlusTwo,
            }),
        }
    }

    /// Ribbon width `W = (N − 1)·a/2` with `a` the graphene lattice
    /// constant.
    #[must_use]
    pub fn width(&self) -> Length {
        let a = graphene::lattice_constant().as_meters();
        Length::from_meters(f64::from(self.dimer_lines - 1) * a / 2.0)
    }

    /// Band gap from the `E_g = α / W` family scaling.
    ///
    /// Family prefactors (fits to ab-initio gaps): `3p` → 0.8 eV·nm,
    /// `3p+1` → 1.0 eV·nm, `3p+2` → 0.08 eV·nm; zigzag → 0 (quasi-metallic).
    #[must_use]
    pub fn band_gap(&self) -> Energy {
        let w_nm = self.width().as_nanometers();
        let alpha_ev_nm = match self.family() {
            None => return Energy::from_ev(0.0),
            Some(ArmchairFamily::ThreeP) => 0.8,
            Some(ArmchairFamily::ThreePPlusOne) => 1.0,
            Some(ArmchairFamily::ThreePPlusTwo) => 0.08,
        };
        Energy::from_ev(alpha_ev_nm / w_nm)
    }

    /// `true` when the gap is below thermal smearing at room temperature
    /// (taken as 4 `k_B T` ≈ 0.1 eV) — treated as metallic by the device
    /// model.
    #[must_use]
    pub fn is_quasi_metallic(&self) -> bool {
        self.band_gap().as_ev() < 0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_assigned_by_mod_three() {
        let n9 = Nanoribbon::new(Edge::Armchair, 9).unwrap();
        let n10 = Nanoribbon::new(Edge::Armchair, 10).unwrap();
        let n11 = Nanoribbon::new(Edge::Armchair, 11).unwrap();
        assert_eq!(n9.family(), Some(ArmchairFamily::ThreeP));
        assert_eq!(n10.family(), Some(ArmchairFamily::ThreePPlusOne));
        assert_eq!(n11.family(), Some(ArmchairFamily::ThreePPlusTwo));
    }

    #[test]
    fn zigzag_has_no_family_and_no_gap() {
        let z = Nanoribbon::new(Edge::Zigzag, 12).unwrap();
        assert_eq!(z.family(), None);
        assert_eq!(z.band_gap().as_ev(), 0.0);
        assert!(z.is_quasi_metallic());
    }

    #[test]
    fn gap_shrinks_with_width_within_a_family() {
        let narrow = Nanoribbon::new(Edge::Armchair, 10).unwrap();
        let wide = Nanoribbon::new(Edge::Armchair, 40).unwrap();
        assert_eq!(narrow.family(), wide.family());
        assert!(narrow.band_gap() > wide.band_gap());
    }

    #[test]
    fn family_gap_ordering_matches_ab_initio_trend() {
        // Same width scale, different families: 3p+1 > 3p > 3p+2.
        let g3p = Nanoribbon::new(Edge::Armchair, 9).unwrap().band_gap();
        let g3p1 = Nanoribbon::new(Edge::Armchair, 10).unwrap().band_gap();
        let g3p2 = Nanoribbon::new(Edge::Armchair, 11).unwrap().band_gap();
        assert!(g3p1 > g3p);
        assert!(g3p > g3p2);
    }

    #[test]
    fn width_formula() {
        let r = Nanoribbon::new(Edge::Armchair, 9).unwrap();
        // (9-1) * 2.46 Å / 2 = 9.84 Å.
        assert!((r.width().as_angstroms() - 9.84).abs() < 1e-9);
    }

    #[test]
    fn too_narrow_ribbon_rejected() {
        assert!(Nanoribbon::new(Edge::Armchair, 2).is_err());
    }

    #[test]
    fn typical_2nm_agnr_gap_near_half_ev() {
        // N = 17 → W ≈ 1.97 nm, 3p+2 family is tiny; use N = 16 (3p+1).
        let r = Nanoribbon::new(Edge::Armchair, 16).unwrap();
        let gap = r.band_gap().as_ev();
        assert!(gap > 0.3 && gap < 0.8, "gap = {gap} eV");
    }
}
