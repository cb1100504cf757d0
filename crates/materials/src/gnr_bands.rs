//! Nearest-neighbour tight-binding band structure of armchair graphene
//! nanoribbons.
//!
//! The quick `E_g ≈ α/W` scaling in [`crate::gnr`] is enough for the
//! flash-memory model; this module provides the underlying physics — the
//! analytic NN-TB subbands of an N-dimer armchair ribbon:
//!
//! ```text
//! E_n(k) = ±t·√(1 + 4·cosθ_n·cos(k·d/2) + 4·cos²θ_n),
//! θ_n = n·π/(N+1),  n = 1..N,  d = 3·a_cc (1-D period)
//! ```
//!
//! At `k = 0` the subband edge is `t·|1 + 2·cosθ_n|`; a ribbon is
//! metallic exactly when some subband has `cosθ_n = −1/2`, which happens
//! iff `N = 3p + 2` — the tight-binding family rule the simplified model
//! quotes.

use gnr_units::constants::REDUCED_PLANCK;
use gnr_units::{Energy, Mass};

use crate::gnr::{Edge, Nanoribbon};
use crate::graphene;
use crate::{MaterialError, Result};

/// The tight-binding subband structure of one armchair ribbon.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct AgnrBands {
    dimer_lines: u32,
    hopping: Energy,
    /// `cosθ_n` per subband, n = 1..N.
    cos_theta: Vec<f64>,
}

impl AgnrBands {
    /// Builds the band structure of an armchair ribbon with the default
    /// hopping energy γ₀ = 2.7 eV.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] when the ribbon is not
    /// armchair.
    pub fn new(ribbon: Nanoribbon) -> Result<Self> {
        Self::with_hopping(ribbon, graphene::hopping_energy())
    }

    /// Builds the band structure with an explicit hopping energy.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] when the ribbon is not
    /// armchair or the hopping energy is not positive.
    pub fn with_hopping(ribbon: Nanoribbon, hopping: Energy) -> Result<Self> {
        if ribbon.edge() != Edge::Armchair {
            return Err(MaterialError::InvalidParameter {
                name: "edge",
                value: 0.0,
                constraint: "tight-binding subbands implemented for armchair ribbons",
            });
        }
        if hopping.as_joules() <= 0.0 {
            return Err(MaterialError::InvalidParameter {
                name: "hopping",
                value: hopping.as_ev(),
                constraint: "must be positive",
            });
        }
        let n = ribbon.dimer_lines();
        let cos_theta = (1..=n)
            .map(|i| (f64::from(i) * core::f64::consts::PI / f64::from(n + 1)).cos())
            .collect();
        Ok(Self {
            dimer_lines: n,
            hopping,
            cos_theta,
        })
    }

    /// Number of subbands (= dimer lines).
    #[must_use]
    pub fn subband_count(&self) -> usize {
        self.cos_theta.len()
    }

    /// Conduction-subband edge — the minimum of `E_n(k)` over the zone —
    /// of subband `n` (1-based).
    ///
    /// `E_n` is monotone in `cos(k·d/2)`, so the minimum sits at `k = 0`
    /// when `cosθ_n ≤ 0` and at the zone boundary when `cosθ_n > 0`;
    /// either way the edge is `t·|1 − 2·|cosθ_n||`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is 0 or exceeds the subband count.
    #[must_use]
    pub fn subband_edge(&self, n: usize) -> Energy {
        assert!(
            n >= 1 && n <= self.cos_theta.len(),
            "subband index out of range"
        );
        let c = self.cos_theta[n - 1];
        Energy::from_joules(self.hopping.as_joules() * (1.0 - 2.0 * c.abs()).abs())
    }

    /// The wavevector at which subband `n` attains its edge: `0` for
    /// `cosθ_n ≤ 0`, the zone boundary `2π/d` otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `n` is out of range.
    #[must_use]
    pub fn edge_wavevector(&self, n: usize) -> f64 {
        assert!(
            n >= 1 && n <= self.cos_theta.len(),
            "subband index out of range"
        );
        if self.cos_theta[n - 1] <= 0.0 {
            0.0
        } else {
            let d = 3.0 * graphene::bond_length().as_meters();
            2.0 * core::f64::consts::PI / d
        }
    }

    /// The exact tight-binding band gap: twice the smallest subband edge.
    #[must_use]
    pub fn band_gap(&self) -> Energy {
        let min_edge = (1..=self.subband_count())
            .map(|n| self.subband_edge(n).as_joules())
            .fold(f64::INFINITY, f64::min);
        Energy::from_joules(2.0 * min_edge)
    }

    /// `true` when some subband passes through zero (`N = 3p + 2`).
    #[must_use]
    pub fn is_metallic(&self) -> bool {
        self.band_gap().as_ev() < 1e-9
    }

    /// Conduction-band dispersion `E_n(k)` of subband `n` at longitudinal
    /// wavevector `k` (1/m).
    ///
    /// # Panics
    ///
    /// Panics when `n` is out of range.
    #[must_use]
    pub fn dispersion(&self, n: usize, k: f64) -> Energy {
        assert!(
            n >= 1 && n <= self.cos_theta.len(),
            "subband index out of range"
        );
        let c = self.cos_theta[n - 1];
        let d = 3.0 * graphene::bond_length().as_meters();
        let t = self.hopping.as_joules();
        let inner = 1.0 + 4.0 * c * (k * d / 2.0).cos() + 4.0 * c * c;
        Energy::from_joules(t * inner.max(0.0).sqrt())
    }

    /// Effective mass of the lowest conduction subband,
    /// `m* = ħ²/(d²E/dk²)` at the band edge (central second difference
    /// around [`Self::edge_wavevector`]).
    ///
    /// Returns `None` for metallic ribbons (linear bands carry no mass).
    #[must_use]
    pub fn effective_mass(&self) -> Option<Mass> {
        if self.is_metallic() {
            return None;
        }
        let n_min = (1..=self.subband_count())
            .min_by(|&a, &b| {
                self.subband_edge(a)
                    .as_joules()
                    .total_cmp(&self.subband_edge(b).as_joules())
            })
            .expect("at least one subband");
        let k_edge = self.edge_wavevector(n_min);
        let dk = 1.0e7; // 1/m — far inside the parabolic region
        let e0 = self.dispersion(n_min, k_edge).as_joules();
        let ep = self.dispersion(n_min, k_edge + dk).as_joules();
        let em = self.dispersion(n_min, k_edge - dk).as_joules();
        let d2e = (ep - 2.0 * e0 + em) / (dk * dk);
        if d2e <= 0.0 {
            return None;
        }
        Some(Mass::from_kilograms(REDUCED_PLANCK * REDUCED_PLANCK / d2e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bands(n: u32) -> AgnrBands {
        AgnrBands::new(Nanoribbon::new(Edge::Armchair, n).unwrap()).unwrap()
    }

    #[test]
    fn family_rule_matches_tight_binding() {
        // N = 3p+2 metallic, others semiconducting — for many widths.
        for n in 3..40u32 {
            let metallic = bands(n).is_metallic();
            assert_eq!(metallic, n % 3 == 2, "N = {n}");
        }
    }

    #[test]
    fn gap_decreases_with_width_within_family() {
        // 3p+1 family: N = 7, 13, 19, 25.
        let gaps: Vec<f64> = [7u32, 13, 19, 25]
            .iter()
            .map(|&n| bands(n).band_gap().as_ev())
            .collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] < pair[0], "{gaps:?}");
        }
    }

    #[test]
    fn tb_gap_agrees_with_alpha_over_w_scaling() {
        // The E_g ≈ 1.0/W fit of the simplified model should agree with
        // tight binding within a factor of ~2 for the 3p+1 family.
        for n in [10u32, 13, 16, 19] {
            let ribbon = Nanoribbon::new(Edge::Armchair, n).unwrap();
            let tb = bands(n).band_gap().as_ev();
            let fit = ribbon.band_gap().as_ev();
            let ratio = tb / fit;
            assert!((0.5..2.0).contains(&ratio), "N = {n}: tb {tb}, fit {fit}");
        }
    }

    #[test]
    fn dispersion_is_even_and_increasing_from_the_edge() {
        let b = bands(13);
        // A subband with cosθ < 0 has its edge at k = 0: pick the last.
        let n = 13;
        let e0 = b.dispersion(n, 0.0).as_joules();
        assert_eq!(b.edge_wavevector(n), 0.0);
        for k in [1e8, 2e8, 4e8] {
            assert!(
                (b.dispersion(n, k).as_joules() - b.dispersion(n, -k).as_joules()).abs() < 1e-30
            );
            assert!(b.dispersion(n, k).as_joules() >= e0 - 1e-25);
        }
    }

    #[test]
    fn positive_cos_subband_dips_at_zone_boundary() {
        let b = bands(13);
        let n = 1; // cosθ close to +1
        let k_edge = b.edge_wavevector(n);
        assert!(k_edge > 0.0);
        let at_edge = b.dispersion(n, k_edge).as_joules();
        let at_zero = b.dispersion(n, 0.0).as_joules();
        assert!(at_edge < at_zero);
        assert!((at_edge - b.subband_edge(n).as_joules()).abs() < 1e-25);
    }

    #[test]
    fn metallic_ribbon_has_linear_band_near_its_edge() {
        // N = 11 (3p+2): E ≈ ħ·v·|k − k_edge| near the crossing.
        let b = bands(11);
        let n_min = (1..=b.subband_count())
            .min_by(|&x, &y| {
                b.subband_edge(x)
                    .as_joules()
                    .total_cmp(&b.subband_edge(y).as_joules())
            })
            .unwrap();
        let k0 = b.edge_wavevector(n_min);
        let e1 = b.dispersion(n_min, k0 + 1.0e8).as_joules();
        let e2 = b.dispersion(n_min, k0 + 2.0e8).as_joules();
        assert!((e2 / e1 - 2.0).abs() < 0.01, "not linear: {}", e2 / e1);
        // The slope is the graphene Fermi velocity scale.
        let v = e1 / (REDUCED_PLANCK * 1.0e8);
        assert!(v > 5.0e5 && v < 1.5e6, "v = {v:e}");
    }

    #[test]
    fn semiconducting_effective_mass_is_physical() {
        let m = bands(13).effective_mass().expect("semiconducting");
        let ratio = m.as_electron_masses();
        // AGNR effective masses are a few hundredths of m0.
        assert!(ratio > 0.01 && ratio < 0.5, "m* = {ratio} m0");
    }

    #[test]
    fn metallic_ribbon_has_no_mass() {
        assert!(bands(11).effective_mass().is_none());
    }

    #[test]
    fn zigzag_ribbons_rejected() {
        let z = Nanoribbon::new(Edge::Zigzag, 10).unwrap();
        assert!(AgnrBands::new(z).is_err());
    }

    #[test]
    fn subband_count_equals_dimer_lines() {
        assert_eq!(bands(9).subband_count(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subband_index_validated() {
        let _ = bands(9).subband_edge(0);
    }
}
