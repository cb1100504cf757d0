//! Numeric WKB transmission through arbitrary one-dimensional barrier
//! profiles.
//!
//! The analytic FN law *is* the WKB result for an ideal triangular
//! barrier; this module computes the transmission integral numerically so
//! the analytic forms can be validated (and so the Figure 2 band diagram
//! can be drawn for the real, image-rounded barrier).
//!
//! Transmission at longitudinal energy `E_x` (measured from the emitter
//! Fermi level):
//!
//! ```text
//! T(E_x) = exp(−2 ∫ √(2·m_ox·(U(x) − E_x))/ħ dx)
//! ```
//!
//! over the classically forbidden region `U(x) > E_x`.

use gnr_numerics::integrate::gauss_legendre_composite;
use gnr_units::constants::{ELEMENTARY_CHARGE, REDUCED_PLANCK, VACUUM_PERMITTIVITY};
use gnr_units::{ElectricField, Energy, Length, Mass};

/// A one-dimensional potential-energy barrier profile `U(x)` (joules,
/// relative to the emitter Fermi level) over `x ∈ [0, thickness]`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BarrierProfile {
    /// Barrier height at the emitter interface.
    barrier: Energy,
    /// Film thickness.
    thickness: Length,
    /// Field across the film (positive tilts the barrier down toward the
    /// collector).
    field: ElectricField,
    /// Include the image-force rounding term.
    image_force: bool,
    /// Oxide relative permittivity (for the image term).
    relative_permittivity: f64,
}

impl BarrierProfile {
    /// An ideal triangular/trapezoidal barrier (no image force).
    ///
    /// # Panics
    ///
    /// Panics when barrier or thickness is not positive.
    #[must_use]
    pub fn ideal(barrier: Energy, thickness: Length, field: ElectricField) -> Self {
        assert!(barrier.as_joules() > 0.0, "barrier must be positive");
        assert!(thickness.as_meters() > 0.0, "thickness must be positive");
        Self {
            barrier,
            thickness,
            field,
            image_force: false,
            relative_permittivity: 1.0,
        }
    }

    /// A barrier with image-force rounding in an oxide of the given
    /// permittivity.
    ///
    /// # Panics
    ///
    /// Panics when barrier/thickness are not positive or ε_r < 1.
    #[must_use]
    pub fn with_image_force(
        barrier: Energy,
        thickness: Length,
        field: ElectricField,
        relative_permittivity: f64,
    ) -> Self {
        assert!(
            relative_permittivity >= 1.0,
            "permittivity must be at least 1"
        );
        let mut p = Self::ideal(barrier, thickness, field);
        p.image_force = true;
        p.relative_permittivity = relative_permittivity;
        p
    }

    /// Barrier height at the emitter interface.
    #[must_use]
    pub fn barrier(&self) -> Energy {
        self.barrier
    }

    /// Film thickness.
    #[must_use]
    pub fn thickness(&self) -> Length {
        self.thickness
    }

    /// Potential energy `U(x)` in joules at depth `x` meters into the film.
    ///
    /// `U(x) = ΦB − qEx − q²/(16πε x̃)` where the image term (if enabled)
    /// uses the distance to the nearest electrode
    /// `x̃ = min(x, t − x)` clamped away from the interfaces.
    #[must_use]
    pub fn potential(&self, x: f64) -> f64 {
        let t = self.thickness.as_meters();
        let x = x.clamp(0.0, t);
        let mut u =
            self.barrier.as_joules() - ELEMENTARY_CHARGE * self.field.as_volts_per_meter() * x;
        if self.image_force {
            let eps = VACUUM_PERMITTIVITY * self.relative_permittivity;
            // Clamp the singular image term within one ångström of either
            // electrode (standard regularisation).
            let x_eff = x.min(t - x).max(1.0e-10);
            u -= ELEMENTARY_CHARGE * ELEMENTARY_CHARGE
                / (16.0 * core::f64::consts::PI * eps * x_eff);
        }
        u
    }

    /// Samples `(x, U(x))` at `n + 1` evenly spaced points — the Figure 2
    /// band-diagram data.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn profile_points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n > 0, "need at least one interval");
        let t = self.thickness.as_meters();
        (0..=n)
            .map(|i| {
                let x = t * i as f64 / n as f64;
                (x, self.potential(x))
            })
            .collect()
    }

    /// WKB transmission coefficient at longitudinal energy `e_x` for an
    /// electron of effective mass `m_ox`.
    ///
    /// Returns 1.0 when no classically forbidden region exists.
    #[must_use]
    pub fn transmission(&self, e_x: Energy, m_ox: Mass) -> f64 {
        let t = self.thickness.as_meters();
        let e = e_x.as_joules();
        let m = m_ox.as_kilograms();
        // Forbidden region: U(x) > e. U is monotone for ideal barriers but
        // image rounding makes it non-monotone; integrate κ over the whole
        // film with max(U − e, 0) — exact where allowed regions contribute
        // zero.
        let kappa_integral = gauss_legendre_composite(
            |x| {
                let du = self.potential(x) - e;
                if du > 0.0 {
                    (2.0 * m * du).sqrt() / REDUCED_PLANCK
                } else {
                    0.0
                }
            },
            0.0,
            t,
            64,
        );
        (-2.0 * kappa_integral).exp()
    }

    /// The WKB exponent `−2∫κ` at the emitter Fermi level (`E_x = 0`) —
    /// directly comparable to the analytic FN exponent `−B/E`.
    #[must_use]
    pub fn fermi_level_exponent(&self, m_ox: Mass) -> f64 {
        self.transmission(Energy::from_joules(0.0), m_ox).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fn_model::FnModel;

    const PHI_EV: f64 = 3.15;
    const M_RATIO: f64 = 0.42;

    #[test]
    fn triangular_wkb_exponent_matches_analytic_fn_b() {
        // For a triangular barrier fully tilted through the film, the WKB
        // exponent at the Fermi level is exactly −B/E.
        let field = ElectricField::from_volts_per_meter(1.8e9);
        let profile =
            BarrierProfile::ideal(Energy::from_ev(PHI_EV), Length::from_nanometers(5.0), field);
        let m_ox = Mass::from_electron_masses(M_RATIO);
        let wkb = profile.fermi_level_exponent(m_ox);
        let b = FnModel::new(Energy::from_ev(PHI_EV), m_ox).coefficients().b;
        let analytic = -b / field.as_volts_per_meter();
        assert!(
            (wkb - analytic).abs() / analytic.abs() < 1e-3,
            "wkb = {wkb}, analytic = {analytic}"
        );
    }

    #[test]
    fn transmission_increases_with_energy() {
        let profile = BarrierProfile::ideal(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::from_volts_per_meter(1.0e9),
        );
        let m = Mass::from_electron_masses(M_RATIO);
        let t0 = profile.transmission(Energy::from_ev(0.0), m);
        let t1 = profile.transmission(Energy::from_ev(1.0), m);
        let t_above = profile.transmission(Energy::from_ev(4.0), m);
        assert!(t1 > t0);
        assert_eq!(t_above, 1.0);
    }

    #[test]
    fn transmission_increases_with_field() {
        let m = Mass::from_electron_masses(M_RATIO);
        let t_low = BarrierProfile::ideal(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::from_volts_per_meter(5.0e8),
        )
        .transmission(Energy::from_ev(0.0), m);
        let t_high = BarrierProfile::ideal(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::from_volts_per_meter(1.5e9),
        )
        .transmission(Energy::from_ev(0.0), m);
        assert!(t_high > t_low);
    }

    #[test]
    fn image_force_raises_transmission() {
        let m = Mass::from_electron_masses(M_RATIO);
        let ideal = BarrierProfile::ideal(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::from_volts_per_meter(1.0e9),
        );
        let rounded = BarrierProfile::with_image_force(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::from_volts_per_meter(1.0e9),
            3.9,
        );
        assert!(
            rounded.transmission(Energy::from_ev(0.0), m)
                > ideal.transmission(Energy::from_ev(0.0), m)
        );
    }

    #[test]
    fn band_profile_is_triangular_without_image_force() {
        let profile = BarrierProfile::ideal(
            Energy::from_ev(3.0),
            Length::from_nanometers(6.0),
            ElectricField::from_volts_per_meter(1.0e9),
        );
        let pts = profile.profile_points(6);
        assert_eq!(pts.len(), 7);
        // Linear decrease: U(0) = 3 eV, U(t) = 3 − 6 = −3 eV.
        assert!((pts[0].1 / ELEMENTARY_CHARGE - 3.0).abs() < 1e-9);
        assert!((pts[6].1 / ELEMENTARY_CHARGE + 3.0).abs() < 1e-9);
        // Monotone decreasing.
        for w in pts.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn zero_field_trapezoid_blocks_strongly() {
        let profile = BarrierProfile::ideal(
            Energy::from_ev(PHI_EV),
            Length::from_nanometers(5.0),
            ElectricField::ZERO,
        );
        // Rectangular 3.15 eV barrier, 5 nm: T = exp(−2κt) ≈ e^{−59}.
        let t = profile.transmission(Energy::from_ev(0.0), Mass::from_electron_masses(M_RATIO));
        assert!(t < 1e-20, "T = {t:e}");
        assert!(t > 1e-32, "T = {t:e}");
    }
}
