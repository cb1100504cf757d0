//! Insulating oxide (and nitride) models.
//!
//! An [`Oxide`] carries everything the tunneling models need: relative
//! permittivity (capacitances, eq. (2)), electron affinity (barrier
//! heights, eq. (4)), effective tunneling mass (`m_ox` in the FN `B`
//! coefficient), band gap and breakdown field (reliability analyses in
//! `gnr-flash-array`).
//!
//! Preset values follow the standard device-physics literature
//! (Lenzlinger–Snow for SiO₂, Robertson for high-k affinities).

use gnr_units::constants::VACUUM_PERMITTIVITY;
use gnr_units::{CapacitancePerArea, ElectricField, Energy, Length, Mass};

use crate::{MaterialError, Result};

/// An insulating barrier material.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Oxide {
    name: String,
    relative_permittivity: f64,
    electron_affinity: Energy,
    effective_mass: Mass,
    band_gap: Energy,
    breakdown_field: ElectricField,
}

impl Oxide {
    /// Creates a custom oxide.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] when the permittivity is not
    /// ≥ 1, or any energy/mass/field is non-positive.
    pub fn new(
        name: impl Into<String>,
        relative_permittivity: f64,
        electron_affinity: Energy,
        effective_mass: Mass,
        band_gap: Energy,
        breakdown_field: ElectricField,
    ) -> Result<Self> {
        if !(relative_permittivity >= 1.0) {
            return Err(MaterialError::InvalidParameter {
                name: "relative_permittivity",
                value: relative_permittivity,
                constraint: "must be at least 1 (vacuum)",
            });
        }
        if electron_affinity.as_ev() <= 0.0 {
            return Err(MaterialError::InvalidParameter {
                name: "electron_affinity",
                value: electron_affinity.as_ev(),
                constraint: "must be positive (eV)",
            });
        }
        if effective_mass.as_electron_masses() <= 0.0 {
            return Err(MaterialError::InvalidParameter {
                name: "effective_mass",
                value: effective_mass.as_electron_masses(),
                constraint: "must be positive (m0)",
            });
        }
        if band_gap.as_ev() <= 0.0 {
            return Err(MaterialError::InvalidParameter {
                name: "band_gap",
                value: band_gap.as_ev(),
                constraint: "must be positive (eV)",
            });
        }
        if breakdown_field.as_volts_per_meter() <= 0.0 {
            return Err(MaterialError::InvalidParameter {
                name: "breakdown_field",
                value: breakdown_field.as_volts_per_meter(),
                constraint: "must be positive (V/m)",
            });
        }
        Ok(Self {
            name: name.into(),
            relative_permittivity,
            electron_affinity,
            effective_mass,
            band_gap,
            breakdown_field,
        })
    }

    /// Thermal SiO₂ — the paper's implied tunnel/control dielectric.
    ///
    /// ε_r = 3.9, χ = 0.95 eV, m_ox = 0.42 m₀ (Lenzlinger–Snow),
    /// E_g = 9.0 eV, E_bd ≈ 10 MV/cm.
    #[must_use]
    pub fn silicon_dioxide() -> Self {
        Self::new(
            "SiO2",
            3.9,
            Energy::from_ev(0.95),
            Mass::from_electron_masses(0.42),
            Energy::from_ev(9.0),
            ElectricField::from_megavolts_per_centimeter(10.0),
        )
        .expect("preset values are valid")
    }

    /// Al₂O₃ (alumina), a common inter-gate dielectric.
    #[must_use]
    pub fn aluminum_oxide() -> Self {
        Self::new(
            "Al2O3",
            9.0,
            Energy::from_ev(1.35),
            Mass::from_electron_masses(0.28),
            Energy::from_ev(6.8),
            ElectricField::from_megavolts_per_centimeter(8.0),
        )
        .expect("preset values are valid")
    }

    /// HfO₂ (hafnia) high-k dielectric.
    #[must_use]
    pub fn hafnium_dioxide() -> Self {
        Self::new(
            "HfO2",
            20.0,
            Energy::from_ev(2.4),
            Mass::from_electron_masses(0.17),
            Energy::from_ev(5.8),
            ElectricField::from_megavolts_per_centimeter(5.0),
        )
        .expect("preset values are valid")
    }

    /// Hexagonal boron nitride — the natural 2-D partner dielectric for a
    /// graphene channel.
    #[must_use]
    pub fn hexagonal_boron_nitride() -> Self {
        Self::new(
            "h-BN",
            3.5,
            Energy::from_ev(2.0),
            Mass::from_electron_masses(0.5),
            Energy::from_ev(5.97),
            ElectricField::from_megavolts_per_centimeter(12.0),
        )
        .expect("preset values are valid")
    }

    /// Si₃N₄ (charge-trap layer material in SONOS-style stacks).
    #[must_use]
    pub fn silicon_nitride() -> Self {
        Self::new(
            "Si3N4",
            7.5,
            Energy::from_ev(2.1),
            Mass::from_electron_masses(0.42),
            Energy::from_ev(5.3),
            ElectricField::from_megavolts_per_centimeter(7.0),
        )
        .expect("preset values are valid")
    }

    /// Material name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relative permittivity ε_r.
    #[must_use]
    pub fn relative_permittivity(&self) -> f64 {
        self.relative_permittivity
    }

    /// Electron affinity χ (conduction-band edge below vacuum).
    #[must_use]
    pub fn electron_affinity(&self) -> Energy {
        self.electron_affinity
    }

    /// Effective tunneling mass `m_ox`.
    #[must_use]
    pub fn effective_mass(&self) -> Mass {
        self.effective_mass
    }

    /// Band gap.
    #[must_use]
    pub fn band_gap(&self) -> Energy {
        self.band_gap
    }

    /// Catastrophic-breakdown field.
    #[must_use]
    pub fn breakdown_field(&self) -> ElectricField {
        self.breakdown_field
    }

    /// Parallel-plate capacitance per unit area for a film of the given
    /// thickness: `ε₀ ε_r / t`.
    ///
    /// # Panics
    ///
    /// Panics if `thickness` is not positive.
    #[must_use]
    pub fn capacitance_per_area(&self, thickness: Length) -> CapacitancePerArea {
        assert!(
            thickness.as_meters() > 0.0,
            "oxide thickness must be positive"
        );
        CapacitancePerArea::from_farads_per_square_meter(
            VACUUM_PERMITTIVITY * self.relative_permittivity / thickness.as_meters(),
        )
    }

    /// Fraction of the breakdown field reached at the given field
    /// (> 1 means the film is beyond catastrophic breakdown).
    #[must_use]
    pub fn field_stress_ratio(&self, field: ElectricField) -> f64 {
        field.abs().as_volts_per_meter() / self.breakdown_field.as_volts_per_meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sio2_preset_matches_literature() {
        let ox = Oxide::silicon_dioxide();
        assert_eq!(ox.name(), "SiO2");
        assert!((ox.relative_permittivity() - 3.9).abs() < 1e-12);
        assert!((ox.effective_mass().as_electron_masses() - 0.42).abs() < 1e-12);
        assert!((ox.band_gap().as_ev() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn capacitance_per_area_of_5nm_sio2() {
        // ε0 * 3.9 / 5 nm ≈ 6.906e-3 F/m².
        let c = Oxide::silicon_dioxide().capacitance_per_area(Length::from_nanometers(5.0));
        assert!((c.as_farads_per_square_meter() - 6.906e-3).abs() < 1e-5);
    }

    #[test]
    fn high_k_has_higher_capacitance_for_same_thickness() {
        let t = Length::from_nanometers(5.0);
        let c_sio2 = Oxide::silicon_dioxide().capacitance_per_area(t);
        let c_hfo2 = Oxide::hafnium_dioxide().capacitance_per_area(t);
        assert!(c_hfo2.as_farads_per_square_meter() > 4.0 * c_sio2.as_farads_per_square_meter());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Oxide::new(
            "bad",
            0.5,
            Energy::from_ev(1.0),
            Mass::from_electron_masses(0.4),
            Energy::from_ev(9.0),
            ElectricField::from_megavolts_per_centimeter(10.0),
        )
        .is_err());
        assert!(Oxide::new(
            "bad",
            3.9,
            Energy::from_ev(-1.0),
            Mass::from_electron_masses(0.4),
            Energy::from_ev(9.0),
            ElectricField::from_megavolts_per_centimeter(10.0),
        )
        .is_err());
    }

    #[test]
    fn stress_ratio_flags_overstress() {
        let ox = Oxide::silicon_dioxide();
        let over = ElectricField::from_megavolts_per_centimeter(18.0);
        assert!(ox.field_stress_ratio(over) > 1.0);
        let under = ElectricField::from_megavolts_per_centimeter(5.0);
        assert!(ox.field_stress_ratio(under) < 1.0);
        // Sign-independent.
        assert_eq!(ox.field_stress_ratio(-over), ox.field_stress_ratio(over));
    }

    #[test]
    #[should_panic(expected = "thickness must be positive")]
    fn zero_thickness_panics() {
        let _ = Oxide::silicon_dioxide().capacitance_per_area(Length::from_nanometers(0.0));
    }

    #[test]
    fn all_presets_are_distinct_and_valid() {
        let presets = [
            Oxide::silicon_dioxide(),
            Oxide::aluminum_oxide(),
            Oxide::hafnium_dioxide(),
            Oxide::hexagonal_boron_nitride(),
            Oxide::silicon_nitride(),
        ];
        for (i, a) in presets.iter().enumerate() {
            assert!(a.band_gap().as_ev() > 0.0);
            for b in presets.iter().skip(i + 1) {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
