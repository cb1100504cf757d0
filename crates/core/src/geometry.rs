//! Cell geometry: gate dimensions and oxide thicknesses.

use gnr_units::{Area, Length};

use crate::{DeviceError, Result};

/// The physical dimensions of one floating-gate cell.
///
/// The paper's Figure 1 stack, from bottom to top: MLGNR channel →
/// tunnel oxide (`XTO`) → CNT floating gate → control oxide (`XCO`) →
/// control gate. "The thickness of the control oxide is always greater
/// than the tunnel oxide" (§III) — enforced here.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FgtGeometry {
    gate_length: Length,
    gate_width: Length,
    tunnel_oxide_thickness: Length,
    control_oxide_thickness: Length,
}

impl FgtGeometry {
    /// Creates a geometry.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidParameter`] when any dimension is
    /// non-positive, or the control oxide is not thicker than the tunnel
    /// oxide (§III of the paper).
    pub fn new(
        gate_length: Length,
        gate_width: Length,
        tunnel_oxide_thickness: Length,
        control_oxide_thickness: Length,
    ) -> Result<Self> {
        for (name, v) in [
            ("gate_length", gate_length),
            ("gate_width", gate_width),
            ("tunnel_oxide_thickness", tunnel_oxide_thickness),
            ("control_oxide_thickness", control_oxide_thickness),
        ] {
            if v.as_meters() <= 0.0 {
                return Err(DeviceError::InvalidParameter {
                    name,
                    value: v.as_meters(),
                    constraint: "must be positive",
                });
            }
        }
        if control_oxide_thickness <= tunnel_oxide_thickness {
            return Err(DeviceError::InvalidParameter {
                name: "control_oxide_thickness",
                value: control_oxide_thickness.as_nanometers(),
                constraint: "must exceed the tunnel oxide thickness (paper §III)",
            });
        }
        Ok(Self {
            gate_length,
            gate_width,
            tunnel_oxide_thickness,
            control_oxide_thickness,
        })
    }

    /// The paper's nominal 22 nm-node geometry: 22 nm × 22 nm gate,
    /// `XTO` = 5 nm (the ITRS value the paper quotes for 8–14 nm nodes),
    /// `XCO` = 12 nm.
    #[must_use]
    pub fn paper_nominal() -> Self {
        Self::new(
            Length::from_nanometers(22.0),
            Length::from_nanometers(22.0),
            Length::from_nanometers(5.0),
            Length::from_nanometers(12.0),
        )
        .expect("paper nominal geometry is valid")
    }

    /// Returns a copy with a different tunnel-oxide thickness (the
    /// Figure 7/9 sweep axis).
    ///
    /// # Errors
    ///
    /// As for [`Self::new`].
    pub fn with_tunnel_oxide(&self, xto: Length) -> Result<Self> {
        Self::new(
            self.gate_length,
            self.gate_width,
            xto,
            self.control_oxide_thickness,
        )
    }

    /// Gate length.
    #[must_use]
    pub fn gate_length(&self) -> Length {
        self.gate_length
    }

    /// Gate width.
    #[must_use]
    pub fn gate_width(&self) -> Length {
        self.gate_width
    }

    /// Tunnel-oxide thickness `XTO`.
    #[must_use]
    pub fn tunnel_oxide_thickness(&self) -> Length {
        self.tunnel_oxide_thickness
    }

    /// Control-oxide thickness `XCO`.
    #[must_use]
    pub fn control_oxide_thickness(&self) -> Length {
        self.control_oxide_thickness
    }

    /// Gate (and tunneling) area `L × W`.
    #[must_use]
    pub fn gate_area(&self) -> Area {
        self.gate_length * self.gate_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_nominal_has_expected_values() {
        let g = FgtGeometry::paper_nominal();
        assert!((g.tunnel_oxide_thickness().as_nanometers() - 5.0).abs() < 1e-12);
        assert!((g.control_oxide_thickness().as_nanometers() - 12.0).abs() < 1e-12);
        assert!((g.gate_area().as_square_nanometers() - 484.0).abs() < 1e-9);
    }

    #[test]
    fn control_oxide_must_be_thicker() {
        let r = FgtGeometry::new(
            Length::from_nanometers(22.0),
            Length::from_nanometers(22.0),
            Length::from_nanometers(8.0),
            Length::from_nanometers(8.0),
        );
        assert!(matches!(r, Err(DeviceError::InvalidParameter { .. })));
    }

    #[test]
    fn non_positive_dimensions_rejected() {
        let r = FgtGeometry::new(
            Length::from_nanometers(0.0),
            Length::from_nanometers(22.0),
            Length::from_nanometers(5.0),
            Length::from_nanometers(12.0),
        );
        assert!(r.is_err());
    }

    #[test]
    fn with_tunnel_oxide_swaps_only_xto() {
        let g = FgtGeometry::paper_nominal();
        let g2 = g.with_tunnel_oxide(Length::from_nanometers(7.0)).unwrap();
        assert!((g2.tunnel_oxide_thickness().as_nanometers() - 7.0).abs() < 1e-12);
        assert_eq!(g2.control_oxide_thickness(), g.control_oxide_thickness());
        // XTO >= XCO rejected.
        assert!(g.with_tunnel_oxide(Length::from_nanometers(12.0)).is_err());
    }
}
