//! Charge (coulombs) and areal charge density (C/m²) — the stored
//! floating-gate charge `QFG` of eq. (3).

use crate::constants::ELEMENTARY_CHARGE;
use crate::{Area, Capacitance, Voltage};

quantity!(
    /// An electric charge in coulombs.
    ///
    /// Stored floating-gate charge is negative when electrons are
    /// accumulated (programmed, logic '0') and ≥ 0 after erase (logic '1').
    ///
    /// # Example
    ///
    /// ```
    /// use gnr_units::Charge;
    ///
    /// let q = Charge::from_electrons(-36.0);
    /// assert!(q.as_coulombs() < 0.0);
    /// assert!((q.as_electrons() + 36.0).abs() < 1e-9);
    /// ```
    Charge,
    "C",
    from_coulombs,
    as_coulombs
);

quantity!(
    /// An areal charge density in coulombs per square meter.
    Charge2d,
    "C/m\u{00b2}",
    from_coulombs_per_square_meter,
    as_coulombs_per_square_meter
);

/// Public alias: an areal charge density in coulombs per square meter.
pub type ChargeDensity = Charge2d;

impl Charge {
    /// Creates a charge from a (signed) number of elementary charges.
    ///
    /// A *negative* count means surplus electrons (each electron carries
    /// `−q`), matching the sign convention of the stored charge `QFG`.
    #[must_use]
    pub fn from_electrons(count: f64) -> Self {
        Self::from_coulombs(count * ELEMENTARY_CHARGE)
    }

    /// Returns the charge as a signed number of elementary charges.
    #[must_use]
    pub fn as_electrons(self) -> f64 {
        self.as_coulombs() / ELEMENTARY_CHARGE
    }
}

impl core::ops::Div<Capacitance> for Charge {
    type Output = Voltage;
    fn div(self, rhs: Capacitance) -> Voltage {
        Voltage::from_volts(self.as_coulombs() / rhs.as_farads())
    }
}

impl core::ops::Div<Area> for Charge {
    type Output = ChargeDensity;
    fn div(self, rhs: Area) -> ChargeDensity {
        ChargeDensity::from_coulombs_per_square_meter(self.as_coulombs() / rhs.as_square_meters())
    }
}

impl core::ops::Mul<Area> for ChargeDensity {
    type Output = Charge;
    fn mul(self, rhs: Area) -> Charge {
        Charge::from_coulombs(self.as_coulombs_per_square_meter() * rhs.as_square_meters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn electron_count_round_trip() {
        let q = Charge::from_electrons(-100.0);
        assert!((q.as_electrons() + 100.0).abs() < 1e-9);
        assert!(q.as_coulombs() < 0.0);
    }

    #[test]
    fn charge_over_capacitance_is_voltage() {
        // Eq. (3): the QFG/CT term.
        let q = Charge::from_coulombs(-5.76e-18);
        let ct = Capacitance::from_farads(1.92e-18);
        let dv = q / ct;
        assert!((dv.as_volts() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn density_area_round_trip() {
        let q = Charge::from_coulombs(4.0e-18);
        let a = Area::from_square_nanometers(484.0);
        let rho = q / a;
        let q2 = rho * a;
        assert!((q2.as_coulombs() - q.as_coulombs()).abs() < 1e-30);
    }
}
