//! The pluggable tunneling-model trait.

use gnr_units::{CurrentDensity, ElectricField};

/// A tunneling current model `J(E)`.
///
/// Object-safe so the device simulator can swap models at runtime (the
/// charge-balance engine holds one per tunneling path).
///
/// Implementations must be odd in the field
/// (`J(−E) = −J(E)`) and return zero at zero field.
pub trait TunnelingModel: Send + Sync {
    /// Signed current density at a signed oxide field.
    fn current_density(&self, field: ElectricField) -> CurrentDensity;

    /// Short model name for reports and benches.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Linear;
    impl TunnelingModel for Linear {
        fn current_density(&self, field: ElectricField) -> CurrentDensity {
            CurrentDensity::from_amps_per_square_meter(field.as_volts_per_meter() * 1e-9)
        }
        fn name(&self) -> &'static str {
            "linear-test"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let m: Box<dyn TunnelingModel> = Box::new(Linear);
        let j = m.current_density(ElectricField::from_volts_per_meter(2.0));
        assert_eq!(j.as_amps_per_square_meter(), 2.0e-9);
        assert_eq!(m.name(), "linear-test");
    }
}
