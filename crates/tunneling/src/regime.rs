//! Tunneling-regime classification.
//!
//! §II of the paper: FN tunneling dominates for oxides ≳ 4–6 nm at high
//! field (the triangular barrier must terminate inside the oxide, i.e.
//! `q·V_ox > ΦB`); direct tunneling takes over for ultra-thin films
//! (2–5 nm) or sub-barrier drops; below ~1 MV/cm either current is
//! negligible on programming timescales.

use gnr_materials::interface::TunnelInterface;
use gnr_units::{ElectricField, Length, Voltage};

/// The dominant conduction mechanism for a film under bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum TunnelingRegime {
    /// Triangular-barrier Fowler–Nordheim tunneling (`q·V_ox > ΦB`, film
    /// thick enough that carriers enter the oxide conduction band).
    FowlerNordheim,
    /// Trapezoidal-barrier direct tunneling (thin film or sub-barrier
    /// drop).
    Direct,
    /// Field too low for appreciable current on device timescales.
    Negligible,
}

/// Field below which tunneling is treated as negligible (1 MV/cm).
pub const NEGLIGIBLE_FIELD: f64 = 1.0e8;

/// Film thickness below which direct tunneling dominates regardless of
/// drop (the paper's "ultra-thin oxide layers (2–5 nm)"; the FN-dominance
/// threshold claimed by ref. \[1\] is ≥ 4 nm).
pub const DIRECT_THICKNESS_LIMIT_NM: f64 = 4.0;

/// Classifies the regime for a film of `thickness` under a drop `v_ox`.
#[must_use]
pub fn classify(interface: &TunnelInterface, thickness: Length, v_ox: Voltage) -> TunnelingRegime {
    let field = (v_ox.abs() / thickness).as_volts_per_meter();
    if field < NEGLIGIBLE_FIELD {
        return TunnelingRegime::Negligible;
    }
    let barrier_volts = interface.barrier_height().as_ev();
    if thickness.as_nanometers() < DIRECT_THICKNESS_LIMIT_NM
        || v_ox.abs().as_volts() < barrier_volts
    {
        TunnelingRegime::Direct
    } else {
        TunnelingRegime::FowlerNordheim
    }
}

/// Classifies from a field instead of a drop.
#[must_use]
pub fn classify_field(
    interface: &TunnelInterface,
    thickness: Length,
    field: ElectricField,
) -> TunnelingRegime {
    classify(interface, thickness, field.abs() * thickness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_materials::mlgnr::MultilayerGnr;
    use gnr_materials::oxide::Oxide;

    fn iface() -> TunnelInterface {
        TunnelInterface::new(
            MultilayerGnr::paper_channel().work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap()
    }

    #[test]
    fn paper_program_point_is_fn() {
        // 9 V across 5 nm — the paper's worked example.
        let r = classify(
            &iface(),
            Length::from_nanometers(5.0),
            Voltage::from_volts(9.0),
        );
        assert_eq!(r, TunnelingRegime::FowlerNordheim);
    }

    #[test]
    fn erase_bias_symmetric() {
        let r = classify(
            &iface(),
            Length::from_nanometers(5.0),
            Voltage::from_volts(-9.0),
        );
        assert_eq!(r, TunnelingRegime::FowlerNordheim);
    }

    #[test]
    fn sub_barrier_drop_is_direct() {
        // 2 V drop < 3.6 eV barrier.
        let r = classify(
            &iface(),
            Length::from_nanometers(5.0),
            Voltage::from_volts(2.0),
        );
        assert_eq!(r, TunnelingRegime::Direct);
    }

    #[test]
    fn ultra_thin_film_is_direct_even_at_high_drop() {
        let r = classify(
            &iface(),
            Length::from_nanometers(3.0),
            Voltage::from_volts(6.0),
        );
        assert_eq!(r, TunnelingRegime::Direct);
    }

    #[test]
    fn low_field_is_negligible() {
        // 0.02 V across 5 nm = 0.04 MV/cm.
        let r = classify(
            &iface(),
            Length::from_nanometers(5.0),
            Voltage::from_volts(0.02),
        );
        assert_eq!(r, TunnelingRegime::Negligible);
    }

    #[test]
    fn field_and_drop_classifiers_agree() {
        let t = Length::from_nanometers(6.0);
        let v = Voltage::from_volts(7.0);
        let by_drop = classify(&iface(), t, v);
        let by_field = classify_field(&iface(), t, v / t);
        assert_eq!(by_drop, by_field);
    }
}
