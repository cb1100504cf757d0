//! Cross-crate physics consistency: the same constants must fall out of
//! every layer of the stack.

use gnr_flash::device::FloatingGateTransistor;
use gnr_materials::interface::TunnelInterface;
use gnr_materials::mlgnr::MultilayerGnr;
use gnr_materials::oxide::Oxide;
use gnr_numerics::ode::{Dopri45, OdeOptions, Rk4, Sdirk2};
use gnr_tunneling::fn_model::FnModel;
use gnr_tunneling::fn_plot::{barrier_from_b, extract_params, generate_plot};
use gnr_tunneling::regime::{classify, TunnelingRegime};
use gnr_tunneling::wkb::BarrierProfile;
use gnr_units::{Charge, ElectricField, Energy, Length, Voltage};

#[test]
fn fn_plot_extraction_recovers_the_device_barrier() {
    // The paper's §IV route: measure J(E), make the FN plot, extract B,
    // invert for ΦB — applied to our own device it must recover the
    // barrier the materials layer computed from work functions.
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let model = device.channel_emission_model();
    let fields: Vec<ElectricField> = (0..30)
        .map(|i| ElectricField::from_volts_per_meter(1.0e9 + 4.0e7 * f64::from(i)))
        .collect();
    let points = generate_plot(model, &fields);
    let extracted = extract_params(&points).unwrap();
    let phi = barrier_from_b(extracted.b, model.effective_mass());
    let expected = model.barrier().as_ev();
    assert!(
        (phi.as_ev() - expected).abs() < 1e-6,
        "extracted {} eV vs device {} eV",
        phi.as_ev(),
        expected
    );
    assert!(extracted.fit.r_squared > 0.999_9);
}

#[test]
fn device_barrier_comes_from_material_alignment() {
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let iface = TunnelInterface::new(
        MultilayerGnr::paper_channel().work_function(),
        Oxide::silicon_dioxide(),
    )
    .unwrap();
    assert!(
        (device.channel_emission_model().barrier().as_ev() - iface.barrier_height().as_ev()).abs()
            < 1e-12
    );
}

#[test]
fn wkb_validates_the_analytic_law_at_the_program_point() {
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let vfg = device.floating_gate_voltage(Voltage::from_volts(15.0), Charge::ZERO);
    let field = device.tunnel_oxide_field(vfg, Voltage::ZERO);
    let model = device.channel_emission_model();
    let profile = BarrierProfile::ideal(
        model.barrier(),
        device.geometry().tunnel_oxide_thickness(),
        field,
    );
    let wkb_exponent = profile.fermi_level_exponent(model.effective_mass());
    let analytic = -model.coefficients().b / field.as_volts_per_meter();
    assert!(
        ((wkb_exponent - analytic) / analytic).abs() < 1e-3,
        "WKB {wkb_exponent} vs analytic {analytic}"
    );
}

#[test]
fn program_bias_is_fn_regime_read_bias_is_not() {
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let iface = TunnelInterface::new(
        MultilayerGnr::paper_channel().work_function(),
        Oxide::silicon_dioxide(),
    )
    .unwrap();
    let xto = device.geometry().tunnel_oxide_thickness();
    // Program: 9 V drop → FN (the paper's design point).
    let vfg_prog = device.floating_gate_voltage(Voltage::from_volts(15.0), Charge::ZERO);
    assert_eq!(
        classify(&iface, xto, vfg_prog),
        TunnelingRegime::FowlerNordheim
    );
    // Read: ~1.2 V drop → sub-barrier but measurable field → direct.
    let vfg_read = device.floating_gate_voltage(Voltage::from_volts(2.0), Charge::ZERO);
    assert_eq!(classify(&iface, xto, vfg_read), TunnelingRegime::Direct);
    // Rest: no bias → negligible.
    assert_eq!(
        classify(&iface, xto, Voltage::from_millivolts(10.0)),
        TunnelingRegime::Negligible
    );
}

#[test]
fn paper_form_and_lenzlinger_snow_share_the_b_coefficient() {
    let phi = Energy::from_ev(3.6);
    let m = gnr_units::Mass::from_electron_masses(0.42);
    let a = FnModel::new(phi, m).coefficients();
    let b = FnModel::paper_form(phi, m).coefficients();
    assert!((a.b - b.b).abs() / a.b < 1e-12);
    assert!(a.a > b.a, "mass correction raises A for m_ox < m0");
}

#[test]
fn thinner_oxide_means_higher_field_and_regime_shift() {
    // 2 V across 5 nm is Direct; the same 2 V across 3 nm is still
    // Direct (ultra-thin), but across 6 nm it becomes Negligible-free
    // Direct with a weaker field — consistency of the classifier with
    // Length scaling.
    let iface = TunnelInterface::new(
        MultilayerGnr::paper_channel().work_function(),
        Oxide::silicon_dioxide(),
    )
    .unwrap();
    let v = Voltage::from_volts(2.0);
    for nm in [3.0, 5.0, 6.0] {
        let r = classify(&iface, Length::from_nanometers(nm), v);
        assert_eq!(r, TunnelingRegime::Direct, "{nm} nm");
    }
    // Across 25 nm the field drops below 1 MV/cm → negligible.
    assert_eq!(
        classify(&iface, Length::from_nanometers(25.0), v),
        TunnelingRegime::Negligible
    );
}

#[test]
fn fixed_step_solvers_match_dopri45_on_the_program_transient() {
    // The first 10 µs of the 15 V programming transient (Figs 4–5) on the
    // device's charge-balance RHS, state in volts (Q/CT): the fixed-step
    // references must agree with a tightly converged Dopri45.
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let ct = device.capacitances().total().as_farads();
    let rhs = |_t: f64, y: &[f64], dydt: &mut [f64]| {
        let q = Charge::from_coulombs(y[0] * ct);
        let state = device.tunneling_state(Voltage::from_volts(15.0), Voltage::ZERO, q);
        dydt[0] = state.charge_rate_amps / ct;
    };
    let window = 1.0e-5;
    let reference = Dopri45::new(OdeOptions::with_tolerances(1e-12, 1e-14))
        .integrate(rhs, 0.0, &[0.0], window)
        .unwrap()
        .final_state()[0];
    let rk4 = Rk4::new(20_000)
        .integrate(rhs, 0.0, &[0.0], window)
        .unwrap()
        .final_state()[0];
    let sdirk = Sdirk2::new(2_000)
        .integrate(rhs, 0.0, &[0.0], window)
        .unwrap()
        .final_state()[0];
    assert!(reference < 0.0, "no electrons stored: {reference}");
    assert!((rk4 - reference).abs() < 1e-6, "RK4 {rk4} vs {reference}");
    assert!(
        (sdirk - reference).abs() < 1e-4,
        "SDIRK2 {sdirk} vs {reference}"
    );
}
