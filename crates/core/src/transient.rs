//! Program/erase transient simulation — the engine behind Figures 4 and 5.
//!
//! The stored charge obeys the charge balance
//!
//! ```text
//! dQFG/dt = A·(J_control − J_tunnel)
//! ```
//!
//! with both flows re-evaluated from eq. (3)+(4) at every instant: as
//! electrons accumulate, `VFG` falls, `Jin` (tunnel-oxide injection)
//! decreases and `Jout` (control-oxide loss) grows until they meet at
//! `t_sat` — "the maximum charge that can be accumulated on the floating
//! gate" (§III). The approach is asymptotic; `t_sat` is detected as the
//! time `Jout` first comes within a configurable fraction (default 1 %)
//! of `Jin` — the paper's `Jin = Jout` crossing. Because the two flows
//! span many decades before meeting, the simulator widens its
//! integration window geometrically until the balance event fires.
//!
//! Since the engine extraction, [`TransientSimulator`] is a thin facade
//! over [`crate::engine::ChargeBalanceEngine`]: the integration loop,
//! the cached `J(E)` tables and the batching layer all live in
//! [`crate::engine`], and sequential and batched runs share one code
//! path.

use gnr_numerics::ode::OdeOptions;
use gnr_units::{Charge, Time, Voltage};

use crate::device::FloatingGateTransistor;
use crate::engine::ChargeBalanceEngine;
use crate::pulse::SquarePulse;
use crate::Result;

/// Specification of one transient run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ProgramPulseSpec {
    /// Control-gate voltage (negative for erase).
    pub vgs: Voltage,
    /// Source voltage (grounded in the paper).
    pub vs: Voltage,
    /// Stored charge at `t = 0`.
    pub initial_charge: Charge,
    /// Pulse width; `None` integrates adaptively until saturation and
    /// reports the trace up to `1.5·t_sat`.
    pub duration: Option<Time>,
}

impl ProgramPulseSpec {
    /// A programming pulse from the neutral state (`QFG = 0`, §III).
    #[must_use]
    pub fn program(vgs: Voltage) -> Self {
        Self {
            vgs,
            vs: Voltage::ZERO,
            initial_charge: Charge::ZERO,
            duration: None,
        }
    }

    /// An erase pulse applied to a cell holding `initial_charge`.
    #[must_use]
    pub fn erase(vgs: Voltage, initial_charge: Charge) -> Self {
        Self {
            vgs,
            vs: Voltage::ZERO,
            initial_charge,
            duration: None,
        }
    }

    /// Builds a spec from a [`SquarePulse`] and an initial charge.
    #[must_use]
    pub fn from_pulse(pulse: SquarePulse, initial_charge: Charge) -> Self {
        Self {
            vgs: pulse.amplitude,
            vs: Voltage::ZERO,
            initial_charge,
            duration: Some(pulse.width),
        }
    }

    /// Sets an explicit duration.
    #[must_use]
    pub fn with_duration(mut self, duration: Time) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Sets the initial stored charge.
    #[must_use]
    pub fn with_initial_charge(mut self, q: Charge) -> Self {
        self.initial_charge = q;
        self
    }
}

/// One recorded point of a transient trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TransientSample {
    /// Time since pulse start (s).
    pub t: f64,
    /// Stored charge (C).
    pub charge: f64,
    /// Floating-gate potential (V).
    pub vfg: f64,
    /// Tunnel-oxide current-density magnitude `Jin` (A/m²).
    pub j_in: f64,
    /// Control-oxide current-density magnitude `Jout` (A/m²).
    pub j_out: f64,
}

/// The result of one transient run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TransientResult {
    spec: ProgramPulseSpec,
    samples: Vec<TransientSample>,
    t_sat: Option<f64>,
    charge_at_sat: Option<f64>,
    accepted_steps: usize,
    rhs_evaluations: usize,
}

impl TransientResult {
    /// Assembles a result from the engine's integration output.
    pub(crate) fn from_parts(
        spec: ProgramPulseSpec,
        samples: Vec<TransientSample>,
        t_sat: Option<f64>,
        charge_at_sat: Option<f64>,
        accepted_steps: usize,
        rhs_evaluations: usize,
    ) -> Self {
        Self {
            spec,
            samples,
            t_sat,
            charge_at_sat,
            accepted_steps,
            rhs_evaluations,
        }
    }

    /// The spec that produced this trace.
    #[must_use]
    pub fn spec(&self) -> &ProgramPulseSpec {
        &self.spec
    }

    /// The recorded samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[TransientSample] {
        &self.samples
    }

    /// Saturation time `t_sat`, when the net charging current first fell
    /// below the detection fraction of its initial value.
    #[must_use]
    pub fn saturation_time(&self) -> Option<Time> {
        self.t_sat.map(Time::from_seconds)
    }

    /// Stored charge at `t_sat` — the paper's "maximum charge that can be
    /// accumulated".
    #[must_use]
    pub fn charge_at_saturation(&self) -> Option<Charge> {
        self.charge_at_sat.map(Charge::from_coulombs)
    }

    /// Stored charge at the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (never produced by the simulator).
    #[must_use]
    pub fn final_charge(&self) -> Charge {
        Charge::from_coulombs(self.samples.last().expect("non-empty trace").charge)
    }

    /// Floating-gate voltage at the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (never produced by the simulator).
    #[must_use]
    pub fn final_vfg(&self) -> Voltage {
        Voltage::from_volts(self.samples.last().expect("non-empty trace").vfg)
    }

    /// Accepted integrator steps (solver-ablation metric).
    #[must_use]
    pub fn accepted_steps(&self) -> usize {
        self.accepted_steps
    }

    /// Right-hand-side evaluations (solver-ablation metric).
    #[must_use]
    pub fn rhs_evaluations(&self) -> usize {
        self.rhs_evaluations
    }
}

/// The transient simulator.
///
/// Integrates the charge balance with the adaptive Dormand–Prince 5(4)
/// solver; the state variable is `QFG/CT` (volts) so tolerances are
/// scale-free.
///
/// This type is a facade over [`ChargeBalanceEngine`] (cache-backed
/// `J(E)` tables, pluggable tunneling paths); it exists so single-shot
/// call sites keep their borrow-based API.
#[derive(Debug, Clone)]
pub struct TransientSimulator<'d> {
    device: &'d FloatingGateTransistor,
    engine: ChargeBalanceEngine,
}

impl<'d> TransientSimulator<'d> {
    /// Creates a simulator with default tolerances (rtol 1e-8, atol 1e-10,
    /// saturation at 1 % of the initial net current).
    #[must_use]
    pub fn new(device: &'d FloatingGateTransistor) -> Self {
        Self {
            device,
            engine: ChargeBalanceEngine::new(device),
        }
    }

    /// The device being simulated.
    #[must_use]
    pub fn device(&self) -> &'d FloatingGateTransistor {
        self.device
    }

    /// The engine backing this simulator.
    #[must_use]
    pub fn engine(&self) -> &ChargeBalanceEngine {
        &self.engine
    }

    /// Overrides the ODE solver options.
    #[must_use]
    pub fn with_ode_options(mut self, opts: OdeOptions) -> Self {
        self.engine = self.engine.with_ode_options(opts);
        self
    }

    /// Overrides the saturation detection fraction: `t_sat` fires when
    /// `|Jout|` reaches `(1 − fraction)·|Jin|`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    #[must_use]
    pub fn with_saturation_fraction(mut self, fraction: f64) -> Self {
        self.engine = self.engine.with_saturation_fraction(fraction);
        self
    }

    /// Runs a transient.
    ///
    /// # Errors
    ///
    /// [`crate::DeviceError::NoTunneling`] when the bias point produces
    /// no measurable charging current; [`crate::DeviceError::Numerics`]
    /// if the integrator fails.
    pub fn run(&self, spec: &ProgramPulseSpec) -> Result<TransientResult> {
        self.engine.run(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn device() -> FloatingGateTransistor {
        FloatingGateTransistor::mlgnr_cnt_paper()
    }

    #[test]
    fn programming_reaches_saturation() {
        let d = device();
        let r = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap();
        let ts = r.saturation_time().expect("should saturate");
        assert!(ts.as_seconds() > 0.0);
        // Stored charge is negative (electrons) and of attocoulomb scale.
        let q = r.charge_at_saturation().unwrap();
        assert!(q.as_coulombs() < 0.0);
        assert!(q.as_electrons().abs() > 1.0);
    }

    #[test]
    fn jin_decreases_jout_increases() {
        // The central claim of Figure 5.
        let d = device();
        let r = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap();
        let s = r.samples();
        assert!(s.len() > 10);
        let first = &s[0];
        let at_sat_idx = s
            .iter()
            .position(|p| Some(p.t) >= r.saturation_time().map(|t| t.as_seconds()))
            .unwrap_or(s.len() - 1);
        let near_sat = &s[at_sat_idx];
        assert!(near_sat.j_in < first.j_in, "Jin must decrease");
        assert!(near_sat.j_out > first.j_out, "Jout must increase");
        // At saturation the two flows (times equal areas) nearly balance.
        let imbalance = (near_sat.j_in - near_sat.j_out).abs() / first.j_in;
        assert!(imbalance < 0.05, "imbalance = {imbalance}");
    }

    #[test]
    fn vfg_decays_from_nine_volts() {
        let d = device();
        let r = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap();
        let s = r.samples();
        assert!((s[0].vfg - 9.0).abs() < 1e-6);
        assert!(r.final_vfg().as_volts() < 9.0);
        // Monotone decrease of VFG during programming.
        for w in s.windows(2) {
            assert!(w[1].vfg <= w[0].vfg + 1e-9);
        }
    }

    #[test]
    fn erase_recovers_charge() {
        let d = device();
        // Program first.
        let prog = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap();
        let q_prog = prog.final_charge();
        assert!(q_prog.as_coulombs() < 0.0);
        // Then erase.
        let erase = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::erase(presets::erase_vgs(), q_prog))
            .unwrap();
        let q_erased = erase.final_charge();
        assert!(
            q_erased.as_coulombs() > q_prog.as_coulombs(),
            "erase must remove electrons: {} -> {}",
            q_prog.as_electrons(),
            q_erased.as_electrons()
        );
    }

    #[test]
    fn low_bias_reports_no_tunneling() {
        let d = device();
        let r =
            TransientSimulator::new(&d).run(&ProgramPulseSpec::program(Voltage::from_volts(1.0)));
        assert!(matches!(r, Err(crate::DeviceError::NoTunneling { .. })));
    }

    #[test]
    fn fixed_duration_respected() {
        let d = device();
        let r = TransientSimulator::new(&d)
            .run(
                &ProgramPulseSpec::program(presets::program_vgs())
                    .with_duration(Time::from_nanoseconds(100.0)),
            )
            .unwrap();
        let t_last = r.samples().last().unwrap().t;
        assert!((t_last - 1.0e-7).abs() / 1.0e-7 < 1e-6);
    }

    #[test]
    fn higher_vgs_programs_faster() {
        // Conclusion §V: "for faster programming ... higher control gate
        // voltage".
        let d = device();
        let sim = TransientSimulator::new(&d);
        let t15 = sim
            .run(&ProgramPulseSpec::program(Voltage::from_volts(15.0)))
            .unwrap()
            .saturation_time()
            .unwrap();
        let t16 = sim
            .run(&ProgramPulseSpec::program(Voltage::from_volts(16.0)))
            .unwrap()
            .saturation_time()
            .unwrap();
        assert!(t16 < t15, "t_sat(16 V) = {t16} !< t_sat(15 V) = {t15}");
    }

    #[test]
    fn saturation_fraction_bounds_enforced() {
        let d = device();
        let sim = TransientSimulator::new(&d);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                sim.with_saturation_fraction(1.5)
            }))
            .is_err()
        );
    }
}
