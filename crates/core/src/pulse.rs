//! Program/erase pulse waveforms.
//!
//! The transient simulator consumes a single [`SquarePulse`]; the
//! flash-array layer chains pulses into ISPP ladders
//! ([`IsppLadder`]) with verify steps between them.

use gnr_units::{Time, Voltage};

/// A single rectangular gate pulse.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SquarePulse {
    /// Gate amplitude (negative for erase).
    pub amplitude: Voltage,
    /// Pulse width.
    pub width: Time,
}

impl SquarePulse {
    /// Creates a pulse.
    ///
    /// # Panics
    ///
    /// Panics when the width is not positive.
    #[must_use]
    pub fn new(amplitude: Voltage, width: Time) -> Self {
        assert!(width.as_seconds() > 0.0, "pulse width must be positive");
        Self { amplitude, width }
    }
}

/// An incremental-step-pulse-programming (ISPP) ladder: each pulse is
/// `step` higher than the last, capped at `max_amplitude`.
///
/// ISPP is the standard NAND programming algorithm; each rung is applied
/// and followed by a verify read, stopping at the first pass.
///
/// # Example
///
/// ```
/// use gnr_flash::pulse::IsppLadder;
/// use gnr_units::{Time, Voltage};
///
/// let ladder = IsppLadder::new(
///     Voltage::from_volts(13.0),
///     Voltage::from_volts(0.5),
///     Voltage::from_volts(15.0),
///     Time::from_microseconds(10.0),
/// );
/// let amps: Vec<f64> = ladder.map(|p| p.amplitude.as_volts()).collect();
/// assert_eq!(amps, vec![13.0, 13.5, 14.0, 14.5, 15.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct IsppLadder {
    next: f64,
    step: f64,
    max: f64,
    width: Time,
    /// +1 for program ladders, −1 for erase ladders.
    direction: f64,
}

impl IsppLadder {
    /// Creates a program ladder from `start` to `max_amplitude` in `step`
    /// increments.
    ///
    /// # Panics
    ///
    /// Panics when `step` is not positive, the width is not positive, or
    /// `max_amplitude < start` for a positive ladder (and symmetrically
    /// for negative/erase ladders).
    #[must_use]
    pub fn new(start: Voltage, step: Voltage, max_amplitude: Voltage, width: Time) -> Self {
        assert!(step.as_volts() > 0.0, "step must be positive");
        assert!(width.as_seconds() > 0.0, "width must be positive");
        let direction = if start.as_volts() < 0.0 || max_amplitude.as_volts() < 0.0 {
            assert!(
                max_amplitude.as_volts() <= start.as_volts(),
                "erase ladder requires max_amplitude <= start (more negative)"
            );
            -1.0
        } else {
            assert!(
                max_amplitude.as_volts() >= start.as_volts(),
                "program ladder requires max_amplitude >= start"
            );
            1.0
        };
        Self {
            next: start.as_volts(),
            step: step.as_volts(),
            max: max_amplitude.as_volts(),
            width,
            direction,
        }
    }
}

impl Iterator for IsppLadder {
    type Item = SquarePulse;

    fn next(&mut self) -> Option<SquarePulse> {
        let remaining = (self.max - self.next) * self.direction;
        if remaining < -1e-12 {
            return None;
        }
        let pulse = SquarePulse::new(Voltage::from_volts(self.next), self.width);
        self.next += self.step * self.direction;
        Some(pulse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_ladder_steps_up_inclusively() {
        let l = IsppLadder::new(
            Voltage::from_volts(12.0),
            Voltage::from_volts(1.0),
            Voltage::from_volts(15.0),
            Time::from_microseconds(5.0),
        );
        let v: Vec<f64> = l.map(|p| p.amplitude.as_volts()).collect();
        assert_eq!(v, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn erase_ladder_steps_down() {
        let l = IsppLadder::new(
            Voltage::from_volts(-12.0),
            Voltage::from_volts(1.0),
            Voltage::from_volts(-14.0),
            Time::from_microseconds(5.0),
        );
        let v: Vec<f64> = l.map(|p| p.amplitude.as_volts()).collect();
        assert_eq!(v, vec![-12.0, -13.0, -14.0]);
    }

    #[test]
    fn single_rung_when_start_equals_max() {
        let l = IsppLadder::new(
            Voltage::from_volts(15.0),
            Voltage::from_volts(0.5),
            Voltage::from_volts(15.0),
            Time::from_microseconds(1.0),
        );
        assert_eq!(l.count(), 1);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = IsppLadder::new(
            Voltage::from_volts(12.0),
            Voltage::ZERO,
            Voltage::from_volts(15.0),
            Time::from_microseconds(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_pulse_panics() {
        let _ = SquarePulse::new(Voltage::from_volts(15.0), Time::from_seconds(0.0));
    }
}
