//! Zero-crossing event specification and localisation.

/// Which sign changes of the event function trigger the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingDirection {
    /// Trigger when `g` crosses from negative to positive.
    Rising,
    /// Trigger when `g` crosses from positive to negative.
    Falling,
    /// Trigger on any sign change.
    Any,
}

impl CrossingDirection {
    /// Returns `true` when a transition `g_lo → g_hi` matches the direction.
    #[must_use]
    pub fn matches(self, g_lo: f64, g_hi: f64) -> bool {
        match self {
            Self::Rising => g_lo < 0.0 && g_hi >= 0.0,
            Self::Falling => g_lo > 0.0 && g_hi <= 0.0,
            Self::Any => (g_lo < 0.0 && g_hi >= 0.0) || (g_lo > 0.0 && g_hi <= 0.0),
        }
    }
}

/// A zero-crossing event `g(t, y) = 0` monitored during integration.
///
/// The paper's saturation time `t_sat` (Figure 5) is located with a terminal
/// event on `Jin − Jout` (falling through the tolerance band).
pub struct Event<'a> {
    /// Human-readable label reported in [`EventOccurrence`].
    pub label: &'a str,
    /// The event function; a zero crossing triggers the event.
    pub condition: &'a (dyn Fn(f64, &[f64]) -> f64 + Sync),
    /// Which crossings count.
    pub direction: CrossingDirection,
    /// Stop the integration at the event when `true`.
    pub terminal: bool,
}

impl core::fmt::Debug for Event<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Event")
            .field("label", &self.label)
            .field("direction", &self.direction)
            .field("terminal", &self.terminal)
            .finish_non_exhaustive()
    }
}

/// A localised event occurrence.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EventOccurrence {
    /// Label of the event that fired.
    pub label: String,
    /// Localised crossing time.
    pub t: f64,
    /// Interpolated state at the crossing.
    pub state: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_matches_only_upward() {
        assert!(CrossingDirection::Rising.matches(-1.0, 1.0));
        assert!(!CrossingDirection::Rising.matches(1.0, -1.0));
    }

    #[test]
    fn falling_matches_only_downward() {
        assert!(CrossingDirection::Falling.matches(1.0, -1.0));
        assert!(!CrossingDirection::Falling.matches(-1.0, 1.0));
    }

    #[test]
    fn any_matches_both() {
        assert!(CrossingDirection::Any.matches(1.0, -1.0));
        assert!(CrossingDirection::Any.matches(-1.0, 1.0));
        assert!(!CrossingDirection::Any.matches(1.0, 2.0));
    }

    #[test]
    fn exact_zero_at_right_endpoint_counts() {
        assert!(CrossingDirection::Falling.matches(1.0, 0.0));
        assert!(CrossingDirection::Rising.matches(-1.0, 0.0));
    }

    #[test]
    fn debug_impl_is_nonempty() {
        let e = Event {
            label: "x",
            condition: &|_t, _y: &[f64]| 0.0,
            direction: CrossingDirection::Any,
            terminal: false,
        };
        assert!(format!("{e:?}").contains("Event"));
    }
}
