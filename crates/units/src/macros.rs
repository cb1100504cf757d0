//! Internal macro generating the shared surface of every quantity newtype.
//!
//! Each quantity is a `Copy` newtype over an `f64` storing the value in its
//! base SI unit. The macro provides constructors, accessors, ordering
//! helpers, scalar arithmetic and engineering-notation [`std::fmt::Display`].

/// Defines a quantity newtype.
///
/// `quantity!(Name, "docs", "unit-symbol", from_base_ctor, as_base_getter)`
/// generates:
///
/// * `Name::from_<base>(f64) -> Name` and `Name::<as_base>(self) -> f64`
/// * `Name::ZERO`, `abs`, `min`, `max`, `clamp`, `is_finite`, `signum`
/// * `Add`, `Sub`, `Neg`, `Mul<f64>`, `Div<f64>`, `f64 * Name`,
///   `Div<Name> -> f64` (dimensionless ratio), `Sum`
/// * `Display` in engineering notation with the unit symbol
/// * `serde::Serialize` as a transparent `f64`
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $from:ident, $as:ident) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            PartialOrd,
            Default,
            serde::Serialize,
        )]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            #[doc = concat!("Creates the quantity from a value in ", $unit, " (the base SI unit).")]
            #[must_use]
            pub const fn $from(value: f64) -> Self {
                Self(value)
            }

            #[doc = concat!("Returns the value in ", $unit, " (the base SI unit).")]
            #[must_use]
            pub const fn $as(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp: lo must not exceed hi");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `-1.0`, `0.0` or `1.0` according to the sign.
            #[must_use]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 {
                    0.0
                } else {
                    self.0.signum()
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}", $crate::fmt_eng::eng(self.0, $unit))
            }
        }
    };
}
