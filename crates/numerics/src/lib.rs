//! # gnr-numerics
//!
//! Numerical substrate for the `gnr-flash` simulator (reproduction of
//! Hossain et al., IEEE SOCC 2014).
//!
//! The paper's program/erase transient is a stiff charge-balance ODE whose
//! tunneling currents vary over many decades within a single pulse; its
//! figures are parameter sweeps; its cited FN-plot technique (ref. \[9\]) is a
//! linear regression. This crate provides exactly that machinery, built from
//! scratch:
//!
//! * [`ode`] — fixed-step RK4 and Euler, adaptive Dormand–Prince 5(4) with a
//!   PI step controller, cubic-Hermite dense output and zero-crossing
//!   **event detection** (used to locate the paper's `t_sat`).
//! * [`roots`] — bisection, Brent and Newton root finders.
//! * [`integrate`] — trapezoid, Simpson, adaptive Simpson and fixed-order
//!   Gauss–Legendre quadrature (used for WKB transmission integrals).
//! * [`interp`] — linear, natural cubic spline and monotone PCHIP
//!   interpolation.
//! * [`linalg`] — dense LU with partial pivoting and the Thomas tridiagonal
//!   solver (1-D Poisson/band-profile problems).
//! * [`regression`] — ordinary least squares and polynomial fits (FN-plot
//!   parameter extraction).
//! * [`stats`] — summary statistics and histograms (Monte-Carlo variation).
//! * [`optimize`] — golden-section and Nelder–Mead minimisation (design
//!   optimisation, the paper's §V future work).
//! * [`sweep`] — crossbeam-based parallel parameter sweeps.
//!
//! # Example
//!
//! ```
//! use gnr_numerics::ode::{Dopri45, OdeOptions};
//!
//! // dy/dt = -y, y(0) = 1  =>  y(1) = e^{-1}.
//! let sol = Dopri45::new(OdeOptions::default())
//!     .integrate(|_t, y: &[f64], dydt: &mut [f64]| dydt[0] = -y[0], 0.0, &[1.0], 1.0)
//!     .unwrap();
//! let y1 = sol.final_state()[0];
//! assert!((y1 - (-1.0f64).exp()).abs() < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod hash;
pub mod integrate;
pub mod interp;
pub mod linalg;
pub mod ode;
pub mod optimize;
pub mod regression;
pub mod roots;
pub mod stats;
pub mod sweep;

pub use error::NumericsError;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, NumericsError>;
