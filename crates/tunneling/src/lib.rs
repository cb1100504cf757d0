//! # gnr-tunneling
//!
//! Tunneling physics for the `gnr-flash` simulator (reproduction of
//! Hossain et al., IEEE SOCC 2014).
//!
//! The paper's programming and erase currents are Fowler–Nordheim (FN)
//! tunneling currents, eq. (4):
//!
//! ```text
//! J = A·E²·exp(−B/E),   A = q³/(16π²ħΦB)·(m₀/m_ox),
//!                        B = (4/3)·√(2·m_ox)·ΦB^{3/2}/(q·ħ)
//! ```
//!
//! This crate implements that model and everything around it:
//!
//! * [`fn_model`] — the analytic FN law with signed fields, the paper's
//!   (k₁, k₂) form of eq. (1), and the Lenzlinger–Snow temperature factor.
//! * [`nordheim`] — image-force barrier lowering and the Nordheim
//!   correction functions `v(f)`, `t(f)` (Forbes approximations).
//! * [`direct`] — trapezoidal-barrier direct tunneling for thin oxides /
//!   sub-barrier drops (the paper's §II "2–5 nm" regime).
//! * [`wkb`] — numeric WKB transmission through arbitrary barrier
//!   profiles, validating the analytic forms (ablation bench).
//! * [`che`] — the lucky-electron channel-hot-electron injection model
//!   (the NOR-flash programming mechanism of §II).
//! * [`fn_plot`] — FN-plot linearisation `ln(J/E²)` vs `1/E` and
//!   parameter extraction (paper ref. \[9\]).
//! * [`regime`] — FN vs direct vs negligible classification (the §II
//!   "debate" about 4–6 nm oxides).
//! * [`tsu_esaki`] — first-principles supply-function current (numeric
//!   validation of the analytic prefactor).
//!
//! # Example
//!
//! The J–E curve of the paper's tunnel oxide:
//!
//! ```
//! use gnr_materials::interface::TunnelInterface;
//! use gnr_materials::mlgnr::MultilayerGnr;
//! use gnr_materials::oxide::Oxide;
//! use gnr_tunneling::fn_model::FnModel;
//! use gnr_units::ElectricField;
//!
//! let iface = TunnelInterface::new(
//!     MultilayerGnr::paper_channel().work_function(),
//!     Oxide::silicon_dioxide(),
//! )?;
//! let model = FnModel::from_interface(&iface);
//! let j = model.current_density(ElectricField::from_volts_per_meter(1.8e9));
//! assert!(j.as_amps_per_square_meter() > 0.0);
//! # Ok::<(), gnr_materials::MaterialError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod che;
pub mod direct;
pub mod fn_model;
pub mod fn_plot;
pub mod nordheim;
pub mod poole_frenkel;
pub mod regime;
pub mod tsu_esaki;
pub mod wkb;

mod models;

pub use models::TunnelingModel;
