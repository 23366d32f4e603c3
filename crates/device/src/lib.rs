//! Device-physics substrate: subthreshold-accurate MOS models for the
//! ULP-SCL platform.
//!
//! The paper's entire platform rests on one device property: the
//! exponential I–V characteristic of MOS transistors in weak inversion,
//! which lets bias currents — and with them speed and power — scale over
//! many decades while node voltages move only logarithmically. This crate
//! provides:
//!
//! * [`ekv`] — an EKV-style all-region long-channel MOS model whose weak
//!   inversion limit is the exact subthreshold exponential, with analytic
//!   derivatives for Newton iteration in the circuit simulator;
//! * [`tech`] — a 0.18 µm-class technology parameter set (the paper's
//!   prototype node) plus temperature scaling;
//! * [`mosfet`] — sized device instances binding geometry, polarity,
//!   per-instance mismatch and a model card;
//! * [`load`] — the bulk-drain-shorted PMOS load of STSCL gates (paper
//!   Fig. 2, ref \[9\]) as a calibrated resistance model;
//! * [`hvres`] — the tunable very-high-value resistor of the reference
//!   ladder (paper Fig. 7, ref \[17\]);
//! * [`mismatch`] — Pelgrom-law threshold/beta mismatch generators;
//! * [`pvt`] — process corners and supply/temperature variation.
//!
//! # Example
//!
//! Weak-inversion drain current doubles every `n·UT·ln 2` of gate drive:
//!
//! ```
//! use ulp_device::tech::Technology;
//! use ulp_device::mosfet::{Mosfet, Polarity};
//!
//! let tech = Technology::default();
//! let m = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
//! let id1 = m.ids(&tech, 0.15, 0.0, 0.5);
//! let dv = tech.nmos.n * tech.thermal_voltage() * (2.0f64).ln();
//! let id2 = m.ids(&tech, 0.15 + dv, 0.0, 0.5);
//! assert!((id2 / id1 - 2.0).abs() < 0.05);
//! ```

pub mod ekv;
pub mod envelope;
pub mod hvres;
pub mod load;
pub mod mismatch;
pub mod mosfet;
pub mod pvt;
pub mod tech;

pub use mosfet::{MosOperatingPoint, MosParams, MosTerminal, Mosfet, Polarity};
pub use tech::Technology;
