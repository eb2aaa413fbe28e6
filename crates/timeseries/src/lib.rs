//! Time-series substrate for the SMiLer reproduction.
//!
//! The paper (§3.1) models a sensor as a fixed-rate sequence of observations
//! `Cⁱ = {c₀, c₁, …}`; a *segment* `C_{t,d}` is `d` contiguous observations
//! starting at `t`, and the `h`-step-ahead prediction maps the `d`-length
//! segment ending "now" to the value `h` steps later. This crate provides:
//!
//! * [`series::TimeSeries`] — an append-only sensor history with segment
//!   views;
//! * [`normalize`] — the z-normalisation the paper applies per sensor (§6.1.2);
//! * [`envelope`] — DTW envelopes (upper/lower, Sakoe-Chiba width ρ) computed
//!   by the streaming monotonic-deque algorithm, plus incremental suffix
//!   recomputation for continuous queries;
//! * [`synthetic`] — deterministic generators standing in for the ROAD,
//!   MALL and NET datasets (see DESIGN.md §2 for the substitution rationale);
//! * [`io`] — plain-text / CSV series reading and writing for the CLI and
//!   user pipelines.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod envelope;
pub mod io;
pub mod normalize;
pub mod series;
pub mod synthetic;

pub use envelope::{Envelope, EnvelopeScratch};
pub use series::TimeSeries;
pub use synthetic::{SensorDataset, SyntheticSpec};
