//! Gaussian Process regression for the semi-lazy predictor.
//!
//! The paper's GP predictor (§5.2.2, Appendix B.3) conditions a zero-mean
//! GP with the squared-exponential covariance
//!
//! ```text
//! c(xa, xb) = θ₀² · exp(−‖xa − xb‖² / (2 θ₁²)) + δ_ab θ₂²      (Eqn 18)
//! ```
//!
//! on the kNN data `(X_{k,d}, Y_h)` of each prediction request. Because the
//! training set is tiny (k ≤ 128 neighbours), the paper can afford to train
//! hyperparameters *online, per query*, by maximising the leave-one-out
//! (LOO) predictive log likelihood (Eqn 19–20) with conjugate gradients —
//! warm-started and budgeted to five steps during continuous prediction.
//!
//! This crate implements exactly that: [`model`] holds the posterior
//! machinery (Eqns 16–17), [`loo`] the LOO likelihood and its analytic
//! gradients via the partitioned-inverse identities (Sundararajan & Keerthi
//! 2001; Rasmussen & Williams §5.4.2), and [`train`] the CG driver in
//! log-hyperparameter space.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod loo;
pub mod model;
pub mod prefix;
pub mod robust;
pub mod train;

pub use kernel::Hyperparams;
pub use model::{GpError, GpModel};
pub use prefix::{GpScratch, PrefixGp};
pub use robust::{RobustSpec, RobustWeights};
pub use train::{train_full, train_online, TrainConfig};
