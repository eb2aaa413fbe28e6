//! Dynamic Time Warping under a Sakoe-Chiba band, plus its lower bounds.
//!
//! The paper uses banded DTW as the similarity measure of the suffix kNN
//! search (§4, Appendix B.1) and verification runs on the GPU with a
//! *compressed warping matrix* that fits shared memory (Appendix E,
//! Algorithm 2): here `2ρ+3` cells, swept one anti-diagonal at a time. Filtering uses `LB_Keogh` (Keogh 2002) in
//! both envelope directions and the paper's enhanced bound
//! `LBen = max(LBEQ, LBEC)` (§4.2, Theorem 4.1).
//!
//! Conventions (match the UCR suite and the paper's figures):
//! * per-cell cost is the **squared difference**, and distances are the
//!   accumulated sums (no final square root) — lower bounds compare in the
//!   same squared space;
//! * both sequences have equal length `d` and the warping path stays within
//!   `ρ` cells of the diagonal.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod distance;
pub mod lb;

pub use distance::{
    dtw_banded, dtw_compressed, dtw_compressed_with, dtw_early_abandon_counted,
    dtw_early_abandon_counted_with, dtw_early_abandon_lanes, dtw_early_abandon_with,
    dtw_ops_estimate, DtwLanesScratch, DtwScratch, LANES,
};
pub use lb::{
    lb_en, lb_improved, lb_improved_second_pass, lb_keogh, lb_keogh_env, lb_kim_fl,
    LbImprovedScratch,
};
