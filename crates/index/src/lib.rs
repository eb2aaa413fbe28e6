//! The SMiLer index: a two-level inverted-like index on the (simulated) GPU
//! for the **Continuous Suffix kNN Search** problem (paper §4).
//!
//! A prediction request for one sensor spawns a *master query* `MQ` (the
//! longest recent segment) and a family of *item queries* — suffixes of
//! `MQ` with the lengths in the Ensemble Length Vector. The index answers
//! kNN under banded DTW for every item query at once:
//!
//! * **Window level** ([`window`]): `MQ` is cut into sliding windows, the
//!   history `C` into disjoint windows; a posting list per sliding window
//!   stores `LBEQ`/`LBEC` against every disjoint window. Continuous
//!   prediction reuses this level — one step rotates one posting list and
//!   refreshes the `ρ` envelope-affected lists (Remark 1).
//! * **Group level** ([`group`]): sliding windows of the same phase form
//!   Catenated Sliding Window Groups; shift-summing a CSG's posting lists
//!   yields the windowed lower bound `LBw` between *every* item query and
//!   *every* candidate segment in one pass (Algorithm 1, Theorem 4.3) —
//!   the suffix-sharing reuse of Remark 2.
//! * **Search** ([`search`], [`fleet`]): filtering by threshold, cascaded
//!   verification with the compressed-warping-matrix DTW kernel, and
//!   k-selection — the paper's three-phase pipeline (§4.3.3), kept in
//!   separate kernel launches to avoid SIMD divergence (§4.4). One routine
//!   ([`try_fleet_search`]) runs every phase as a single launch over the
//!   `(sensor, item query)` tasks of a whole fleet; a solo
//!   [`SmilerIndex::try_search`] is a fleet of one.
//!
//! [`scan`] implements the Figure 7/8 baselines: FastGPUScan, GPUScan,
//! FastCPUScan and SMiLer-Dir.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csg;
pub mod fleet;
pub mod group;
pub mod scan;
pub mod search;
pub mod window;

pub use fleet::try_fleet_search;
pub use search::{
    BoundMode, IndexParams, Neighbor, SearchError, SearchOutput, SearchStats, SmilerIndex,
    ThresholdStrategy,
};
