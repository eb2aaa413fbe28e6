//! smiler-cluster — replication and placement for the SMiLer fleet.
//!
//! One process is fast, durable, and observable; this crate makes it a
//! *fleet of processes* without weakening the headline invariant. The
//! design is WAL shipping, because `smiler-store`'s segmented, CRC'd,
//! sequence-numbered log already *is* a replication log:
//!
//! - A **primary** ([`ReplicationPrimary`]) accepts client writes through
//!   the ordinary serving path and ships its WAL to followers over the
//!   `SMLRREPL` frame family ([`smiler_net::repl`]): raw segment images +
//!   the latest checkpoint for bootstrap, then one frame per record for
//!   the streaming tail — each carrying the **exact payload bytes the
//!   primary framed on disk**, never a re-encoding.
//! - A **follower** ([`Follower`]) installs the bootstrap into its own
//!   `smiler-store` directory, appends streamed records with the
//!   primary's sequence numbers (strict continuity — a gap is an error,
//!   not a skip), and serves *slightly-stale* forecasts through the
//!   ordinary [`smiler_core::ServeHandle`] path. Client writes at a
//!   follower are shed with the typed `NotPrimary` error carrying a
//!   leader hint.
//! - **Failover** ([`promote`]) runs the existing three-rung recovery
//!   ladder (`DurableSystem::open`: newest valid checkpoint → index
//!   rebuild → WAL-tail replay) over the follower's *own* directory.
//!   Because the follower's log is byte-for-byte the primary's log, the
//!   promoted node's forecasts are **bitwise identical** to what the dead
//!   primary would have served — the single-process durability proof,
//!   inherited across the wire.
//! - **Placement** ([`placement`]) assigns sensors to nodes by rendezvous
//!   hashing, so membership changes move `~1/N` of the fleet and each
//!   move travels as a checkpoint + WAL-tail hand-off (the bootstrap
//!   mechanism again).
//!
//! Lag is observable end to end: the primary tracks per-follower
//! acknowledged sequence numbers (which pin WAL retention through the
//! store's replication cursors), exports them as gauges, and publishes
//! them into `ServeHandle::status_report()` so `/status` shows
//! replication state with no new tooling.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod conn;
pub mod follower;
pub mod placement;
pub mod primary;

pub use conn::ReplConn;
pub use follower::{promote, Follower, FollowerConfig, Promotion};
pub use placement::{rebalance_plan, Move, Placement};
pub use primary::{PrimaryConfig, ReplicationPrimary};

use std::fmt;

/// Everything that can go wrong in the replication layer.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket-level failure (connect, read, write, bind).
    Io(std::io::Error),
    /// A frame failed to decode (bad magic, CRC, version, payload).
    Frame(smiler_net::FrameError),
    /// The durability layer rejected an operation.
    Store(smiler_store::StoreError),
    /// Fleet recovery failed during bootstrap or promotion.
    Durable(smiler_core::DurableError),
    /// The peer violated the replication protocol, or sent `Error`.
    Protocol(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "replication i/o: {e}"),
            ClusterError::Frame(e) => write!(f, "replication frame: {e}"),
            ClusterError::Store(e) => write!(f, "replication store: {e}"),
            ClusterError::Durable(e) => write!(f, "replica recovery: {e}"),
            ClusterError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<smiler_net::FrameError> for ClusterError {
    fn from(e: smiler_net::FrameError) -> Self {
        ClusterError::Frame(e)
    }
}

impl From<smiler_store::StoreError> for ClusterError {
    fn from(e: smiler_store::StoreError) -> Self {
        ClusterError::Store(e)
    }
}

impl From<smiler_core::DurableError> for ClusterError {
    fn from(e: smiler_core::DurableError) -> Self {
        ClusterError::Durable(e)
    }
}
