//! smiler-store — the durability layer under a SMiLer fleet.
//!
//! SMiLer's semi-lazy design keeps the full sensor history and the
//! two-level inverted index resident and warm; a process crash therefore
//! loses everything: history, tuned λ weights, warm-started GP
//! hyperparameters, and the cold-rebuild cost of the index itself. This
//! crate owns the on-disk state that survives:
//!
//! * a **segmented append-only WAL** of sensor observations — CRC-checked,
//!   length-prefixed records, one ledger of its segments, and one repair
//!   rule on open: the segment where replay ends is cut back to its valid
//!   prefix and later ones are quarantined (renamed aside) rather than
//!   aborting recovery;
//! * **checkpoints** — opaque, caller-serialised durable state (history
//!   rings, posting-list-deterministic index inputs, λ matrices, GP
//!   hyperparameters) in a versioned binary container with a header magic,
//!   format version and payload CRC, written atomically (tmp + rename);
//! * **group-commit fsync batching** — every append reaches the OS page
//!   cache immediately (process-kill durable); the [`FlushPolicy`] decides
//!   how often `fsync` makes it power-loss durable;
//! * **recovery** = latest valid checkpoint + WAL tail replay. A corrupt
//!   checkpoint falls back to the previous one (the WAL keeps enough tail
//!   to replay from there); a corrupt WAL segment ends the replayable
//!   prefix instead of poisoning it, and damage the checkpoint covers is
//!   never read.
//!
//! The crate is deliberately policy-free about *what* the durable state
//! is: checkpoint payloads are opaque bytes. `smiler-core`'s `durable`
//! module provides the fleet-level encoding and the bitwise-restart
//! guarantee on top.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod codec;
pub mod store;
pub mod wal;

pub use checkpoint::CHECKPOINT_VERSION;
pub use codec::{crc32, ByteReader, CodecError};
pub use store::{
    shared, FlushPolicy, Recovery, SegmentImage, SharedStore, Store, StoreConfig, StoreError,
};
pub use wal::{WalRecord, WAL_VERSION};
