//! Wire-protocol serving frontend for the SMiLer fleet.
//!
//! This crate puts a socket in front of [`smiler_core::serve::SmilerServer`]
//! so admission control, backpressure, and the degradation ladder are
//! exercised by *real connections* and *open-loop arrivals* instead of
//! in-process closed-loop threads. It is built entirely from `std::net`
//! plus the workspace's vendored shims — no tokio, no mio, no libc.
//!
//! The pieces, socket byte to forecast:
//!
//! - [`frame`] — the `SMLRNET` length-prefixed binary protocol: magic +
//!   version + CRC framing with the same codec discipline as the WAL
//!   ([`smiler_store::codec`]). Strict, typed, panic-free decoding.
//! - [`server`] — one acceptor plus a blocking reader and writer thread
//!   per connection: the reader carves frames (or sniffs HTTP for the curl
//!   gateway) and admits requests into [`smiler_core::serve::ServeHandle`]
//!   shard queues; the writer waits for each answer in request order and
//!   writes it. A bounded per-connection answer channel read-stalls a
//!   connection into kernel-level TCP backpressure; full shard queues
//!   surface as typed `Overloaded` sheds on the wire.
//! - [`http`] — a minimal HTTP/1.1 JSON gateway sharing the same listener
//!   (`GET /forecast`, `POST /observe`, `GET /status`, `GET /healthz`).
//! - [`qos`] — per-tenant token-bucket admission keyed on the tenant id in
//!   the frame header, so one hot client cannot starve the fleet.
//! - [`repl`] — the `SMLRREPL` replication frame family: the same envelope
//!   discipline under its own magic, carrying WAL records verbatim plus
//!   chunked checkpoint/segment transfers for follower bootstrap
//!   (`smiler-cluster` builds its primary/follower state machines on it).
//! - [`client`] — a blocking client for the binary protocol (used by the
//!   CLI, tests, and the load harness).
//! - [`load`] — an open-loop (Poisson-arrival, scheduled-issue-time)
//!   multi-connection load harness over real sockets; latency is measured
//!   from the *scheduled* issue time, so coordinated omission cannot hide
//!   queueing delay.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod http;
pub mod load;
pub mod qos;
pub mod repl;
pub mod server;

pub use client::{ClientError, NetClient};
pub use frame::{ErrorCode, FrameError, Request, Response, WireForecast};
pub use load::{run_net_load, NetLoadGen, NetLoadReport};
pub use repl::{ChunkAssembler, ReplMsg};
pub use server::{NetConfig, NetServer};
