//! A blocking, framed `SMLRREPL` connection.
//!
//! Replication runs over a handful of long-lived connections (one per
//! follower), so a thread-per-connection blocking transport is the right
//! trade: no readiness bookkeeping, and kernel TCP buffering is the flow
//! control. The serving frontend (`smiler_net::server`) uses the same
//! model.

use crate::ClusterError;
use smiler_net::repl::{try_repl_frame, ReplMsg};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One framed replication connection over a blocking TCP stream.
pub struct ReplConn {
    stream: TcpStream,
    inbox: Vec<u8>,
}

impl ReplConn {
    /// Wrap an accepted/connected stream. Disables Nagle so record frames
    /// and acks don't sit in the kernel waiting for a full packet.
    pub fn new(stream: TcpStream) -> std::io::Result<ReplConn> {
        stream.set_nodelay(true)?;
        Ok(ReplConn { stream, inbox: Vec::with_capacity(4096) })
    }

    /// Send one message, blocking until the kernel accepts every byte.
    pub fn send(&mut self, msg: &ReplMsg) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(64);
        msg.encode(&mut wire);
        self.stream.write_all(&wire)
    }

    /// Receive one message, blocking indefinitely.
    pub fn recv(&mut self) -> Result<ReplMsg, ClusterError> {
        self.stream.set_read_timeout(None)?;
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(msg);
            }
            if !self.fill()? {
                return Err(ClusterError::Protocol("peer closed mid-stream".to_string()));
            }
        }
    }

    /// Receive one message, waiting at most `timeout`. `Ok(None)` means
    /// the wait elapsed without a complete frame — not an error, the
    /// stream is still healthy.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ReplMsg>, ClusterError> {
        if let Some(msg) = self.take_frame()? {
            return Ok(Some(msg));
        }
        self.stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(ClusterError::Protocol("peer closed mid-stream".to_string())),
            Ok(n) => {
                self.inbox.extend_from_slice(&chunk[..n]);
                self.take_frame()
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(ClusterError::Io(e)),
        }
    }

    /// Carve one complete frame off the inbox, if present.
    fn take_frame(&mut self) -> Result<Option<ReplMsg>, ClusterError> {
        match try_repl_frame(&self.inbox)? {
            Some((consumed, payload)) => {
                let msg = ReplMsg::decode(payload)?;
                self.inbox.drain(..consumed);
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Blocking read of at least one byte into the inbox. `Ok(false)` on
    /// clean EOF.
    fn fill(&mut self) -> Result<bool, ClusterError> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.inbox.extend_from_slice(&chunk[..n]);
        Ok(true)
    }
}
