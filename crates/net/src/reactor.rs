//! A small mio-style readiness poller over non-blocking sockets.
//!
//! The workspace forbids `unsafe` everywhere, which rules out raw `epoll`
//! FFI — so readiness is *emulated*: each registered stream is probed with
//! a non-blocking one-byte [`TcpStream::peek`] (level-triggered: `Ok(n>0)`
//! means readable, `Ok(0)` means the peer closed, `WouldBlock` means not
//! ready), and an idle poller sleeps in short adaptive increments instead
//! of parking in the kernel. The API shape mirrors `mio::Poll` — register
//! a source for a [`Token`], poll for [`Event`]s with a timeout — so a
//! future `unsafe`-permitted epoll backend can slot in without touching
//! the server loop. The probe scan is O(registered sources) per poll,
//! which is fine at bench-scale connection counts (hundreds); the honest
//! trade-offs are written up in DESIGN.md §13.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Identifies a registered source in poll results. Chosen by the caller
/// at registration; the poller never invents tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// One readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The registered source the event is about.
    pub token: Token,
    /// Bytes are waiting to be read.
    pub readable: bool,
    /// The peer closed its end (a read will return `Ok(0)`).
    pub closed: bool,
}

/// Shortest and longest idle sleeps. The poller starts fast after recent
/// activity and decays toward the long sleep when nothing is happening,
/// bounding both idle-CPU burn and added latency under light load.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(50);
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(1);

/// Emulated-readiness poller. Holds `try_clone`d handles of the
/// registered streams (clones share the underlying socket, so a peek on
/// the clone observes the same receive buffer without consuming it).
pub struct Poller {
    sources: BTreeMap<usize, TcpStream>,
    idle_sleep: Duration,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller { sources: BTreeMap::new(), idle_sleep: IDLE_SLEEP_MIN }
    }

    /// Register `stream` for readiness under `token`. The stream is set
    /// non-blocking as a side effect (the probe requires it). Registering
    /// an in-use token replaces the old source.
    pub fn register(&mut self, stream: &TcpStream, token: Token) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let probe = stream.try_clone()?;
        self.sources.insert(token.0, probe);
        Ok(())
    }

    /// Remove `token` from the interest set. Unknown tokens are a no-op.
    pub fn deregister(&mut self, token: Token) {
        self.sources.remove(&token.0);
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Scan every source once; push an event per ready source.
    fn scan(&mut self, events: &mut Vec<Event>) {
        let mut probe = [0u8; 1];
        for (&token, stream) in &self.sources {
            match stream.peek(&mut probe) {
                Ok(0) => events.push(Event { token: Token(token), readable: false, closed: true }),
                Ok(_) => events.push(Event { token: Token(token), readable: true, closed: false }),
                Err(err) if err.kind() == ErrorKind::WouldBlock => {}
                // Treat any other socket error (reset, aborted) as a close;
                // the owner's next read surfaces the specific error.
                Err(_) => events.push(Event { token: Token(token), readable: false, closed: true }),
            }
        }
    }

    /// Poll for readiness, blocking up to `timeout`. Events are appended
    /// to `events` (which is cleared first). Returns the number of events.
    ///
    /// A zero `timeout` is a single non-blocking scan. Otherwise the
    /// poller rescans with adaptive sleeps between scans until a source is
    /// ready or the timeout elapses; the sleep starts at 50µs after
    /// recent activity and decays to 1ms when idle.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> usize {
        events.clear();
        let deadline = Instant::now() + timeout;
        loop {
            self.scan(events);
            if !events.is_empty() {
                self.idle_sleep = IDLE_SLEEP_MIN;
                return events.len();
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return 0;
            }
            std::thread::sleep(self.idle_sleep.min(remaining));
            self.idle_sleep = (self.idle_sleep * 2).min(IDLE_SLEEP_MAX);
        }
    }
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn readiness_tracks_bytes_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let mut poller = Poller::new();
        poller.register(&server_side, Token(7)).unwrap();
        let mut events = Vec::new();

        // Nothing sent yet: a zero-timeout poll sees nothing.
        assert_eq!(poller.poll(&mut events, Duration::ZERO), 0);

        // Bytes arrive: readable, and level-triggered (still readable on
        // the next poll because nothing consumed them).
        client.write_all(b"hi").unwrap();
        assert!(poller.poll(&mut events, Duration::from_secs(2)) >= 1);
        assert_eq!(events[0], Event { token: Token(7), readable: true, closed: false });
        assert!(poller.poll(&mut events, Duration::ZERO) >= 1);

        // Peer closes after its bytes are consumed: reported as closed.
        use std::io::Read;
        let mut sink = [0u8; 8];
        let mut owned = server_side;
        owned.set_nonblocking(true).unwrap();
        let _ = owned.read(&mut sink).unwrap();
        drop(client);
        let start = Instant::now();
        let saw_close = loop {
            poller.poll(&mut events, Duration::from_millis(50));
            if events.iter().any(|e| e.closed) {
                break true;
            }
            if start.elapsed() > Duration::from_secs(5) {
                break false;
            }
        };
        assert!(saw_close, "peer close never surfaced");

        poller.deregister(Token(7));
        assert!(poller.is_empty());
    }
}
