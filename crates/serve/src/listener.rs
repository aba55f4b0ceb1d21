//! The connection skeleton `bemcapd` and the `bemcaprd` front tier
//! share: bind, a blocking accept loop, one thread per connection,
//! size-capped newline framing, and a [`Shutdown`] handle. A service
//! supplies only its `dispatch(line) -> reply` ([`Listener::run`]), so
//! both tiers frame identically:
//!
//! * a line longer than the cap is drained, never stored whole, and
//!   answered with an `oversized` error; a non-UTF-8 line gets `utf8`;
//! * blank lines are skipped; a truncated final line ends the connection.
//!
//! Shutdown is a wake-up, not a poll: [`Shutdown::trigger`] shuts down
//! the read half of every live connection (a blocked read returns EOF,
//! an in-flight reply is still written) and wakes the blocked `accept`
//! by connecting to the listener itself.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::protocol::{codes, error_response};

/// A bound listener: [`Listener::bind`] → [`Listener::run`].
pub struct Listener {
    listener: TcpListener,
    shutdown: Shutdown,
}

impl Listener {
    /// Binds the listening socket; port 0 picks a free port.
    ///
    /// # Errors
    ///
    /// Any socket error from bind.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown =
            Shutdown(Arc::new(Stop { wake, live: Mutex::default(), stopped: Condvar::new() }));
        Ok(Listener { listener, shutdown })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The handle that stops [`Listener::run`].
    pub fn shutdown(&self) -> Shutdown {
        self.shutdown.clone()
    }

    /// Serves each accepted connection on its own thread — frames of at
    /// most `max_frame_bytes` go to `dispatch`, whose reply is written
    /// back as one line — until the [`Shutdown`] handle fires, then joins
    /// every connection thread.
    ///
    /// # Errors
    ///
    /// Fatal accept errors, returned after every connection was released
    /// and joined.
    pub fn run(
        self,
        max_frame_bytes: usize,
        dispatch: impl Fn(&str) -> Vec<u8> + Send + Sync + 'static,
    ) -> io::Result<()> {
        let dispatch = Arc::new(dispatch);
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let result = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            let id = match self.shutdown.admit(&stream) {
                Ok(Some(id)) => id,
                Ok(None) => break Ok(()),
                // No descriptor left to track it: refuse this connection.
                Err(_) => continue,
            };
            let (dispatch, shutdown) = (Arc::clone(&dispatch), self.shutdown.clone());
            handlers.push(std::thread::spawn(move || {
                // A failed connection just ends: the peer is gone or the
                // socket is broken, so there is nobody left to tell.
                let _ = serve_connection(&stream, max_frame_bytes, &*dispatch);
                shutdown.live().streams.remove(&id);
            }));
            // Reap finished handlers so the join list stays bounded.
            handlers.retain(|h| !h.is_finished());
        };
        self.shutdown.trigger();
        for h in handlers {
            let _ = h.join();
        }
        result
    }
}

/// The stop handle of one [`Listener`]; clones share one state.
#[derive(Clone)]
pub struct Shutdown(Arc<Stop>);

struct Stop {
    /// Where a self-connect reaches the listener (loopback when the bound
    /// IP is unspecified).
    wake: SocketAddr,
    live: Mutex<Live>,
    stopped: Condvar,
}

/// The flag and the connection set under one lock, so a connection is
/// either admitted before a trigger (and shut down by it) or refused.
#[derive(Default)]
struct Live {
    stopping: bool,
    accepted: u64,
    streams: HashMap<u64, TcpStream>,
}

impl Shutdown {
    fn live(&self) -> MutexGuard<'_, Live> {
        // Every update leaves `Live` consistent, so a guard poisoned by a
        // panicking holder is still safe to use.
        self.0.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the listener: sets the flag, shuts down the read half of
    /// every live connection, and wakes `accept` and every
    /// [`Shutdown::wait_timeout`]. Idempotent.
    pub fn trigger(&self) {
        {
            let mut live = self.live();
            if std::mem::replace(&mut live.stopping, true) {
                return;
            }
            for stream in live.streams.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
        self.0.stopped.notify_all();
        // Refused once the listener is gone, which is just as good.
        let _ = TcpStream::connect_timeout(&self.0.wake, Duration::from_secs(1));
    }

    /// Whether [`Shutdown::trigger`] has run.
    pub fn is_triggered(&self) -> bool {
        self.live().stopping
    }

    /// Sleeps for `timeout` or until the trigger; returns whether it was
    /// triggered.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let waited = self.0.stopped.wait_timeout_while(self.live(), timeout, |l| !l.stopping);
        waited.unwrap_or_else(PoisonError::into_inner).0.stopping
    }

    /// Connections accepted since bind.
    pub fn accepted(&self) -> u64 {
        self.live().accepted
    }

    /// Enters a connection into the live set; `None` once triggered.
    fn admit(&self, stream: &TcpStream) -> io::Result<Option<u64>> {
        let mut live = self.live();
        if live.stopping {
            return Ok(None);
        }
        let id = live.accepted;
        live.streams.insert(id, stream.try_clone()?);
        live.accepted += 1;
        Ok(Some(id))
    }
}

/// Answers frames in order until EOF, which includes the read half
/// being shut down.
fn serve_connection(
    stream: &TcpStream,
    max_frame_bytes: usize,
    dispatch: &dyn Fn(&str) -> Vec<u8>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    while let Some(frame) = next_frame(&mut reader, max_frame_bytes)? {
        let reply = match frame {
            // Over the cap: the payload was drained, not stored.
            None => error_response(
                None,
                codes::OVERSIZED,
                &format!("request frame exceeds {max_frame_bytes} bytes"),
            )
            .into_bytes(),
            Some(bytes) => match std::str::from_utf8(&bytes) {
                Err(e) => error_response(None, codes::UTF8, &format!("request is not UTF-8: {e}"))
                    .into_bytes(),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => dispatch(line),
            },
        };
        writer.write_all(&reply)?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// Reads one newline-terminated frame: `Some(None)` when its payload
/// exceeds `max` bytes, `None` at EOF (also mid-frame: the peer is gone,
/// there is nobody to answer). A `\r\n` terminator is stripped before
/// the size check.
fn next_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Option<Option<Vec<u8>>>> {
    let mut line = Vec::new();
    let mut oversized = false;
    loop {
        line.clear();
        // Room for exactly `max` bytes plus `\r\n`; a longer line is
        // drained in chunks of this size.
        let chunk = (max as u64).saturating_add(2);
        if reader.by_ref().take(chunk).read_until(b'\n', &mut line)? == 0 {
            return Ok(None);
        }
        if line.pop() == Some(b'\n') {
            break;
        }
        // No newline: either the cap was hit (keep draining) or the peer
        // closed mid-frame (the next read returns 0).
        oversized = true;
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some((!oversized && line.len() <= max).then_some(line)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// An echo service with a 4-byte frame cap whose `stop` line triggers
    /// shutdown; `run`'s result arrives on the returned channel.
    fn echo() -> (SocketAddr, Shutdown, mpsc::Receiver<io::Result<()>>) {
        let listener = Listener::bind("127.0.0.1:0").expect("bind loopback");
        let (addr, shutdown) = (listener.local_addr().expect("addr"), listener.shutdown());
        let stop = listener.shutdown();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(listener.run(4, move |line| {
                if line == "stop" {
                    stop.trigger();
                }
                line.as_bytes().to_vec()
            }));
        });
        (addr, shutdown, finished)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        stream
    }

    /// Writes `frames`, then reads `replies` lines (the rest stays unread).
    fn exchange(stream: &TcpStream, frames: &[u8], replies: usize) -> Vec<String> {
        (&*stream).write_all(frames).expect("write");
        let mut reader = BufReader::new(stream);
        (0..replies).map(|_| reader.by_ref().lines().next().unwrap().expect("reply")).collect()
    }

    fn reads_eof(stream: &TcpStream) -> bool {
        (&*stream).read_to_end(&mut Vec::new()).expect("EOF, not a read timeout") == 0
    }

    #[test]
    fn frames_are_capped_checked_and_blank_lines_skipped() {
        let (addr, shutdown, finished) = echo();
        let replies = exchange(&connect(addr), b"\n\r\nping\r\nabcde\nabcd\r\r\n\xff\n", 4);
        assert_eq!(replies[0], "ping");
        assert!(replies[1].contains(codes::OVERSIZED) && replies[2].contains(codes::OVERSIZED));
        assert!(replies[3].contains(codes::UTF8), "{replies:?}");
        shutdown.trigger();
        finished.recv_timeout(Duration::from_secs(10)).expect("run returns").expect("clean exit");
    }

    #[test]
    fn a_client_blocked_mid_frame_is_released_by_another_clients_shutdown() {
        let (addr, _shutdown, finished) = echo();
        let blocked = connect(addr);
        // A round trip proves the connection is live, then half a frame
        // leaves its thread blocked inside the next read.
        assert_eq!(exchange(&blocked, b"ping\n{\"op", 1), ["ping"]);
        assert_eq!(exchange(&connect(addr), b"stop\n", 1), ["stop"], "the reply is still written");
        finished.recv_timeout(Duration::from_secs(10)).expect("run returns").expect("clean exit");
        assert!(reads_eof(&blocked), "the truncated frame gets no reply");
    }

    #[test]
    fn after_join_an_idle_client_reads_eof_and_the_live_set_drains() {
        let (addr, shutdown, finished) = echo();
        for _ in 0..50 {
            assert_eq!(exchange(&connect(addr), b"ping\n", 1), ["ping"]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !shutdown.live().streams.is_empty() {
            assert!(Instant::now() < deadline, "{} entries left", shutdown.live().streams.len());
            std::thread::sleep(Duration::from_millis(1));
        }
        let idle = connect(addr);
        assert_eq!(exchange(&idle, b"ping\n", 1), ["ping"]);
        assert_eq!(shutdown.accepted(), 51);
        shutdown.trigger();
        finished.recv_timeout(Duration::from_secs(10)).expect("run returns").expect("clean exit");
        assert!(reads_eof(&idle));
        assert!(shutdown.live().streams.is_empty());
    }

    #[test]
    fn an_unspecified_bind_is_woken_through_loopback() {
        for (bind, ip) in [("0.0.0.0:0", "127.0.0.1"), ("[::]:0", "::1")] {
            // Hosts without IPv6 cannot bind the second; nothing to check.
            if let Ok(listener) = Listener::bind(bind) {
                assert_eq!(listener.shutdown().0.wake.ip().to_string(), ip);
            }
        }
    }
}
