//! One backend `bemcapd` replica as the router sees it: an address,
//! health state, lifetime counters, and a small pool of reusable
//! [`Client`] connections.
//!
//! Forwarding is a **verbatim line relay** through
//! [`Client::roundtrip_line`]: the router writes the client's original
//! frame bytes and hands back the replica's response line untouched.
//! Nothing re-encodes on the proxy path, so the bit-identity contract of
//! the wire protocol (shortest-round-trip `f64` text) survives the extra
//! hop by construction.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bemcap_serve::{Client, ServeError};

/// A replica's routing state: health, counters, connection pool.
pub struct Replica {
    addr: String,
    healthy: AtomicBool,
    consecutive_failures: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    pool: Mutex<Vec<Client>>,
    pool_cap: usize,
}

impl Replica {
    /// A new, presumed-healthy replica (the health checker corrects the
    /// presumption within one interval if it is wrong).
    pub fn new(addr: String, pool_cap: usize) -> Replica {
        Replica {
            addr,
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            pool_cap,
        }
    }

    /// The replica's daemon address as configured.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the router currently routes to this replica.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Consecutive health-check failures.
    pub fn failure_streak(&self) -> u64 {
        self.consecutive_failures.load(Ordering::SeqCst)
    }

    /// Requests forwarded to this replica since start.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connection-level failures talking to this replica since start.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Records a failed health check. Returns `true` when this failure
    /// crossed `eject_after` and flipped the replica unhealthy (the
    /// caller counts the ejection exactly once).
    pub fn record_check_failure(&self, eject_after: u64) -> bool {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if streak >= eject_after && self.healthy.swap(false, Ordering::SeqCst) {
            // Pooled connections to an ejected replica are dead weight —
            // drop them so re-admission starts from fresh dials.
            self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
            return true;
        }
        false
    }

    /// Records a successful health check. Returns `true` when this
    /// success re-admitted a previously ejected replica.
    pub fn record_check_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        !self.healthy.swap(true, Ordering::SeqCst)
    }

    /// Forwards one frame line, reusing a pooled connection when one is
    /// available and dialing otherwise (the dial bounded by
    /// `dial_timeout`, every read and write by `io_timeout`; `None` =
    /// unbounded). A pooled connection that fails is discarded and the
    /// frame retried once on a fresh dial — the daemon may simply have
    /// been restarted since the pool filled.
    ///
    /// # Errors
    ///
    /// The fresh attempt's error, including a response cut off before its
    /// newline; the caller decides whether to fail over to another
    /// replica.
    pub fn forward(
        &self,
        line: &[u8],
        dial_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> Result<Vec<u8>, ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // A pooled connection that errors is simply stale (the daemon
        // may have restarted since the pool filled); fall through to a
        // fresh dial rather than reporting it.
        if let Some(mut conn) = self.checkout() {
            if let Ok(response) = conn.roundtrip_line(line).map(<[u8]>::to_vec) {
                self.checkin(conn);
                return Ok(response);
            }
        }
        let fresh = || -> Result<Vec<u8>, ServeError> {
            let mut conn = Client::connect_with_timeout(self.addr.as_str(), dial_timeout)?;
            conn.set_io_timeout(io_timeout)?;
            let response = conn.roundtrip_line(line)?.to_vec();
            self.checkin(conn);
            Ok(response)
        };
        fresh().inspect_err(|_| {
            self.errors.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn checkout(&self) -> Option<Client> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn checkin(&self, conn: Client) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.pool_cap {
            pool.push(conn);
        }
    }

    /// Pooled idle connections right now.
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejection_and_readmission_fire_exactly_once() {
        let r = Replica::new("127.0.0.1:1".into(), 2);
        assert!(r.is_healthy());
        assert!(!r.record_check_failure(3));
        assert!(!r.record_check_failure(3));
        assert!(r.record_check_failure(3), "third strike ejects");
        assert!(!r.is_healthy());
        assert!(!r.record_check_failure(3), "already ejected: no second ejection event");
        assert!(r.record_check_success(), "first success re-admits");
        assert!(r.is_healthy());
        assert_eq!(r.failure_streak(), 0);
        assert!(!r.record_check_success(), "already healthy: no re-admission event");
    }

    #[test]
    fn forward_to_a_dead_address_counts_an_error() {
        // Reserve a port and close it so nothing listens there.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let r = Replica::new(dead, 2);
        let err = r.forward(b"{\"op\":\"ping\"}", Duration::from_millis(200), None).unwrap_err();
        assert!(
            matches!(err, ServeError::Io(ref e) if e.kind() != std::io::ErrorKind::InvalidInput)
        );
        assert_eq!(r.request_count(), 1);
        assert_eq!(r.error_count(), 1);
    }

    /// A peer that answers one connection's first line with `reply`
    /// verbatim, then closes; join the handle once the exchange is over.
    fn one_shot_peer(reply: &[u8]) -> (String, std::thread::JoinHandle<()>) {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reply = reply.to_vec();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Take the whole request line first: closing on unread
            // bytes would reset the connection instead of ending it.
            let mut byte = [0u8];
            while (&stream).read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {}
            (&stream).write_all(&reply).unwrap();
        });
        (addr, peer)
    }

    #[test]
    fn a_reply_cut_off_before_its_newline_is_an_error() {
        const PONG: &[u8] = br#"{"id":1,"ok":true,"result":{"pong":true,"proto":8,"version":"0"}}"#;
        const PING: &[u8] = br#"{"op":"ping","id":1}"#;
        let timeout = Some(Duration::from_secs(5));
        let whole = [PONG, b"\n"].concat();
        for (reply, complete) in [(PONG, false), (whole.as_slice(), true)] {
            let (addr, peer) = one_shot_peer(reply);
            let pinged = Client::connect(addr).unwrap().ping();
            assert_eq!(pinged.is_ok(), complete, "{pinged:?}");
            if !complete {
                assert!(matches!(pinged, Err(ServeError::Protocol(_))));
            }
            peer.join().unwrap();

            let (addr, peer) = one_shot_peer(reply);
            let r = Replica::new(addr, 2);
            let relayed = r.forward(PING, Duration::from_secs(5), timeout);
            assert_eq!(relayed.as_deref().ok(), complete.then_some(PONG));
            assert_eq!((r.request_count(), r.error_count()), (1, u64::from(!complete)));
            peer.join().unwrap();
        }
    }
}
