//! The `bemcapd` client library: a blocking, line-oriented connection.
//!
//! One [`Client`] wraps one TCP connection and issues requests in order
//! (the protocol has no pipelining; correlation ids exist so callers can
//! still verify pairing). Each method sends one request and decodes the
//! reply with its [`crate::protocol`] codec, so all numeric payloads
//! decode to the exact `f64` bits the daemon computed.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bemcap_geom::io::write_geometry;
use bemcap_geom::Geometry;

use crate::error::ServeError;
use crate::protocol::{
    encode_request, open_response, ExtractOptions, PingReply, Request, ShutdownReply, Value,
    PROTOCOL_VERSION,
};
pub use crate::protocol::{
    ChipReply, DaemonStats, ExtractReply, MetricsReply, ReplicaStats, RouteStatsReply,
    SnapshotReply,
};

/// A blocking connection to a running `bemcapd`.
///
/// ```no_run
/// use bemcap_serve::{Client, ExtractOptions};
/// use bemcap_geom::structures::{self, CrossingParams};
///
/// let mut client = Client::connect("127.0.0.1:4545")?;
/// let geo = structures::crossing_wires(CrossingParams::default());
/// let reply = client.extract(&geo, &ExtractOptions::default())?;
/// assert!(reply.get(0, 1) < 0.0); // coupling capacitance
/// # Ok::<(), bemcap_serve::ServeError>(())
/// ```
pub struct Client {
    /// The connection; requests are written through `get_mut`.
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// The response line buffer, kept across calls.
    line: Vec<u8>,
}

/// Options of a full-chip windowed `chip` request (protocol v4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipOptions {
    /// Solver configuration, shared by every window.
    pub extract: ExtractOptions,
    /// Window grid columns.
    pub nx: usize,
    /// Window grid rows.
    pub ny: usize,
    /// Halo margin around each core tile in layout units
    /// (`None` = the daemon's default).
    pub halo: Option<f64>,
}

impl Default for ChipOptions {
    fn default() -> ChipOptions {
        ChipOptions { extract: ExtractOptions::default(), nx: 2, ny: 2, halo: None }
    }
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on how long the TCP connect may block
    /// (tried against each resolved address in turn). The front tier's
    /// health checker depends on this: a hung replica must cost one
    /// timeout, not a stuck thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when no resolved address accepts within
    /// `timeout` (the last attempt's error) or `addr` resolves to
    /// nothing.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ServeError> {
        let mut last: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last
            .unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to no socket addresses",
                )
            })
            .into())
    }

    fn from_stream(stream: TcpStream) -> Result<Client, ServeError> {
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream), next_id: 0, line: Vec::new() })
    }

    /// Bounds every subsequent read and write on this connection
    /// (`None` removes the bound — the default). When a timeout fires
    /// mid-response the stream may hold a partial line, so treat the
    /// connection as dead and reconnect instead of issuing another
    /// request on it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`]; the OS rejects a zero duration.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Extracts the capacitance matrix of `geo` on the daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] for daemon-side failures, [`ServeError::Io`]
    /// / [`ServeError::Protocol`] for transport problems and replies that
    /// are not well-formed v8 results.
    pub fn extract(
        &mut self,
        geo: &Geometry,
        options: &ExtractOptions,
    ) -> Result<ExtractReply, ServeError> {
        self.extract_text(&write_geometry(geo), options)
    }

    /// Like [`Client::extract`], for geometry already in the
    /// `bemcap_geom::io` text format.
    ///
    /// # Errors
    ///
    /// As [`Client::extract`].
    pub fn extract_text(
        &mut self,
        geometry: &str,
        options: &ExtractOptions,
    ) -> Result<ExtractReply, ServeError> {
        let id = Some(self.fresh_id());
        let request = Request::Extract { id, geometry: geometry.to_string(), options: *options };
        Ok(ExtractReply::decode(&self.roundtrip(&request)?)?)
    }

    /// Extracts many geometries in one `batch` frame: they go in as one
    /// daemon-side executor submission, admitted all or nothing, and each
    /// runs as its own job on the next idle worker. Results
    /// come back in input order, each bit-identical to a single-shot
    /// [`Client::extract`] of the same geometry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with code `busy` when the daemon's queue
    /// cannot admit the frame now, `bad-request` when the frame has more
    /// geometries than its whole depth, code `geometry`/`extraction`
    /// (message naming the lowest failing index) when a geometry fails;
    /// transport errors as [`Client::extract`].
    pub fn extract_batch(
        &mut self,
        geometries: &[Geometry],
        options: &ExtractOptions,
    ) -> Result<Vec<ExtractReply>, ServeError> {
        let id = Some(self.fresh_id());
        let geometries_text = geometries.iter().map(write_geometry).collect();
        let request = Request::Batch { id, geometries: geometries_text, options: *options };
        let replies = ExtractReply::decode_batch(&self.roundtrip(&request)?)?;
        if replies.len() != geometries.len() {
            return Err(ServeError::Protocol("batch response count does not match request".into()));
        }
        Ok(replies)
    }

    /// Full-chip windowed extraction (protocol v4): the daemon
    /// partitions the layout into `nx × ny` overlapping windows,
    /// extracts each one (reusing its process-lifetime window cache,
    /// which makes a re-sent revision incremental), and answers with
    /// the stitched *sparse* chip matrix.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with code `busy` under daemon overload,
    /// `geometry` for unusable layouts or partitions (more than 2¹⁶
    /// windows included), `extraction` when a window fails,
    /// `bad-request` for a zero window count or more uncached windows
    /// than the daemon's queue depth; transport errors as
    /// [`Client::extract`].
    pub fn chip(&mut self, geo: &Geometry, options: &ChipOptions) -> Result<ChipReply, ServeError> {
        self.chip_text(&write_geometry(geo), options)
    }

    /// Like [`Client::chip`], for geometry already in the
    /// `bemcap_geom::io` text format.
    ///
    /// # Errors
    ///
    /// As [`Client::chip`].
    pub fn chip_text(
        &mut self,
        geometry: &str,
        options: &ChipOptions,
    ) -> Result<ChipReply, ServeError> {
        let request = Request::Chip {
            id: Some(self.fresh_id()),
            geometry: geometry.to_string(),
            options: options.extract,
            nx: options.nx,
            ny: options.ny,
            halo: options.halo,
        };
        Ok(ChipReply::decode(&self.roundtrip(&request)?)?)
    }

    /// Liveness probe; checks the daemon speaks at least this client's
    /// protocol version (the protocol evolves additively, so a newer
    /// daemon still serves every op this client can send).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] when the daemon's version is older than
    /// the client's; transport errors as usual.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let request = Request::Ping { id: Some(self.fresh_id()) };
        let pong = PingReply::decode(&self.roundtrip(&request)?)?;
        if pong.proto < PROTOCOL_VERSION {
            return Err(ServeError::Protocol(format!(
                "protocol version mismatch: daemon speaks {}, client needs {PROTOCOL_VERSION}",
                pong.proto
            )));
        }
        Ok(())
    }

    /// Daemon-level statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::extract`].
    pub fn stats(&mut self) -> Result<DaemonStats, ServeError> {
        let request = Request::Stats { id: Some(self.fresh_id()) };
        Ok(DaemonStats::decode(&self.roundtrip(&request)?)?)
    }

    /// Scrapes the daemon's observability registry (protocol v5): the
    /// Prometheus text exposition plus the same samples as structured
    /// counter/gauge lists.
    ///
    /// # Errors
    ///
    /// As [`Client::extract`].
    pub fn metrics(&mut self) -> Result<MetricsReply, ServeError> {
        let request = Request::Metrics { id: Some(self.fresh_id()) };
        Ok(MetricsReply::decode(&self.roundtrip(&request)?)?)
    }

    /// Asks the daemon to write its pair-integral cache to `path` on
    /// *the daemon's* filesystem (protocol v6) — the warm-restart seam
    /// paired with `bemcapd --cache-restore`. The `bemcaprd` router
    /// answers `bad-request` (snapshots are per-daemon state; address
    /// each replica directly).
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with code `bad-request` when the daemon
    /// cannot write the file; transport errors as [`Client::extract`].
    pub fn snapshot(&mut self, path: &str) -> Result<SnapshotReply, ServeError> {
        let request = Request::Snapshot { id: Some(self.fresh_id()), path: path.to_string() };
        Ok(SnapshotReply::decode(&self.roundtrip(&request)?)?)
    }

    /// Router-level statistics (protocol v6): replica health and the
    /// front tier's failover counters. A plain daemon answers
    /// `bad-request` ([`ServeError::Remote`]) — callers use that to
    /// detect which kind of peer they reached.
    ///
    /// # Errors
    ///
    /// As [`Client::extract`].
    pub fn route_stats(&mut self) -> Result<RouteStatsReply, ServeError> {
        let request = Request::RouteStats { id: Some(self.fresh_id()) };
        Ok(RouteStatsReply::decode(&self.roundtrip(&request)?)?)
    }

    /// Asks the daemon to shut down cleanly.
    ///
    /// # Errors
    ///
    /// As [`Client::extract`].
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let request = Request::Shutdown { id: Some(self.fresh_id()) };
        ShutdownReply::decode(&self.roundtrip(&request)?)?;
        Ok(())
    }

    /// Sends one raw frame line (no newline) and returns the full decoded
    /// response object — the escape hatch for protocol tests.
    ///
    /// # Errors
    ///
    /// Transport errors as [`Client::roundtrip_line`], and
    /// [`ServeError::Protocol`] for a response that is not JSON; the
    /// response is returned whether `ok` or not.
    pub fn send_raw(&mut self, line: &str) -> Result<Value, ServeError> {
        let response = std::str::from_utf8(self.roundtrip_line(line.as_bytes())?)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
        serde_json::from_str(response)
            .map_err(|e| ServeError::Protocol(format!("invalid response JSON: {e}")))
    }

    /// The one round trip every request makes: writes `frame` (one line,
    /// no newline) and its terminator, then reads the response line into
    /// a buffer the client reuses. The line comes back without its
    /// terminator and byte-for-byte as the peer wrote it, which is what
    /// lets the `bemcaprd` front tier relay it verbatim.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket failures (including a timeout set by
    /// [`Client::set_io_timeout`]); [`ServeError::Protocol`] when the peer
    /// closes before answering or mid-line — half an answer is not an
    /// answer. After an error the connection is dead: reconnect.
    pub fn roundtrip_line(&mut self, frame: &[u8]) -> Result<&[u8], ServeError> {
        let stream = self.reader.get_mut();
        stream.write_all(frame)?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        if self.line.pop() != Some(b'\n') {
            return Err(ServeError::Protocol("peer closed the connection mid-response".into()));
        }
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        Ok(&self.line)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends a request and returns its `result`, enforcing the response
    /// envelope ([`open_response`]).
    fn roundtrip(&mut self, request: &Request) -> Result<Value, ServeError> {
        open_response(self.send_raw(&encode_request(request))?, request.id())
    }
}
