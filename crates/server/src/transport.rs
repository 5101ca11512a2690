//! Transports: the single-connection stdin/stdout front and the concurrent
//! TCP / Unix-socket listener, both over one shared [`ServerState`].
//!
//! Framing is newline-delimited JSON in both directions on every transport.
//! Per connection, requests are answered **in order** unless they opt into
//! `"async":true` (then they run on worker threads and responses are
//! matched by `"id"`); across connections everything runs concurrently over
//! the shared registry.  A `shutdown` request — from any connection — stops
//! the listener, **drains every in-flight request across every connection**
//! (their responses are written before the process exits), then answers and
//! exits.  Requests that arrive after the drain began are not processed.
//!
//! The socket listener enforces a connection cap: a client over the cap
//! receives one `{"ok":false,"error":...}` line and is disconnected.

use crate::error::{ErrorCode, ServerError};
use crate::json::Json;
use crate::proto::{error_line, handle_parsed, runs_async, ServerOptions, ServerState};
use sigrule::cancel::CancelToken;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where `sigrule serve --listen` binds: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address (`HOST:PORT`; port 0 binds an ephemeral port,
    /// reported in the ready line).
    Tcp(String),
    /// A Unix-domain socket path (created on bind, removed on graceful
    /// exit).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses a `tcp:HOST:PORT` or `unix:PATH` spec.
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: needs HOST:PORT (e.g. tcp:127.0.0.1:7878)".to_string());
            }
            Ok(ListenAddr::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path (e.g. unix:/tmp/sigrule.sock)".to_string());
            }
            Ok(ListenAddr::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "listen address must be tcp:HOST:PORT or unix:PATH (got {spec:?})"
            ))
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Socket-server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneously connected clients; clients over the cap get
    /// an error line and are disconnected.
    pub max_connections: usize,
    /// Byte budget over the registry's resident caches (`None` =
    /// unbounded).
    pub cache_budget_bytes: Option<usize>,
    /// Log a structured slow-query record for any `mine`/`correct` request
    /// slower than this many milliseconds (`None` = disabled).
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            cache_budget_bytes: None,
            slow_query_ms: None,
        }
    }
}

impl ServerConfig {
    fn options(&self) -> ServerOptions {
        ServerOptions {
            cache_budget_bytes: self.cache_budget_bytes,
            slow_query_ms: self.slow_query_ms,
        }
    }
}

/// Counts in-flight requests; `shutdown` waits for the count to drain to
/// zero so no response is lost to the process exit.
#[derive(Debug, Default)]
struct WaitGroup {
    count: Mutex<usize>,
    zero: Condvar,
}

impl WaitGroup {
    // The count is a plain integer: no invariant can be broken by a panic
    // mid-critical-section, so a poisoned lock is recovered, not propagated —
    // a panicking worker must not take the shutdown drain down with it.
    fn enter(self: &Arc<Self>) -> WaitGuard {
        *self.count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        WaitGuard(self.clone())
    }

    fn wait_idle(&self) {
        let mut count = self.count.lock().unwrap_or_else(|e| e.into_inner());
        while *count > 0 {
            count = self.zero.wait(count).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct WaitGuard(Arc<WaitGroup>);

impl Drop for WaitGuard {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(|e| e.into_inner());
        *count -= 1;
        if *count == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// State shared by every connection of one server process.
struct SharedServer {
    state: ServerState,
    /// Set by the first `shutdown` request; the accept loop and every
    /// connection reader exit promptly once it is up.
    shutdown: AtomicBool,
    /// In-flight requests across all connections (sync and async).
    inflight: Arc<WaitGroup>,
    /// Currently connected clients (socket mode).
    connections: AtomicUsize,
}

impl SharedServer {
    fn new(options: ServerOptions) -> Self {
        SharedServer {
            state: ServerState::with_options(options),
            shutdown: AtomicBool::new(false),
            inflight: Arc::new(WaitGroup::default()),
            connections: AtomicUsize::new(0),
        }
    }
}

/// A line sink shared between a connection's reader and its async workers;
/// responses are written line-atomically.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line; `false` means the peer is gone (or wedged past
/// the write timeout), so the caller should cancel the connection's work.
fn write_line(out: &SharedWriter, line: &str) -> bool {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    writeln!(out, "{line}").is_ok() && out.flush().is_ok()
}

/// Upper bound on concurrently running `"async":true` workers per
/// connection; the reader joins the oldest worker before spawning past it.
const MAX_ASYNC_WORKERS: usize = 16;

/// What processing one request line decided for the connection.
#[derive(Debug, PartialEq, Eq)]
enum LineOutcome {
    /// Keep reading.
    Continue,
    /// This connection received `shutdown`; the whole server drains and
    /// exits.
    Shutdown,
}

/// The per-connection request driver, shared verbatim by the stdin front
/// and every socket connection: in-order sync handling, bounded async
/// workers, panic-to-response, and the shutdown drain.
struct ConnDriver {
    server: Arc<SharedServer>,
    out: SharedWriter,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The connection's lifecycle token.  Every request runs under a child
    /// of it (optionally narrowed by the request's `timeout_ms`), so firing
    /// it — the connection died mid-work — aborts every in-flight request
    /// of this connection at its next cancellation point.
    cancel: CancelToken,
}

/// Handles one request under a panic barrier: a handler panic becomes an
/// `internal`/transient error response (the caches are unwind-safe — an
/// aborted fill rolls back to cold), never a silently dead connection.
fn handle_trapped(
    state: &ServerState,
    parsed: Result<Json, crate::json::JsonError>,
    cancel: &CancelToken,
) -> (String, bool) {
    let id = parsed.as_ref().ok().and_then(|r| r.get("id").cloned());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_parsed(state, parsed, cancel)
    })) {
        Ok(answer) => answer,
        Err(_) => {
            let error = ServerError::new(
                ErrorCode::Internal,
                "internal error: request handler panicked",
            );
            (error_line(id.as_ref(), &error), false)
        }
    }
}

impl ConnDriver {
    fn new(server: Arc<SharedServer>, out: Box<dyn Write + Send>) -> Self {
        ConnDriver {
            server,
            out: Arc::new(Mutex::new(out)),
            workers: Vec::new(),
            cancel: CancelToken::new(),
        }
    }

    fn process_line(&mut self, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Continue;
        }
        let parsed = Json::parse(line);
        if self.server.shutdown.load(SeqCst) {
            // The drain already began; answering would race the exit.
            let id = parsed.as_ref().ok().and_then(|r| r.get("id").cloned());
            let error = ServerError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down; no new work is accepted",
            );
            write_line(&self.out, &error_line(id.as_ref(), &error));
            return LineOutcome::Continue;
        }
        if !runs_async(&parsed) {
            // Sync requests are barriers within the connection: every async
            // worker this connection spawned finishes first.
            self.join_workers();
            let (resp, shutdown) = {
                let _guard = self.server.inflight.enter();
                handle_trapped(&self.server.state, parsed, &self.cancel)
            };
            if shutdown {
                // Drain: flag first (no new work starts), then wait for every
                // in-flight request on every connection, so each pending
                // response is written before this acknowledgement and the
                // process exit.
                self.server.shutdown.store(true, SeqCst);
                self.server.inflight.wait_idle();
            }
            if !write_line(&self.out, &resp) {
                // The peer is gone; abort whatever it still had in flight.
                self.cancel.cancel();
            }
            if shutdown {
                LineOutcome::Shutdown
            } else {
                LineOutcome::Continue
            }
        } else {
            // Bound the in-flight workers: a long async sweep must not spawn
            // one OS thread per request line.  Joining the oldest worker
            // first keeps at most MAX_ASYNC_WORKERS alive per connection.
            if self.workers.len() >= MAX_ASYNC_WORKERS {
                let _ = self.workers.remove(0).join();
            }
            let server = self.server.clone();
            let out = self.out.clone();
            let cancel = self.cancel.clone();
            let guard = self.server.inflight.enter();
            self.workers.push(std::thread::spawn(move || {
                let _guard = guard;
                // One response per request, even if the handler panics: a
                // client matching responses by id must never hang on a
                // silently dead worker.
                let (resp, _) = handle_trapped(&server.state, parsed, &cancel);
                if !write_line(&out, &resp) {
                    cancel.cancel();
                }
            }));
            LineOutcome::Continue
        }
    }

    /// Drives one framed line: a request, or the framer's rejection of an
    /// over-long or non-UTF-8 line (answered with its error, no `id`).
    fn process_frame(&mut self, frame: Result<String, ServerError>) -> LineOutcome {
        match frame {
            Ok(line) => self.process_line(&line),
            Err(error) => {
                if !write_line(&self.out, &error_line(None, &error)) {
                    self.cancel.cancel();
                }
                LineOutcome::Continue
            }
        }
    }

    /// Drives every complete line buffered in `framer`.
    fn drain_frames(&mut self, framer: &mut LineFramer) -> LineOutcome {
        while let Some(frame) = framer.next_line() {
            if self.process_frame(frame) == LineOutcome::Shutdown {
                return LineOutcome::Shutdown;
            }
        }
        LineOutcome::Continue
    }

    fn join_workers(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ConnDriver {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Longest request line the server buffers, in bytes without its newline.
/// Protocol requests are a few hundred bytes (`load` takes a path, not
/// data), so a longer line is answered with one `invalid_request` and
/// skipped.  Responses are not capped: a `perm_shard` answer grows with the
/// rule count.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Splits an incoming byte stream into request lines: the one framing the
/// stdin front and every socket connection share.  Bytes are pushed as they
/// arrive (a socket read may time out mid-line without losing any), and
/// each byte is scanned for `'\n'` once.  A line longer than `max` bytes is
/// reported once, as soon as it is known to be too long, and its remaining
/// bytes are dropped as they arrive, so the buffer never holds much more
/// than `max` bytes plus one read.
struct LineFramer {
    buf: Vec<u8>,
    /// First byte of `buf` not yet returned in a line.
    start: usize,
    /// `buf[start..scanned]` holds no newline.
    scanned: usize,
    /// An over-long line was reported; drop bytes through its newline.
    skipping: bool,
    max: usize,
}

impl LineFramer {
    fn new(max: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            skipping: false,
            max,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line (without its line ending), an error for an
    /// over-long or non-UTF-8 line, or `None` when no complete line is
    /// buffered.
    fn next_line(&mut self) -> Option<Result<String, ServerError>> {
        loop {
            let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buf.len();
                // One byte of slack: the line may still end in "\r\n".
                let too_long = !self.skipping && self.buf.len() - self.start > self.max + 1;
                if self.skipping || too_long {
                    // Drop the over-long line's bytes; report it only once.
                    self.buf.clear();
                    self.start = 0;
                    self.scanned = 0;
                    self.skipping = true;
                }
                return too_long.then(|| Err(self.too_long()));
            };
            let end = self.scanned + offset;
            let line = self.start..end;
            self.start = end + 1;
            self.scanned = end + 1;
            if std::mem::take(&mut self.skipping) {
                continue;
            }
            return Some(self.decode(line));
        }
    }

    /// At end of input: the final line if it had no newline.
    fn finish(&mut self) -> Option<Result<String, ServerError>> {
        if self.skipping || self.start == self.buf.len() {
            return None;
        }
        let line = self.start..self.buf.len();
        self.start = self.buf.len();
        self.scanned = self.buf.len();
        Some(self.decode(line))
    }

    fn decode(&self, line: std::ops::Range<usize>) -> Result<String, ServerError> {
        let bytes = &self.buf[line];
        let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
        if bytes.len() > self.max {
            return Err(self.too_long());
        }
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|e| {
            ServerError::new(
                ErrorCode::InvalidRequest,
                format!(
                    "request line is not valid UTF-8 (invalid byte at offset {})",
                    e.valid_up_to()
                ),
            )
        })
    }

    fn too_long(&self) -> ServerError {
        ServerError::new(
            ErrorCode::InvalidRequest,
            format!(
                "request line exceeds {} bytes; it was skipped through its newline",
                self.max
            ),
        )
    }
}

/// Runs the single-connection serve loop over arbitrary streams (the binary
/// passes stdin/stdout; tests pass in-memory buffers).  Returns the process
/// exit code.  This is what plain `sigrule serve` runs: the same
/// per-connection driver as the socket transports, minus the listener.
pub fn serve_streams<R, W>(reader: R, writer: W) -> i32
where
    R: BufRead,
    W: Write + Send + 'static,
{
    serve_streams_with(reader, writer, ServerOptions::default())
}

/// [`serve_streams`] with explicit server options (cache byte budget).
pub fn serve_streams_with<R, W>(reader: R, writer: W, options: ServerOptions) -> i32
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let server = Arc::new(SharedServer::new(options));
    let mut conn = ConnDriver::new(server, Box::new(writer));
    let mut framer = LineFramer::new(MAX_REQUEST_LINE_BYTES);
    let mut reader = reader;
    loop {
        let n = match reader.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => {
                framer.push(chunk);
                chunk.len()
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        reader.consume(n);
        if conn.drain_frames(&mut framer) == LineOutcome::Shutdown {
            return 0;
        }
    }
    if let Some(frame) = framer.finish() {
        if conn.process_frame(frame) == LineOutcome::Shutdown {
            return 0;
        }
    }
    conn.join_workers();
    0
}

/// How long a blocked socket read waits before re-checking the shutdown
/// flag.  Bounds the shutdown latency of idle connections (and of the
/// accept loop, which polls at the same cadence).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Upper bound on one blocking response write.  A client that stops
/// reading (full kernel send buffer) must not hold a worker — and with it
/// the shutdown drain, which waits on every in-flight request — hostage
/// forever; after this long the write fails, the response is dropped, and
/// the connection is effectively dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Backoff hint attached to the connection-cap rejection: a slot frees as
/// soon as any connected client disconnects, so suggest a short pause.
const OVERLOADED_RETRY_AFTER_MS: u64 = 250;

/// One accepted socket connection, abstracted over the address family.
trait SocketStream: Read + Write + Send + Sized + 'static {
    /// A second handle to the same socket (reader/writer split).
    fn split(&self) -> std::io::Result<Self>;
    /// Bounds blocking reads so the reader can poll the shutdown flag.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Bounds blocking writes so a non-reading client cannot wedge the
    /// shutdown drain.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl SocketStream for TcpStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl SocketStream for UnixStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// A nonblocking listener, abstracted over the address family.
trait Acceptor: Send + 'static {
    type Stream: SocketStream;
    /// `Ok(Some)` on a new connection, `Ok(None)` when none is pending.
    fn poll_accept(&self) -> std::io::Result<Option<Self::Stream>>;
}

fn none_when_would_block<S>(r: std::io::Result<S>) -> std::io::Result<Option<S>> {
    match r {
        Ok(stream) => Ok(Some(stream)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;
    fn poll_accept(&self) -> std::io::Result<Option<TcpStream>> {
        none_when_would_block(self.accept().map(|(s, _)| {
            // One request and one response per round trip, both tiny:
            // Nagle + delayed ACK would add ~40 ms floors per line.
            let _ = s.set_nodelay(true);
            s
        }))
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    type Stream = UnixStream;
    fn poll_accept(&self) -> std::io::Result<Option<UnixStream>> {
        none_when_would_block(self.accept().map(|(s, _)| s))
    }
}

/// Reads newline-framed requests from `stream` and drives them through the
/// shared server.  Owns the connection-count slot; decrements it on every
/// exit path.
fn handle_socket_connection<S: SocketStream>(server: Arc<SharedServer>, stream: S) {
    struct Slot(Arc<SharedServer>);
    impl Drop for Slot {
        fn drop(&mut self) {
            self.0.connections.fetch_sub(1, SeqCst);
        }
    }
    let _slot = Slot(server.clone());

    let write_half = match stream.split() {
        Ok(half) => half,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut conn = ConnDriver::new(server.clone(), Box::new(write_half));
    let mut reader = stream;
    // The framer accumulates raw bytes rather than using
    // `BufRead::read_line`, which discards bytes already consumed when a
    // read times out mid-line: here a timeout just means "check the
    // shutdown flag and keep reading".
    let mut framer = LineFramer::new(MAX_REQUEST_LINE_BYTES);
    let mut chunk = [0u8; 8192];
    loop {
        if conn.drain_frames(&mut framer) == LineOutcome::Shutdown {
            return;
        }
        if server.shutdown.load(SeqCst) {
            // Another connection began the drain.  One final sweep: requests
            // already on the wire get an explicit shutting-down error (from
            // `process_line`) instead of a silent close, so no client hangs
            // on a dropped line.
            if let Ok(n) = reader.read(&mut chunk) {
                framer.push(&chunk[..n]);
            }
            let _ = conn.drain_frames(&mut framer);
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF; a trailing unterminated line still gets an answer.
                if let Some(frame) = framer.finish() {
                    let _ = conn.process_frame(frame);
                }
                return;
            }
            Ok(n) => framer.push(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                // A hard read error (connection reset, not a plain EOF): the
                // client is gone without half-closing, so nobody will read
                // the in-flight responses — abort that work instead of
                // computing into the void.  A clean EOF above deliberately
                // does NOT cancel: half-close-then-drain is the documented
                // client pattern ([`crate::client::ClientStream::shutdown_write`]).
                conn.cancel.cancel();
                return;
            }
        }
    }
}

/// The accept loop: admits clients up to the connection cap, spawns one
/// thread per connection, and exits — joining every connection — once a
/// `shutdown` request (on any connection) flags the server down.
fn accept_loop<A: Acceptor>(listener: A, server: Arc<SharedServer>, max_connections: usize) -> i32 {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.shutdown.load(SeqCst) {
        match listener.poll_accept() {
            Ok(Some(stream)) => {
                if server.connections.load(SeqCst) >= max_connections {
                    // Over the cap: one structured transient error line with
                    // a backoff hint, then disconnect.  Slots free as soon as
                    // a connection closes, so the hint is short.
                    let mut stream = stream;
                    let error = ServerError::new(
                        ErrorCode::Overloaded,
                        format!("connection limit reached ({max_connections}); retry later"),
                    )
                    .with_retry_after_ms(OVERLOADED_RETRY_AFTER_MS);
                    let _ = writeln!(stream, "{}", error_line(None, &error));
                    continue;
                }
                server.connections.fetch_add(1, SeqCst);
                let server = server.clone();
                connections.push(std::thread::spawn(move || {
                    handle_socket_connection(server, stream)
                }));
            }
            Ok(None) => std::thread::sleep(POLL_INTERVAL),
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        connections.retain(|c| !c.is_finished());
    }
    for conn in connections {
        let _ = conn.join();
    }
    0
}

/// Binds `addr` and serves until a `shutdown` request.  `on_ready` receives
/// the bound address (`tcp:IP:PORT` with the real port, or `unix:PATH`)
/// once the listener accepts connections — the CLI prints it as a JSON
/// ready line, tests use it to connect.  Returns the process exit code.
pub fn serve_listener(
    addr: &ListenAddr,
    config: &ServerConfig,
    on_ready: impl FnOnce(&str),
) -> std::io::Result<i32> {
    let server = Arc::new(SharedServer::new(config.options()));
    match addr {
        ListenAddr::Tcp(spec) => {
            let listener = TcpListener::bind(spec)?;
            listener.set_nonblocking(true)?;
            on_ready(&format!("tcp:{}", listener.local_addr()?));
            Ok(accept_loop(listener, server, config.max_connections))
        }
        #[cfg(unix)]
        ListenAddr::Unix(path) => {
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            on_ready(&ListenAddr::Unix(path.clone()).to_string());
            let code = accept_loop(listener, server, config.max_connections);
            let _ = std::fs::remove_file(path);
            Ok(code)
        }
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::client::ClientStream;
    use crate::json::Json;

    fn fixture_path() -> String {
        crate::proto::tests::fixture_path()
    }

    #[test]
    fn listen_addr_parses_and_displays() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:7878").unwrap(),
            ListenAddr::Tcp("127.0.0.1:7878".to_string())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/s.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            ListenAddr::parse("tcp:0.0.0.0:0").unwrap().to_string(),
            "tcp:0.0.0.0:0"
        );
        for bad in ["tcp:", "unix:", "7878", "http:localhost"] {
            assert!(ListenAddr::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// A Write proxy so tests can keep a handle on the output buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_streams_round_trips_a_scripted_session() {
        let path = fixture_path();
        let script = format!(
            concat!(
                r#"{{"id":"a","cmd":"load","path":"{path}"}}"#,
                "\n",
                r#"{{"id":"b","cmd":"correct","min_sup":10,"correction":"bonferroni"}}"#,
                "\n",
                r#"{{"id":"c","cmd":"stats"}}"#,
                "\n",
                r#"{{"id":"d","cmd":"shutdown"}}"#,
                "\n"
            ),
            path = path
        );
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let code = serve_streams(script.as_bytes(), SharedBuf(out.clone()));
        assert_eq!(code, 0);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request: {text}");
        for line in &lines {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
        }
        // Responses can be matched back by id.
        let mut ids: Vec<String> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["a", "b", "c", "d"]);
    }

    /// Frames `chunks` pushed one by one, then the end of input.
    fn frame_all(max: usize, chunks: &[&[u8]]) -> Vec<Result<String, ServerError>> {
        let mut framer = LineFramer::new(max);
        let mut frames = Vec::new();
        for chunk in chunks {
            framer.push(chunk);
            // At most one pending line (plus its "\r" slack) and one read.
            assert!(framer.buf.len() <= max + 1 + chunk.len());
            frames.extend(std::iter::from_fn(|| framer.next_line()));
        }
        frames.extend(framer.finish());
        frames
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn framer_lines_do_not_depend_on_read_boundaries(
            lines in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0..6usize, 0..12),
                0..8,
            ),
            cuts in proptest::prop::collection::vec(1..9usize, 1..40),
            trailing_newline in 0..2u8,
        ) {
            use proptest::prop_assert_eq;
            const PIECES: &[&str] = &["a", "é", "{\"cmd\":1}", " ", "\r", "𝄞"];
            let lines: Vec<String> = lines
                .iter()
                .map(|picks| picks.iter().map(|&i| PIECES[i]).collect())
                .collect();
            let mut text = lines.join("\n");
            if trailing_newline == 1 {
                text.push('\n');
            }
            // Cut the stream at arbitrary byte offsets, mid-character too.
            let mut chunks: Vec<&[u8]> = Vec::new();
            let (mut at, mut cut) = (0, cuts.iter().cycle());
            while at < text.len() {
                let next = (at + cut.next().unwrap()).min(text.len());
                chunks.push(&text.as_bytes()[at..next]);
                at = next;
            }
            // Every line loses its "\n" and one "\r" before it, the last
            // line (with no newline) included.
            let mut segments: Vec<&str> = text.split('\n').collect();
            if segments.last() == Some(&"") {
                segments.pop();
            }
            let expected: Vec<Result<String, ServerError>> = segments
                .iter()
                .map(|l| Ok(l.strip_suffix('\r').unwrap_or(l).to_string()))
                .collect();
            prop_assert_eq!(frame_all(64, &chunks), expected);
        }
    }

    #[test]
    fn hostile_over_long_lines_are_reported_once_and_skipped() {
        let long = vec![b'x'; 100];
        for chunk_len in [1, 7, 64, 1000] {
            let mut stream = b"first\n".to_vec();
            stream.extend_from_slice(&long);
            stream.extend_from_slice(b"\nsecond\n");
            stream.extend_from_slice(&long); // unterminated at end of input
            let chunks: Vec<&[u8]> = stream.chunks(chunk_len).collect();
            let frames = frame_all(16, &chunks);
            assert_eq!(frames.len(), 4, "chunk {chunk_len}: {frames:?}");
            assert_eq!(frames[0], Ok("first".to_string()));
            assert_eq!(frames[2], Ok("second".to_string()));
            for frame in [&frames[1], &frames[3]] {
                let error = frame.clone().unwrap_err();
                assert_eq!(error.code, ErrorCode::InvalidRequest);
                assert!(error.message.contains("exceeds 16 bytes"), "{error}");
            }
        }
        // A line of exactly the limit is served; non-UTF-8 is an error, not
        // the end of the stream.
        let frames = frame_all(4, &[b"abcd\r\nab\xffd\nok"]);
        assert_eq!(frames[0], Ok("abcd".to_string()));
        assert!(frames[1].clone().unwrap_err().message.contains("offset 2"));
        assert_eq!(frames[2], Ok("ok".to_string()));
    }

    /// Request lines a peer might send that each must get exactly one
    /// answer without harming the session: a nesting bomb, an over-long
    /// line, a non-UTF-8 line.
    fn hostile_lines() -> Vec<Vec<u8>> {
        vec![
            "[".repeat(200_000).into_bytes(),
            format!(
                r#"{{"cmd":"stats","pad":"{}"}}"#,
                "x".repeat(MAX_REQUEST_LINE_BYTES)
            )
            .into_bytes(),
            b"{\"cmd\":\"st\xffats\"}".to_vec(),
        ]
    }

    /// Checks the answers to [`hostile_lines`] followed by a `stats`.
    fn assert_hostile_answers(answers: &[Json]) {
        assert_eq!(answers.len(), 4, "one answer per line: {answers:?}");
        for (answer, what) in
            answers[..3]
                .iter()
                .zip(["nesting deeper than 128", "exceeds 1048576 bytes", "UTF-8"])
        {
            assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                answer.get("code").and_then(Json::as_str),
                Some("invalid_request")
            );
            let message = answer.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(what), "{what:?} not in {message:?}");
        }
        assert!(answers[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("at byte 128"));
        // The session is still usable.
        assert_eq!(answers[3].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn hostile_lines_on_stdin_get_structured_errors_and_the_session_survives() {
        let mut script = Vec::new();
        for line in hostile_lines() {
            script.extend_from_slice(&line);
            script.push(b'\n');
        }
        script.extend_from_slice(b"{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n");
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(serve_streams(&script[..], SharedBuf(out.clone())), 0);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let answers: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(answers.len(), 5, "{text}");
        assert_hostile_answers(&answers[..4]);
        assert_eq!(
            answers[4].get("cmd").and_then(Json::as_str),
            Some("shutdown")
        );
    }

    #[test]
    fn hostile_lines_on_tcp_get_structured_errors_and_the_session_survives() {
        // Socket connections run on spawned threads, whose stacks are
        // smaller than the main thread's.
        let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve_listener(&addr, &ServerConfig::default(), |bound| {
                send_ready.send(bound.to_string()).unwrap()
            })
            .unwrap()
        });
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();
        let ListenAddr::Tcp(spec) = &bound else {
            unreachable!()
        };
        let mut raw = TcpStream::connect(spec).unwrap();
        let mut client = ClientStream::connect(&bound).unwrap();
        let mut answers = Vec::new();
        for line in hostile_lines() {
            raw.write_all(&line).unwrap();
            raw.write_all(b"\n").unwrap();
        }
        raw.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            answers.push(Json::parse(line.trim_end()).unwrap());
        }
        assert_hostile_answers(&answers);
        let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.join().unwrap(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn hostile_request_lines_each_get_exactly_one_answer(
            lines in proptest::prop::collection::vec(
                proptest::prop::collection::vec((0..12usize, 0..=255u8), 0..10),
                1..12,
            ),
        ) {
            use proptest::prop_assert_eq;
            const PIECES: &[&[u8]] = &[
                b"{\"cmd\":\"stats\"}", b"{\"cmd\":\"registry_stats\",\"id\":7}",
                b"[[[[[[[[", b"{\"cmd\":", b"\"", b"\\", b" ", b"\r", b"\xff", b"\xc3",
                b"{\"cmd\":\"nope\"}",
            ];
            let mut script = Vec::new();
            let mut expected = 0;
            for picks in &lines {
                let line: Vec<u8> = picks
                    .iter()
                    .flat_map(|&(i, byte)| match PIECES.get(i) {
                        Some(piece) => piece.to_vec(),
                        None => vec![byte],
                    })
                    .filter(|&b| b != b'\n')
                    .collect();
                let body = line.strip_suffix(b"\r").unwrap_or(&line);
                expected += match std::str::from_utf8(body) {
                    Ok(text) if text.trim().is_empty() => 0,
                    _ => 1,
                };
                script.extend_from_slice(&line);
                script.push(b'\n');
            }
            let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
            prop_assert_eq!(serve_streams(&script[..], SharedBuf(out.clone())), 0);
            let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
            prop_assert_eq!(text.lines().count(), expected, "{}", text);
            for line in text.lines() {
                proptest::prop_assert!(Json::parse(line).is_ok(), "{}", line);
            }
        }
    }

    /// One in-process TCP server, driven by library clients: concurrent
    /// connections race queries on the shared registry, and a shutdown from
    /// one connection drains the others' in-flight work.
    #[test]
    fn tcp_server_serves_concurrent_connections_and_drains_on_shutdown() {
        let path = fixture_path();
        let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve_listener(&addr, &ServerConfig::default(), |bound| {
                send_ready.send(bound.to_string()).unwrap()
            })
            .unwrap()
        });
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();

        // Load on one connection; the dataset is visible to every other.
        let mut admin = ClientStream::connect(&bound).unwrap();
        let load = admin
            .request(&format!(r#"{{"cmd":"load","path":"{path}"}}"#))
            .unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));

        // A second connection issues an async correct but does NOT wait for
        // the response before the admin connection requests shutdown: the
        // drain must still deliver it.
        let mut worker = ClientStream::connect(&bound).unwrap();
        worker
            .send(r#"{"id":"slow","cmd":"correct","async":true,"min_sup":8,"correction":"permutation","permutations":60,"seed":2}"#)
            .unwrap();
        // Wait until the query is actually in flight (the engine's query
        // counter ticks at query start) — the drain guarantee covers work
        // the server has accepted, not bytes still in a socket buffer.
        loop {
            let stats = admin.request(r#"{"cmd":"stats"}"#).unwrap();
            if stats.get("queries").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let bye = admin.request(r#"{"id":"bye","cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));

        // The racing worker's response was written before the server wound
        // down (the drain guarantee), and it is a real answer.
        let slow = worker.read_response().unwrap();
        assert_eq!(slow.get("id").and_then(Json::as_str), Some("slow"));
        assert_eq!(slow.get("ok").and_then(Json::as_bool), Some(true));
        assert!(slow.get("significant").and_then(Json::as_u64).is_some());

        assert_eq!(server.join().unwrap(), 0);
    }

    #[test]
    fn connection_cap_rejects_excess_clients_with_an_error_line() {
        let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let config = ServerConfig {
            max_connections: 1,
            cache_budget_bytes: None,
            slow_query_ms: None,
        };
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve_listener(&addr, &config, |bound| {
                send_ready.send(bound.to_string()).unwrap()
            })
            .unwrap()
        });
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();

        let mut first = ClientStream::connect(&bound).unwrap();
        // Prove the first slot is actually active before racing the second.
        let stats = first.request(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));

        let mut second = ClientStream::connect(&bound).unwrap();
        let rejected = second.read_response().unwrap();
        assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
        assert!(rejected
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("connection limit"));
        // The rejection is a structured transient error with a backoff hint,
        // so clients can retry mechanically instead of parsing prose.
        assert_eq!(
            rejected.get("code").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(
            rejected.get("error_kind").and_then(Json::as_str),
            Some("transient")
        );
        assert_eq!(
            rejected.get("retry_after_ms").and_then(Json::as_u64),
            Some(OVERLOADED_RETRY_AFTER_MS)
        );

        let bye = first.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.join().unwrap(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_server_round_trips_and_removes_the_socket_file() {
        let path = fixture_path();
        let sock = std::env::temp_dir().join(format!(
            "sigrule_transport_unit_{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock);
        let addr = ListenAddr::Unix(sock.clone());
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                serve_listener(&addr, &ServerConfig::default(), |bound| {
                    send_ready.send(bound.to_string()).unwrap()
                })
                .unwrap()
            })
        };
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();
        assert_eq!(bound, addr);

        let mut client = ClientStream::connect(&bound).unwrap();
        let load = client
            .request(&format!(r#"{{"cmd":"load","path":"{path}","name":"u"}}"#))
            .unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));
        let mine = client
            .request(r#"{"cmd":"mine","dataset":"u","min_sup":10}"#)
            .unwrap();
        assert_eq!(mine.get("ok").and_then(Json::as_bool), Some(true));
        let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.join().unwrap(), 0);
        assert!(!sock.exists(), "socket file removed on graceful exit");

        // BufReader in the client may hold the EOF; the stream closing after
        // shutdown is implicit in join() returning.
    }
}
