//! Wire protocol: newline-delimited JSON over a Unix or TCP socket.
//!
//! # Grammar
//!
//! One request per line, one response per line, UTF-8, no framing beyond
//! the newline. Every request is an object with an `"op"` field:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"submit","spec":{...}}          -> {"ok":true,"id":3}
//! {"op":"status","id":3}                -> {"ok":true,"job":{...}}
//! {"op":"wait","id":3,"timeout_ms":N}   -> {"ok":true,"job":{...}}
//! {"op":"fetch","id":3}                 -> {"ok":true,"output":"<xml.."}
//! {"op":"fetch_chunk","id":3,
//!        "offset":0,"len":65536}        -> {"ok":true,"chunk":"..",
//!                                           "offset":0,"total":N,"eof":false}
//! {"op":"cancel","id":3}                -> {"ok":true,"canceled":true}
//! {"op":"list"}                         -> {"ok":true,"jobs":[...]}
//! {"op":"stats"}                        -> {"ok":true,"stats":{...}}
//! {"op":"shutdown"}                     -> {"ok":true}
//! {"op":"shutdown","mode":"drain",
//!        "timeout_ms":N}                -> {"ok":true,"drained":true}
//! ```
//!
//! Failures are `{"ok":false,"error":"..."}`; a full queue (or a draining
//! server) additionally sets `"busy":true` so clients can distinguish
//! backpressure (retry later) from rejection (fix the job).
//!
//! Addresses are `unix:/path/to.sock` or `host:port`.
//!
//! # Hardened edge
//!
//! The daemon side reads through a bounded framer with two deadlines
//! ([`ServeOptions`]): an *idle* timeout between requests and a tighter
//! *request* timeout once a line has started arriving, so a stalled or
//! malicious peer can neither pin a connection thread forever nor OOM the
//! daemon with an unbounded line. The client side gets
//! [`request_with_retry`]: seeded-backoff retries ([`NetRetryPolicy`])
//! that auto-attach an idempotency token to `submit`, so a retry after a
//! dropped ACK adopts the already-journaled job instead of sorting twice.
//!
//! Both sides take an optional [`NetFaultPlan`] that injects disconnects,
//! stalls, torn frames, and byte corruption at chosen exchange indices --
//! the network mirror of `FaultyDevice`, driven by the same seeded
//! determinism, and the substrate of the `net_chaos` sweep.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fault::{NetFaultKind, NetFaultPlan, NetFaultState, NetRetryPolicy};
use nexsort_extmem::recover_poison;

use crate::job::{spec_from_value, spec_to_value};
use crate::json::{b, n, obj, parse, s, Value};
use crate::server::{JobStatus, Server, ServerStats, SubmitError};

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// `unix:/path/to.sock`
    Unix(PathBuf),
    /// `host:port`
    Tcp(String),
}

/// Parse `unix:/path` or `host:port`.
pub fn parse_addr(addr: &str) -> Result<Addr, String> {
    if let Some(path) = addr.strip_prefix("unix:") {
        if path.is_empty() {
            return Err("unix: address needs a socket path".into());
        }
        return Ok(Addr::Unix(PathBuf::from(path)));
    }
    match addr.rsplit_once(':') {
        Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
            Ok(Addr::Tcp(addr.to_string()))
        }
        _ => Err(format!("bad address {addr:?}: expected unix:/path or host:port")),
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(st) => st.read(buf),
            Stream::Tcp(st) => st.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(st) => st.write(buf),
            Stream::Tcp(st) => st.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(st) => st.flush(),
            Stream::Tcp(st) => st.flush(),
        }
    }
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(st) => Stream::Unix(st.try_clone()?),
            Stream::Tcp(st) => Stream::Tcp(st.try_clone()?),
        })
    }

    /// `None` or zero disables the deadline.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        let timeout = timeout.filter(|t| !t.is_zero());
        match self {
            Stream::Unix(st) => st.set_read_timeout(timeout),
            Stream::Tcp(st) => st.set_read_timeout(timeout),
        }
    }

    /// `None` or zero disables the deadline.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        let timeout = timeout.filter(|t| !t.is_zero());
        match self {
            Stream::Unix(st) => st.set_write_timeout(timeout),
            Stream::Tcp(st) => st.set_write_timeout(timeout),
        }
    }
}

/// Knobs of the daemon's socket edge. All timeouts take `0` as "disabled".
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Read/write deadline once an exchange is in progress (a request line
    /// has started arriving, or a response is being written).
    pub request_timeout_ms: u64,
    /// How long a connection may sit idle between requests before the
    /// daemon closes it.
    pub idle_timeout_ms: u64,
    /// Longest accepted request line; longer requests get a structured
    /// `"line too long"` error and the connection closes (the framer
    /// cannot resynchronize past an oversized line).
    pub max_line_bytes: usize,
    /// Default deadline of a `{"op":"shutdown","mode":"drain"}` without an
    /// explicit `timeout_ms`.
    pub drain_timeout_ms: u64,
    /// Inject network faults into responses (chaos testing).
    pub fault_plan: Option<NetFaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            request_timeout_ms: 30_000,
            idle_timeout_ms: 300_000,
            max_line_bytes: 16 << 20,
            drain_timeout_ms: 30_000,
            fault_plan: None,
        }
    }
}

/// Serve `server` on `addr` with default [`ServeOptions`] until a client
/// sends `{"op":"shutdown"}`. Blocks the calling thread; on return the
/// listener is closed, running jobs have finished, and queued jobs are
/// parked in their manifests.
pub fn serve(server: Server, addr: &str) -> Result<(), String> {
    serve_with(server, addr, ServeOptions::default())
}

/// [`serve`] with explicit socket-edge options.
pub fn serve_with(server: Server, addr: &str, opts: ServeOptions) -> Result<(), String> {
    let parsed = parse_addr(addr)?;
    let listener = match &parsed {
        Addr::Unix(path) => {
            // A dead daemon leaves its socket file behind; reclaim it.
            let _ = std::fs::remove_file(path);
            Listener::Unix(UnixListener::bind(path).map_err(|e| format!("bind {path:?}: {e}"))?)
        }
        Addr::Tcp(hostport) => {
            Listener::Tcp(TcpListener::bind(hostport).map_err(|e| format!("bind {hostport}: {e}"))?)
        }
    };
    let stop =
        Arc::new(StopSignal { raised: AtomicBool::new(false), wake: wake_addr(&listener, addr)? });
    let server = Arc::new(server);
    let opts = Arc::new(opts);
    // The injector is shared by every connection thread so exchange indices
    // are global and deterministic in arrival order. It is a leaf lock:
    // taken briefly per response, never while any other lock is held.
    let faults = opts.fault_plan.clone().map(|plan| Arc::new(Mutex::new(NetFaultState::new(plan))));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Blocks until a client connects, or until the stop signal's own
        // wake-up connection arrives.
        let accepted = match &listener {
            Listener::Unix(l) => l.accept().map(|(st, _)| Stream::Unix(st)),
            Listener::Tcp(l) => l.accept().map(|(st, _)| Stream::Tcp(st)),
        };
        if stop.raised.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|h| !h.is_finished());
        match accepted {
            Ok(stream) => {
                let server = server.clone();
                let stop = stop.clone();
                let opts = opts.clone();
                let faults = faults.clone();
                conns.push(std::thread::spawn(move || {
                    handle_conn(&server, &stop, stream, &opts, faults.as_deref());
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
    if let Addr::Unix(path) = &parsed {
        let _ = std::fs::remove_file(path);
    }
    // Last reference: drops the Server, which joins the worker pool.
    drop(server);
    Ok(())
}

/// Stops the accept loop from a connection thread.
struct StopSignal {
    raised: AtomicBool,
    /// The listener's own address, dialed to wake its blocking `accept`.
    wake: String,
}

impl StopSignal {
    fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        // Nobody needs to talk on this connection: the accept loop sees
        // the flag as soon as `accept` returns. If the dial fails, the
        // next real client wakes the loop instead.
        let _ = connect(&self.wake);
    }
}

/// The address that reaches `listener`, bound from `addr`: the socket
/// path itself, or the TCP address the listener actually got (`addr` may
/// name port 0 or a host name).
fn wake_addr(listener: &Listener, addr: &str) -> Result<String, String> {
    match listener {
        Listener::Unix(_) => Ok(addr.to_string()),
        Listener::Tcp(l) => {
            l.local_addr().map(|a| a.to_string()).map_err(|e| format!("local_addr: {e}"))
        }
    }
}

/// One framed request line, or why there isn't one.
enum Frame {
    /// A complete line (without the newline).
    Line(String),
    /// The peer closed the connection (possibly mid-line: a torn frame is
    /// indistinguishable from a close and is dropped the same way).
    Eof,
    /// A read deadline fired (idle between requests, or stalled mid-line).
    TimedOut,
    /// The line exceeded the cap before a newline arrived.
    TooLong,
    /// Transport error.
    Err,
}

/// Read one newline-terminated request with a length cap and two-phase
/// deadline: `idle` while waiting for the first byte of a line, `request`
/// once a line is in progress. Never allocates more than `max` + one
/// buffer's worth of bytes.
fn read_frame(
    reader: &mut BufReader<Stream>,
    max: usize,
    idle: Duration,
    request: Duration,
) -> Frame {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let deadline = if line.is_empty() { idle } else { request };
        if reader.buffer().is_empty() && reader.get_ref().set_read_timeout(Some(deadline)).is_err()
        {
            return Frame::Err;
        }
        let buf = match reader.fill_buf() {
            Ok([]) => return Frame::Eof,
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Frame::TimedOut;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Frame::Err,
        };
        match buf.iter().position(|&c| c == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    return Frame::TooLong;
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                return Frame::Line(String::from_utf8_lossy(&line).into_owned());
            }
            None => {
                if line.len() + buf.len() > max {
                    return Frame::TooLong;
                }
                line.extend_from_slice(buf);
                let taken = buf.len();
                reader.consume(taken);
            }
        }
    }
}

fn handle_conn(
    server: &Server,
    stop: &StopSignal,
    stream: Stream,
    opts: &ServeOptions,
    faults: Option<&Mutex<NetFaultState>>,
) {
    let net = server.net_stats();
    net.conns_accepted.fetch_add(1, Ordering::Relaxed);
    let Ok(writer) = stream.try_clone() else { return };
    let _ = writer.set_write_timeout(Some(Duration::from_millis(opts.request_timeout_ms)));
    let mut writer = std::io::BufWriter::new(writer);
    let mut reader = BufReader::new(stream);
    let idle = Duration::from_millis(opts.idle_timeout_ms);
    let request = Duration::from_millis(opts.request_timeout_ms);
    loop {
        let line = match read_frame(&mut reader, opts.max_line_bytes, idle, request) {
            Frame::Line(line) => line,
            Frame::Eof | Frame::Err => return,
            Frame::TimedOut => {
                net.conns_timed_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Frame::TooLong => {
                net.lines_too_long.fetch_add(1, Ordering::Relaxed);
                let err = err_value(
                    &format!("line too long: request exceeds the {}-byte cap", opts.max_line_bytes),
                    false,
                );
                let mut text = err.to_json();
                text.push('\n');
                let _ = writer.write_all(text.as_bytes()).and_then(|()| writer.flush());
                return; // Cannot resynchronize past an unread oversized line.
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        net.requests.fetch_add(1, Ordering::Relaxed);
        let (resp, shutdown) = match parse(&line) {
            Ok(req) => dispatch(server, &req, opts),
            Err(e) => (err_value(&format!("bad request: {e}"), false), false),
        };
        let mut text = resp.to_json();
        text.push('\n');
        // Chaos hook: the injector decides this exchange's fate. A faulted
        // response never carries the stop flag -- a dropped or corrupted
        // shutdown ACK means the client retries, and the *delivered* ACK
        // stops the daemon, exactly like any other retried request.
        let fault = faults.map(|f| recover_poison(f, f.lock()).next_exchange().1).unwrap_or(None);
        let delivered = match fault {
            None => true,
            Some(kind) => {
                net.conns_faulted.fetch_add(1, Ordering::Relaxed);
                match kind {
                    NetFaultKind::Disconnect => return,
                    NetFaultKind::TornFrame => {
                        let half = text.len() / 2;
                        let _ = writer.write_all(&text.as_bytes()[..half]);
                        let _ = writer.flush();
                        return;
                    }
                    NetFaultKind::Stall => {
                        let ms =
                            faults.map(|f| recover_poison(f, f.lock()).stall_millis()).unwrap_or(0);
                        std::thread::sleep(Duration::from_millis(ms));
                        true
                    }
                    NetFaultKind::Corrupt => {
                        // Responses start with '{'; breaking that byte makes
                        // the corruption always *detectable* by the peer's
                        // JSON parser instead of silently altering a value.
                        let mut bytes = text.into_bytes();
                        bytes[0] ^= 0x04;
                        text = String::from_utf8_lossy(&bytes).into_owned();
                        false
                    }
                }
            }
        };
        if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        if shutdown && delivered {
            stop.raise();
            return;
        }
    }
}

fn err_value(msg: &str, busy: bool) -> Value {
    let mut fields = vec![("ok", b(false)), ("error", s(msg))];
    if busy {
        fields.push(("busy", b(true)));
    }
    obj(fields)
}

fn req_id(req: &Value) -> Result<u64, Value> {
    req.get("id").and_then(Value::as_u64).ok_or_else(|| err_value("missing numeric \"id\"", false))
}

/// Map one request to one response; the bool asks the accept loop to stop.
fn dispatch(server: &Server, req: &Value, opts: &ServeOptions) -> (Value, bool) {
    let op = req.get("op").and_then(Value::as_str).unwrap_or("");
    match op {
        "ping" => (obj(vec![("ok", b(true))]), false),
        "submit" => {
            let spec = match req.get("spec") {
                Some(v) => spec_from_value(v).and_then(|mut spec| {
                    // The input rides next to the spec fields: "xml" carries
                    // the document inline; "input" names a daemon-visible path.
                    if let Some(xml) = v.get("xml").and_then(Value::as_str) {
                        spec.input = crate::job::JobInput::Inline(xml.as_bytes().to_vec());
                        Ok(spec)
                    } else if let Some(path) = v.get("input").and_then(Value::as_str) {
                        spec.input = crate::job::JobInput::Path(PathBuf::from(path));
                        Ok(spec)
                    } else {
                        Err("spec needs \"xml\" (inline document) or \"input\" (path)".into())
                    }
                }),
                None => Err("missing \"spec\"".into()),
            };
            match spec {
                Ok(spec) => match server.submit(spec) {
                    Ok(id) => (obj(vec![("ok", b(true)), ("id", n(id))]), false),
                    Err(SubmitError::Busy(msg)) => (err_value(&msg, true), false),
                    Err(SubmitError::Invalid(msg)) => (err_value(&msg, false), false),
                },
                Err(e) => (err_value(&e, false), false),
            }
        }
        "status" => match req_id(req) {
            Ok(id) => match server.status(id) {
                Some(st) => (obj(vec![("ok", b(true)), ("job", status_value(&st))]), false),
                None => (err_value(&format!("no such job {id}"), false), false),
            },
            Err(resp) => (resp, false),
        },
        "wait" => match req_id(req) {
            Ok(id) => {
                let timeout = req.get("timeout_ms").and_then(Value::as_u64).unwrap_or(60_000);
                match server.wait(id, Duration::from_millis(timeout)) {
                    Some(st) => (obj(vec![("ok", b(true)), ("job", status_value(&st))]), false),
                    None => (err_value(&format!("no such job {id}"), false), false),
                }
            }
            Err(resp) => (resp, false),
        },
        "fetch" => match req_id(req) {
            Ok(id) => match server.fetch_output(id) {
                Ok(bytes) => (
                    obj(vec![
                        ("ok", b(true)),
                        ("output", s(String::from_utf8_lossy(&bytes).into_owned())),
                    ]),
                    false,
                ),
                Err(e) => (err_value(&e, false), false),
            },
            Err(resp) => (resp, false),
        },
        "fetch_chunk" => match req_id(req) {
            Ok(id) => {
                let offset = req.get("offset").and_then(Value::as_u64).unwrap_or(0);
                // Clamp so a chunk always makes progress (at least one full
                // UTF-8 character) and bounds the response line.
                let len =
                    req.get("len").and_then(Value::as_u64).unwrap_or(64 * 1024).clamp(16, 1 << 20);
                match server.fetch_output_chunk(id, offset, len) {
                    Ok((chunk, total, eof)) => (
                        obj(vec![
                            ("ok", b(true)),
                            ("chunk", s(String::from_utf8_lossy(&chunk).into_owned())),
                            ("offset", n(offset)),
                            ("total", n(total)),
                            ("eof", b(eof)),
                        ]),
                        false,
                    ),
                    Err(e) => (err_value(&e, false), false),
                }
            }
            Err(resp) => (resp, false),
        },
        "cancel" => match req_id(req) {
            Ok(id) => (obj(vec![("ok", b(true)), ("canceled", b(server.cancel(id)))]), false),
            Err(resp) => (resp, false),
        },
        "list" => {
            let jobs = server.list().iter().map(status_value).collect();
            (obj(vec![("ok", b(true)), ("jobs", Value::Arr(jobs))]), false)
        }
        "stats" => (obj(vec![("ok", b(true)), ("stats", stats_value(&server.stats()))]), false),
        "shutdown" => match req.get("mode").and_then(Value::as_str).unwrap_or("now") {
            "now" => (obj(vec![("ok", b(true))]), true),
            "drain" => {
                let timeout =
                    req.get("timeout_ms").and_then(Value::as_u64).unwrap_or(opts.drain_timeout_ms);
                // Blocks this connection thread only; other connections
                // keep being served (and see lame-duck busy on submit).
                let drained = server.drain(Duration::from_millis(timeout));
                (obj(vec![("ok", b(true)), ("drained", b(drained))]), true)
            }
            other => (
                err_value(&format!("unknown shutdown mode {other:?} (expected now, drain)"), false),
                false,
            ),
        },
        other => (err_value(&format!("unknown op {other:?}"), false), false),
    }
}

fn status_value(st: &JobStatus) -> Value {
    let mut fields = vec![
        ("id", n(st.id)),
        ("state", s(st.state.name())),
        ("output", s(st.output.display().to_string())),
        ("resumed", b(st.resumed)),
    ];
    if let Some(e) = &st.error {
        fields.push(("error", s(e)));
    }
    if let Some(latency) = st.latency {
        fields.push(("latency_ms", Value::Num(latency.as_secs_f64() * 1000.0)));
    }
    if let Some(report) = &st.report {
        fields.push(("report", report.to_value()));
    }
    obj(fields)
}

fn stats_value(st: &ServerStats) -> Value {
    obj(vec![
        ("workers", n(st.workers as u64)),
        ("queue_depth", n(st.queue_depth as u64)),
        ("queued", n(st.queued as u64)),
        ("running", n(st.running as u64)),
        ("done", n(st.done as u64)),
        ("failed", n(st.failed as u64)),
        ("canceled", n(st.canceled as u64)),
        ("interrupted", n(st.interrupted as u64)),
        ("submitted", n(st.submitted)),
        ("resumed", n(st.resumed)),
        ("budget_total", n(st.budget_total as u64)),
        ("budget_used", n(st.budget_used as u64)),
        ("budget_high_water", n(st.budget_high_water as u64)),
        ("budget_waiters", n(st.budget_waiters as u64)),
        ("lock_recoveries", n(st.lock_recoveries)),
        ("draining", b(st.draining)),
        ("drains", n(st.drains)),
        ("duplicate_submits", n(st.duplicate_submits)),
        ("conns_accepted", n(st.conns_accepted)),
        ("conns_timed_out", n(st.conns_timed_out)),
        ("conns_faulted", n(st.conns_faulted)),
        ("requests", n(st.requests)),
        ("lines_too_long", n(st.lines_too_long)),
        ("client_retries", n(st.client_retries)),
    ])
}

/// Client side: send one request line to `addr`, read one response line.
/// One shot, no deadline, no retry -- the building block [`request_with_retry`]
/// hardens.
pub fn request(addr: &str, req: &Value) -> Result<Value, String> {
    request_once(addr, &req.to_json(), None)
}

/// One request/response exchange. `timeout` bounds the response read (and
/// the request write); `None` blocks indefinitely.
fn request_once(addr: &str, req_json: &str, timeout: Option<Duration>) -> Result<Value, String> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(timeout).map_err(|e| format!("deadline on {addr}: {e}"))?;
    stream.set_write_timeout(timeout).map_err(|e| format!("deadline on {addr}: {e}"))?;
    let mut text = String::with_capacity(req_json.len() + 1);
    text.push_str(req_json);
    text.push('\n');
    stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read from {addr}: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("server at {addr} closed the connection"));
    }
    parse(line.trim())
}

/// Retries performed by this process's [`request_with_retry`] /
/// [`connect_with_retry`] calls, surfaced in [`ServerStats`] so in-process
/// chaos tests can assert the retry path ran.
static CLIENT_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Monotone counter feeding auto-generated idempotency tokens.
static NEXT_IDEM: AtomicU64 = AtomicU64::new(0);

pub(crate) fn client_retries() -> u64 {
    CLIENT_RETRIES.load(Ordering::Relaxed)
}

/// Client-side knobs of [`request_with_retry`].
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    /// Retry schedule; [`NetRetryPolicy::none`] makes the call one-shot.
    pub retry: NetRetryPolicy,
    /// Per-attempt read/write deadline; `None` blocks indefinitely. Keep
    /// it above any server-side `wait` timeout the request carries.
    pub attempt_timeout_ms: Option<u64>,
}

impl ClientOptions {
    /// `n` retries with `base_ms` seeded backoff and no attempt deadline.
    pub fn retries(n: u32, base_ms: u64, seed: u64) -> Self {
        ClientOptions { retry: NetRetryPolicy::retries(n, base_ms, seed), attempt_timeout_ms: None }
    }
}

/// True when a response means "same request may succeed later": transport
/// trouble, a busy (backpressure / draining) server, or a `bad request`
/// reply to a request this client knows it sent well-formed (i.e. the
/// request was corrupted in flight).
fn retryable(resp: &Result<Value, String>) -> bool {
    match resp {
        Err(_) => true,
        Ok(v) => {
            if v.get("ok").and_then(Value::as_bool) == Some(true) {
                return false;
            }
            if v.get("busy").and_then(Value::as_bool) == Some(true) {
                return true;
            }
            v.get("error").and_then(Value::as_str).is_some_and(|e| e.starts_with("bad request"))
        }
    }
}

/// Client side: [`request`] hardened with seeded-backoff retries.
///
/// An attempt is retried on connect/send/read errors, a torn or corrupt
/// response, a busy reply (queue backpressure or a draining server), and a
/// `bad request` reply (the request this client sent was well-formed, so
/// the server must have read a corrupted line). A non-busy rejection is
/// returned immediately -- retrying cannot fix an invalid job.
///
/// A `submit` request going out with retries enabled and no client-chosen
/// token gets an auto-generated idempotency token first, so the attempts
/// are exactly-once end to end: a retry after a dropped ACK adopts the
/// journaled job instead of double-sorting.
pub fn request_with_retry(addr: &str, req: &Value, opts: &ClientOptions) -> Result<Value, String> {
    request_with_retry_injected(addr, req, opts, None)
}

/// [`request_with_retry`] with a client-side fault injector: each attempt
/// consumes one exchange of `faults`, corrupting or cutting the *request*
/// before it reaches the server (the mirror of the server-side response
/// injection). Chaos tests drive both sides from seeded plans.
pub fn request_with_retry_injected(
    addr: &str,
    req: &Value,
    opts: &ClientOptions,
    faults: Option<&Mutex<NetFaultState>>,
) -> Result<Value, String> {
    let req = with_auto_idem(req, opts);
    let req_json = req.to_json();
    let timeout = opts.attempt_timeout_ms.map(Duration::from_millis);
    let mut last: Result<Value, String> = Err("no attempts made".into());
    for attempt in 1..=opts.retry.max_attempts.max(1) {
        if attempt > 1 {
            CLIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(opts.retry.delay_before_ms(attempt - 1)));
        }
        let fault = faults.map(|f| recover_poison(f, f.lock()).next_exchange().1).unwrap_or(None);
        last = match fault {
            None => request_once(addr, &req_json, timeout),
            Some(kind) => request_once_faulty(addr, &req_json, timeout, kind, faults),
        };
        if !retryable(&last) {
            return last;
        }
    }
    last
}

/// Give a retried `submit` an idempotency token if the caller didn't: the
/// token is what turns "at least once" into "exactly once".
fn with_auto_idem(req: &Value, opts: &ClientOptions) -> Value {
    if opts.retry.max_attempts <= 1 || req.get("op").and_then(Value::as_str) != Some("submit") {
        return req.clone();
    }
    let Some(Value::Obj(spec_fields)) = req.get("spec") else { return req.clone() };
    if req.get("spec").and_then(|sp| sp.get("idem")).and_then(Value::as_str).is_some() {
        return req.clone();
    }
    let token =
        format!("auto-{}-{}", std::process::id(), NEXT_IDEM.fetch_add(1, Ordering::Relaxed));
    // The spec may already carry an explicit `"idem": null`; replace it
    // rather than appending a shadowed duplicate key.
    let mut spec_fields = spec_fields.clone();
    match spec_fields.iter_mut().find(|(k, _)| k == "idem") {
        Some((_, v)) => *v = s(token),
        None => spec_fields.push(("idem".into(), s(token))),
    }
    let Value::Obj(fields) = req else { return req.clone() };
    let fields = fields
        .iter()
        .map(|(k, v)| {
            (k.clone(), if k == "spec" { Value::Obj(spec_fields.clone()) } else { v.clone() })
        })
        .collect();
    Value::Obj(fields)
}

/// One exchange with a client-side fault applied to the outgoing request.
fn request_once_faulty(
    addr: &str,
    req_json: &str,
    timeout: Option<Duration>,
    kind: NetFaultKind,
    faults: Option<&Mutex<NetFaultState>>,
) -> Result<Value, String> {
    match kind {
        NetFaultKind::Stall => {
            let ms = faults.map(|f| recover_poison(f, f.lock()).stall_millis()).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms));
            request_once(addr, req_json, timeout)
        }
        NetFaultKind::Corrupt => {
            // Break the leading '{' so the server *detects* the corruption
            // and replies "bad request" instead of acting on a wrong value.
            let mut bytes = req_json.as_bytes().to_vec();
            bytes[0] ^= 0x04;
            request_once(addr, &String::from_utf8_lossy(&bytes), timeout)
        }
        NetFaultKind::Disconnect => {
            let _ = connect(addr)?;
            Err(format!("injected disconnect before sending to {addr}"))
        }
        NetFaultKind::TornFrame => {
            let mut stream = connect(addr)?;
            let mut text = String::with_capacity(req_json.len() + 1);
            text.push_str(req_json);
            text.push('\n');
            let half = text.len() / 2;
            let _ = stream.write_all(&text.as_bytes()[..half]).and_then(|()| stream.flush());
            drop(stream);
            Err(format!("injected torn frame while sending to {addr}"))
        }
    }
}

/// Wait for a daemon to answer at `addr`: one ping round trip per attempt,
/// with the policy's seeded backoff between attempts. Replaces hand-rolled
/// "ping until it answers" startup polling in tests and the CLI.
pub fn connect_with_retry(addr: &str, policy: &NetRetryPolicy) -> Result<(), String> {
    let ping = obj(vec![("op", s("ping"))]).to_json();
    let mut last = String::from("no attempts made");
    for attempt in 1..=policy.max_attempts.max(1) {
        if attempt > 1 {
            CLIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(policy.delay_before_ms(attempt - 1)));
        }
        match request_once(addr, &ping, Some(Duration::from_secs(10))) {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => return Ok(()),
            Ok(v) => last = format!("unexpected ping reply: {}", v.to_json()),
            Err(e) => last = e,
        }
    }
    Err(format!("daemon at {addr} never came up: {last}"))
}

/// Client side: a convenience wrapper building the request from a spec.
/// Inline input is shipped in the request; a path input is sent as a path
/// for the daemon to read (it must be visible to the daemon).
pub fn request_submit(addr: &str, spec: &crate::job::JobSpec) -> Result<Value, String> {
    request(addr, &submit_value(spec))
}

/// Build the `submit` request object for `spec` (shared by the one-shot
/// and retrying clients).
pub fn submit_value(spec: &crate::job::JobSpec) -> Value {
    let mut fields = match spec_to_value(spec) {
        Value::Obj(fields) => fields,
        _ => unreachable!("spec_to_value returns an object"),
    };
    match &spec.input {
        crate::job::JobInput::Inline(bytes) => {
            fields.push(("xml".into(), s(String::from_utf8_lossy(bytes).into_owned())))
        }
        crate::job::JobInput::Path(path) => {
            fields.push(("input".into(), s(path.display().to_string())))
        }
    }
    obj(vec![("op", s("submit")), ("spec", Value::Obj(fields))])
}

/// Client side: stream a done job's output in bounded chunks via
/// `fetch_chunk`, reassembling the full text. Keeps each response line
/// (and the server's per-request buffer) at roughly `chunk_len` bytes no
/// matter how large the output is.
pub fn request_fetch_chunked(addr: &str, id: u64, chunk_len: u64) -> Result<String, String> {
    let mut out = String::new();
    let mut offset = 0u64;
    loop {
        let resp = request(
            addr,
            &obj(vec![
                ("op", s("fetch_chunk")),
                ("id", n(id)),
                ("offset", n(offset)),
                ("len", n(chunk_len)),
            ]),
        )?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            let msg = resp.get("error").and_then(Value::as_str).unwrap_or("fetch_chunk failed");
            return Err(msg.to_string());
        }
        let chunk = resp.get("chunk").and_then(Value::as_str).unwrap_or("");
        let eof = resp.get("eof").and_then(Value::as_bool).unwrap_or(true);
        out.push_str(chunk);
        offset += chunk.len() as u64;
        if eof {
            return Ok(out);
        }
        if chunk.is_empty() {
            return Err(format!("fetch_chunk stalled at offset {offset} without eof"));
        }
    }
}

fn connect(addr: &str) -> Result<Stream, String> {
    match parse_addr(addr)? {
        Addr::Unix(path) => UnixStream::connect(&path)
            .map(Stream::Unix)
            .map_err(|e| format!("connect {path:?}: {e}")),
        Addr::Tcp(hostport) => TcpStream::connect(&hostport)
            .map(Stream::Tcp)
            .map_err(|e| format!("connect {hostport}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse() {
        assert_eq!(parse_addr("unix:/tmp/x.sock"), Ok(Addr::Unix(PathBuf::from("/tmp/x.sock"))));
        assert_eq!(parse_addr("127.0.0.1:7070"), Ok(Addr::Tcp("127.0.0.1:7070".into())));
        assert!(parse_addr("unix:").is_err());
        assert!(parse_addr("nonsense").is_err());
        assert!(parse_addr("host:notaport").is_err());
        // Rejection messages say what shape was expected.
        let err = parse_addr("nonsense").unwrap_err();
        assert!(err.contains("expected unix:/path or host:port"), "{err}");
        assert!(err.contains("nonsense"), "message names the bad input: {err}");
        let err = parse_addr("unix:").unwrap_err();
        assert!(err.contains("socket path"), "{err}");
        let err = parse_addr(":9999").unwrap_err();
        assert!(err.contains("expected unix:"), "empty host rejected: {err}");
    }

    fn start_daemon(
        tag: &str,
        opts: ServeOptions,
    ) -> (String, std::path::PathBuf, std::thread::JoinHandle<Result<(), String>>) {
        use crate::server::{Server, ServerConfig};
        let dir = std::env::temp_dir().join(format!("nxsrv-net-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = format!("unix:{}", dir.join("srv.sock").display());
        let server = Server::start(ServerConfig::new(2, dir.join("jobs"))).unwrap();
        let addr = sock.clone();
        let daemon = std::thread::spawn(move || serve_with(server, &addr, opts));
        connect_with_retry(&sock, &NetRetryPolicy::retries(300, 10, 7)).unwrap();
        (sock, dir, daemon)
    }

    #[test]
    fn protocol_round_trips_over_a_unix_socket() {
        use crate::job::{JobInput, JobSpec};

        let (sock, dir, daemon) = start_daemon("rt", ServeOptions::default());

        let spec = JobSpec {
            input: JobInput::Inline(b"<r><x k=\"2\"/><x k=\"1\"/></r>".to_vec()),
            default_rule: Some("@k".into()),
            ..JobSpec::default()
        };
        let resp = request_submit(&sock, &spec).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        let id = resp.get("id").and_then(Value::as_u64).unwrap();

        let resp =
            request(&sock, &obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(30_000))]))
                .unwrap();
        let job = resp.get("job").expect("wait returns the job");
        assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{}", resp.to_json());

        let resp = request(&sock, &obj(vec![("op", s("fetch")), ("id", n(id))])).unwrap();
        let xml = resp.get("output").and_then(Value::as_str).unwrap();
        assert!(xml.contains("<x k=\"1\"></x><x k=\"2\"></x>"), "sorted by @k: {xml}");

        // Chunked fetch with a tiny chunk reassembles the same bytes.
        let chunked = request_fetch_chunked(&sock, id, 16).unwrap();
        assert_eq!(chunked, xml, "chunked fetch must equal one-shot fetch");
        let resp = request(
            &sock,
            &obj(vec![("op", s("fetch_chunk")), ("id", n(id)), ("offset", n(4)), ("len", n(16))]),
        )
        .unwrap();
        assert_eq!(resp.get("eof").and_then(Value::as_bool), Some(false));
        assert_eq!(resp.get("chunk").and_then(Value::as_str).map(str::len), Some(16));

        let resp = request(&sock, &obj(vec![("op", s("stats"))])).unwrap();
        let stats = resp.get("stats").unwrap();
        assert_eq!(stats.get("done").and_then(Value::as_u64), Some(1));
        assert!(stats.get("conns_accepted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(stats.get("draining").and_then(Value::as_bool), Some(false));

        // Unknown ops and malformed lines error without killing the server.
        let resp = request(&sock, &obj(vec![("op", s("frobnicate"))])).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));

        let resp = request(&sock, &obj(vec![("op", s("shutdown"))])).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protocol_edges_error_without_closing_the_connection() {
        use crate::job::{JobInput, JobSpec};

        let (sock, dir, daemon) = start_daemon("edge", ServeOptions::default());

        // One connection, several exchanges: a malformed line gets a
        // structured error and the *same* connection keeps working.
        let mut stream = connect(&sock).unwrap();
        let mut send = |line: &str| -> Value {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            parse(resp.trim()).unwrap()
        };
        let resp = send("{not json");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        assert!(resp.get("error").and_then(Value::as_str).unwrap().contains("bad request"));
        let resp = send("{\"op\":\"ping\"}");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "conn survived");
        drop(stream);

        // wait with timeout_ms:0 returns the current state immediately.
        let spec = JobSpec {
            input: JobInput::Inline(b"<r><x k=\"1\"/></r>".to_vec()),
            default_rule: Some("@k".into()),
            ..JobSpec::default()
        };
        let id = request_submit(&sock, &spec).unwrap().get("id").and_then(Value::as_u64).unwrap();
        let resp =
            request(&sock, &obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(0))]))
                .unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        assert!(resp.get("job").is_some(), "timeout 0 still reports the job");

        // Let it finish, then fetch_chunk past EOF: empty chunk, eof true.
        request(&sock, &obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(30_000))]))
            .unwrap();
        let total = request(
            &sock,
            &obj(vec![("op", s("fetch_chunk")), ("id", n(id)), ("offset", n(0)), ("len", n(64))]),
        )
        .unwrap()
        .get("total")
        .and_then(Value::as_u64)
        .unwrap();
        let resp = request(
            &sock,
            &obj(vec![
                ("op", s("fetch_chunk")),
                ("id", n(id)),
                ("offset", n(total + 1000)),
                ("len", n(64)),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        assert_eq!(resp.get("chunk").and_then(Value::as_str), Some(""));
        assert_eq!(resp.get("eof").and_then(Value::as_bool), Some(true));

        // An oversized request line is rejected with a structured error.
        let (tiny_sock, tiny_dir, tiny_daemon) =
            start_daemon("tiny", ServeOptions { max_line_bytes: 128, ..ServeOptions::default() });
        let mut stream = connect(&tiny_sock).unwrap();
        let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(4096));
        stream.write_all(huge.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let resp = parse(resp.trim()).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        assert!(
            resp.get("error").and_then(Value::as_str).unwrap().contains("line too long"),
            "{}",
            resp.to_json()
        );
        let resp = request(&tiny_sock, &obj(vec![("op", s("stats"))])).unwrap();
        assert_eq!(
            resp.get("stats").and_then(|st| st.get("lines_too_long")).and_then(Value::as_u64),
            Some(1)
        );
        request(&tiny_sock, &obj(vec![("op", s("shutdown"))])).unwrap();
        tiny_daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&tiny_dir);

        // Unknown shutdown modes are rejected; the daemon stays up.
        let resp = request(&sock, &obj(vec![("op", s("shutdown")), ("mode", s("later"))])).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        request(&sock, &obj(vec![("op", s("shutdown"))])).unwrap();
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrunnable_submits_are_refused_and_the_daemon_keeps_serving() {
        let (sock, dir, daemon) = start_daemon("bounds", ServeOptions::default());
        let submit = |spec: Vec<(&str, Value)>| {
            request(&sock, &obj(vec![("op", s("submit")), ("spec", obj(spec))])).unwrap()
        };
        // A 1 TiB block would abort the daemon on its first allocation.
        let resp = submit(vec![("xml", s("<r/>")), ("block", n(1 << 40))]);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.to_json());
        let err = resp.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("maximum"), "{err}");
        let resp = request(&sock, &obj(vec![("op", s("ping"))])).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        // A wrong-typed field is named, not dropped.
        let resp = submit(vec![("xml", s("<r/>")), ("default", n(7))]);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.to_json());
        assert!(resp.get("error").and_then(Value::as_str).unwrap().contains("\"default\""));
        let resp = request(&sock, &obj(vec![("op", s("stats"))])).unwrap();
        assert_eq!(
            resp.get("stats").and_then(|st| st.get("submitted")).and_then(Value::as_u64),
            Some(0)
        );
        request(&sock, &obj(vec![("op", s("shutdown"))])).unwrap();
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_returns_promptly_from_a_blocking_accept() {
        use crate::server::{Server, ServerConfig};
        use std::sync::mpsc;

        let dir = std::env::temp_dir().join(format!("nxsrv-net-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, mode) in ["now", "drain"].into_iter().enumerate() {
            // An ephemeral port, released for the daemon to bind.
            let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
            let unix = format!("unix:{}", dir.join(format!("stop-{i}.sock")).display());
            for addr in [unix, format!("127.0.0.1:{port}")] {
                let server =
                    Server::start(ServerConfig::new(1, dir.join(format!("jobs-{i}")))).unwrap();
                let (tx, rx) = mpsc::channel();
                let daemon = {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let _ = tx.send(serve_with(server, &addr, ServeOptions::default()));
                    })
                };
                connect_with_retry(&addr, &NetRetryPolicy::retries(300, 10, 7)).unwrap();
                let req = obj(vec![("op", s("shutdown")), ("mode", s(mode))]);
                let resp = request(&addr, &req).unwrap();
                assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{addr} {mode}");
                // A missed wake-up leaves the daemon parked in accept: the
                // timeout turns that into a failure instead of a hang.
                match rx.recv_timeout(Duration::from_secs(2)) {
                    Ok(result) => result.unwrap(),
                    Err(_) => panic!("serve_with on {addr} ignored a delivered {mode} shutdown"),
                }
                daemon.join().unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_deadline_reaps_silent_connections() {
        let opts =
            ServeOptions { idle_timeout_ms: 60, request_timeout_ms: 60, ..ServeOptions::default() };
        let (sock, dir, daemon) = start_daemon("idle", opts);
        // Open a connection and send nothing: the daemon must reap it.
        let stream = connect(&sock).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = request(&sock, &obj(vec![("op", s("stats"))])).unwrap();
            let timed_out = stats
                .get("stats")
                .and_then(|st| st.get("conns_timed_out"))
                .and_then(Value::as_u64)
                .unwrap();
            if timed_out >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
        request(&sock, &obj(vec![("op", s("shutdown"))])).unwrap();
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retrying_client_survives_scripted_response_faults() {
        use crate::job::{JobInput, JobSpec};

        // Every fault kind takes a turn corrupting a response; the
        // retrying client must converge on exactly one job.
        let plan = NetFaultPlan::new(5)
            .at_exchange(0, NetFaultKind::Disconnect)
            .at_exchange(1, NetFaultKind::Corrupt)
            .at_exchange(2, NetFaultKind::TornFrame)
            .stall_ms(5);
        let opts = ServeOptions { fault_plan: Some(plan), ..ServeOptions::default() };
        let (sock, dir, daemon) = start_daemon("flt", opts);

        let spec = JobSpec {
            input: JobInput::Inline(b"<r><x k=\"2\"/><x k=\"1\"/></r>".to_vec()),
            default_rule: Some("@k".into()),
            ..JobSpec::default()
        };
        let copts = ClientOptions::retries(8, 5, 11);
        // The startup ping already burned some exchanges; submit twice with
        // the same explicit token to prove dedup across faulted ACKs.
        let mut req = submit_value(&JobSpec { idem: Some("edge-test".into()), ..spec });
        let first = request_with_retry(&sock, &req, &copts).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true), "{}", first.to_json());
        let id = first.get("id").and_then(Value::as_u64).unwrap();
        let again = request_with_retry(&sock, &req, &copts).unwrap();
        assert_eq!(again.get("id").and_then(Value::as_u64), Some(id), "token adopts same job");

        let resp = request_with_retry(
            &sock,
            &obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(30_000))]),
            &copts,
        )
        .unwrap();
        assert_eq!(
            resp.get("job").and_then(|j| j.get("state")).and_then(Value::as_str),
            Some("done"),
            "{}",
            resp.to_json()
        );

        let stats = request_with_retry(&sock, &obj(vec![("op", s("stats"))]), &copts).unwrap();
        let stats = stats.get("stats").unwrap();
        assert!(stats.get("conns_faulted").and_then(Value::as_u64).unwrap() >= 3);
        assert!(stats.get("duplicate_submits").and_then(Value::as_u64).unwrap() >= 1);
        assert!(stats.get("client_retries").and_then(Value::as_u64).unwrap() >= 1);

        // Auto-idempotency: with retries on and no token, the client adds
        // one, so even an unscripted resubmit of the same *object* stays
        // a distinct job from a fresh submit of the same spec.
        req = submit_value(&JobSpec {
            input: JobInput::Inline(b"<r><y k=\"1\"/></r>".to_vec()),
            default_rule: Some("@k".into()),
            ..JobSpec::default()
        });
        let sent = with_auto_idem(&req, &copts);
        assert!(
            sent.get("spec").and_then(|sp| sp.get("idem")).and_then(Value::as_str).is_some(),
            "retrying submit gains a token: {}",
            sent.to_json()
        );

        let resp = request_with_retry(&sock, &obj(vec![("op", s("shutdown"))]), &copts).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_shutdown_parks_queued_jobs_and_reports() {
        use crate::job::{JobInput, JobSpec};
        use crate::server::{Server, ServerConfig};

        let (sock, dir, daemon) = start_daemon("drain", ServeOptions::default());
        let spec = JobSpec {
            input: JobInput::Inline(b"<r><x k=\"2\"/><x k=\"1\"/></r>".to_vec()),
            default_rule: Some("@k".into()),
            ..JobSpec::default()
        };
        let id = request_submit(&sock, &spec).unwrap().get("id").and_then(Value::as_u64).unwrap();
        request(&sock, &obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(30_000))]))
            .unwrap();

        let resp = request(
            &sock,
            &obj(vec![("op", s("shutdown")), ("mode", s("drain")), ("timeout_ms", n(10_000))]),
        )
        .unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        assert_eq!(resp.get("drained").and_then(Value::as_bool), Some(true));
        daemon.join().unwrap().unwrap();

        // The drained directory reopens with the finished job intact.
        let server = Server::open(ServerConfig::new(1, dir.join("jobs"))).unwrap();
        let st = server.status(id).expect("drained job survived the restart");
        assert_eq!(st.state, crate::job::JobState::Done);
        assert_eq!(server.stats().drains, 0, "a fresh open starts undrained");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
