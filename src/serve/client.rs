//! The `adcomp put` client: adaptive-compressed upload with bounded
//! retry, exponential backoff, and resume from the server's last
//! CRC-verified byte.
//!
//! The loop is deliberately dumb on purpose: connect, ask, stream, and on
//! *any* transport damage throw the socket away and start over. The
//! server's `start_offset` (its verified-prefix length) is the only
//! resume state; the client holds none, so a retry after a mid-stream
//! reset, a stall, or a corrupted frame always continues from a clean
//! prefix. Combined with the server's fail-fast reader this makes a
//! completed transfer byte-identical to the input by construction — the
//! property the socket soak asserts over hundreds of hostile runs.
//!
//! A connection carries many requests. After a GET reply or a PUT's
//! successful `done`, [`put`] and [`get`] keep the socket in a small
//! process-wide pool and send their next request to the same address on
//! it instead of connecting again. What the client reads back goes
//! through a small buffered reader, so an accept or `done` frame costs one
//! `read`, and a GET's body and trailer arrive in one `read_exact`.

use super::proto::{
    read_done, read_get_payload, read_response, write_request, RejectReason, Request, Response,
};
use super::server::HANDLER_LINGER;
use adcomp_codecs::crc32::crc32;
use adcomp_codecs::LevelSet;
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_core::stream::AdaptiveWriter;
use adcomp_core::{Backoff, WallClock};
use adcomp_metrics::registry::{self, CounterKind};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Capacity of the reader the client parses control frames through: room
/// for the longest one (a 17-byte receipt) and little else, so an accept
/// or `done` frame costs one `read` instead of one per field, while a GET
/// body that follows still lands in the caller's buffer directly.
const CONTROL_BUF: usize = 64;

fn control_reader<R: Read>(r: R) -> BufReader<R> {
    BufReader::with_capacity(CONTROL_BUF, r)
}

/// Most idle sockets the pool holds, over all addresses; the oldest goes
/// first. A client talks to one daemon or a few, and a daemon restarted on
/// a new port leaves a dead entry behind.
const POOL_MAX: usize = 16;
/// A pooled socket idle this long is closed, not reused: half the
/// server's linger, so a request sent on it arrives well before the
/// server gives up waiting and closes its end.
const POOL_IDLE: Duration = Duration::from_millis(HANDLER_LINGER.as_millis() as u64 / 2);

/// Idle kept-alive sockets with the daemon each leads to and when it was
/// last used, oldest first; at most one per address.
static POOL: Mutex<Vec<(SocketAddr, TcpStream, Instant)>> = Mutex::new(Vec::new());

/// Every entry leaves the pool whole, so a panic elsewhere while it was
/// locked leaves nothing half-updated.
fn pool() -> std::sync::MutexGuard<'static, Vec<(SocketAddr, TcpStream, Instant)>> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Closes every idle pooled socket (the net soak calls this before it
/// counts file descriptors).
pub(crate) fn close_idle() {
    pool().clear();
}

/// One connection to a daemon: the socket behind the reader that replies
/// are parsed through. Requests and PUT frames are written on the socket
/// itself (`&TcpStream` is `Write`).
struct Conn(BufReader<TcpStream>);

impl Conn {
    /// Sends `req` to `addr` and waits for the first byte of the reply.
    /// Reuses the pooled socket to `addr` when there is one; if that
    /// socket fails before any reply byte, the server closed it while it
    /// was idle, and the request goes once more on a fresh connection.
    fn send(addr: SocketAddr, req: &Request, io_timeout: Duration) -> io::Result<Conn> {
        let pooled = {
            let mut idle = pool();
            let at = idle.iter().position(|(a, ..)| *a == addr);
            at.map(|at| idle.remove(at))
        };
        if let Some((_, sock, since)) = pooled {
            if since.elapsed() < POOL_IDLE {
                if let Ok(conn) = Conn::send_on(sock, req, io_timeout) {
                    return Ok(conn);
                }
            }
        }
        let sock = TcpStream::connect_timeout(&addr, io_timeout)?;
        let _ = sock.set_nodelay(true);
        Conn::send_on(sock, req, io_timeout)
    }

    fn send_on(sock: TcpStream, req: &Request, io_timeout: Duration) -> io::Result<Conn> {
        sock.set_read_timeout(Some(io_timeout))?;
        sock.set_write_timeout(Some(io_timeout))?;
        write_request(&mut &sock, req)?;
        let mut conn = Conn(control_reader(sock));
        if conn.0.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ));
        }
        Ok(conn)
    }

    /// Returns the socket to the pool once its reply has been read to the
    /// last byte, so the next request to `addr` can go on it. It replaces
    /// an older idle socket to the same address; sockets too old to reuse
    /// are closed on the way.
    fn release(self, addr: SocketAddr) {
        if !self.0.buffer().is_empty() {
            return;
        }
        let mut idle = pool();
        idle.retain(|(a, _, since)| *a != addr && since.elapsed() < POOL_IDLE);
        if idle.len() >= POOL_MAX {
            idle.remove(0);
        }
        idle.push((addr, self.0.into_inner(), Instant::now()));
    }
}

/// Knobs for one [`put`] call.
#[derive(Clone)]
pub struct PutOptions {
    pub tenant: String,
    pub transfer_id: u64,
    /// Retry schedule; [`Backoff::client_default`] unless overridden.
    pub backoff: Backoff,
    /// Socket read/write deadline per operation.
    pub io_timeout: Duration,
    /// Codec block length.
    pub block_len: usize,
    /// Adaptation epoch length, seconds.
    pub epoch_secs: f64,
    /// Pipeline compression workers (1 = serial).
    pub workers: usize,
    /// Fixed level instead of the adaptive rate-based model.
    pub level: Option<usize>,
    /// Per-block content-aware codec selection (portfolio mode).
    pub portfolio: bool,
}

impl Default for PutOptions {
    fn default() -> Self {
        PutOptions {
            tenant: "default".to_string(),
            transfer_id: 1,
            backoff: Backoff::client_default(),
            io_timeout: Duration::from_secs(5),
            block_len: 128 * 1024,
            epoch_secs: 2.0,
            workers: 1,
            level: None,
            portfolio: false,
        }
    }
}

/// What one successful [`put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReport {
    /// Connection attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether any attempt resumed from a non-zero offset.
    pub resumed: bool,
    /// Application bytes streamed across all attempts (resume makes this
    /// less than `attempts * len` on a hostile wire).
    pub bytes_sent: u64,
    /// The server's CRC of the verified transfer (matches the local CRC).
    pub crc: u32,
}

/// Uploads `payload` to an `adcomp serve` daemon, retrying with
/// exponential backoff and resuming from the server's verified prefix
/// until the server acknowledges a complete, CRC-matching transfer or the
/// retry budget is exhausted.
pub fn put(addr: SocketAddr, payload: &[u8], opts: &PutOptions) -> io::Result<PutReport> {
    let local_crc = crc32(payload);
    let mut attempts = 0u32;
    let mut resumed = false;
    let mut bytes_sent = 0u64;
    let mut last_err: io::Error;
    loop {
        attempts += 1;
        match attempt(addr, payload, opts, &mut resumed, &mut bytes_sent) {
            Ok(done) => {
                if done.crc != local_crc || done.verified != payload.len() as u64 {
                    // Should be impossible: every server-side byte was
                    // CRC-verified per frame. Treat as a hard failure.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "server receipt mismatch: verified {} crc {:#x}, local {} crc {:#x}",
                            done.verified,
                            done.crc,
                            payload.len(),
                            local_crc
                        ),
                    ));
                }
                return Ok(PutReport { attempts, resumed, bytes_sent, crc: done.crc });
            }
            Err(AttemptError::Fatal(e)) => return Err(e),
            Err(AttemptError::Transient(e)) => last_err = e,
        }
        // The schedule numbers retries from zero: attempt 1 failing means
        // retry #0 is next.
        if !opts.backoff.allows(attempts - 1) {
            return Err(io::Error::new(
                last_err.kind(),
                format!("retries exhausted after {attempts} attempts: {last_err}"),
            ));
        }
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::ClientRetries, 1);
        }
        std::thread::sleep(Duration::from_secs_f64(opts.backoff.delay_secs(attempts - 1)));
    }
}

enum AttemptError {
    /// Retry after backoff (transport damage, retryable reject).
    Transient(io::Error),
    /// Give up now (unservable request, receipt mismatch).
    Fatal(io::Error),
}

fn attempt(
    addr: SocketAddr,
    payload: &[u8],
    opts: &PutOptions,
    resumed: &mut bool,
    bytes_sent: &mut u64,
) -> Result<super::proto::Done, AttemptError> {
    let transient = AttemptError::Transient;
    let req = Request::Put {
        tenant: opts.tenant.clone(),
        transfer_id: opts.transfer_id,
        total_len: payload.len() as u64,
    };
    let mut conn = Conn::send(addr, &req, opts.io_timeout).map_err(transient)?;
    // `level_cap` is reserved: the daemon always sends `NO_LEVEL_CAP`.
    let start = match read_response(&mut conn.0).map_err(transient)? {
        Response::Accept { start_offset, .. } => start_offset,
        Response::Reject { reason } => {
            let e = io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server rejected put: {}", reason.as_str()),
            );
            return Err(if reason.is_retryable() && reason != RejectReason::Draining {
                AttemptError::Transient(e)
            } else {
                // Draining is retryable against a *different* server; for a
                // single-address client it means "stop submitting".
                AttemptError::Fatal(e)
            });
        }
    };
    if start > payload.len() as u64 {
        return Err(AttemptError::Fatal(io::Error::new(
            io::ErrorKind::InvalidData,
            "server claims more verified bytes than the payload holds",
        )));
    }
    if start > 0 {
        *resumed = true;
    }

    // Stream payload[start..] through an adaptive writer over the socket.
    let levels = LevelSet::paper_default();
    let model: Box<dyn DecisionModel> = match opts.level {
        Some(level) => Box::new(StaticModel::new(level.min(levels.len() - 1), levels.len())),
        None => Box::new(RateBasedModel::paper_default()),
    };
    let mut writer = AdaptiveWriter::with_params(
        conn.0.get_ref(),
        levels,
        model,
        opts.block_len,
        opts.epoch_secs,
        Box::new(WallClock::new()),
    );
    writer.set_pipeline_workers(opts.workers);
    if opts.portfolio {
        writer.set_portfolio(true);
    }
    let rest = &payload[start as usize..];
    let mut sent_this_attempt = 0u64;
    for chunk in rest.chunks(opts.block_len.max(1)) {
        writer.write_all(chunk).map_err(|e| {
            *bytes_sent += sent_this_attempt;
            AttemptError::Transient(e)
        })?;
        sent_this_attempt += chunk.len() as u64;
    }
    writer.finish().map_err(|e| {
        *bytes_sent += sent_this_attempt;
        AttemptError::Transient(e)
    })?;
    *bytes_sent += sent_this_attempt;
    // No half-close: the server ends the stream at the declared length,
    // and the receipt comes back on the same socket.
    let done = read_done(&mut conn.0).map_err(transient)?;
    if !done.ok {
        // Incomplete (e.g. the wire ate the tail after the last verified
        // frame), and the server has ended the connection: reconnect and
        // resume.
        return Err(AttemptError::Transient(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("server verified only {} bytes", done.verified),
        )));
    }
    conn.release(addr);
    Ok(done)
}

/// Fetches `[offset, offset + len)` of a completed transfer's
/// application bytes from an `adcomp serve` daemon. The returned slice is
/// clamped to the transfer end (so it can be shorter than `len`, empty
/// when `offset` is at or past the end) and CRC-verified end to end.
pub fn get(
    addr: SocketAddr,
    tenant: &str,
    transfer_id: u64,
    offset: u64,
    len: u64,
    io_timeout: Duration,
) -> io::Result<Vec<u8>> {
    let req = Request::Get { tenant: tenant.to_string(), transfer_id, offset, len };
    let mut conn = Conn::send(addr, &req, io_timeout)?;
    let body = read_get_reply(&mut conn.0, len)?;
    conn.release(addr);
    Ok(body)
}

/// Reads a GET reply off the control reader `r`: the verdict, then body
/// and trailer in one `read_exact`. `len` is what was asked for; a server
/// announcing more is refused before anything is allocated.
fn read_get_reply<R: Read>(r: &mut BufReader<R>, len: u64) -> io::Result<Vec<u8>> {
    match read_response(r)? {
        Response::Accept { start_offset: n, .. } => {
            if n > len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "server announced more bytes than requested",
                ));
            }
            read_get_payload(r, n)
        }
        Response::Reject { reason } => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("get rejected: {}", reason.as_str()),
        )),
    }
}

/// Asks a daemon to drain gracefully. Returns the number of transfers
/// that were still in flight when the drain began.
pub fn drain(addr: SocketAddr, io_timeout: Duration) -> io::Result<u64> {
    let sock = TcpStream::connect_timeout(&addr, io_timeout)?;
    sock.set_read_timeout(Some(io_timeout))?;
    sock.set_write_timeout(Some(io_timeout))?;
    write_request(&mut &sock, &Request::Drain)?;
    match read_response(&mut control_reader(&sock))? {
        Response::Accept { start_offset, .. } => Ok(start_offset),
        Response::Reject { reason } => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("drain rejected: {}", reason.as_str()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::super::proto::{write_done, write_get_payload, write_response, Done, NO_LEVEL_CAP};
    use super::super::testio::Counting;
    use super::*;

    #[test]
    fn control_frames_cost_the_client_one_read_each() {
        // A PUT's accept frame and, later on the same socket, its receipt.
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Accept { start_offset: 7, level_cap: 2 }).unwrap();
        let mut r = control_reader(Counting::new(&wire[..]));
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response::Accept { start_offset: 7, level_cap: 2 }
        );
        assert_eq!(r.get_ref().calls, 1, "accept frame read");

        let done = Done { ok: true, verified: 7, crc: 0xABCD };
        let mut wire = Vec::new();
        write_done(&mut wire, &done).unwrap();
        let mut r = control_reader(Counting::new(&wire[..]));
        assert_eq!(read_done(&mut r).unwrap(), done);
        assert_eq!(r.get_ref().calls, 1, "done frame read");
    }

    /// A GET reply as the server sends it: accept frame, body, trailer.
    fn get_reply(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let accept = Response::Accept { start_offset: body.len() as u64, level_cap: NO_LEVEL_CAP };
        write_response(&mut wire, &accept).unwrap();
        write_get_payload(&mut wire, body).unwrap();
        wire
    }

    #[test]
    fn get_reply_is_read_in_a_verdict_read_plus_one_body_read() {
        let body: Vec<u8> = (0..64 * 1024).map(|i| (i * 31) as u8).collect();
        let wire = get_reply(&body);
        let mut r = control_reader(Counting::new(&wire[..]));
        assert_eq!(read_get_reply(&mut r, body.len() as u64).unwrap(), body);
        // One read fills the control buffer (verdict + the body's first
        // bytes); the rest of body + trailer lands in the caller's buffer
        // with one more.
        assert_eq!(r.get_ref().calls, 2);
        // A reply that fits the control buffer is a single read.
        let wire = get_reply(b"abc");
        let mut r = control_reader(Counting::new(&wire[..]));
        assert_eq!(read_get_reply(&mut r, 3).unwrap(), b"abc");
        assert_eq!(r.get_ref().calls, 1);
        // The reply was read to its last byte: the socket can be reused.
        assert!(r.buffer().is_empty());
        // A server announcing more than was asked for is refused.
        assert!(read_get_reply(&mut control_reader(&wire[..]), 2).is_err());
    }
}
