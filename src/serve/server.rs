//! The `adcomp serve` daemon: a TCP server with one handler thread per
//! connection — the accept loop spawns it, it serves the connection's
//! requests and exits when the connection ends, and every accepted stream
//! is decoded through its own [`AdaptiveReader`] — with robustness as the
//! design center.
//!
//! A connection carries a sequence of requests, which is what keeps the
//! thread spawn off all but the first of them. After a GET reply or a
//! PUT's successful `DONE` the handler waits a short linger for the first
//! byte of the next request on the same socket; silence, EOF or a reset
//! before that byte is a clean close. A refusal, a drain, an incomplete
//! PUT or any error ends the connection. A PUT ends at its declared
//! length, not at EOF, so whatever follows its last frame is the next
//! request. A burst of connections gets a handler each, so nobody queues
//! behind a slow `put`.
//! Control frames cross the socket in one syscall each way: a request is
//! two exact-length reads, and a ranged GET reply is one vectored write of
//! accept frame, body and trailer, straight from the wire and the decoded
//! blocks. A whole-object GET writes one piece per block it decodes.
//!
//! The overload model, end to end:
//!
//! * **Admission control** — a global stream budget and a per-tenant
//!   quota, checked before any payload byte is read; refusals are typed
//!   [`RejectReason`] frames, not silent drops, so clients can tell
//!   "back off" from "give up".
//! * **Load shedding** — when the handler population itself is flooded
//!   (accepted-but-unadmitted connections), the accept loop drops new
//!   sockets outright rather than spawning unbounded threads.
//! * **Deadlines** — every socket read/write carries `io_timeout` (which
//!   doubles as the idle timeout inside a request: a silent client trips
//!   it; between requests the linger is the wait instead), and each
//!   stream has an overall wall budget, `MAX_STREAM_SECS`, against
//!   slow-drip senders.
//! * **Graceful drain** — a drain request stops admissions (new PUTs get
//!   [`RejectReason::Draining`]) while in-flight streams run to
//!   completion; nothing accepted is ever truncated by shutdown.
//! * **Resume** — the server persists the CRC-verified prefix of every
//!   transfer keyed `(tenant, transfer_id)`; a reconnecting client is
//!   told where to continue, which is what makes completed transfers
//!   byte-identical by construction even on a hostile wire.

use super::cache::{BlockCache, CacheStats, Lookup};
use super::proto::{
    read_request, write_done, write_response, Done, GetReply, RejectReason, Request, Response,
    NO_LEVEL_CAP,
};
use adcomp_codecs::crc32::Hasher;
use adcomp_codecs::frame::{decode_block_within, DEFAULT_MAX_FRAME, HEADER_LEN};
use adcomp_codecs::seek::{IndexEntry, StreamIndex};
use adcomp_codecs::{CodecId, DecodeScratch};
use adcomp_core::stream::AdaptiveReader;
use adcomp_core::{SharedThrottle, ThrottledReader};
use adcomp_metrics::registry::{
    self, CounterKind, GaugeKind, LabelFamily, MetricsRegistry, SpanKind,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a kept-alive connection waits for its next request before its
/// handler closes it and exits. Long enough that back-to-back requests pay
/// neither a connect nor a thread spawn, short enough that a burst's
/// handlers (and the allocator arenas behind them) are gone soon after it.
pub(crate) const HANDLER_LINGER: Duration = Duration::from_millis(500);

/// Largest accepted transfer, application bytes; a PUT declaring more is
/// refused with [`RejectReason::TooLarge`] before any payload byte is read.
pub(crate) const MAX_TRANSFER_BYTES: u64 = 1 << 30;

/// Overall wall budget per stream: the slow-drip guard.
const MAX_STREAM_SECS: Duration = Duration::from_secs(600);

/// Tuning for one daemon instance.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Global cap on concurrently admitted streams.
    pub max_streams: usize,
    /// Per-tenant cap on concurrently admitted streams.
    pub per_tenant_streams: usize,
    /// Per-read/write socket deadline; also the idle timeout inside a
    /// request.
    pub io_timeout: Duration,
    /// Per-tenant ingest bandwidth cap, bytes/s (`None` = uncapped).
    pub tenant_rate_bps: Option<f64>,
    /// Byte budget for the hot-object block cache serving ranged GETs
    /// (0 disables caching; GETs then decode every covering block).
    pub cache_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_streams: 64,
            per_tenant_streams: 8,
            io_timeout: Duration::from_secs(5),
            tenant_rate_bps: None,
            cache_bytes: 64 << 20,
        }
    }
}

/// Server-local robustness counters (mirrored into the global metrics
/// registry when one is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub accepted: u64,
    pub completed: u64,
    pub resumed: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub aborts: u64,
    pub drained_transfers: u64,
    /// Sockets the accept loop took, each with a handler thread of its own.
    /// Far below the request count when a client keeps its connection
    /// alive.
    pub connections: u64,
}

/// A daemon event: one [`ServeStats`] field, which [`Shared::count`]
/// bumps together with the event's registry family.
#[derive(Clone, Copy)]
enum Event {
    Accepted,
    Completed,
    Resumed,
    /// Counted per reason in the registry, by [`Shared::shed`].
    Shed,
    Timeout,
    /// A PUT stream ended by damage, a protocol error, a failed accept
    /// write or a stopping server.
    Abort,
    DrainedTransfer,
    /// A socket the accept loop took; it has no registry family.
    Connection,
}

/// State of one transfer `(tenant, transfer_id)`: the verified prefix.
/// It is complete once `verified == total`.
#[derive(Default)]
struct Transfer {
    verified: u64,
    total: u64,
    crc: Hasher,
    /// A connection is currently streaming this transfer; a duplicate
    /// gets rejected instead of corrupting the prefix.
    busy: bool,
    /// Frame-aligned compressed wire bytes covering exactly `verified`
    /// application bytes, accumulated across resumed connections; held by
    /// the stream's [`StreamGuard`] while `busy`, empty once sealed.
    wire: Vec<u8>,
    /// Set at completion: the wire plus its scanned block index, shared
    /// with GET handlers outside the state lock.
    sealed: Option<Arc<SealedObject>>,
}

/// A completed transfer's compressed bytes plus the block index that
/// makes them randomly accessible.
struct SealedObject {
    /// Shared with the GET replies that serve stored blocks out of it.
    wire: Arc<Vec<u8>>,
    index: StreamIndex,
    /// One bit per index entry, set once that block's frame has passed its
    /// check: later reads trust it, as a cache hit trusts the bytes a
    /// checked decode produced.
    checked: Vec<AtomicU64>,
}

impl SealedObject {
    fn new(wire: Vec<u8>, index: StreamIndex) -> SealedObject {
        let checked = (0..index.entries.len().div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        SealedObject { wire: Arc::new(wire), index, checked }
    }

    /// Block `e`'s frame in the wire.
    fn frame(&self, e: &IndexEntry) -> &[u8] {
        &self.wire[e.frame_offset as usize..][..e.frame_len as usize]
    }

    /// Checks block `e`'s frame against its entry, unless a read did so
    /// before.
    fn check(&self, e: &IndexEntry) -> std::io::Result<()> {
        let at = self.index.entries.partition_point(|x| x.frame_offset < e.frame_offset);
        let (word, bit) = (&self.checked[at / 64], 1u64 << (at % 64));
        // The wire does not change after the seal, so the bit publishes
        // nothing: `Relaxed`.
        if word.load(Ordering::Relaxed) & bit == 0 {
            e.check_frame(self.frame(e)).map_err(invalid)?;
            word.fetch_or(bit, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Where stored block `e` starts in the wire: its frame's payload,
    /// which the block's first read checks as a decode would.
    fn stored_block(&self, e: &IndexEntry) -> std::io::Result<usize> {
        self.check(e)?;
        Ok(e.frame_offset as usize + HEADER_LEN)
    }
}

fn invalid(err: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, err)
}

/// Admission and transfer state, behind [`Shared::state`]. Its critical
/// sections only look up entries and write fields: no payload byte is
/// hashed, copied, scanned or decoded under the lock.
#[derive(Default)]
struct State {
    /// Admitted streams in flight.
    active: u64,
    /// Admitted streams in flight per tenant; a tenant at zero leaves.
    tenants: HashMap<String, u64>,
    transfers: HashMap<(String, u64), Transfer>,
}

struct Shared {
    cfg: ServeConfig,
    stop: AtomicBool,
    draining: AtomicBool,
    /// Accepted connections whose handler has not finished. The accept
    /// loop's flood cap reads it.
    live_conns: AtomicU64,
    /// Kept-alive connections waiting for their next request, so
    /// `stop_and_join` can shut them down instead of waiting out the
    /// linger. A handler registers only under this lock and after reading
    /// `stop` as false there.
    idle_conns: Mutex<Vec<Arc<TcpStream>>>,
    tenant_throttles: Mutex<HashMap<String, SharedThrottle>>,
    state: Mutex<State>,
    /// One count per [`Event`], indexed by it.
    counters: [AtomicU64; Event::Connection as usize + 1],
    cache: BlockCache,
}

impl Shared {
    fn metric(&self, f: impl FnOnce(&MetricsRegistry)) {
        if let Some(m) = registry::global() {
            f(m);
        }
    }

    /// The state lock, on every path but [`StreamGuard`]'s release. Its
    /// sections write counts, flags and whole buffers, none with a call
    /// between two writes that belong together that could panic; so if a
    /// handler panicked while holding it, every field still holds a value
    /// some section finished writing, and the lock is taken over.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shed(&self, reason: RejectReason) {
        self.count(Event::Shed);
        self.metric(|m| m.label_count(LabelFamily::ShedReason, reason.as_str(), 1));
    }

    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.metric(|m| m.counter_add(CounterKind::ServeDrains, 1));
        }
    }

    fn count(&self, event: Event) {
        self.counters[event as usize].fetch_add(1, Ordering::Relaxed);
        let kind = match event {
            Event::Accepted => CounterKind::ServeAccepted,
            Event::Completed => CounterKind::ServeCompleted,
            Event::Resumed => CounterKind::ServeResumes,
            Event::Timeout => CounterKind::ServeTimeouts,
            Event::Abort => CounterKind::ServeAborts,
            Event::DrainedTransfer => CounterKind::ServeDrainedTransfers,
            Event::Shed | Event::Connection => return,
        };
        self.metric(|m| m.counter_add(kind, 1));
    }

    /// Admits a stream of `key` declaring `total_len` bytes in one critical
    /// section: the global cap, the tenant's count, then a busy or length
    /// conflict on the transfer. The three reservations are taken together
    /// or not at all; the returned guard gives them back. Also returns the
    /// verified prefix the stream starts from and its CRC state.
    fn admit(
        &self,
        key: (String, u64),
        total_len: u64,
    ) -> Result<(StreamGuard<'_>, u64, Hasher), RejectReason> {
        let (start, crc, wire, active) = {
            let mut state = self.lock();
            let State { active, tenants, transfers } = &mut *state;
            if *active >= self.cfg.max_streams as u64 {
                return Err(RejectReason::Capacity);
            }
            if tenants.get(&key.0).copied().unwrap_or(0) >= self.cfg.per_tenant_streams as u64 {
                return Err(RejectReason::TenantQuota);
            }
            let t = transfers
                .entry(key.clone())
                .or_insert_with(|| Transfer { total: total_len, ..Transfer::default() });
            if t.busy || t.total != total_len {
                return Err(RejectReason::TenantQuota);
            }
            t.busy = true;
            *active += 1;
            *tenants.entry(key.0.clone()).or_insert(0) += 1;
            (t.verified, t.crc.clone(), std::mem::take(&mut t.wire), *active)
        };
        self.count(Event::Accepted);
        self.metric(|m| {
            m.gauge_add(GaugeKind::ServeActiveConns, 1);
            m.gauge_max(GaugeKind::ServeActiveConnsMax, active as i64);
        });
        Ok((StreamGuard { shared: self, key, wire }, start, crc))
    }
}

/// A running daemon. [`Server::shutdown`] (or drop) stops the accept loop
/// and joins every thread; [`Server::begin_drain`] +
/// [`Server::drain_and_wait`] is the graceful path.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = BlockCache::new(cfg.cache_bytes);
        let shared = Arc::new(Shared {
            cfg,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live_conns: AtomicU64::new(0),
            idle_conns: Mutex::default(),
            tenant_throttles: Mutex::default(),
            state: Mutex::default(),
            counters: Default::default(),
            cache,
        });
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();

        let (s, hs) = (Arc::clone(&shared), Arc::clone(&handlers));
        let accept = std::thread::Builder::new().name("adcomp-serve-accept".into()).spawn(
            move || {
                for conn in listener.incoming() {
                    if s.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(sock) = conn else { continue };
                    // Bounded accept queue: if the handler population is
                    // already double the stream budget, every pre-admission
                    // slot is taken by connections we have not even been
                    // able to read a request from — shed at the door.
                    let flood_cap = (s.cfg.max_streams as u64) * 2 + 16;
                    if s.live_conns.load(Ordering::Acquire) >= flood_cap {
                        s.shed(RejectReason::Capacity);
                        drop(sock);
                        continue;
                    }
                    s.live_conns.fetch_add(1, Ordering::AcqRel);
                    s.count(Event::Connection);
                    // A handler per connection: concurrency stays unbounded
                    // up to the flood cap, and a slow stream never queues
                    // anyone behind it.
                    let sh = Arc::clone(&s);
                    match std::thread::Builder::new().name("adcomp-serve-conn".into()).spawn(
                        move || {
                            // The accept loop took the slot; it goes back
                            // even if the handler panics, or the flood cap
                            // would shrink for good.
                            let _slot = Release(&sh.live_conns);
                            handle_conn(&sh, sock);
                        },
                    ) {
                        Ok(h) => {
                            // Only `retain`, `push` and `take` touch the
                            // list; a panic in none of them leaves it
                            // half-written, so a poisoned lock is taken
                            // over.
                            let mut v = hs.lock().unwrap_or_else(PoisonError::into_inner);
                            // Reap finished handlers so the vector stays
                            // bounded over a long-lived daemon.
                            v.retain(|h| !h.is_finished());
                            v.push(h);
                        }
                        Err(_) => {
                            s.live_conns.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                }
            },
        )?;
        Ok(Server { shared, local_addr, accept: Some(accept), handlers })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Admitted streams currently in flight.
    pub fn active(&self) -> u64 {
        self.shared.lock().active
    }

    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Server-local robustness counters.
    pub fn stats(&self) -> ServeStats {
        let c = |event: Event| self.shared.counters[event as usize].load(Ordering::Relaxed);
        ServeStats {
            accepted: c(Event::Accepted),
            completed: c(Event::Completed),
            resumed: c(Event::Resumed),
            shed: c(Event::Shed),
            timeouts: c(Event::Timeout),
            aborts: c(Event::Abort),
            drained_transfers: c(Event::DrainedTransfer),
            connections: c(Event::Connection),
        }
    }

    /// Verified prefix length of a transfer, if known.
    #[cfg(test)]
    pub(crate) fn verified_len(&self, tenant: &str, transfer_id: u64) -> Option<u64> {
        self.shared.lock().transfers.get(&(tenant.to_string(), transfer_id)).map(|t| t.verified)
    }

    /// Hot-object block-cache counters (hits, misses, evictions,
    /// resident bytes).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Whether a transfer is sealed: complete, with its wire and block index.
    #[cfg(test)]
    pub(crate) fn is_sealed(&self, tenant: &str, transfer_id: u64) -> bool {
        let state = self.shared.lock();
        state.transfers.get(&(tenant.to_string(), transfer_id)).is_some_and(|t| t.sealed.is_some())
    }

    /// Starts a graceful drain: new PUTs are rejected with
    /// [`RejectReason::Draining`]; in-flight streams keep running.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Waits until every in-flight stream finished, or `deadline` passes.
    /// Returns true when fully drained.
    pub fn drain_and_wait(&self, deadline: Duration) -> bool {
        self.begin_drain();
        let until = Instant::now() + deadline;
        while self.active() > 0 {
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Stops the accept loop, tears everything down and joins all threads.
    /// Kept-alive connections waiting for a next request are closed at
    /// once. Call [`Server::drain_and_wait`] first for a graceful exit;
    /// without it, in-flight streams are aborted (their verified prefixes
    /// are kept, so resume still works).
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.stop.store(true, Ordering::Release);
        // Wake handlers waiting on kept-alive connections: their wait for
        // a next request ends at EOF. A handler not yet registered reads
        // `stop` under this lock before it would wait.
        for sock in self.shared.idle_conns.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        // Handlers end before the accept loop is woken, so the threads
        // always exit in the same order. glibc gives a new thread the
        // malloc arena of the thread that exited last, so the next daemon
        // in this process hands its accept loop this accept loop's arena
        // and its first handler this handler's, where the freed store can
        // be reused. Left to the scheduler, the order sometimes flips, the
        // next store lands on fresh pages, and peak memory grows by a
        // whole store.
        self.join_handlers();
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // A connection accepted as `stop` was set may have a handler too.
        self.join_handlers();
    }

    fn join_handlers(&self) {
        // A list of join handles, whole after any panic (see the accept
        // loop): a poisoned lock is taken over.
        let handles =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Gives one count of a population counter back when dropped, so a slot
/// taken by `fetch_add` returns on every exit path — a panicking handler
/// included.
struct Release<'a>(&'a AtomicU64);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Undoes one stream admission on every exit path, a panicking handler
/// included, and puts the transfer's wire back, in one critical section
/// that takes a poisoned lock over: a panic here, during an unwind, would
/// abort the daemon, and no panic leaves a count or a flag half written.
struct StreamGuard<'a> {
    shared: &'a Shared,
    key: (String, u64),
    /// The transfer's wire while the stream runs: taken at admission,
    /// extended by the handler outside the lock, stored back at release.
    wire: Vec<u8>,
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.active = state.active.saturating_sub(1);
            if let Some(n) = state.tenants.get_mut(&self.key.0) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    state.tenants.remove(&self.key.0);
                }
            }
            if let Some(t) = state.transfers.get_mut(&self.key) {
                t.busy = false;
                t.wire = std::mem::take(&mut self.wire);
            }
        }
        self.shared.metric(|m| m.gauge_add(GaugeKind::ServeActiveConns, -1));
    }
}

/// Body of an `adcomp-serve-conn` thread: serves the requests of its
/// connection, in order, until one of them ends it or no next request
/// arrives.
fn handle_conn(shared: &Arc<Shared>, sock: TcpStream) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = sock.set_write_timeout(Some(shared.cfg.io_timeout));
    // Shared with `idle_conns` while the connection waits between requests.
    let sock = Arc::new(sock);
    while serve_request(shared, &sock) && next_request_arrives(shared, &sock) {}
}

/// Reads and serves one request. True when the connection stays open for
/// the next: after a GET reply and after a PUT's successful `DONE`.
fn serve_request(shared: &Arc<Shared>, mut sock: &TcpStream) -> bool {
    let req = match read_request(&mut sock) {
        Ok(r) => r,
        Err(_) => {
            // Malformed, stalled, or not our protocol: one typed reject,
            // then the door.
            shared.shed(RejectReason::BadRequest);
            let _ =
                write_response(&mut sock, &Response::Reject { reason: RejectReason::BadRequest });
            // Drain whatever else the client sent before closing: closing
            // with unread bytes in the receive buffer turns the close into
            // a RST, which can discard the reject frame in flight. Bounded
            // by the socket read timeout.
            let _ = sock.shutdown(Shutdown::Write);
            let mut scratch = [0u8; 1024];
            while matches!(sock.read(&mut scratch), Ok(n) if n > 0) {}
            return false;
        }
    };
    match req {
        Request::Drain => {
            let active = shared.lock().active;
            shared.begin_drain();
            let _ = write_response(
                &mut sock,
                &Response::Accept { start_offset: active, level_cap: 0 },
            );
            false
        }
        Request::Put { tenant, transfer_id, total_len } => {
            handle_put(shared, sock, tenant, transfer_id, total_len)
        }
        Request::Get { tenant, transfer_id, offset, len } => {
            let served = handle_get(shared, &mut sock, &tenant, transfer_id, offset, len);
            if !served {
                let _ = sock.shutdown(Shutdown::Write);
            }
            served
        }
    }
}

/// Waits up to [`HANDLER_LINGER`] for the first byte of the next request
/// on a kept-alive connection, without consuming it. EOF, a timeout, a
/// reset or a stopping server before that byte is a clean close: nothing
/// is shed or counted. Once the byte is there, the request is read under
/// `io_timeout` like the first one.
fn next_request_arrives(shared: &Shared, sock: &Arc<TcpStream>) -> bool {
    // The idle list only gains and loses whole entries, so a poisoned lock
    // guards a consistent list and is taken over, as `stop_and_join` does.
    {
        let mut idle = shared.idle_conns.lock().unwrap_or_else(PoisonError::into_inner);
        if shared.stop.load(Ordering::Acquire) {
            return false;
        }
        idle.push(Arc::clone(sock));
    }
    let _ = sock.set_read_timeout(Some(HANDLER_LINGER));
    let arrived = matches!(sock.peek(&mut [0u8]), Ok(1));
    shared
        .idle_conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|s| !Arc::ptr_eq(s, sock));
    let _ = sock.set_read_timeout(Some(shared.cfg.io_timeout));
    arrived && !shared.stop.load(Ordering::Acquire)
}

/// Serves one PUT. True when the transfer completed and its `DONE` went
/// out, so the connection can carry a next request; every other ending
/// closes it.
fn handle_put(
    shared: &Arc<Shared>,
    mut sock: &TcpStream,
    tenant: String,
    transfer_id: u64,
    total_len: u64,
) -> bool {
    let reject = |reason: RejectReason, mut sock: &TcpStream| {
        shared.shed(reason);
        let _ = write_response(&mut sock, &Response::Reject { reason });
        false
    };
    if shared.draining.load(Ordering::Acquire) {
        return reject(RejectReason::Draining, sock);
    }
    if total_len > MAX_TRANSFER_BYTES {
        return reject(RejectReason::TooLarge, sock);
    }
    let (mut guard, start, mut crc) = match shared.admit((tenant, transfer_id), total_len) {
        Ok(admitted) => admitted,
        Err(reason) => return reject(reason, sock),
    };
    if start > 0 && start < total_len {
        shared.count(Event::Resumed);
    }
    let accept = Response::Accept { start_offset: start, level_cap: NO_LEVEL_CAP };
    if write_response(&mut sock, &accept).is_err() {
        shared.count(Event::Abort);
        return false; // the guard puts the wire back
    }

    // Ingest loop: decode the adaptive stream a block at a time, CRC each
    // block outside the lock and publish the longer verified prefix, so an
    // abort anywhere still leaves a resumable, CRC-clean prefix.
    let throttled: Box<dyn Read + Send + '_> = match shared.cfg.tenant_rate_bps {
        Some(bps) => {
            // A map of shared buckets that only gains whole entries: a
            // poisoned lock is taken over.
            let mut throttles =
                shared.tenant_throttles.lock().unwrap_or_else(PoisonError::into_inner);
            let tenant = guard.key.0.clone();
            let throttle = throttles.entry(tenant).or_insert_with(|| SharedThrottle::new(bps));
            Box::new(ThrottledReader::new(sock, throttle.clone()))
        }
        None => Box::new(sock),
    };
    // The reader fails fast, which resume depends on: the verified prefix
    // has no gaps, and the stored wire reproduces every delivered byte.
    let mut reader = AdaptiveReader::new(CaptureReader { inner: throttled, captured: Vec::new() });
    let deadline = Instant::now() + MAX_STREAM_SECS;
    let mut verified = start;
    let mut verified_wire = 0; // where the capture is cut, however the stream ends
    // The loop ends with `None` when the declared length arrived or the
    // client closed the connection at a frame boundary short of it, and
    // otherwise with the event that ended the stream.
    let end = loop {
        // The declared length ends the stream, not EOF: what follows on
        // the socket is the next request, so no further frame may be read.
        // The inline reader reads none ahead of the block it serves.
        if verified == total_len {
            break None;
        }
        if shared.stop.load(Ordering::Acquire) {
            break Some(Event::Abort);
        }
        if Instant::now() >= deadline {
            // Wall budget exhausted: slow-drip guard.
            break Some(Event::Timeout);
        }
        match reader.read_block() {
            Ok(None) => break None,
            // More bytes than declared: a protocol violation. The block is
            // not folded in, so its frame is not kept either.
            Ok(Some(block)) if block.len() as u64 > total_len - verified => {
                break Some(Event::Abort)
            }
            Ok(Some(block)) => {
                crc.update(block);
                verified += block.len() as u64;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle timeout: the socket went silent for io_timeout.
                break Some(Event::Timeout);
            }
            // Stream damage (corrupt frame under fail-fast, reset, …).
            Err(_) => break Some(Event::Abort),
        }
        verified_wire = reader.wire_bytes() as usize;
        let mut state = shared.lock();
        let t = state.transfers.get_mut(&guard.key).expect("busy transfer vanished");
        t.verified = verified;
        t.crc = crc.clone();
    };
    // Surface the frame layer's recovery counters however the stream
    // ended: the damage that aborted it is counted there.
    let rec = reader.recovery();
    shared.metric(|m| {
        m.counter_add(CounterKind::RecoveryCorruptFrames, rec.corrupt_frames);
        m.counter_add(CounterKind::RecoveryTruncations, rec.truncations);
    });
    // The stored wire is the transfer's earlier wire, then the capture cut
    // to the frames verified here, so it covers exactly `verified` on
    // every exit. A fresh capture is stored as it is, shrunk: its
    // grow-by-doubling slack would stay resident with the object.
    let mut captured = reader.into_inner().captured;
    captured.truncate(verified_wire);
    if guard.wire.is_empty() {
        captured.shrink_to_fit();
        guard.wire = captured;
    } else {
        guard.wire.reserve_exact(captured.len());
        guard.wire.extend_from_slice(&captured);
    }
    if let Some(event) = end {
        shared.count(event);
        return false;
    }

    // Complete only when the whole declared length is verified; a
    // short-but-clean close keeps the prefix for a later resume.
    let complete = verified == total_len;
    if complete {
        // Seal: scan the stored wire into a block index (headers only, no
        // decompression) so ranged GETs can seek, then install it. A scan
        // disagreeing with the verified length means the wire cannot be
        // trusted: the transfer completes unsealed and its GETs are refused.
        match StreamIndex::scan(&guard.wire) {
            Ok(index) if index.total_uncompressed() == total_len => {
                let sealed = SealedObject::new(std::mem::take(&mut guard.wire), index);
                let mut state = shared.lock();
                let t = state.transfers.get_mut(&guard.key).expect("busy transfer vanished");
                t.sealed = Some(Arc::new(sealed));
            }
            _ => {}
        }
    }
    let sent = write_done(&mut sock, &Done { ok: complete, verified, crc: crc.finish() }).is_ok();
    if complete {
        shared.count(Event::Completed);
        if shared.draining.load(Ordering::Acquire) {
            shared.count(Event::DrainedTransfer);
        }
    } else {
        let _ = sock.shutdown(Shutdown::Write);
    }
    drop(guard);
    complete && sent
}

/// Tees every byte read from the socket into `captured`, so a completed
/// PUT can retain its frame-aligned compressed wire for ranged GETs.
/// `AdaptiveReader`'s frame layer consumes the socket in exact frame
/// units (header `read_exact`, then payload `read_exact`) and counts a
/// frame only once its block has decoded and been released, so truncating
/// the capture to the reader's `wire_bytes()` yields only whole, valid,
/// decodable frames.
struct CaptureReader<'a> {
    inner: Box<dyn Read + Send + 'a>,
    captured: Vec<u8>,
}

impl Read for CaptureReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.captured.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// Serves a GET of a completed transfer out of its sealed wire: a stored
/// (RAW) block is a slice of the wire, a cached block is sent as it lies,
/// and any other block is decoded. A ranged read admits what it decodes
/// to the block cache, so a hot block is decoded once and then served
/// from memory; a whole read streams past the cache (see [`write_reply`]).
/// True when the reply went out whole; a refusal or a cut reply is false.
fn handle_get<W: Write>(
    shared: &Shared,
    out: &mut W,
    tenant: &str,
    transfer_id: u64,
    offset: u64,
    len: u64,
) -> bool {
    let reject = |out: &mut W| {
        shared.shed(RejectReason::BadRequest);
        let _ = write_response(out, &Response::Reject { reason: RejectReason::BadRequest });
        false
    };
    // Only a completed transfer is sealed. One whose seal scan disagreed
    // with its verified length completes unsealed and has nothing to
    // serve from.
    let key = (tenant.to_string(), transfer_id);
    let sealed = shared.lock().transfers.get(&key).and_then(|t| t.sealed.clone());
    let Some(sealed) = sealed else {
        return reject(out);
    };
    shared.metric(|m| m.counter_add(CounterKind::RangedReads, 1));
    let body_len = sealed.index.shares(offset, len).map(|(_, share)| share.len() as u64).sum();
    let mut reply = GetReply::new(body_len);
    match write_reply(shared, &sealed, offset, len, &mut reply, out) {
        Ok(()) => true,
        // The server's own wire failed its checks before any byte left:
        // nothing sane to serve; shed rather than ship wrong bytes.
        Err(_) if !reply.started() => reject(out),
        // A write failed, or a decode after the accept frame: the
        // connection ends without a trailer, which the client sees.
        Err(_) => false,
    }
}

/// A part of a GET reply: a decoded block, or a sealed wire holding a
/// stored block, and the bytes of it the reply takes.
type Part = (Arc<Vec<u8>>, Range<usize>);

/// Writes the reply to a GET of `[offset, offset + len)` (clamped) of a
/// sealed object, walking its covering blocks in order. A stored block is
/// its frame's payload, so its part is that share of the sealed wire:
/// its frame is checked as a decode would check it on the block's first
/// read, and nothing is allocated, copied or cached. A compressed block
/// cached at least as far as its share reaches is used as it lies.
///
/// A ranged read decodes a missed block only through its share's end and
/// caches that prefix; a block whose cached prefix falls short of its
/// share is read again, so it is decoded whole and replaces the prefix.
/// The cache thus holds only bytes a decode produced. The reply leaves in
/// one piece after the last block, so a failed check refuses it before
/// any byte.
///
/// A whole read (offset 0, through the object's end) checks every frame
/// not checked before, then streams: each missed block is decoded whole
/// into the reply's one buffer and written, behind the parts before it,
/// before the next decode reuses the buffer. Nothing it decodes is
/// cached, so a scan of a large object evicts no block a ranged read
/// depends on, and the reply holds one block however large the object.
fn write_reply(
    shared: &Shared,
    sealed: &SealedObject,
    offset: u64,
    len: u64,
    reply: &mut GetReply,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let shares = sealed.index.shares(offset, len);
    let whole = offset == 0 && len >= sealed.index.total_uncompressed();
    // For a whole read, the span also holds the writes between decodes.
    let span = registry::span(SpanKind::RangedRead);
    if whole {
        for (e, _) in shares.clone() {
            sealed.check(&e)?;
        }
    }
    let mut parts: Vec<Part> = Vec::new();
    let mut buf = Vec::new();
    let mut scratch = DecodeScratch::new();
    for (e, share) in shares {
        if e.codec == CodecId::Raw {
            let at = sealed.stored_block(&e)?;
            parts.push((Arc::clone(&sealed.wire), at + share.start..at + share.end));
            continue;
        }
        let key = (e.crc, e.uncompressed_len);
        let want = match shared.cache.lookup(key, share.end) {
            Lookup::Hit(bytes) => {
                parts.push((bytes, share));
                continue;
            }
            Lookup::Miss => share.end,
            Lookup::Short => e.uncompressed_len as usize,
        };
        let mut block = if whole { std::mem::take(&mut buf) } else { Vec::new() };
        block.clear();
        block.reserve_exact(want);
        decode_block_within(&mut scratch, sealed.frame(&e), want, &mut block, DEFAULT_MAX_FRAME)
            .map_err(invalid)?;
        if block.len() < share.end {
            return Err(invalid("decoded block shorter than its share"));
        }
        if whole {
            reply.write(out, bytes_of(&parts).chain([&block[share]]), false)?;
            parts.clear();
            buf = block;
        } else {
            // HEAVY and COLUMNAR decode whole and cut: the cache charges
            // length, so it keeps no capacity beyond it.
            block.shrink_to_fit();
            let bytes = Arc::new(block);
            shared.cache.insert(key, Arc::clone(&bytes));
            parts.push((bytes, share));
        }
    }
    drop(span);
    reply.write(out, bytes_of(&parts), true)
}

/// The bytes each part takes, in order.
fn bytes_of(parts: &[Part]) -> impl Iterator<Item = &[u8]> {
    parts.iter().map(|(bytes, range)| &bytes[range.clone()])
}

#[cfg(test)]
mod tests {
    use super::super::client::{self, get, put, PutOptions};
    use super::super::netsoak::{settle, soak_threads};
    use super::super::proto::{
        read_done, read_get_payload, read_response, write_get_payload, write_request,
    };
    use super::super::testio::{writer, Counting};
    use super::*;
    use adcomp_codecs::crc32::crc32;
    use adcomp_core::Backoff;
    use adcomp_corpus::{generate, Class};
    use std::collections::HashSet;
    use std::ffi::OsString;
    use std::io;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const IO: Duration = Duration::from_secs(2);

    fn start() -> Server {
        Server::start(ServeConfig { io_timeout: IO, ..ServeConfig::default() }).unwrap()
    }

    fn body(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i / 3) as u8 ^ (i as u8).rotate_left(3)).collect()
    }

    /// The LIGHT frame stream of `data` in 4 KiB blocks.
    fn frames_of(data: &[u8]) -> Vec<u8> {
        let mut w = writer(Vec::new(), 1, 4096);
        w.write_all(data).unwrap();
        w.finish().unwrap().0
    }

    /// A PUT of `t`/`id` declaring `total_len` bytes, its `frames` written
    /// by hand on `sock`; returns the receipt.
    fn put_on(mut sock: &TcpStream, id: u64, total_len: u64, frames: &[u8]) -> Done {
        let req = Request::Put { tenant: "t".into(), transfer_id: id, total_len };
        write_request(&mut sock, &req).unwrap();
        assert!(matches!(read_response(&mut sock).unwrap(), Response::Accept { .. }));
        sock.write_all(frames).unwrap();
        read_done(&mut sock).unwrap()
    }

    /// A ranged GET of `t`/`id` on `sock`.
    fn get_on(mut sock: &TcpStream, id: u64, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let req = Request::Get { tenant: "t".into(), transfer_id: id, offset, len };
        write_request(&mut sock, &req)?;
        match read_response(&mut sock)? {
            Response::Accept { start_offset, .. } => read_get_payload(&mut sock, start_offset),
            Response::Reject { reason } => Err(io::Error::other(reason.as_str())),
        }
    }

    /// Spins until `cond` holds; panics with `what` after 5 s.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn live(server: &Server) -> u64 {
        server.shared.live_conns.load(Ordering::Acquire)
    }

    #[test]
    fn release_guard_gives_the_slot_back_when_the_holder_panics() {
        let slots = AtomicU64::new(1);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _slot = Release(&slots);
            panic!("handler died");
        }));
        assert!(died.is_err());
        assert_eq!(slots.load(Ordering::Acquire), 0);
    }

    #[test]
    fn panicking_handler_does_not_leak_its_connection_slot() {
        let server = start();
        // A PUT mid-stream: one block verified, the next still to come.
        let wire = frames_of(&body(2 * 4096));
        let first = HEADER_LEN + u32::from_le_bytes(wire[8..12].try_into().unwrap()) as usize;
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        let req = Request::Put { tenant: "t".into(), transfer_id: 1, total_len: 2 * 4096 };
        write_request(&mut sock, &req).unwrap();
        assert!(matches!(read_response(&mut sock).unwrap(), Response::Accept { .. }));
        sock.write_all(&wire[..first]).unwrap();
        wait_for("the first block", || server.verified_len("t", 1) == Some(4096));
        // Poison the state lock: every GET handler now panics on its
        // `expect`, the way a bug in a handler would…
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("poison the state lock");
        })
        .join();
        for _ in 0..3 {
            assert!(get(server.local_addr(), "t", 1, 0, 1, IO).is_err());
        }
        // …and so does the PUT handler as it publishes its next block. Its
        // stream guard's release takes the lock over instead of panicking
        // again during the unwind, which would abort the process.
        sock.write_all(&wire[first..]).unwrap();
        wait_for("panicked handlers to give their slots back", || live(&server) == 0);
        server.shutdown();
    }

    #[test]
    fn refused_put_leaves_no_tenant_entry_behind() {
        let server = start();
        let addr = server.local_addr();
        // Park a PUT of (t, 1) mid-stream, then drop it: an incomplete
        // transfer with a declared length stays behind.
        let mut held = TcpStream::connect(addr).unwrap();
        let req = |total_len| Request::Put { tenant: "t".into(), transfer_id: 1, total_len };
        write_request(&mut held, &req(1000)).unwrap();
        assert!(matches!(read_response(&mut held).unwrap(), Response::Accept { .. }));
        // Same transfer while it is busy: refused, the holder keeps its slot.
        let mut dup = TcpStream::connect(addr).unwrap();
        write_request(&mut dup, &req(1000)).unwrap();
        let refused = Response::Reject { reason: RejectReason::TenantQuota };
        assert_eq!(read_response(&mut dup).unwrap(), refused);
        let counts = || {
            let state = server.shared.lock();
            (state.active, state.tenants.get("t").copied(), state.transfers.len())
        };
        assert_eq!(counts(), (1, Some(1), 1));
        drop(held);
        wait_for("the cut stream to be reaped", || server.active() == 0);
        // Same transfer, different declared length: refused in the same
        // critical section that would have taken the slots, so none is.
        let mut other = TcpStream::connect(addr).unwrap();
        write_request(&mut other, &req(999)).unwrap();
        assert_eq!(read_response(&mut other).unwrap(), refused);
        assert_eq!(counts(), (0, None, 1));
        server.shutdown();
    }

    /// Daemon threads in `seen` but not in `before` that are still alive
    /// once they had time to exit (0 on a platform without the census). A
    /// sibling test's threads, told apart only by living on, settle too.
    fn outlived(before: &Option<HashSet<OsString>>, seen: &HashSet<OsString>) -> u64 {
        let Some(before) = before else { return 0 };
        let born: HashSet<_> = seen.difference(before).cloned().collect();
        settle(|| soak_threads().map(|now| now.intersection(&born).count() as u64), 0)
    }

    #[test]
    fn back_to_back_requests_share_a_connection_and_bursts_still_fan_out() {
        let server = start();
        let addr = server.local_addr();
        let data = body(100_000);
        let opts = |id| PutOptions { tenant: "t".into(), transfer_id: id, ..Default::default() };
        put(addr, &data, &opts(1)).unwrap();
        // Back-to-back requests ride the client's kept-alive connection.
        for i in 0..250u64 {
            if i % 5 == 0 {
                put(addr, &data[..2000], &opts(2 + i)).unwrap();
            } else {
                let at = i * 300;
                assert_eq!(get(addr, "t", 1, at, 512, IO).unwrap(), &data[at as usize..][..512]);
            }
        }
        // Not exactly one: a net-soak test running beside this one empties
        // the process-wide idle pool, and a stalled host lets an idle
        // socket age past reuse.
        let kept = server.stats();
        assert!(kept.connections <= 25, "{} connections for 251 requests", kept.connections);

        // Connections that close after one request each: every one gets a
        // handler, and no handler outlives its connection.
        client::close_idle();
        wait_for("the kept-alive connection to close", || live(&server) == 0);
        let before = soak_threads();
        let mut seen = HashSet::new();
        for i in 0..20u64 {
            let sock = TcpStream::connect(addr).unwrap();
            assert_eq!(get_on(&sock, 1, i * 7, 64).unwrap(), &data[i as usize * 7..][..64]);
            seen.extend(soak_threads().unwrap_or_default());
        }
        wait_for("every handler to finish", || live(&server) == 0);
        assert_eq!(outlived(&before, &seen), 0, "a handler outlived its connection");

        // Eight connections stuck mid-handshake each hold a handler of
        // their own…
        let mut held: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        wait_for("eight concurrent handlers", || live(&server) == 8);
        // …a ninth request is answered meanwhile…
        assert_eq!(get(addr, "t", 1, 7, 100, IO).unwrap(), &data[7..107]);
        // …and so is each of the eight, last opened first.
        let unknown = Request::Get { tenant: "t".into(), transfer_id: 999, offset: 0, len: 1 };
        while let Some(mut sock) = held.pop() {
            write_request(&mut sock, &unknown).unwrap();
            let refused = Response::Reject { reason: RejectReason::BadRequest };
            assert_eq!(read_response(&mut sock).unwrap(), refused);
        }
        let stats = server.shutdown();
        assert_eq!(stats.connections, kept.connections + 20 + 9);
    }

    #[test]
    fn shutdown_wakes_kept_alive_handlers_at_once_and_leaves_no_thread() {
        let before = soak_threads();
        let server = start();
        // A kept-alive connection whose handler waits for a next request.
        let kept = TcpStream::connect(server.local_addr()).unwrap();
        assert!(put_on(&kept, 1, 0, &[]).ok);
        wait_for("the kept-alive wait", || !server.shared.idle_conns.lock().unwrap().is_empty());
        let ours = soak_threads().unwrap_or_default();
        let t0 = Instant::now();
        server.shutdown();
        let took = t0.elapsed();
        // Below the linger, or the handler merely timing out would pass.
        let bound = Duration::from_millis(250);
        assert!(bound < HANDLER_LINGER);
        assert!(took < bound, "shutdown took {took:?} with a kept-alive handler");
        if let Some(before) = &before {
            let born = ours.difference(before).count();
            assert!(born >= 2, "accept + one handler expected, saw {born}");
        }
        assert_eq!(outlived(&before, &ours), 0, "daemon threads outlived shutdown");
        drop(kept);
    }

    #[test]
    fn one_connection_carries_put_get_get_put_get() {
        let server = start();
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(IO)).unwrap();
        let (a, b) = (body(20_000), body(9_000));
        assert_eq!(put_on(&sock, 1, 20_000, &frames_of(&a)), Done {
            ok: true,
            verified: 20_000,
            crc: crc32(&a)
        });
        assert_eq!(get_on(&sock, 1, 0, 20_000).unwrap(), a);
        assert_eq!(get_on(&sock, 1, 4095, 10).unwrap(), &a[4095..4105]);
        assert!(put_on(&sock, 2, 9_000, &frames_of(&b)).ok);
        assert_eq!(get_on(&sock, 2, 8000, 5000).unwrap(), &b[8000..]);
        drop(sock);
        let s = server.shutdown();
        assert_eq!((s.connections, s.completed, s.shed), (1, 2, 0));
    }

    #[test]
    fn idle_connection_closes_cleanly_and_a_stale_one_is_retried_at_once() {
        let server = start();
        let addr = server.local_addr();
        let data = body(5_000);
        // A put that slept one backoff step would take a second.
        let step = Duration::from_secs(1);
        let opts = |transfer_id| PutOptions {
            tenant: "t".into(),
            transfer_id,
            backoff: Backoff::new(step.as_secs_f64(), 2.0, 2.0, 3),
            ..Default::default()
        };
        put(addr, &data, &opts(1)).unwrap();
        // Past the linger the server closes the idle connection: not a
        // shed, a timeout or an abort.
        std::thread::sleep(HANDLER_LINGER + Duration::from_millis(100));
        wait_for("the idle connection to close", || live(&server) == 0);
        let s = server.stats();
        assert_eq!((s.shed, s.timeouts, s.aborts), (0, 0, 0));
        let t0 = Instant::now();
        assert_eq!(put(addr, &data, &opts(2)).unwrap().attempts, 1);
        assert!(t0.elapsed() < step);
        // The server closes a connection the client still counts as fresh:
        // the next put fails on it before any reply byte and goes again on
        // a new connection, in the same attempt and without a sleep.
        wait_for("a kept-alive wait", || !server.shared.idle_conns.lock().unwrap().is_empty());
        for sock in server.shared.idle_conns.lock().unwrap().iter() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        let t0 = Instant::now();
        assert_eq!(put(addr, &data, &opts(3)).unwrap().attempts, 1);
        assert!(t0.elapsed() < step);
        let s = server.shutdown();
        assert_eq!((s.completed, s.connections), (3, 3));
        assert_eq!((s.shed, s.timeouts, s.aborts), (0, 0, 0));
    }

    #[test]
    fn a_put_longer_than_declared_seals_the_declared_bytes_and_its_excess_is_a_bad_request() {
        let server = start();
        let data = body(3 * 4096);
        let declared = 2 * 4096;
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(IO)).unwrap();
        let done = put_on(&sock, 1, declared as u64, &frames_of(&data));
        let want = Done { ok: true, verified: declared as u64, crc: crc32(&data[..declared]) };
        assert_eq!(done, want);
        // The third frame is read as the next request.
        let refused = Response::Reject { reason: RejectReason::BadRequest };
        assert_eq!(read_response(&mut sock).unwrap(), refused);
        drop(sock);
        let sealed = get(server.local_addr(), "t", 1, 0, data.len() as u64, IO).unwrap();
        assert_eq!(sealed, &data[..declared]);
        let s = server.shutdown();
        assert_eq!((s.completed, s.shed, s.aborts), (1, 1, 0));
    }

    #[test]
    fn a_rejected_get_ends_its_connection() {
        let server = start();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(IO)).unwrap();
        let err = get_on(&sock, 7, 0, 1).unwrap_err();
        assert!(err.to_string().contains("bad_request"), "unexpected error: {err}");
        // A next request on the socket is never answered.
        let _ = get_on(&sock, 7, 0, 1);
        assert_eq!(sock.read(&mut [0u8; 1]).unwrap_or(0), 0);
        let s = server.shutdown();
        assert_eq!((s.connections, s.shed), (1, 1));
    }

    /// ROADMAP item 1(b), the `serve` PUT row: every header bit of every
    /// frame of a small PUT, flipped on its own, on a connection that
    /// already served a request and asks for one more right behind the
    /// frames. The PUT must end in `DONE{ok}` with the source's CRC and
    /// sealed bytes, or fail with nothing sealed; and the connection must
    /// serve the request behind it only after a complete PUT, so it never
    /// answers out of a stream it lost its place in.
    #[test]
    fn every_header_bit_flip_of_a_kept_alive_put_is_caught_or_harmless() {
        let server = start();
        let source: Vec<u8> = [
            generate(Class::Moderate, 4096, 1),
            generate(Class::High, 4096, 2),
            generate(Class::Low, 3000, 3),
        ]
        .concat();
        let total = source.len() as u64;
        let wire = frames_of(&source);
        let mut frames = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            frames.push(at);
            let payload = u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap());
            at += HEADER_LEN + payload as usize;
        }
        assert_eq!(frames.len(), 3);
        let first = TcpStream::connect(server.local_addr()).unwrap();
        assert!(put_on(&first, 0, total, &wire).ok);
        drop(first);

        let completed = |id| server.verified_len("t", id) == Some(total);
        let (mut harmless, mut caught) = (0, 0);
        for (f, &frame) in frames.iter().enumerate() {
            for bit in 0..HEADER_LEN * 8 {
                let id = 1 + (f * HEADER_LEN * 8 + bit) as u64;
                let mut hurt = wire.clone();
                hurt[frame + bit / 8] ^= 1 << (bit % 8);
                let mut sock = TcpStream::connect(server.local_addr()).unwrap();
                sock.set_read_timeout(Some(IO)).unwrap();
                assert_eq!(get_on(&sock, 0, 100, 50).unwrap(), &source[100..150]);
                let put = Request::Put { tenant: "t".into(), transfer_id: id, total_len: total };
                write_request(&mut sock, &put).unwrap();
                assert!(matches!(read_response(&mut sock).unwrap(), Response::Accept { .. }));
                // The server may hang up before it has read all of this.
                let mut tail = hurt;
                let next =
                    Request::Get { tenant: "t".into(), transfer_id: id, offset: 0, len: total };
                write_request(&mut tail, &next).unwrap();
                let _ = sock.write_all(&tail);
                let _ = sock.shutdown(Shutdown::Write);
                let mut back = Vec::new();
                let _ = sock.read_to_end(&mut back);

                let case = format!("frame {f} bit {bit}");
                let mut rest = &back[..];
                match read_done(&mut rest) {
                    Ok(done) if done.ok => {
                        assert_eq!((done.verified, done.crc), (total, crc32(&source)), "{case}");
                        // What follows is the reply to the next request,
                        // served from the sealed bytes, and nothing else.
                        let got = match read_response(&mut rest) {
                            Ok(Response::Accept { start_offset, .. }) => {
                                read_get_payload(&mut rest, start_offset).ok()
                            }
                            _ => None,
                        };
                        assert_eq!(got.as_deref(), Some(&source[..]), "{case}");
                        assert!(rest.is_empty(), "{case}: bytes after the reply");
                        harmless += 1;
                    }
                    // Nothing, or an incomplete receipt alone: the
                    // request behind the PUT is never answered.
                    Ok(done) => {
                        assert!(done.verified < total && rest.is_empty(), "{case}: {done:?}");
                        assert!(!completed(id), "{case}: sealed after a failure");
                        caught += 1;
                    }
                    Err(_) => {
                        assert!(back.is_empty(), "{case}: {} unexpected bytes", back.len());
                        assert!(!completed(id), "{case}: sealed after a failure");
                        caught += 1;
                    }
                }
            }
        }
        assert!(harmless > 0 && caught > 0, "{harmless} harmless, {caught} caught");
        let s = server.shutdown();
        assert_eq!(s.shed, 0, "a flipped PUT desynchronised its connection");
    }

    /// A first attempt whose first block is longer than the declared
    /// length aborts with nothing verified and no frame kept, so a correct
    /// retry completes sealed and its GET returns the declared bytes.
    #[test]
    fn a_retry_after_an_overrun_seals_and_serves_the_declared_bytes() {
        let server = start();
        let addr = server.local_addr();
        let data = body(4096);
        let declared = 3000;
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(IO)).unwrap();
        let req = Request::Put { tenant: "t".into(), transfer_id: 1, total_len: declared };
        write_request(&mut sock, &req).unwrap();
        assert!(matches!(read_response(&mut sock).unwrap(), Response::Accept { .. }));
        let _ = sock.write_all(&frames_of(&data));
        // An overflow abort: the connection ends with no receipt.
        let mut back = Vec::new();
        let _ = sock.read_to_end(&mut back);
        assert!(back.is_empty(), "{} bytes after an overflow", back.len());
        wait_for("the aborted stream to be reaped", || server.active() == 0);
        assert_eq!(server.verified_len("t", 1), Some(0));

        let opts = PutOptions { tenant: "t".into(), transfer_id: 1, ..Default::default() };
        let want = &data[..declared as usize];
        assert_eq!(put(addr, want, &opts).unwrap().crc, crc32(want));
        assert!(server.is_sealed("t", 1));
        assert_eq!(get(addr, "t", 1, 0, u64::MAX, IO).unwrap(), want);
        let s = server.shutdown();
        assert_eq!((s.aborts, s.completed, s.shed), (1, 1, 0));
    }

    /// A started server holding `data` as `t`/1, put at LIGHT in
    /// `block_len` blocks.
    fn sealed_object(data: &[u8], block_len: usize) -> Server {
        let server = start();
        let opts = PutOptions {
            tenant: "t".into(),
            transfer_id: 1,
            block_len,
            level: Some(1),
            ..Default::default()
        };
        put(server.local_addr(), data, &opts).unwrap();
        assert!(server.is_sealed("t", 1));
        server
    }

    /// The reply to a GET of `[offset, offset + len)` of `data` in its
    /// two-frame form: [`write_response`], then [`write_get_payload`].
    fn two_frame_reply(data: &[u8], offset: u64, len: u64) -> Vec<u8> {
        let lo = (offset as usize).min(data.len());
        let slice = &data[lo..(lo + len as usize).min(data.len())];
        let mut want = Vec::new();
        let accept = Response::Accept { start_offset: slice.len() as u64, level_cap: NO_LEVEL_CAP };
        write_response(&mut want, &accept).unwrap();
        write_get_payload(&mut want, slice).unwrap();
        want
    }

    /// A socket that takes at most 1 000 bytes per call, so a reply needs
    /// many `write_vectored` calls and most of them end inside a slice.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = 1000;
            for buf in bufs {
                let n = buf.len().min(room);
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(1000 - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn get_reply_leaves_in_one_write_identical_to_the_two_frame_form() {
        let data = body(300_000);
        let server = sealed_object(&data, 8 * 1024);
        for (offset, len) in [(0u64, 0u64), (5, 1), (8000, 64 * 1024), (299_990, 100)] {
            let mut out = Counting::new(Vec::new());
            handle_get(&server.shared, &mut out, "t", 1, offset, len);
            assert_eq!(out.calls, 1, "reply to ({offset}, {len}) took {} writes", out.calls);
            assert_eq!(out.inner, two_frame_reply(&data, offset, len), "({offset}, {len})");
        }
        server.shutdown();
    }

    /// One GET whose body comes from a cached block, a stored block, a
    /// block decoded for it and the object's short last block, sent whole
    /// and through a socket that takes 1 000 bytes a call.
    #[test]
    fn get_reply_over_a_hit_a_miss_and_a_partial_tail_is_the_two_frame_form() {
        // 8 KiB blocks: block 33 (runs) starts at 270 336, block 34
        // (text) at 278 528, block 35 (noise, stored) at 286 720 and the
        // last (block 36, 2 730 bytes of runs) at 294 912.
        let data = mixed_body(8 * 1024, 36);
        let server = sealed_object(&data, 8 * 1024);
        let codecs = {
            let state = server.shared.lock();
            let sealed = state.transfers[&("t".to_string(), 1)].sealed.clone().unwrap();
            sealed.index.entries[33..37].iter().map(|e| e.codec).collect::<Vec<_>>()
        };
        assert_eq!(codecs[2], CodecId::Raw, "{codecs:?}");
        assert!(![0, 1, 3].iter().any(|&k| codecs[k] == CodecId::Raw), "{codecs:?}");
        let (offset, len) = (33 * 8192 + 100, 30_000);
        // Warm block 33 through its end: the share the GET below needs.
        let mut warm = Vec::new();
        handle_get(&server.shared, &mut warm, "t", 1, offset, 8192 - 100);
        let before = server.cache_stats();
        let mut out = Counting::new(Vec::new());
        handle_get(&server.shared, &mut out, "t", 1, offset, len);
        let after = server.cache_stats();
        // The stored block is neither a hit nor a miss.
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 2));
        assert_eq!(out.calls, 1);
        assert_eq!(out.inner, two_frame_reply(&data, offset, len));

        let mut slow = Trickle { out: Vec::new(), calls: 0 };
        assert!(handle_get(&server.shared, &mut slow, "t", 1, offset, len));
        assert_eq!(slow.calls, out.inner.len().div_ceil(1000));
        assert_eq!(slow.out, out.inner);
        server.shutdown();
    }

    #[test]
    fn empty_and_past_the_end_gets_reply_with_an_empty_body() {
        let data = body(10_000);
        let server = sealed_object(&data, 4 * 1024);
        for (offset, len) in [(0, 0), (9_999, 0), (10_000, 5), (1 << 40, 64 * 1024)] {
            let mut out = Counting::new(Vec::new());
            assert!(handle_get(&server.shared, &mut out, "t", 1, offset, len));
            assert_eq!(out.calls, 1);
            assert_eq!(out.inner, two_frame_reply(&data, offset, len), "({offset}, {len})");
            assert_eq!(get(server.local_addr(), "t", 1, offset, len, IO).unwrap(), b"");
        }
        server.shutdown();
    }

    /// A whole GET of an object in more 1 KiB blocks than one `writev`
    /// takes (IOV_MAX, 1 024 on Linux): the reply still leaves whole.
    #[test]
    fn get_reply_with_more_parts_than_iov_max_is_the_two_frame_form() {
        let data = body(1100 * 1024 + 300);
        let server = sealed_object(&data, 1024);
        let blocks = {
            let state = server.shared.lock();
            let sealed = state.transfers[&("t".to_string(), 1)].sealed.clone().unwrap();
            sealed.index.entries.iter().filter(|e| e.uncompressed_len > 0).count()
        };
        assert_eq!(blocks, 1101);
        let len = data.len() as u64;
        let mut out = Vec::new();
        assert!(handle_get(&server.shared, &mut out, "t", 1, 0, len));
        assert_eq!(out, two_frame_reply(&data, 0, len));
        // Over a socket: a cold pass, then a hot one.
        assert_eq!(get(server.local_addr(), "t", 1, 0, len, IO).unwrap(), data);
        assert_eq!(get(server.local_addr(), "t", 1, 0, len, IO).unwrap(), data);
        server.shutdown();
    }

    /// `blocks` blocks of `block_len` bytes rotating runs, text and noise
    /// (stored COLUMNAR, HUFF and RAW under the portfolio), then a tail of
    /// a third of a block.
    fn mixed_body(block_len: usize, blocks: usize) -> Vec<u8> {
        let text = b"ranged reads decode a block only as far as the range reaches. ";
        let mut x = 0x2545_F491u32;
        let mut data = Vec::new();
        for b in 0..=blocks {
            let n = if b == blocks { block_len / 3 } else { block_len };
            match b % 3 {
                0 => data.extend((0..n).map(|i| (b + i / 700) as u8 % 4)),
                1 => data.extend(text.iter().copied().cycle().skip(b).take(n)),
                _ => data.extend((0..n).map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x >> 24) as u8
                })),
            }
        }
        data
    }

    /// The codecs the sealed blocks of `t`/`id` are stored with.
    fn stored_codecs(server: &Server, id: u64) -> HashSet<CodecId> {
        let state = server.shared.lock();
        let sealed = state.transfers[&("t".to_string(), id)].sealed.clone().unwrap();
        sealed.index.entries.iter().map(|e| e.codec).collect()
    }

    /// The blocks of `t`/1 mixed_body's noise stores raw, as application
    /// byte ranges.
    fn stored_blocks(server: &Server) -> Vec<Range<u64>> {
        let state = server.shared.lock();
        let sealed = state.transfers[&("t".to_string(), 1)].sealed.clone().unwrap();
        let stored = sealed.index.entries.iter().filter(|e| e.codec == CodecId::Raw);
        stored.map(|e| e.uncompressed_offset..e.uncompressed_offset + u64::from(e.uncompressed_len))
            .collect()
    }

    /// GETs covering only stored blocks, cold and again, leave every
    /// cache counter where it was: a stored block is a slice of the wire.
    #[test]
    fn gets_of_stored_blocks_leave_the_cache_alone() {
        let data = mixed_body(8 * 1024, 12);
        let server = sealed_object(&data, 8 * 1024);
        let stored = stored_blocks(&server);
        assert_eq!(stored.len(), 4, "{stored:?}");
        let before = server.cache_stats();
        for b in &stored {
            for (offset, len) in [(b.start, b.end - b.start), (b.start + 5, 100), (b.end - 1, 1)] {
                for _ in 0..2 {
                    let got = get(server.local_addr(), "t", 1, offset, len, IO).unwrap();
                    assert_eq!(got, &data[offset as usize..(offset + len) as usize]);
                }
            }
        }
        assert_eq!(server.cache_stats(), before);
        server.shutdown();
    }

    /// One payload byte of a stored block flipped in the sealed wire: a GET
    /// covering that block is a typed reject counted in `shed`, and a GET
    /// of a compressed block of the same object is still its source slice.
    #[test]
    fn a_flipped_byte_in_a_stored_block_is_refused_and_spares_the_rest() {
        let data = mixed_body(8 * 1024, 6);
        let server = sealed_object(&data, 8 * 1024);
        let stored = stored_blocks(&server)[0].clone();
        {
            let mut state = server.shared.lock();
            let t = state.transfers.get_mut(&("t".to_string(), 1)).unwrap();
            let sealed = t.sealed.take().unwrap();
            let e = sealed.index.entries.iter().find(|e| e.codec == CodecId::Raw).unwrap();
            let mut wire = sealed.wire.to_vec();
            wire[e.frame_offset as usize + HEADER_LEN + 7] ^= 0x10;
            t.sealed = Some(Arc::new(SealedObject::new(wire, sealed.index.clone())));
        }
        let addr = server.local_addr();
        for (offset, len) in [(stored.start, 100), (stored.start - 10, 20), (0, data.len() as u64)]
        {
            let err = get(addr, "t", 1, offset, len, IO).unwrap_err();
            assert!(err.to_string().contains("bad_request"), "({offset}, {len}): {err}");
        }
        assert_eq!(server.stats().shed, 3);
        let (offset, len) = (stored.start - 8192 + 3, 8000);
        let got = get(addr, "t", 1, offset, len, IO).unwrap();
        assert_eq!(got, &data[offset as usize..(offset + len) as usize]);
        server.shutdown();
    }

    /// One payload byte of a compressed block flipped in the sealed wire: a
    /// whole GET is a typed reject before any byte, counted in `shed`, and
    /// a ranged GET of another block of the same object is still its
    /// source slice.
    #[test]
    fn a_flipped_byte_in_a_compressed_block_refuses_a_whole_get_before_any_byte() {
        let data = mixed_body(8 * 1024, 6);
        let server = sealed_object(&data, 8 * 1024);
        // The last compressed block: a reply that checked frames only as
        // it reached them would have sent most of the body by then.
        let hurt = {
            let mut state = server.shared.lock();
            let t = state.transfers.get_mut(&("t".to_string(), 1)).unwrap();
            let sealed = t.sealed.take().unwrap();
            let e = *sealed.index.entries.iter().rev().find(|e| e.codec != CodecId::Raw).unwrap();
            let mut wire = sealed.wire.to_vec();
            wire[e.frame_offset as usize + HEADER_LEN + e.frame_len as usize / 2] ^= 0x10;
            t.sealed = Some(Arc::new(SealedObject::new(wire, sealed.index.clone())));
            e
        };
        assert!(hurt.uncompressed_offset > 4 * 8192, "{hurt:?}");
        let len = data.len() as u64;
        let mut out = Vec::new();
        assert!(!handle_get(&server.shared, &mut out, "t", 1, 0, len));
        let mut refused = Vec::new();
        write_response(&mut refused, &Response::Reject { reason: RejectReason::BadRequest })
            .unwrap();
        assert_eq!(out, refused, "a whole GET of a damaged object sent bytes before refusing");
        let addr = server.local_addr();
        let err = get(addr, "t", 1, 0, len, IO).unwrap_err();
        assert!(err.to_string().contains("bad_request"), "{err}");
        assert_eq!(server.stats().shed, 2);
        let (offset, len) = (8192 + 3, 8000);
        let got = get(addr, "t", 1, offset, len, IO).unwrap();
        assert_eq!(got, &data[offset as usize..(offset + len) as usize]);
        server.shutdown();
    }

    /// Over a socket, objects stored at LIGHT, at MEDIUM and through the
    /// portfolio: a first read of each block ends at its first byte,
    /// mid-block, one byte short of its end, at its end or one byte into
    /// the next block, so every codec decodes prefixes of every such
    /// length; then a longer range over the same block, a range to the
    /// object's end and the whole object. Every reply is its source slice.
    #[test]
    fn ranged_gets_ending_anywhere_in_a_block_are_the_source_slice() {
        let bl = 8 * 1024;
        let data = mixed_body(bl, 30);
        let end = data.len() as u64;
        let server = start();
        for (id, level, portfolio) in [(1, 1, false), (2, 2, false), (3, 2, true)] {
            let opts = PutOptions {
                tenant: "t".into(),
                transfer_id: id,
                block_len: bl,
                level: Some(level),
                portfolio,
                ..Default::default()
            };
            put(server.local_addr(), &data, &opts).unwrap();
        }
        let portfolio = stored_codecs(&server, 3);
        assert!(portfolio.contains(&CodecId::Huffman), "{portfolio:?}");
        assert!(portfolio.contains(&CodecId::Columnar), "{portfolio:?}");
        let slice = |offset: u64, len: u64| {
            let lo = offset.min(end) as usize;
            data[lo..(offset + len).min(end) as usize].to_vec()
        };
        let ends = [1, bl / 2, bl - 1, bl, bl + 1];
        for id in 1..=3 {
            for b in 0..data.len().div_ceil(bl) {
                let start = (b * bl) as u64;
                let first = ends[b % ends.len()] as u64;
                for (offset, len) in [(start, first), (start, 2 * bl as u64), (start + 7, end)] {
                    let got = get(server.local_addr(), "t", id, offset, len, IO).unwrap();
                    assert_eq!(got, slice(offset, len), "object {id} ({offset}, {len})");
                }
            }
            assert_eq!(get(server.local_addr(), "t", id, 0, end, IO).unwrap(), data);
        }
        server.shutdown();
    }

    /// A block first read short is a miss the second time a longer share
    /// of it is asked for, and a hit after that.
    #[test]
    fn a_longer_read_of_a_block_first_read_short_misses_then_hits() {
        let data = body(100_000);
        let server = sealed_object(&data, 8 * 1024);
        let (offset, len) = (3 * 8192 + 10, 20);
        let before = server.cache_stats();
        for (n, reach) in [(1, len), (2, 100), (3, 100), (4, 8192 - 10)] {
            let mut out = Vec::new();
            assert!(handle_get(&server.shared, &mut out, "t", 1, offset, reach));
            assert_eq!(out, two_frame_reply(&data, offset, reach), "read {n}");
        }
        let after = server.cache_stats();
        // Miss (prefix), miss (short: decoded whole), hit, hit.
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (2, 2));
        assert_eq!(after.resident_bytes - before.resident_bytes, 8192);
        server.shutdown();
    }

    /// Every cache shard poisoned, as a handler panicking under its lock
    /// would leave it: GETs are still served, from the source's bytes.
    #[test]
    fn gets_through_poisoned_cache_shards_are_the_source_slice() {
        let data = body(200_000);
        let server = sealed_object(&data, 8 * 1024);
        let addr = server.local_addr();
        assert_eq!(get(addr, "t", 1, 0, 200_000, IO).unwrap(), data);
        server.shared.cache.poison_shards();
        for (offset, len) in [(0u64, 200_000u64), (5, 1), (8000, 64 * 1024), (150_000, 50_000)] {
            let want = &data[offset as usize..(offset + len) as usize];
            assert_eq!(get(addr, "t", 1, offset, len, IO).unwrap(), want, "({offset}, {len})");
        }
        assert_eq!(get(addr, "t", 1, 0, 200_000, IO).unwrap(), data);
        // What the cleared shards held left the count with them.
        let s = server.cache_stats();
        assert!(s.resident_bytes <= data.len() as u64, "{s:?}");
        server.shutdown();
    }

    /// The state lock poisoned by a thread that panicked holding it: a PUT
    /// and a ranged GET on the same server still succeed.
    #[test]
    fn puts_and_gets_succeed_past_a_poisoned_state_lock() {
        let server = start();
        let addr = server.local_addr();
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                let _held = server.shared.state.lock();
                panic!("poisoning the state lock");
            });
            assert!(died.join().is_err());
        });
        assert!(server.shared.state.is_poisoned());
        let data = body(50_000);
        let opts = PutOptions { tenant: "t".into(), transfer_id: 1, ..Default::default() };
        assert_eq!(put(addr, &data, &opts).unwrap().crc, crc32(&data));
        assert_eq!(get(addr, "t", 1, 10_000, 5_000, IO).unwrap(), &data[10_000..15_000]);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
    }
}
