//! Socket-level fault injection: [`ChaosProxy`], a TCP proxy that sits
//! between a client and an upstream server on loopback and injects wire
//! faults — byte corruption, stalls, partial writes followed by an abrupt
//! close, and connection resets — according to a seeded [`NetFaultSpec`].
//!
//! The decision stream ([`NetPlan`]) is a pure function of
//! `(seed, connection index, direction, chunk index)`, so a fixed seed pins
//! *which* faults each connection suffers even though chunk boundaries on a
//! real socket depend on kernel timing. That is the same contract the
//! in-process fault plan gives the chaos soak: reproducible hostility, not
//! reproducible byte timing.
//!
//! `std::net` only, blocking accept with a stop-flag + self-connect wake —
//! the same shape as the `/metrics` server, one thread per pump direction.

use adcomp_corpus::Prng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Read slice for the pump loops; also the fault granularity ("chunk").
const PUMP_BUF: usize = 16 * 1024;
/// Pump read timeout: how often a pump re-checks the stop flag.
const PUMP_TICK: Duration = Duration::from_millis(50);

/// Declarative description of a hostile wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultSpec {
    /// Master seed; per-connection and per-direction streams derive from it.
    pub seed: u64,
    /// Probability that a forwarded chunk gets a single bit flip.
    pub corrupt_rate: f64,
    /// Probability that a chunk is delivered only as a prefix, after which
    /// the connection is torn down (partial write + reset).
    pub partial_rate: f64,
    /// Probability that a chunk is delayed before forwarding.
    pub stall_rate: f64,
    /// Probability that the connection is abruptly closed instead of
    /// forwarding the chunk (reset-like: the peer sees EOF/ECONNRESET).
    pub close_rate: f64,
    /// Upper bound on a single injected stall, milliseconds.
    pub max_stall_ms: u64,
}

impl NetFaultSpec {
    /// One-knob form: `rate` split across the wire-fault taxonomy, stalls
    /// kept short so soak wall-clock stays bounded.
    pub fn from_rate(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        NetFaultSpec {
            seed,
            corrupt_rate: rate * 0.4,
            partial_rate: rate * 0.2,
            stall_rate: rate * 0.3,
            close_rate: rate * 0.1,
            max_stall_ms: 40,
        }
    }
}

/// What happens to one forwarded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetAction {
    /// Forwarded untouched.
    Pass,
    /// One bit flipped at `(byte % len, bit)` before forwarding.
    Corrupt { byte: u64, bit: u8 },
    /// Only `keep_permille`/1000 of the chunk is forwarded, then the
    /// connection is abruptly closed.
    Partial { keep_permille: u16 },
    /// Forwarding is delayed by `ms` milliseconds.
    Stall { ms: u64 },
    /// The connection is abruptly closed without forwarding.
    Close,
}

/// Deterministic per-direction decision stream: a pure function of
/// `(seed, connection index, direction, chunk index)`.
#[derive(Debug, Clone)]
pub struct NetPlan {
    spec: NetFaultSpec,
    rng: Prng,
}

/// Pump direction, used as a sub-stream salt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → upstream.
    Up,
    /// Upstream → client.
    Down,
}

impl NetPlan {
    pub fn new(spec: NetFaultSpec, conn: u64, dir: Direction) -> Self {
        let salt = match dir {
            Direction::Up => 0xC0A5_7EE7_0000_0001u64,
            Direction::Down => 0xC0A5_7EE7_0000_0002,
        };
        NetPlan { spec, rng: Prng::new(spec.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt) }
    }

    /// Decides the fate of the next chunk of `len` bytes. Every branch
    /// burns the same number of draws, so the schedule for chunk *n* does
    /// not depend on which actions earlier chunks took.
    pub fn next(&mut self, len: usize) -> NetAction {
        let u = self.rng.next_f64();
        let aux = self.rng.next_u64();
        let bit = (self.rng.next_u32() % 8) as u8;
        let s = self.spec;
        if len == 0 {
            return NetAction::Pass;
        }
        if u < s.corrupt_rate {
            NetAction::Corrupt { byte: aux, bit }
        } else if u < s.corrupt_rate + s.partial_rate {
            NetAction::Partial { keep_permille: (aux % 1000) as u16 }
        } else if u < s.corrupt_rate + s.partial_rate + s.stall_rate {
            NetAction::Stall { ms: if s.max_stall_ms == 0 { 0 } else { aux % (s.max_stall_ms + 1) } }
        } else if u < s.corrupt_rate + s.partial_rate + s.stall_rate + s.close_rate {
            NetAction::Close
        } else {
            NetAction::Pass
        }
    }
}

/// What the proxy actually did, summed over all connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    pub conns: u64,
    pub chunks: u64,
    pub bytes_up: u64,
    pub bytes_down: u64,
    pub corrupts: u64,
    pub partials: u64,
    pub stalls: u64,
    pub closes: u64,
}

/// A running fault-injecting TCP proxy in front of `upstream`. Dropping
/// (or [`ChaosProxy::shutdown`]) stops the accept loop, tears down every
/// live connection and joins all pump threads.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stats: Arc<Mutex<ProxyStats>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and relays every accepted connection to
    /// `upstream`, injecting faults per `spec`.
    pub fn start(upstream: SocketAddr, spec: NetFaultSpec) -> std::io::Result<ChaosProxy> {
        ChaosProxy::start_on("127.0.0.1:0", upstream, spec)
    }

    /// Like [`ChaosProxy::start`] but on an explicit listen address —
    /// e.g. a fixed port for a CI smoke pipeline.
    pub fn start_on(
        listen: &str,
        upstream: SocketAddr,
        spec: NetFaultSpec,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let stats = Arc::new(Mutex::new(ProxyStats::default()));
        let (stop_flag, pumps_acc, stats_acc) =
            (Arc::clone(&stop), Arc::clone(&pumps), Arc::clone(&stats));
        let accept = std::thread::Builder::new().name("adcomp-chaos-accept".into()).spawn(
            move || {
                let conn_idx = AtomicU64::new(0);
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    let Ok(server) = TcpStream::connect(upstream) else {
                        // Upstream gone: drop the client; it will retry.
                        continue;
                    };
                    let idx = conn_idx.fetch_add(1, Ordering::Relaxed);
                    stats_acc.lock().expect("proxy stats poisoned").conns += 1;
                    let pair = [
                        (client.try_clone(), server.try_clone(), Direction::Up),
                        (server.try_clone(), client.try_clone(), Direction::Down),
                    ];
                    for (from, to, dir) in pair {
                        let (Ok(from), Ok(to)) = (from, to) else { continue };
                        let plan = NetPlan::new(spec, idx, dir);
                        let (stop, stats) = (Arc::clone(&stop_flag), Arc::clone(&stats_acc));
                        let name = format!("adcomp-chaos-pump-{idx}");
                        if let Ok(h) = std::thread::Builder::new()
                            .name(name)
                            .spawn(move || pump(from, to, plan, dir, &stop, &stats))
                        {
                            pumps_acc.lock().expect("proxy pumps poisoned").push(h);
                        }
                    }
                }
            },
        )?;
        Ok(ChaosProxy { local_addr, stop, accept: Some(accept), pumps, stats })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of what the proxy has injected so far.
    pub fn stats(&self) -> ProxyStats {
        *self.stats.lock().expect("proxy stats poisoned")
    }

    /// Stops accepting, tears down live connections and joins all threads.
    pub fn shutdown(mut self) -> ProxyStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Pumps notice the flag at their next read tick and exit.
        let handles = std::mem::take(&mut *self.pumps.lock().expect("proxy pumps poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One pump direction: reads chunks from `from`, applies the plan, writes
/// to `to`. Exits on EOF (forwarding the half-close), on an injected
/// close, on any hard I/O error, or when the stop flag is raised.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut plan: NetPlan,
    dir: Direction,
    stop: &AtomicBool,
    stats: &Mutex<ProxyStats>,
) {
    let _ = from.set_read_timeout(Some(PUMP_TICK));
    let mut buf = [0u8; PUMP_BUF];
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Forward the half-close; the sibling pump keeps relaying
                // the other direction until it too sees EOF.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let action = plan.next(n);
        {
            let mut s = stats.lock().expect("proxy stats poisoned");
            s.chunks += 1;
            match dir {
                Direction::Up => s.bytes_up += n as u64,
                Direction::Down => s.bytes_down += n as u64,
            }
            match action {
                NetAction::Corrupt { .. } => s.corrupts += 1,
                NetAction::Partial { .. } => s.partials += 1,
                NetAction::Stall { .. } => s.stalls += 1,
                NetAction::Close => s.closes += 1,
                NetAction::Pass => {}
            }
        }
        let ok = match action {
            NetAction::Pass => to.write_all(&buf[..n]).is_ok(),
            NetAction::Corrupt { byte, bit } => {
                buf[(byte % n as u64) as usize] ^= 1 << bit;
                to.write_all(&buf[..n]).is_ok()
            }
            NetAction::Partial { keep_permille } => {
                let keep = (n * keep_permille as usize) / 1000;
                let _ = to.write_all(&buf[..keep]);
                break; // partial write, then reset
            }
            NetAction::Stall { ms } => {
                // Sleep in ticks so shutdown stays responsive.
                let mut left = ms;
                while left > 0 && !stop.load(Ordering::Acquire) {
                    let step = left.min(PUMP_TICK.as_millis() as u64);
                    std::thread::sleep(Duration::from_millis(step));
                    left -= step;
                }
                to.write_all(&buf[..n]).is_ok()
            }
            NetAction::Close => break,
        };
        if !ok {
            break;
        }
    }
    // Abrupt teardown: both peers see the connection die.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throwaway echo server: accepts until dropped, echoes each
    /// connection until EOF, then half-closes back.
    struct EchoServer {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl EchoServer {
        fn start() -> EchoServer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut s) = conn else { continue };
                    std::thread::spawn(move || {
                        let mut buf = [0u8; 4096];
                        while let Ok(n) = s.read(&mut buf) {
                            if n == 0 || s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                        let _ = s.shutdown(Shutdown::Write);
                    });
                }
            });
            EchoServer { addr, stop, thread: Some(thread) }
        }
    }

    impl Drop for EchoServer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(self.addr);
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    #[test]
    fn quiet_proxy_is_transparent() {
        let echo = EchoServer::start();
        let proxy = ChaosProxy::start(echo.addr, NetFaultSpec::from_rate(1, 0.0)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c.write_all(&payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload, "quiet proxy altered bytes");
        let stats = proxy.shutdown();
        assert_eq!(stats.conns, 1);
        assert_eq!((stats.corrupts, stats.partials, stats.stalls, stats.closes), (0, 0, 0, 0));
        assert!(stats.bytes_up >= payload.len() as u64);
    }

    #[test]
    fn close_heavy_proxy_kills_connections() {
        let echo = EchoServer::start();
        let spec = NetFaultSpec {
            seed: 2,
            corrupt_rate: 0.0,
            partial_rate: 0.0,
            stall_rate: 0.0,
            close_rate: 1.0,
            max_stall_ms: 0,
        };
        let proxy = ChaosProxy::start(echo.addr, spec).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = c.write_all(&[7u8; 8192]);
        // The first forwarded chunk triggers Close; the client read must
        // end (EOF or reset), not hang.
        let mut back = Vec::new();
        let _ = c.read_to_end(&mut back);
        assert!(back.is_empty(), "closed connection still echoed data");
        let stats = proxy.shutdown();
        assert!(stats.closes >= 1, "no close was injected: {stats:?}");
    }

    #[test]
    fn corrupting_proxy_flips_bits_but_preserves_length() {
        let echo = EchoServer::start();
        let spec = NetFaultSpec {
            seed: 3,
            corrupt_rate: 1.0,
            partial_rate: 0.0,
            stall_rate: 0.0,
            close_rate: 0.0,
            max_stall_ms: 0,
        };
        let proxy = ChaosProxy::start(echo.addr, spec).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload = vec![0u8; 4096];
        c.write_all(&payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back.len(), payload.len(), "corruption changed length");
        assert_ne!(back, payload, "corrupt-rate-1 proxy delivered clean bytes");
        proxy.shutdown();
    }

    #[test]
    fn plans_are_deterministic_per_connection_and_direction() {
        let spec = NetFaultSpec::from_rate(42, 0.3);
        let mut a = NetPlan::new(spec, 5, Direction::Up);
        let mut b = NetPlan::new(spec, 5, Direction::Up);
        let seq_a: Vec<NetAction> = (0..64).map(|_| a.next(1024)).collect();
        let seq_b: Vec<NetAction> = (0..64).map(|_| b.next(1024)).collect();
        assert_eq!(seq_a, seq_b);
        // A different connection or direction gets a different schedule.
        let mut c = NetPlan::new(spec, 6, Direction::Up);
        let mut d = NetPlan::new(spec, 5, Direction::Down);
        let seq_c: Vec<NetAction> = (0..64).map(|_| c.next(1024)).collect();
        let seq_d: Vec<NetAction> = (0..64).map(|_| d.next(1024)).collect();
        assert_ne!(seq_a, seq_c);
        assert_ne!(seq_a, seq_d);
    }

    #[test]
    fn shutdown_leaves_no_pump_threads() {
        let echo = EchoServer::start();
        let proxy = ChaosProxy::start(echo.addr, NetFaultSpec::from_rate(9, 0.0)).unwrap();
        for _ in 0..4 {
            let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
            c.write_all(b"ping").unwrap();
            c.shutdown(Shutdown::Write).unwrap();
            let mut back = Vec::new();
            c.read_to_end(&mut back).unwrap();
            assert_eq!(back, b"ping");
        }
        // shutdown() joins every pump; if one hung, this would too.
        let stats = proxy.shutdown();
        assert_eq!(stats.conns, 4);
    }
}
