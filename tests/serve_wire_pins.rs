//! The bytes of a single-request `serve` exchange, pinned in both
//! directions: a PUT (LIGHT, three 8 KiB blocks), a PUT resumed from a
//! verified prefix, a ranged GET inside the object and one past its end.
//! A recording relay in front of the daemon captures what each `put` /
//! `get` call puts on the wire; the table holds the length and a hash of
//! each direction.
//!
//! Whether the client reuses a connection or opens a fresh one, and
//! whether either side half-closes afterwards, moves no byte: a FIN
//! carries none. A change to this table is a wire-protocol change.

use adcomp::codecs::LevelSet;
use adcomp::core::model::StaticModel;
use adcomp::core::stream::AdaptiveWriter;
use adcomp::core::WallClock;
use adcomp::serve::{get, proto, put, PutOptions, Request, Response, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BLOCK: usize = 8 * 1024;
const LIGHT: usize = 1;
const IO: Duration = Duration::from_secs(5);

/// Length and FNV-1a hash of what went one way.
type Side = (usize, u64);

/// `(exchange, client → server, server → client)`.
const PINS: [(&str, Side, Side); 4] = [
    ("put", (12149, 1326825744675299938), (31, 8951563999987181951)),
    ("resumed put", (8121, 10191018274882307230), (31, 16029799265141841836)),
    ("ranged get", (38, 12477295570601264628), (8210, 15175918189757644427)),
    ("get past the end", (38, 16412232311713376325), (18, 13610812987196263168)),
];

/// What a relay has forwarded so far, per direction.
#[derive(Default)]
struct Recorded {
    up: Vec<u8>,
    down: Vec<u8>,
}

/// A loopback relay that records every byte it forwards, across all the
/// connections it relays. Dropping it stops and joins its threads.
struct Tap {
    addr: SocketAddr,
    recorded: Arc<Mutex<Recorded>>,
    stop: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: Option<JoinHandle<()>>,
}

impl Tap {
    fn start(upstream: SocketAddr) -> Tap {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let recorded: Arc<Mutex<Recorded>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (rec, halt, pumps) = (
            Arc::clone(&recorded),
            Arc::clone(&stop),
            Arc::clone(&threads),
        );
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if halt.load(Ordering::Acquire) {
                    break;
                }
                let client = conn.unwrap();
                let server = TcpStream::connect(upstream).unwrap();
                for (from, to, up) in [
                    (
                        client.try_clone().unwrap(),
                        server.try_clone().unwrap(),
                        true,
                    ),
                    (server, client, false),
                ] {
                    let (rec, halt) = (Arc::clone(&rec), Arc::clone(&halt));
                    let pump = std::thread::spawn(move || relay(from, to, up, &rec, &halt));
                    pumps.lock().unwrap().push(pump);
                }
            }
        });
        Tap {
            addr,
            recorded,
            stop,
            threads,
            accept: Some(accept),
        }
    }

    /// Everything forwarded since the last call, per direction.
    fn take(&self) -> Recorded {
        std::mem::take(&mut *self.recorded.lock().unwrap())
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().unwrap();
        }
        for pump in std::mem::take(&mut *self.threads.lock().unwrap()) {
            pump.join().unwrap();
        }
    }
}

/// Forwards `from` → `to`, recording each chunk before it leaves, so a
/// reply the client has read is always recorded in full. An EOF is
/// passed on as a half-close.
fn relay(
    mut from: TcpStream,
    mut to: TcpStream,
    up: bool,
    rec: &Mutex<Recorded>,
    stop: &AtomicBool,
) {
    from.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::Acquire) {
        let n = match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        {
            let mut rec = rec.lock().unwrap();
            let side = if up { &mut rec.up } else { &mut rec.down };
            side.extend_from_slice(&buf[..n]);
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// FNV-1a, 64 bits. Not CRC-32: every control frame ends in the CRC-32
/// of its own bytes, and the CRC-32 of such a message is one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Text-like bytes: words drawn by a fixed LCG, so the blocks compress
/// but not to nothing.
fn source() -> Vec<u8> {
    const WORDS: [&[u8]; 8] = [
        b"frame ", b"stream ", b"level ", b"ratio ", b"block ", b"epoch ", b"the ", b"wire ",
    ];
    let mut state = 0x2545_f491u32;
    let mut out = Vec::with_capacity(3 * BLOCK + 8);
    while out.len() < 3 * BLOCK {
        state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        out.extend_from_slice(WORDS[(state >> 16) as usize % WORDS.len()]);
        out.push(b'a' + (state >> 24) as u8 % 26);
    }
    out.truncate(3 * BLOCK);
    out
}

/// The first frame of the LIGHT stream of `data` in `BLOCK`-sized blocks.
fn first_frame(data: &[u8]) -> Vec<u8> {
    let levels = LevelSet::paper_default();
    let n = levels.len();
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        levels,
        Box::new(StaticModel::new(LIGHT, n)),
        BLOCK,
        2.0,
        Box::new(WallClock::new()),
    );
    w.write_all(data).unwrap();
    let (wire, _) = w.finish().unwrap();
    let payload = u32::from_le_bytes(wire[8..12].try_into().unwrap()) as usize;
    wire[..16 + payload].to_vec()
}

/// A first attempt at transfer `pin`/2, straight to the daemon: the
/// request, the first block's frame, then a close. Returns once the
/// daemon has kept that block as the verified prefix.
fn cut_after_one_block(server: &Server, data: &[u8]) {
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let req = Request::Put {
        tenant: "pin".into(),
        transfer_id: 2,
        total_len: data.len() as u64,
    };
    proto::write_request(&mut sock, &req).unwrap();
    assert_eq!(
        proto::read_response(&mut sock).unwrap(),
        Response::Accept {
            start_offset: 0,
            level_cap: proto::NO_LEVEL_CAP
        }
    );
    sock.write_all(&first_frame(data)).unwrap();
    drop(sock);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active() > 0 {
        assert!(Instant::now() < deadline, "the cut stream was never reaped");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn single_request_exchanges_keep_their_bytes() {
    let server = Server::start(ServeConfig {
        io_timeout: IO,
        ..ServeConfig::default()
    })
    .unwrap();
    let tap = Tap::start(server.local_addr());
    let data = source();
    let opts = |transfer_id| PutOptions {
        tenant: "pin".into(),
        transfer_id,
        level: Some(LIGHT),
        block_len: BLOCK,
        io_timeout: IO,
        ..PutOptions::default()
    };
    let mut seen = Vec::new();
    let mut record = |name: &str| {
        let r = tap.take();
        seen.push((
            name.to_string(),
            (r.up.len(), fnv1a(&r.up)),
            (r.down.len(), fnv1a(&r.down)),
        ));
    };

    let report = put(tap.addr, &data, &opts(1)).unwrap();
    assert_eq!((report.attempts, report.resumed), (1, false));
    record("put");

    cut_after_one_block(&server, &data);
    let report = put(tap.addr, &data, &opts(2)).unwrap();
    assert_eq!((report.attempts, report.resumed), (1, true));
    record("resumed put");

    assert_eq!(
        get(tap.addr, "pin", 1, 4096, 8192, IO).unwrap(),
        &data[4096..12288]
    );
    record("ranged get");

    assert!(get(tap.addr, "pin", 1, 30_000, 10, IO).unwrap().is_empty());
    record("get past the end");

    drop(tap);
    server.shutdown();
    let table: Vec<String> = seen
        .iter()
        .map(|(n, u, d)| format!("(\"{n}\", {u:?}, {d:?}),"))
        .collect();
    for ((name, up, down), pin) in seen.iter().zip(PINS) {
        assert_eq!(
            (name.as_str(), *up, *down),
            pin,
            "the wire moved; observed:\n{}",
            table.join("\n")
        );
    }
}
