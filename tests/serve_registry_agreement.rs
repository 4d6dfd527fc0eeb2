//! **The daemon's two records agree.** Every daemon event bumps its
//! `ServeStats` field and its registry family through one call, so after a
//! completed PUT, a resumed PUT, a `too_large` shed, an idle timeout, a
//! damaged-frame abort and an abort by a stopping server, each family's
//! registry delta equals the matching `ServeStats` field, and the
//! `adcomp_serve_shed_total{reason}` labels sum to `shed`.
//!
//! The registry is process-wide, so this lives in its own test binary with
//! a single `#[test]`.

use adcomp::codecs::frame::encode_block;
use adcomp::codecs::{codec_for, CodecId};
use adcomp::metrics::registry::{self, CounterKind, LabelFamily, RegistryMode, RegistrySnapshot};
use adcomp::serve::{
    proto, put, PutOptions, RejectReason, Request, Response, ServeConfig, Server,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A PUT request of `t`/`id` for `total_len` bytes and the daemon's answer.
fn put_request(addr: SocketAddr, id: u64, total_len: u64) -> (TcpStream, Response) {
    let mut sock = TcpStream::connect(addr).unwrap();
    let req = Request::Put { tenant: "t".into(), transfer_id: id, total_len };
    proto::write_request(&mut sock, &req).unwrap();
    let resp = proto::read_response(&mut sock).unwrap();
    (sock, resp)
}

/// A PUT of `t`/`id` for `total_len` bytes, accepted; the socket is left
/// for the caller to feed.
fn accepted_put(addr: SocketAddr, id: u64, total_len: u64) -> TcpStream {
    let (sock, resp) = put_request(addr, id, total_len);
    assert!(matches!(resp, Response::Accept { .. }), "{resp:?}");
    sock
}

fn wait_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active() > 0 {
        assert!(Instant::now() < deadline, "a stream was never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn serve_stats_and_registry_count_the_same_events() {
    let reg = registry::install(RegistryMode::Wall);
    let before = reg.snapshot();
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let data: Vec<u8> = (0..6 * 4096).map(|i| (i / 3) as u8 ^ (i as u8).rotate_left(3)).collect();
    let total = data.len() as u64;
    // One LIGHT frame per 4 KiB block.
    let frames: Vec<Vec<u8>> = data
        .chunks(4096)
        .map(|block| {
            let mut frame = Vec::new();
            encode_block(codec_for(CodecId::QlzLight), block, &mut frame);
            frame
        })
        .collect();
    let opts = |id| PutOptions { tenant: "t".into(), transfer_id: id, ..Default::default() };

    // A completed PUT.
    put(addr, &data, &opts(1)).unwrap();
    // A resumed PUT: two frames, a clean close, then the client finishes it.
    accepted_put(addr, 2, total).write_all(&frames[..2].concat()).unwrap();
    wait_idle(&server);
    assert!(put(addr, &data, &opts(2)).unwrap().resumed);
    // A `too_large` shed: a PUT declaring more than the daemon takes.
    let reason = RejectReason::TooLarge;
    assert_eq!(put_request(addr, 3, u64::MAX).1, Response::Reject { reason });
    // An idle timeout.
    let _silent = accepted_put(addr, 4, total);
    wait_idle(&server);
    // A damaged-frame abort: a payload byte of the third frame flipped.
    let mut hurt = frames.concat();
    hurt[frames[0].len() + frames[1].len() + 20] ^= 1;
    let mut damaged = accepted_put(addr, 5, total);
    let _ = damaged.write_all(&hurt);
    let _ = damaged.read_to_end(&mut Vec::new());
    wait_idle(&server);

    // An abort by a stopping server: a stream with one frame sent and a
    // kept-alive connection idle beside it. Shutdown closes the idle one
    // first, so its EOF says the stop is set; the stream's next frame then
    // reaches a handler that must give up.
    let mut stopped = accepted_put(addr, 6, total);
    stopped.write_all(&frames[0]).unwrap();
    let mut idle = TcpStream::connect(addr).unwrap();
    let req = Request::Get { tenant: "t".into(), transfer_id: 1, offset: 0, len: 10 };
    proto::write_request(&mut idle, &req).unwrap();
    assert!(matches!(proto::read_response(&mut idle).unwrap(), Response::Accept { .. }));
    proto::read_get_payload(&mut idle, 10).unwrap();
    let stopper = std::thread::spawn(move || server.shutdown());
    assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0);
    // The handler may have given up before this frame and closed.
    let _ = stopped.write_all(&frames[1]);
    let stats = stopper.join().unwrap();

    let after = reg.snapshot();
    let delta = |kind| {
        let of = |s: &RegistrySnapshot| s.counters.iter().find(|(k, _)| *k == kind).unwrap().1;
        of(&after) - of(&before)
    };
    let shed = |s: &RegistrySnapshot| -> u64 {
        let family = s.labeled.iter().find(|(f, _)| *f == LabelFamily::ShedReason).unwrap();
        family.1.iter().map(|(_, n)| n).sum()
    };
    let events = (stats.completed, stats.resumed, stats.shed, stats.timeouts, stats.aborts);
    assert_eq!(events, (2, 1, 1, 1, 2), "{stats:?}");
    assert_eq!(delta(CounterKind::ServeAccepted), stats.accepted);
    assert_eq!(delta(CounterKind::ServeCompleted), stats.completed);
    assert_eq!(delta(CounterKind::ServeResumes), stats.resumed);
    assert_eq!(delta(CounterKind::ServeTimeouts), stats.timeouts);
    assert_eq!(delta(CounterKind::ServeAborts), stats.aborts);
    assert_eq!(delta(CounterKind::ServeDrainedTransfers), stats.drained_transfers);
    assert_eq!(shed(&after) - shed(&before), stats.shed);
}
