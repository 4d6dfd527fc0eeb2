//! `adcomp serve` — the overload-resilient multi-tenant compression
//! daemon, its client, and the socket-level chaos soak.
//!
//! This module is the network face of the adaptive stream: every PUT
//! decodes its adaptive frame stream through its own
//! [`AdaptiveReader`](adcomp_core::stream::AdaptiveReader), and every
//! robustness mechanism the paper's shared-cloud setting demands —
//! admission control, load shedding, deadlines, graceful drain, and
//! reconnect-with-resume — lives here:
//!
//! * [`proto`] — the tiny length-prefixed handshake (request / verdict /
//!   receipt) around the self-describing frame stream;
//! * [`server`] — [`Server`] / [`ServeConfig`]: one-handler-per-connection
//!   daemon (a connection carries many requests, so all but the first pay
//!   neither a connect nor a thread spawn) with per-tenant quotas, typed
//!   [`RejectReason`] shedding, idle + wall deadlines, a verified-prefix
//!   transfer table whose completed transfers serve ranged GETs from their
//!   stored wire, and drain;
//! * [`client`] — [`put`] / [`PutOptions`]: bounded-retry exponential
//!   backoff uploads that resume from the server's last verified byte,
//!   and [`get`]: CRC-verified ranged reads of completed transfers; both
//!   reuse an idle kept-alive connection when they have one;
//! * [`cache`] — [`BlockCache`]: the sharded, CRC-keyed, byte-budgeted
//!   LRU of decoded blocks behind ranged GETs — a hot block is decoded
//!   once, then served from memory;
//! * [`netsoak`] — the loopback client ↔ [`ChaosProxy`](adcomp_faults::net::ChaosProxy)
//!   ↔ server gauntlet behind `adcomp chaos --net`.

pub mod cache;
pub mod client;
pub mod netsoak;
pub mod proto;
pub mod server;

pub use cache::{BlockCache, CacheStats};
pub use client::{drain, get, put, PutOptions, PutReport};
pub use netsoak::{run_net_soak, NetSoakConfig, NetSoakSummary};
pub use proto::{Done, RejectReason, Request, Response, NO_LEVEL_CAP};
pub use server::{ServeConfig, ServeStats, Server};

/// Test-only I/O wrapper behind the syscall-budget tests: every `read`,
/// `write` or `write_vectored` that reaches the wrapped value stands for
/// one syscall on a socket.
#[cfg(test)]
pub(crate) mod testio {
    use adcomp_codecs::LevelSet;
    use adcomp_core::model::StaticModel;
    use adcomp_core::stream::AdaptiveWriter;
    use adcomp_core::WallClock;
    use std::io::{IoSlice, Read, Result, Write};

    /// An adaptive writer at static `level` in `block`-byte blocks.
    pub(crate) fn writer<W: Write>(out: W, level: usize, block: usize) -> AdaptiveWriter<W> {
        let levels = LevelSet::paper_default();
        let model = Box::new(StaticModel::new(level, levels.len()));
        AdaptiveWriter::with_params(out, levels, model, block, 2.0, Box::new(WallClock::new()))
    }

    pub(crate) struct Counting<T> {
        pub inner: T,
        pub calls: usize,
    }

    impl<T> Counting<T> {
        pub fn new(inner: T) -> Self {
            Counting { inner, calls: 0 }
        }
    }

    impl<T: Read> Read for Counting<T> {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl<T: Write> Write for Counting<T> {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> Result<usize> {
            self.calls += 1;
            self.inner.write_vectored(bufs)
        }

        fn flush(&mut self) -> Result<()> {
            self.inner.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::testio::writer;
    use adcomp_codecs::crc32::crc32;
    use adcomp_corpus::{generate, Class, Prng};
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::time::{Duration, Instant};

    const IO: Duration = Duration::from_secs(2);

    fn test_config() -> ServeConfig {
        ServeConfig {
            io_timeout: IO,
            ..ServeConfig::default()
        }
    }

    fn payload(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Prng::new(seed);
        // Half compressible, half noise, so the adaptive model has
        // something to chew on.
        (0..len)
            .map(|i| if i % 2 == 0 { (i / 7) as u8 } else { rng.next_u32() as u8 })
            .collect()
    }

    /// A fresh PUT of `tenant`/`id` declaring `total_len` bytes, accepted;
    /// the socket is the caller's to feed.
    fn accepted_put(addr: SocketAddr, tenant: &str, id: u64, total_len: u64) -> TcpStream {
        let mut sock = TcpStream::connect(addr).unwrap();
        let req = Request::Put { tenant: tenant.into(), transfer_id: id, total_len };
        proto::write_request(&mut sock, &req).unwrap();
        match proto::read_response(&mut sock).unwrap() {
            Response::Accept { start_offset: 0, .. } => sock,
            other => panic!("expected a fresh accept, got {other:?}"),
        }
    }

    /// Options for a `put` of `tenant`/`id` in 8 KiB blocks.
    fn in_8k_blocks(tenant: &str, transfer_id: u64) -> PutOptions {
        PutOptions { tenant: tenant.into(), transfer_id, block_len: 8 * 1024, ..Default::default() }
    }

    /// [`in_8k_blocks`] at LIGHT: on text every block is compressed, and
    /// only compressed blocks pass through the block cache.
    fn light_8k_blocks(tenant: &str, transfer_id: u64) -> PutOptions {
        PutOptions { level: Some(1), ..in_8k_blocks(tenant, transfer_id) }
    }

    /// Waits until no admitted stream is in flight.
    fn wait_reaped(server: &Server) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active() > 0 {
            assert!(Instant::now() < deadline, "an admitted stream was never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn put_roundtrips_byte_identical() {
        let server = Server::start(test_config()).unwrap();
        let data = payload(1, 200_000);
        let opts = PutOptions { tenant: "t1".into(), transfer_id: 7, ..Default::default() };
        let report = put(server.local_addr(), &data, &opts).unwrap();
        assert_eq!(report.attempts, 1);
        assert!(!report.resumed);
        assert_eq!(report.crc, crc32(&data));
        assert_eq!(get(server.local_addr(), "t1", 7, 0, u64::MAX, IO).unwrap(), data);
        assert!(server.is_sealed("t1", 7));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn empty_payload_completes() {
        let server = Server::start(test_config()).unwrap();
        let opts = PutOptions { tenant: "t".into(), transfer_id: 1, ..Default::default() };
        let report = put(server.local_addr(), &[], &opts).unwrap();
        assert_eq!(report.crc, crc32(&[]));
        assert!(server.is_sealed("t", 1));
        assert_eq!(get(server.local_addr(), "t", 1, 0, u64::MAX, IO).unwrap(), b"");
        server.shutdown();
    }

    #[test]
    fn draining_rejects_new_puts_and_stats_count_it() {
        let server = Server::start(test_config()).unwrap();
        server.begin_drain();
        let opts = PutOptions { tenant: "t".into(), transfer_id: 1, ..Default::default() };
        let err = put(server.local_addr(), b"hello", &opts).unwrap_err();
        assert!(err.to_string().contains("draining"), "unexpected error: {err}");
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn oversize_put_is_rejected_fatally() {
        let server = Server::start(test_config()).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        let total_len = server::MAX_TRANSFER_BYTES + 1;
        let req = Request::Put { tenant: "t".into(), transfer_id: 1, total_len };
        proto::write_request(&mut sock, &req).unwrap();
        let reason = RejectReason::TooLarge;
        assert_eq!(proto::read_response(&mut sock).unwrap(), Response::Reject { reason });
        assert!(!reason.is_retryable(), "a client must not retry {reason:?}");
        let stats = server.shutdown();
        assert_eq!((stats.shed, stats.accepted), (1, 0));
    }

    #[test]
    fn garbage_handshake_gets_typed_reject_not_hang() {
        let server = Server::start(test_config()).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::Write;
        sock.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let resp = proto::read_response(&mut sock).unwrap();
        assert_eq!(resp, Response::Reject { reason: RejectReason::BadRequest });
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn tenant_quota_sheds_concurrent_streams() {
        let mut cfg = test_config();
        cfg.per_tenant_streams = 1;
        cfg.io_timeout = Duration::from_secs(2);
        let server = Server::start(cfg).unwrap();
        // First connection: handshake and park mid-stream so the slot is
        // held.
        let mut held = TcpStream::connect(server.local_addr()).unwrap();
        proto::write_request(
            &mut held,
            &Request::Put { tenant: "t".into(), transfer_id: 1, total_len: 1000 },
        )
        .unwrap();
        match proto::read_response(&mut held).unwrap() {
            Response::Accept { .. } => {}
            other => panic!("expected accept, got {other:?}"),
        }
        // Second stream, same tenant: quota reject.
        let opts = PutOptions {
            tenant: "t".into(),
            transfer_id: 2,
            backoff: adcomp_core::Backoff::new(0.01, 2.0, 0.05, 1),
            ..Default::default()
        };
        let err = put(server.local_addr(), b"more", &opts).unwrap_err();
        assert!(err.to_string().contains("tenant_quota"), "unexpected error: {err}");
        // Different tenant is unaffected.
        let opts2 = PutOptions { tenant: "u".into(), transfer_id: 1, ..Default::default() };
        put(server.local_addr(), b"fine", &opts2).unwrap();
        drop(held);
        server.shutdown();
    }

    #[test]
    fn idle_client_times_out_and_slot_is_reclaimed() {
        let mut cfg = test_config();
        cfg.io_timeout = Duration::from_millis(100);
        let server = Server::start(cfg).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        proto::write_request(
            &mut sock,
            &Request::Put { tenant: "t".into(), transfer_id: 1, total_len: 100 },
        )
        .unwrap();
        match proto::read_response(&mut sock).unwrap() {
            Response::Accept { .. } => {}
            other => panic!("expected accept, got {other:?}"),
        }
        // Send nothing; the idle timeout must fire and free the slot.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active() > 0 {
            assert!(std::time::Instant::now() < deadline, "idle stream never timed out");
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.shutdown();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn mid_stream_disconnect_resumes_from_verified_prefix() {
        let server = Server::start(test_config()).unwrap();
        let data = payload(2, 300_000);
        // Attempt 1: stream roughly half the payload through a raw writer,
        // then cut the connection. Small blocks so several frames land and
        // get verified before the cut.
        let sock = accepted_put(server.local_addr(), "t", 9, data.len() as u64);
        let mut w = writer(sock, 0, 8 * 1024);
        w.write_all(&data[..150_000]).unwrap();
        drop(w.finish().unwrap()); // abrupt close, no Done exchange
        // Wait until the server notices the cut and frees the slot.
        wait_reaped(&server);
        let verified = server.verified_len("t", 9).unwrap();
        assert!(verified > 0 && verified <= 150_000, "verified {verified}");
        // Attempt 2: the real client resumes and completes.
        let opts = PutOptions { tenant: "t".into(), transfer_id: 9, ..Default::default() };
        let report = put(server.local_addr(), &data, &opts).unwrap();
        assert!(report.resumed);
        assert!(report.bytes_sent < data.len() as u64 + 1);
        assert_eq!(get(server.local_addr(), "t", 9, 0, u64::MAX, IO).unwrap(), data);
        let stats = server.shutdown();
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn drain_waits_for_inflight_stream_without_truncation() {
        let server = Server::start(test_config()).unwrap();
        let data = payload(3, 120_000);
        // Start a slow PUT on its own thread: handshake, then trickle.
        let addr = server.local_addr();
        let data_cl = data.clone();
        let trickle = std::thread::spawn(move || {
            let mut sock = accepted_put(addr, "slow", 1, data_cl.len() as u64);
            let mut w = writer(sock.try_clone().unwrap(), 1, 8 * 1024);
            for chunk in data_cl.chunks(8 * 1024) {
                w.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(15));
            }
            w.finish().unwrap();
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            proto::read_done(&mut sock).unwrap()
        });
        // Give the handshake a moment, then drain mid-stream.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active() == 0 {
            assert!(Instant::now() < deadline, "stream never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.begin_drain();
        // New PUTs are refused while the slow one keeps going.
        let opts = PutOptions { tenant: "new".into(), transfer_id: 1, ..Default::default() };
        assert!(put(addr, b"nope", &opts).is_err());
        assert!(server.drain_and_wait(Duration::from_secs(30)), "drain timed out");
        let done = trickle.join().unwrap();
        assert!(done.ok, "drained stream was truncated: {done:?}");
        assert_eq!(done.verified, data.len() as u64);
        assert_eq!(get(addr, "slow", 1, 0, u64::MAX, IO).unwrap(), data);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.drained_transfers, 1);
    }

    #[test]
    fn ranged_get_serves_sealed_wire_without_decoded_payloads() {
        // The server holds only the stored wire + the block index, and
        // every GET serves its blocks out of that wire: stored ones as
        // they lie, compressed ones decoded (or from the cache).
        let server = Server::start(test_config()).unwrap();
        let data = payload(10, 300_000);
        put(server.local_addr(), &data, &in_8k_blocks("t", 1)).unwrap();
        assert!(server.is_sealed("t", 1), "completed transfer was not sealed");
        let addr = server.local_addr();
        for (offset, len) in [
            (0u64, 100u64),
            (5000, 8 * 1024),
            (150_000 - 57, 20_000),
            (data.len() as u64 - 100, 1000),
            (data.len() as u64 + 5, 10),
        ] {
            let got = get(addr, "t", 1, offset, len, IO).unwrap();
            let lo = (offset as usize).min(data.len());
            let hi = (offset + len).min(data.len() as u64) as usize;
            assert_eq!(got, &data[lo..hi], "offset={offset} len={len}");
        }
        server.shutdown();
    }

    #[test]
    fn hot_object_gets_hit_cache_without_invoking_decoder() {
        let server = Server::start(test_config()).unwrap();
        let data = generate(Class::Moderate, 200_000, 11);
        put(server.local_addr(), &data, &light_8k_blocks("hot", 3)).unwrap();
        let addr = server.local_addr();
        // Warm the covering blocks once (these are the only misses).
        let (offset, len) = (40_000u64, 30_000u64);
        let want = &data[40_000..70_000];
        assert_eq!(get(addr, "hot", 3, offset, len, IO).unwrap(), want);
        let warm = server.cache_stats();
        assert!(warm.misses > 0, "warm-up decoded no blocks?");
        // Hot loop: every covering block is cached, so the decoder —
        // reachable only through the miss path — must not run again.
        for _ in 0..19 {
            assert_eq!(get(addr, "hot", 3, offset, len, IO).unwrap(), want);
        }
        let hot = server.cache_stats();
        assert_eq!(
            hot.misses, warm.misses,
            "hot-loop GETs invoked the decoder (cache misses grew)"
        );
        assert!(hot.hits > warm.hits, "hot loop produced no cache hits");
        assert!(
            hot.hit_ratio() >= 0.90,
            "hit ratio {:.3} below 0.90 ({} hits / {} misses)",
            hot.hit_ratio(),
            hot.hits,
            hot.misses
        );
        assert!(hot.resident_bytes > 0);
        server.shutdown();
    }

    #[test]
    fn cache_eviction_keeps_resident_bytes_under_budget() {
        let mut cfg = test_config();
        cfg.cache_bytes = 64 * 1024; // tiny: a handful of 8 KiB blocks
        let server = Server::start(cfg).unwrap();
        let data = generate(Class::Moderate, 400_000, 12);
        put(server.local_addr(), &data, &light_8k_blocks("t", 1)).unwrap();
        let addr = server.local_addr();
        // Sweep the whole object so far more blocks are decoded than fit.
        for start in (0..data.len() as u64).step_by(32 * 1024) {
            let got = get(addr, "t", 1, start, 32 * 1024, IO).unwrap();
            let hi = (start + 32 * 1024).min(data.len() as u64) as usize;
            assert_eq!(got, &data[start as usize..hi]);
        }
        let s = server.cache_stats();
        assert!(s.evictions > 0, "sweep never evicted: {s:?}");
        assert!(
            s.resident_bytes <= 64 * 1024,
            "resident {} exceeds budget",
            s.resident_bytes
        );
        server.shutdown();
    }

    /// First attempt of a PUT of `data` as transfer `t`/9, framed by hand:
    /// the first 150 000 bytes as 8 KiB LIGHT blocks, `damage` applied to
    /// that wire, then an abrupt close with no `Done` exchange. Returns
    /// once the server has reaped the connection.
    fn cut_first_attempt(server: &Server, data: &[u8], damage: impl FnOnce(&mut [u8])) {
        let mut sock = accepted_put(server.local_addr(), "t", 9, data.len() as u64);
        let mut w = writer(Vec::new(), 1, 8 * 1024);
        w.write_all(&data[..150_000]).unwrap();
        let (mut wire, _) = w.finish().unwrap();
        damage(&mut wire);
        // The server may hang up on a damaged stream before all of it is
        // written; what it verified is asserted by the callers.
        let _ = sock.write_all(&wire);
        drop(sock);
        wait_reaped(server);
    }

    /// Second attempt: the real client resumes `t`/9 to completion; blocks
    /// from BOTH connections must then be index-addressable.
    fn resume_seals_and_serves_ranged_gets(server: &Server, data: &[u8]) {
        let report = put(server.local_addr(), data, &in_8k_blocks("t", 9)).unwrap();
        assert!(report.resumed);
        assert!(server.is_sealed("t", 9), "resumed transfer was not sealed");
        // Ranges straddling the resume seam, both halves, and the whole.
        for (offset, len) in [
            (0u64, data.len() as u64),
            (140_000, 20_000),
            (80_000, 4000),
            (10_000, 5000),
            (200_000, 50_000),
        ] {
            let got = get(server.local_addr(), "t", 9, offset, len, IO).unwrap();
            let hi = (offset + len).min(data.len() as u64) as usize;
            assert_eq!(got, &data[offset as usize..hi], "offset={offset} len={len}");
        }
    }

    #[test]
    fn resumed_transfer_still_seals_and_serves_ranged_gets() {
        let server = Server::start(test_config()).unwrap();
        let data = payload(13, 300_000);
        // Stream half, then cut — the captured wire must stay frame-aligned.
        cut_first_attempt(&server, &data, |_| {});
        resume_seals_and_serves_ranged_gets(&server, &data);
        server.shutdown();
    }

    /// The stored wire is the socket capture cut to the reader's
    /// `wire_bytes()`, so that count must never cover a frame whose block
    /// was not delivered. Frame headers are not CRC-covered: a flipped bit
    /// in `uncompressed_len` gives a CRC-valid frame that cannot decode.
    #[test]
    fn undecodable_frame_aborts_the_put_and_is_never_retained() {
        let server = Server::start(test_config()).unwrap();
        let data = payload(13, 300_000);
        cut_first_attempt(&server, &data, |wire| {
            let mut at = 0;
            for _ in 0..10 {
                at += 16 + u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap()) as usize;
            }
            wire[at + 4] ^= 1;
        });
        assert_eq!(server.verified_len("t", 9), Some(10 * 8 * 1024), "prefix before the bad frame");
        resume_seals_and_serves_ranged_gets(&server, &data);
        let stats = server.shutdown();
        assert_eq!((stats.aborts, stats.resumed, stats.completed), (1, 1, 1));
    }

    #[test]
    fn get_of_unknown_or_incomplete_transfer_is_rejected() {
        let server = Server::start(test_config()).unwrap();
        let io = Duration::from_secs(2);
        let err = get(server.local_addr(), "nobody", 1, 0, 10, io).unwrap_err();
        assert!(err.to_string().contains("bad_request"), "unexpected error: {err}");
        // Incomplete transfer: handshake and park, then GET it.
        let mut held = TcpStream::connect(server.local_addr()).unwrap();
        proto::write_request(
            &mut held,
            &Request::Put { tenant: "t".into(), transfer_id: 1, total_len: 1000 },
        )
        .unwrap();
        match proto::read_response(&mut held).unwrap() {
            Response::Accept { .. } => {}
            other => panic!("expected accept, got {other:?}"),
        }
        let err = get(server.local_addr(), "t", 1, 0, 10, io).unwrap_err();
        assert!(err.to_string().contains("bad_request"), "unexpected error: {err}");
        drop(held);
        server.shutdown();
    }

    #[test]
    fn per_tenant_rate_cap_slows_ingest() {
        let mut cfg = test_config();
        cfg.tenant_rate_bps = Some(200_000.0); // 200 kB/s
        let server = Server::start(cfg).unwrap();
        let data = payload(4, 100_000);
        let opts = PutOptions { tenant: "capped".into(), transfer_id: 1, ..Default::default() };
        let t0 = Instant::now();
        put(server.local_addr(), &data, &opts).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        // 100 kB at 200 kB/s is >= 0.5 s of pacing debt; allow generous
        // slack below that to stay robust on loaded CI machines, while
        // still proving the throttle engaged at all.
        assert!(elapsed > 0.2, "rate cap did not pace ingest ({elapsed:.3}s)");
        assert_eq!(get(server.local_addr(), "capped", 1, 0, u64::MAX, IO).unwrap(), data);
        server.shutdown();
    }

    #[test]
    fn idle_tenant_banks_no_more_than_a_burst() {
        let rate = 400_000.0; // 400 kB/s
        let mut cfg = test_config();
        cfg.tenant_rate_bps = Some(rate);
        let server = Server::start(cfg).unwrap();
        let addr = server.local_addr();
        // At NO the wire is the payload plus frame headers.
        let opts = |id| PutOptions {
            tenant: "idle".into(),
            transfer_id: id,
            level: Some(0),
            ..Default::default()
        };
        // The first PUT opens the tenant's bucket; the tenant then idles
        // for longer than the second payload takes at the cap (0.5 s).
        put(addr, b"x", &opts(1)).unwrap();
        let data = payload(5, 200_000);
        std::thread::sleep(Duration::from_millis(600));
        let t0 = Instant::now();
        put(addr, &data, &opts(2)).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        // The bucket keeps at most 50 ms of credit.
        let floor = (data.len() as f64 - rate * 0.05) / rate;
        assert!(elapsed >= floor, "idle credit let {} B through in {elapsed:.3}s", data.len());
        server.shutdown();
    }
}
