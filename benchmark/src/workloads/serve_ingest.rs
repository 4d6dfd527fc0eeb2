//! `serve_ingest`: writes. One client puts every object of the store to
//! an in-process daemon. Small objects make connect, accept, thread spawn,
//! handshake and seal the cost; large ones make client compress, socket,
//! server decode and capture copy the cost.

use super::store::{nominal_ms, Store, LARGE_MIN, NOMINAL_BYTES, PUT_LEVEL, SMALL_MAX, TENANT};
use crate::gen;
use crate::harness::{self, Cfg, Outcome};
use crate::layers::{self, BlockCounts, Loopback};
use crate::span::Recorder;
use crate::stats;
use adcomp::codecs::crc32::crc32;
use adcomp::codecs::seek::StreamIndex;
use adcomp::serve::{Request, ServeStats};
use std::time::Instant;

/// Wall times of one pass over the object set.
#[derive(Default)]
pub struct Pass {
    pub small_ms: Vec<f64>,
    pub mid_s: f64,
    pub large_s: f64,
    pub wall_s: f64,
    /// Attempts beyond the first, over all puts.
    pub retries: u64,
    pub server: ServeStats,
}

/// Puts every object, in `order`, to a fresh daemon (the daemon never
/// evicts stored transfers, so one long-lived server would grow without
/// bound). `on_put(i, seconds)` sees every put.
pub fn pass(
    store: &Store,
    order: &[usize],
    out: &mut Outcome,
    mut on_put: impl FnMut(usize, f64),
) -> Option<Pass> {
    let server = store.server().ok()?;
    let addr = server.local_addr();
    let mut p = Pass::default();
    let start = Instant::now();
    for &i in order {
        let (secs, ok, attempts) = store.put(addr, i);
        out.check(ok);
        p.retries += u64::from(attempts.saturating_sub(1));
        on_put(i, secs);
        match store.objects[i].len {
            len if len <= SMALL_MAX => p.small_ms.push(secs * 1e3),
            len if len >= LARGE_MIN => p.large_s += secs,
            _ => p.mid_s += secs,
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.server = server.shutdown();
    out.check(p.server.completed == order.len() as u64 && p.server.shed == 0);
    Some(p)
}

pub struct Setup {
    pub store: Store,
    pub order: Vec<usize>,
    pub wire_bytes: u64,
}

pub fn setup(cfg: &Cfg) -> Setup {
    let store = Store::new(cfg);
    let order = gen::shuffled(store.objects.len(), cfg.seed);
    let wire_bytes = store.wire_bytes();
    Setup {
        store,
        order,
        wire_bytes,
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = harness::median_setup(cfg, || setup(cfg));
    let bytes_where = |f: &dyn Fn(usize) -> bool| -> u64 {
        s.store
            .objects
            .iter()
            .filter(|o| f(o.len))
            .map(|o| o.len as u64)
            .sum()
    };
    let large_bytes = bytes_where(&|len| len >= LARGE_MIN);
    let mid_bytes = bytes_where(&|len| len > SMALL_MAX && len < LARGE_MIN);
    let small_count = s
        .store
        .objects
        .iter()
        .filter(|o| o.len <= SMALL_MAX)
        .count();
    let (mut small_p50, mut small_p90, mut small_p99) = (vec![], vec![], vec![]);
    let (mut mid_ms, mut large_ms, mut wall_ms) = (vec![], vec![], vec![]);
    harness::run_rounds(cfg, |timed| {
        if let Some(p) = pass(&s.store, &s.order, &mut out, |_, _| {}) {
            if timed {
                small_p50.push(stats::percentile(&p.small_ms, 50.0));
                small_p90.push(stats::percentile(&p.small_ms, 90.0));
                small_p99.push(stats::percentile(&p.small_ms, 99.0));
                mid_ms.push(nominal_ms(p.mid_s, mid_bytes));
                large_ms.push(nominal_ms(p.large_s, large_bytes));
                wall_ms.push(p.wall_s * 1e3);
            }
        }
    });

    let large = harness::over_rounds(&large_ms);
    out.push(
        "op1_ms",
        large,
        "ms",
        format!(
            "put() wall time per 50 MB of objects >= 256 KiB ({:.1} MB a pass); put_large_mbps = {:.2} MB/s; {}",
            large_bytes as f64 / 1e6,
            NOMINAL_BYTES / 1e3 / large,
            harness::rounds_note(&large_ms)
        ),
    );
    out.push(
        "op2_ms",
        harness::over_rounds(&small_p50),
        "ms",
        format!(
            "put_small_ms_p50: put() wall time of the {small_count} objects <= 64 KiB, per pass; {}",
            harness::rounds_note(&small_p50)
        ),
    );
    out.push(
        "op3_ms",
        harness::over_rounds(&small_p90),
        "ms",
        format!(
            "put_small_ms_p90, per pass; p99 {:.4} ms; {}",
            harness::over_rounds(&small_p99),
            harness::rounds_note(&small_p90)
        ),
    );
    let mid = harness::over_rounds(&mid_ms);
    out.push(
        "op4_ms",
        mid,
        "ms",
        format!(
            "put() wall time per 50 MB of objects between 64 and 256 KiB ({:.1} MB a pass); put_mid_mbps = {:.2} MB/s; {}",
            mid_bytes as f64 / 1e6,
            NOMINAL_BYTES / 1e3 / mid,
            harness::rounds_note(&mid_ms)
        ),
    );
    let wall = harness::over_rounds(&wall_ms);
    out.push(
        "op5_ms",
        wall,
        "ms",
        format!(
            "one whole pass, {} puts of {:.1} MB; puts_per_s = {:.0}; {}",
            s.order.len(),
            s.store.pool.len() as f64 / 1e6,
            s.order.len() as f64 / (wall / 1e3),
            harness::rounds_note(&wall_ms)
        ),
    );
    out.push(
        "wire_ratio",
        s.wire_bytes as f64 / s.store.pool.len() as f64,
        "B/B",
        format!(
            "{} wire B / {} app B per pass (exact: static level)",
            s.wire_bytes,
            s.store.pool.len()
        ),
    );
    out.push(
        "setup_s",
        setup_s,
        "s",
        "generate the pool, cut and checksum the objects, count wire bytes; median of 3".into(),
    );
    out.push(
        "peak_rss_mb",
        harness::peak_rss_mb(),
        "MB",
        "VmHWM at exit".into(),
    );
    out
}

/// The traced pass: one pass with a span per `put`, then every object's
/// bytes replayed through what a put runs on both ends: the request
/// floor, the handshake frames, the client's writer, the socket, the
/// daemon's reader, its checksum of the delivered bytes and the index
/// scan that seals the stored wire.
pub fn traced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(cfg);
    pass(&s.store, &s.order, &mut out, |_, _| {});
    let untraced = pass(&s.store, &s.order, &mut out, |_, _| {});
    let mut rec = Recorder::new();
    let mut roots = Vec::new();
    let traced = pass(&s.store, &s.order, &mut out, |i, secs| {
        roots.push((i, rec.add("e2e.put", None, s.store.objects[i].id, secs)));
    });
    let (Some(untraced), Some(traced)) = (untraced, traced) else {
        out.check(false);
        return out;
    };

    let floor = layers::request_floor_secs(cfg);
    let mut loopback = Loopback::new().expect("loopback pair");
    let mut counts = BlockCounts::default();
    for &(i, root) in &roots {
        let o = s.store.objects[i];
        let data = s.store.bytes(&o);
        rec.add("serve.server", Some(root), o.id, floor);
        let req = Request::Put {
            tenant: TENANT.into(),
            transfer_id: o.id,
            total_len: o.len as u64,
        };
        rec.add(
            "serve.proto",
            Some(root),
            o.id,
            layers::proto_secs(&req, None),
        );
        let wire = layers::replay_write(&mut rec, root, o.id, data, PUT_LEVEL, false, &mut counts);
        let socket = loopback.round_trip(&wire).expect("loopback");
        rec.add("os.socket", Some(root), o.id, socket);
        let delivered = layers::replay_read(&mut rec, root, o.id, &wire, 16 * 1024);
        out.check(delivered == o.len as u64);
        // Both ends checksum the whole payload, outside the frame layer.
        rec.span("codecs.crc32", Some(root), o.id, || {
            std::hint::black_box((crc32(data), crc32(data)));
        });
        rec.span("codecs.seek", Some(root), o.id, || {
            std::hint::black_box(StreamIndex::scan(&wire).expect("stream we wrote"));
        });
    }
    layers::attribution(&rec, &counts, &mut out);
    out.push(
        "trace.overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
        "frac",
        format!(
            "traced pass {:.4} s over untraced pass {:.4} s",
            traced.wall_s, untraced.wall_s
        ),
    );
    out.push(
        "serve.server.accepted",
        traced.server.accepted as f64,
        "count",
        "puts admitted in the traced pass".into(),
    );
    out.push(
        "serve.server.shed",
        traced.server.shed as f64,
        "count",
        "requests refused in the traced pass".into(),
    );
    out.push(
        "serve.client.retries",
        traced.retries as f64,
        "count",
        "put attempts beyond the first".into(),
    );
    out.push(
        "serve.server.op2_p99_over_p50",
        stats::percentile(&traced.small_ms, 99.0) / stats::percentile(&traced.small_ms, 50.0),
        "ratio",
        format!(
            "small put p99 {:.4} ms over p50 {:.4} ms; n {}",
            stats::percentile(&traced.small_ms, 99.0),
            stats::percentile(&traced.small_ms, 50.0),
            traced.small_ms.len()
        ),
    );
    layers::kernels(cfg, &s.store.pool, &mut out);
    let _ = rec.write_jsonl(std::path::Path::new(
        "benchmark/out/trace-serve_ingest.jsonl",
    ));
    out.zero_fill(&crate::suite::PER_LAYER);
    out
}
