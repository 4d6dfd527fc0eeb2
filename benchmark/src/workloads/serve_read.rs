//! `serve_read`: reads beside the writes. One daemon preloaded with the
//! store; each round runs whole-object GETs (`full`, the streaming byte
//! path), ranged GETs all over the pool (`cold`: index lookup + block
//! decode, working set 8x the cache) and ranged GETs inside a hot set a
//! quarter of the cache (`hot`: pure per-request cost, a hit never touches
//! the decoder).

use super::store::{
    nominal_ms, put_wire, Store, IO_TIMEOUT, LARGE_MIN, NOMINAL_BYTES, SMALL_MAX, TENANT,
};
use crate::gen::{self, KIB, MIB};
use crate::harness::{self, Cfg, Outcome};
use crate::layers::{self, BlockCounts, Loopback};
use crate::span::Recorder;
use crate::stats;
use adcomp::codecs::frame::decode_block;
use adcomp::codecs::seek::StreamIndex;
use adcomp::corpus::Prng;
use adcomp::serve::{self, BlockCache, CacheStats, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

pub const RANGE_LEN: usize = 64 * KIB;

/// One ranged or whole-object GET: object index, offset, length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub object: usize,
    pub offset: usize,
    pub len: usize,
}

pub struct Sizes {
    pub cold_gets: usize,
    pub hot_gets: usize,
    pub hot_set_bytes: usize,
}

impl Sizes {
    pub fn new(cfg: &Cfg) -> Sizes {
        if cfg.smoke {
            Sizes {
                cold_gets: 100,
                hot_gets: 200,
                hot_set_bytes: 512 * KIB,
            }
        } else {
            Sizes {
                cold_gets: 2000,
                hot_gets: 4000,
                hot_set_bytes: 4 * MIB,
            }
        }
    }
}

pub struct Setup {
    pub store: Store,
    pub server: Server,
    /// Objects of at least 256 KiB, fetched whole by `full`.
    pub large: Vec<usize>,
    /// Objects of the hot set: at least 64 KiB each, `hot_set_bytes` in all.
    pub hot: Vec<usize>,
    pub wire_bytes: u64,
    pub sizes: Sizes,
}

pub fn setup(cfg: &Cfg, out: &mut Outcome) -> Setup {
    let store = Store::new(cfg);
    let sizes = Sizes::new(cfg);
    let server = store.server().expect("start the daemon");
    for i in 0..store.objects.len() {
        let (_, ok, _) = store.put(server.local_addr(), i);
        out.check(ok);
    }
    let large = (0..store.objects.len())
        .filter(|&i| store.objects[i].len >= LARGE_MIN)
        .collect();
    let mut hot = Vec::new();
    let mut hot_bytes = 0;
    for i in gen::shuffled(store.objects.len(), cfg.seed ^ 0x407) {
        let len = store.objects[i].len;
        if (SMALL_MAX..=MIB).contains(&len) && hot_bytes < sizes.hot_set_bytes {
            hot.push(i);
            hot_bytes += len;
        }
    }
    let wire_bytes = store.wire_bytes();
    Setup {
        store,
        server,
        large,
        hot,
        wire_bytes,
        sizes,
    }
}

impl Setup {
    /// `n` ranged requests at byte-uniform positions over the whole pool.
    pub fn cold_requests(&self, n: usize, rng: &mut Prng) -> Vec<Request> {
        let objects = &self.store.objects;
        (0..n)
            .map(|_| {
                let pos = rng.below(self.store.pool.len() as u64) as usize;
                let object = objects.partition_point(|o| o.start + o.len <= pos);
                let offset = pos - objects[object].start;
                Request {
                    object,
                    offset,
                    len: RANGE_LEN.min(objects[object].len - offset),
                }
            })
            .collect()
    }

    /// `n` ranged requests inside the hot set.
    pub fn hot_requests(&self, n: usize, rng: &mut Prng) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let object = self.hot[rng.below(self.hot.len() as u64) as usize];
                let room = self.store.objects[object].len - RANGE_LEN;
                Request {
                    object,
                    offset: rng.below(room as u64 + 1) as usize,
                    len: RANGE_LEN,
                }
            })
            .collect()
    }

    pub fn whole(&self, object: usize) -> Request {
        Request {
            object,
            offset: 0,
            len: self.store.objects[object].len,
        }
    }

    /// One blocking `get` as the client sees it; the body is compared with
    /// the source slice outside the timed call.
    pub fn get(&self, addr: SocketAddr, r: Request, out: &mut Outcome) -> f64 {
        let o = &self.store.objects[r.object];
        let t = Instant::now();
        let body = serve::get(
            addr,
            TENANT,
            o.id,
            r.offset as u64,
            r.len as u64,
            IO_TIMEOUT,
        );
        let secs = t.elapsed().as_secs_f64();
        let want = &self.store.pool[o.start + r.offset..o.start + r.offset + r.len];
        out.check(matches!(&body, Ok(b) if b == want));
        secs
    }
}

/// Requests and wall times (milliseconds) of one round, in the order run.
pub struct Round {
    pub full: Vec<Request>,
    pub cold: Vec<Request>,
    pub hot: Vec<Request>,
    pub full_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub hot_ms: Vec<f64>,
}

/// One round: `full`, `cold`, an untimed warming pass over the hot set,
/// `hot`. `between(phase)` runs before each phase (the traced pass reads
/// cache counters there).
pub fn round(s: &Setup, index: u64, out: &mut Outcome, mut between: impl FnMut(&str)) -> Round {
    let addr = s.server.local_addr();
    let mut rng = Prng::new(s.store.objects.len() as u64 ^ (index << 32) ^ 0x6e7);
    let full: Vec<Request> = s.large.iter().map(|&i| s.whole(i)).collect();
    let cold = s.cold_requests(s.sizes.cold_gets, &mut rng);
    let hot = s.hot_requests(s.sizes.hot_gets, &mut rng);
    between("full");
    let full_ms = full.iter().map(|&r| s.get(addr, r, out) * 1e3).collect();
    between("cold");
    let cold_ms = cold.iter().map(|&r| s.get(addr, r, out) * 1e3).collect();
    between("warm");
    for &i in &s.hot {
        s.get(addr, s.whole(i), out);
    }
    between("hot");
    let hot_ms = hot.iter().map(|&r| s.get(addr, r, out) * 1e3).collect();
    between("end");
    Round {
        full,
        cold,
        hot,
        full_ms,
        cold_ms,
        hot_ms,
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = harness::median_setup(cfg, || setup(cfg, &mut out));
    let large_bytes: u64 = s.large.iter().map(|&i| s.store.objects[i].len as u64).sum();
    // Per timed round: the sum of the full phase, and p50/p90/p99 of the
    // cold and hot phases.
    let mut full_ms = Vec::new();
    let mut cold: [Vec<f64>; 3] = Default::default();
    let mut hot: [Vec<f64>; 3] = Default::default();
    let mut index = 0;
    harness::run_rounds(cfg, |timed| {
        let r = round(&s, index, &mut out, |_| {});
        index += 1;
        if timed {
            full_ms.push(nominal_ms(r.full_ms.iter().sum::<f64>() / 1e3, large_bytes));
            for (k, p) in [50.0, 90.0, 99.0].into_iter().enumerate() {
                cold[k].push(stats::percentile(&r.cold_ms, p));
                hot[k].push(stats::percentile(&r.hot_ms, p));
            }
        }
    });
    let cache = s.server.cache_stats();

    let full = harness::over_rounds(&full_ms);
    out.push(
        "op1_ms",
        full,
        "ms",
        format!(
            "whole-object get() wall time per 50 MB, {} objects >= 256 KiB ({:.1} MB a round); get_full_mbps = {:.2} MB/s; {}",
            s.large.len(),
            large_bytes as f64 / 1e6,
            NOMINAL_BYTES / 1e3 / full,
            harness::rounds_note(&full_ms)
        ),
    );
    let mut pct = |name, alias: &str, per_round: &[f64], p99: &[f64], gets: usize| {
        out.push(
            name,
            harness::over_rounds(per_round),
            "ms",
            format!(
                "{alias}: 64 KiB ranged get() wall time over the {gets} gets of a round; p99 {:.4} ms; {}",
                harness::over_rounds(p99),
                harness::rounds_note(per_round)
            ),
        );
    };
    pct(
        "op2_ms",
        "get_cold_ms_p50",
        &cold[0],
        &cold[2],
        s.sizes.cold_gets,
    );
    pct(
        "op3_ms",
        "get_cold_ms_p90",
        &cold[1],
        &cold[2],
        s.sizes.cold_gets,
    );
    pct(
        "op4_ms",
        "get_hot_ms_p50",
        &hot[0],
        &hot[2],
        s.sizes.hot_gets,
    );
    pct(
        "op5_ms",
        "get_hot_ms_p90",
        &hot[1],
        &hot[2],
        s.sizes.hot_gets,
    );
    out.push(
        "wire_ratio",
        s.wire_bytes as f64 / s.store.pool.len() as f64,
        "B/B",
        format!(
            "{} stored wire B / {} app B (exact: static level); cache hits {} misses {} evictions {}",
            s.wire_bytes,
            s.store.pool.len(),
            cache.hits,
            cache.misses,
            cache.evictions
        ),
    );
    out.push(
        "setup_s",
        setup_s,
        "s",
        "generate the pool, start the daemon, put every object; median of 3".into(),
    );
    out.push(
        "peak_rss_mb",
        harness::peak_rss_mb(),
        "MB",
        "VmHWM at exit".into(),
    );
    let stats = s.server.shutdown();
    out.check(stats.shed == 0 && stats.aborts == 0);
    out
}

/// The traced pass: one round with a span per `get`, then every request
/// replayed through what the daemon runs for it: the request floor, the
/// handshake and body frames, the index lookup, a bench-owned block cache
/// fed the same key sequence (a miss decodes the frame and inserts), and
/// the socket.
pub fn traced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(cfg, &mut out);
    round(&s, 0, &mut out, |_| {});
    let t = Instant::now();
    round(&s, 1, &mut out, |_| {});
    let untraced_s = t.elapsed().as_secs_f64();
    let mut marks: Vec<(String, CacheStats)> = Vec::new();
    let t = Instant::now();
    let r = round(&s, 2, &mut out, |phase| {
        marks.push((phase.to_string(), s.server.cache_stats()))
    });
    let traced_s = t.elapsed().as_secs_f64();

    let floor = layers::request_floor_secs(cfg);
    let mut rec = Recorder::new();
    let mut silent = Recorder::new();
    let mut loopback = Loopback::new().expect("loopback pair");
    let cache = BlockCache::new(s.store.cache_bytes);
    let mut wires: HashMap<usize, (Vec<u8>, StreamIndex)> = HashMap::new();
    let warm: Vec<Request> = s.hot.iter().map(|&i| s.whole(i)).collect();
    let mut op = 0u64;
    // (requests, their wall times; none for the untimed warming pass)
    let phases: [(&[Request], Option<&[f64]>); 4] = [
        (&r.full, Some(&r.full_ms)),
        (&r.cold, Some(&r.cold_ms)),
        (&warm, None),
        (&r.hot, Some(&r.hot_ms)),
    ];
    for (requests, times) in phases {
        for (k, &req) in requests.iter().enumerate() {
            op += 1;
            let o = s.store.objects[req.object];
            let (wire, index) = wires.entry(req.object).or_insert_with(|| {
                let wire = put_wire(s.store.bytes(&o), Vec::new()).0;
                let index = StreamIndex::scan(&wire).expect("stream we wrote");
                (wire, index)
            });
            // The warming pass only has to leave the cache as the daemon's is.
            let rec = if times.is_some() {
                &mut rec
            } else {
                &mut silent
            };
            let root = rec.add("e2e.get", None, op, times.map_or(0.0, |ms| ms[k] / 1e3));
            let body = &s.store.pool[o.start + req.offset..o.start + req.offset + req.len];
            rec.add("serve.server", Some(root), op, floor);
            let wire_req = serve::Request::Get {
                tenant: TENANT.into(),
                transfer_id: o.id,
                offset: req.offset as u64,
                len: req.len as u64,
            };
            rec.add(
                "serve.proto",
                Some(root),
                op,
                layers::proto_secs(&wire_req, Some(body)),
            );
            let (_, covering) = rec.span("codecs.seek", Some(root), op, || {
                index.blocks_covering(req.offset as u64, req.len as u64)
            });
            let mut cache_s = 0.0;
            for e in &index.entries[covering] {
                let key = (e.crc, e.uncompressed_len);
                let t = Instant::now();
                let hit = cache.get(key).is_some();
                cache_s += t.elapsed().as_secs_f64();
                if !hit {
                    let frame = &wire[e.frame_offset as usize..][..e.frame_len as usize];
                    layers::replay_decode_frames(rec, root, op, frame);
                    let mut block = Vec::with_capacity(e.uncompressed_len as usize);
                    decode_block(frame, &mut block).expect("frame we wrote");
                    let block = Arc::new(block);
                    let t = Instant::now();
                    cache.insert(key, block);
                    cache_s += t.elapsed().as_secs_f64();
                }
            }
            rec.add("serve.cache", Some(root), op, cache_s);
            let socket = loopback.round_trip(body).expect("loopback");
            rec.add("os.socket", Some(root), op, socket);
        }
    }
    layers::attribution(&rec, &BlockCounts::default(), &mut out);
    out.push(
        "trace.overhead_frac",
        traced_s / untraced_s - 1.0,
        "frac",
        format!("traced round {traced_s:.4} s over untraced round {untraced_s:.4} s"),
    );

    let mark = |phase: &str| {
        marks
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    };
    let hit_ratio = |from: &str, to: &str| {
        let (a, b) = (mark(from), mark(to));
        let (hits, misses) = (b.hits - a.hits, b.misses - a.misses);
        (hits as f64 / (hits + misses).max(1) as f64, hits, misses)
    };
    let (cold_ratio, hits, misses) = hit_ratio("cold", "warm");
    out.push(
        "serve.cache.hit_ratio_cold",
        cold_ratio,
        "frac",
        format!("{hits} hits, {misses} misses in the cold phase"),
    );
    let (hot_ratio, hits, misses) = hit_ratio("hot", "end");
    out.push(
        "serve.cache.hit_ratio_hot",
        hot_ratio,
        "frac",
        format!("{hits} hits, {misses} misses in the hot phase"),
    );
    out.push(
        "serve.cache.evictions",
        (mark("end").evictions - mark("full").evictions) as f64,
        "count",
        "blocks evicted during the traced round".into(),
    );
    let tail = |ms: &[f64]| stats::percentile(ms, 99.0) / stats::percentile(ms, 50.0);
    out.push(
        "serve.server.op2_p99_over_p50",
        tail(&r.cold_ms),
        "ratio",
        format!("cold get p99 over p50; n {}", r.cold_ms.len()),
    );
    out.push(
        "serve.server.op4_p99_over_p50",
        tail(&r.hot_ms),
        "ratio",
        format!("hot get p99 over p50; n {}", r.hot_ms.len()),
    );
    layers::kernels(cfg, &s.store.pool, &mut out);
    let served = s.server.shutdown();
    out.push(
        "serve.server.accepted",
        served.accepted as f64,
        "count",
        "puts admitted (the preload)".into(),
    );
    out.push(
        "serve.server.shed",
        served.shed as f64,
        "count",
        "requests refused".into(),
    );
    let _ = rec.write_jsonl(&cfg.trace_file("serve_read"));
    out
}
