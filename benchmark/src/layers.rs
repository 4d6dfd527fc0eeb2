//! Outside-in layer measurements for the traced pass: replays of an
//! operation's bytes through the public functions of the layers below it,
//! and the per-layer rates measured on a sample of the workload's blocks.
//!
//! Span names are the repo's module names; [`attribution`] turns the span
//! tree into each layer's share of the traced wall time.

use crate::gen::{BLOCK_LEN, KIB, MIB};
use crate::harness::{self, Cfg, Outcome};
use crate::span::{Recorder, SpanId};
use crate::stats;
use adcomp::codecs::crc32::crc32;
use adcomp::codecs::frame::{
    decode_block_with, encode_block_with, FrameHeader, FrameWriter, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use adcomp::codecs::seek::StreamIndex;
use adcomp::codecs::{codec_for, CodecId, DecodeScratch, Scratch};
use adcomp::core::{portfolio, AdaptiveReader, IndexedReader};
use adcomp::corpus::{self, Class, Prng};
use adcomp::prelude::LevelSet;
use adcomp::serve::{self, BlockCache, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span name of the codec family's kernel; `None` for stored blocks.
pub fn kernel_layer(id: CodecId) -> Option<&'static str> {
    match id {
        CodecId::Raw => None,
        CodecId::QlzLight | CodecId::QlzMedium => Some("codecs.qlz"),
        CodecId::Heavy => Some("codecs.heavy"),
        CodecId::Huffman => Some("codecs.huff"),
        CodecId::Columnar => Some("codecs.columnar"),
    }
}

/// Block counts gathered while replaying writes.
#[derive(Default)]
pub struct BlockCounts {
    pub blocks: u64,
    pub raw_fallbacks: u64,
    /// Blocks per wire codec id (`CodecId as usize`).
    pub per_codec: [u64; 6],
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// `(header, payload)` of every frame in `wire`.
pub fn frames(wire: &[u8]) -> Vec<(FrameHeader, &[u8])> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + HEADER_LEN <= wire.len() {
        let header = FrameHeader::from_bytes(wire[pos..pos + HEADER_LEN].try_into().unwrap())
            .expect("frame header of a stream we wrote");
        let end = pos + HEADER_LEN + header.payload_len as usize;
        out.push((header, &wire[pos + HEADER_LEN..end]));
        pos = end;
    }
    out
}

/// The codec each block of `data` is written with at a static level.
fn codec_plan(data: &[u8], level: usize, portfolio_on: bool) -> Vec<CodecId> {
    data.chunks(BLOCK_LEN)
        .map(|b| {
            if portfolio_on {
                portfolio::select(b, level)
            } else {
                LevelSet::paper_default().id(level)
            }
        })
        .collect()
}

/// Replays compressing `data` at a static level below `parent`:
/// `core.stream` (the whole `AdaptiveWriter` pass into memory) over
/// `core.portfolio` (probe + nominate per block) and `codecs.frame`
/// (`FrameWriter::write_block` of the same blocks) over the codec kernels
/// and `codecs.crc32`. Returns the wire bytes.
pub fn replay_write(
    rec: &mut Recorder,
    parent: SpanId,
    op: u64,
    data: &[u8],
    level: usize,
    portfolio_on: bool,
    counts: &mut BlockCounts,
) -> Vec<u8> {
    let (stream, wire) = rec.span("core.stream", Some(parent), op, || {
        let sink = Vec::with_capacity(data.len() / 2 + KIB);
        harness::write_stream(sink, data, level, portfolio_on).0
    });
    if portfolio_on {
        rec.span("core.portfolio", Some(stream), op, || {
            for b in data.chunks(BLOCK_LEN) {
                std::hint::black_box(portfolio::nominate(&portfolio::probe(b)));
            }
        });
    }
    let plan = codec_plan(data, level, portfolio_on);
    replay_frames(rec, stream, op, data.chunks(BLOCK_LEN).zip(plan), counts);
    wire
}

/// `codecs.frame` below `parent` for `(block, codec)` pairs: a
/// `FrameWriter<Vec>` pass over the kernels' and the CRC's own passes.
pub fn replay_frames<'a>(
    rec: &mut Recorder,
    parent: SpanId,
    op: u64,
    blocks: impl Iterator<Item = (&'a [u8], CodecId)> + Clone,
    counts: &mut BlockCounts,
) {
    let (frame, wire) = rec.span("codecs.frame", Some(parent), op, || {
        let mut fw = FrameWriter::new(Vec::new());
        for (block, id) in blocks.clone() {
            let info = fw
                .write_block(codec_for(id), block)
                .expect("in-memory sink");
            counts.blocks += 1;
            counts.raw_fallbacks += info.raw_fallback as u64;
            counts.per_codec[info.codec as usize] += 1;
        }
        fw.into_inner()
    });
    let mut kernels: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut scratch = Scratch::new();
    let mut out = Vec::with_capacity(BLOCK_LEN);
    for (block, id) in blocks {
        if let Some(layer) = kernel_layer(id) {
            out.clear();
            let (secs, ()) = timed(|| codec_for(id).compress_with(&mut scratch, block, &mut out));
            std::hint::black_box(&out);
            *kernels.entry(layer).or_insert(0.0) += secs;
        }
    }
    for (layer, secs) in kernels {
        rec.add(layer, Some(frame), op, secs);
    }
    let (crc_secs, ()) = timed(|| {
        for (_, payload) in frames(&wire) {
            std::hint::black_box(crc32(payload));
        }
    });
    rec.add("codecs.crc32", Some(frame), op, crc_secs);
}

/// Replays decoding `wire` below `parent`: `core.stream` (an
/// `AdaptiveReader` drained in `chunk`-byte reads) over `codecs.frame`
/// (`decode_block_with` per frame) over the kernels and `codecs.crc32`.
/// Returns the application byte count.
pub fn replay_read(rec: &mut Recorder, parent: SpanId, op: u64, wire: &[u8], chunk: usize) -> u64 {
    let (stream, app) = rec.span("core.stream", Some(parent), op, || {
        let mut reader = AdaptiveReader::new(wire);
        let mut buf = vec![0u8; chunk];
        let mut total = 0u64;
        loop {
            match reader.read(&mut buf).expect("stream we wrote") {
                0 => return total,
                n => total += n as u64,
            }
        }
    });
    replay_decode_frames(rec, stream, op, wire);
    app
}

/// `codecs.frame` (decode side) below `parent` for every frame of `wire`.
pub fn replay_decode_frames(rec: &mut Recorder, parent: SpanId, op: u64, wire: &[u8]) {
    let mut scratch = DecodeScratch::new();
    let mut out = Vec::with_capacity(BLOCK_LEN);
    let (frame, ()) = rec.span("codecs.frame", Some(parent), op, || {
        let mut pos = 0;
        while pos < wire.len() {
            out.clear();
            let (_, used) =
                decode_block_with(&mut scratch, &wire[pos..], &mut out, DEFAULT_MAX_FRAME)
                    .expect("stream we wrote");
            pos += used;
        }
    });
    let mut kernels: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut crc_secs = 0.0;
    for (header, payload) in frames(wire) {
        crc_secs += timed(|| std::hint::black_box(crc32(payload))).0;
        if let Some(layer) = kernel_layer(header.codec) {
            out.clear();
            let (secs, res) = timed(|| {
                codec_for(header.codec).decompress_with(
                    &mut scratch,
                    payload,
                    header.uncompressed_len as usize,
                    &mut out,
                )
            });
            res.expect("stream we wrote");
            *kernels.entry(layer).or_insert(0.0) += secs;
        }
    }
    for (layer, secs) in kernels {
        rec.add(layer, Some(frame), op, secs);
    }
    rec.add("codecs.crc32", Some(frame), op, crc_secs);
}

/// A bench-owned loopback connection with an echo thread: `round_trip`
/// sends bytes and waits for the peer's one-byte receipt, which is what a
/// blocking client pays the socket layer for moving them.
pub struct Loopback {
    sock: TcpStream,
    peer: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    pub fn new() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let peer = std::thread::Builder::new()
            .name("bench-loopback".into())
            .spawn(move || {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                let mut buf = vec![0u8; 256 * KIB];
                let mut len = [0u8; 8];
                while s.read_exact(&mut len).is_ok() {
                    let mut left = u64::from_le_bytes(len) as usize;
                    while left > 0 {
                        match s.read(&mut buf[..left.min(256 * KIB)]) {
                            Ok(n) if n > 0 => left -= n,
                            _ => return,
                        }
                    }
                    if s.write_all(&[1]).is_err() {
                        return;
                    }
                }
            })?;
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Loopback {
            sock,
            peer: Some(peer),
        })
    }

    /// Seconds to move `bytes` to the peer and learn that it has them.
    pub fn round_trip(&mut self, bytes: &[u8]) -> io::Result<f64> {
        let t = Instant::now();
        self.sock.write_all(&(bytes.len() as u64).to_le_bytes())?;
        self.sock.write_all(bytes)?;
        self.sock.read_exact(&mut [0u8])?;
        Ok(t.elapsed().as_secs_f64())
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Median wall time of a `get` of an unknown transfer on a throw-away
/// daemon: connect, accept, thread spawn, handshake and reject, with no
/// data work — the floor under every request.
pub fn request_floor_secs(cfg: &Cfg) -> f64 {
    let server = Server::start(ServeConfig::default()).expect("start a daemon");
    let addr = server.local_addr();
    let samples: Vec<f64> = (0..if cfg.smoke { 50 } else { 500 })
        .map(|_| {
            timed(|| {
                let _ = serve::get(addr, "nobody", u64::MAX, 0, 1, Duration::from_secs(5));
            })
            .0
        })
        .collect();
    server.shutdown();
    stats::median(&samples)
}

/// Seconds `serve::proto` spends on one exchange of the given requests,
/// encoded to and parsed from memory.
pub fn proto_secs(req: &serve::Request, body: Option<&[u8]>) -> f64 {
    use adcomp::serve::proto;
    let accept = serve::Response::Accept {
        start_offset: 0,
        level_cap: serve::NO_LEVEL_CAP,
    };
    timed(|| {
        let mut buf = Vec::with_capacity(256 + body.map_or(0, <[u8]>::len));
        proto::write_request(&mut buf, req).expect("in-memory");
        std::hint::black_box(proto::read_request(&mut &buf[..]).expect("own request"));
        buf.clear();
        proto::write_response(&mut buf, &accept).expect("in-memory");
        std::hint::black_box(proto::read_response(&mut &buf[..]).expect("own response"));
        buf.clear();
        match body {
            // GET: the body travels in a CRC-trailered payload frame.
            Some(body) => {
                proto::write_get_payload(&mut buf, body).expect("in-memory");
                std::hint::black_box(
                    proto::read_get_payload(&mut &buf[..], body.len() as u64).expect("own body"),
                );
            }
            // PUT: the receipt.
            None => {
                let done = serve::Done {
                    ok: true,
                    verified: 0,
                    crc: 0,
                };
                proto::write_done(&mut buf, &done).expect("in-memory");
                std::hint::black_box(proto::read_done(&mut &buf[..]).expect("own receipt"));
            }
        }
    })
    .0
}

/// Layer span name -> the per-layer metric that reports its share.
const SHARES: [(&str, &str); 14] = [
    ("codecs.qlz", "codecs.qlz.busy_frac"),
    ("codecs.heavy", "codecs.heavy.busy_frac"),
    ("codecs.huff", "codecs.huff.busy_frac"),
    ("codecs.columnar", "codecs.columnar.busy_frac"),
    ("codecs.crc32", "codecs.crc32.busy_frac"),
    ("codecs.frame", "codecs.frame.self_frac"),
    ("codecs.seek", "codecs.seek.busy_frac"),
    ("core.portfolio", "core.portfolio.busy_frac"),
    ("core.stream", "core.stream.self_frac"),
    ("core.throttle", "core.throttle.wait_frac"),
    ("serve.proto", "serve.proto.busy_frac"),
    ("serve.server", "serve.server.busy_frac"),
    ("serve.cache", "serve.cache.busy_frac"),
    ("os.file", "os.file.self_frac"),
];

/// Reports every layer's self time as a share of the traced wall time (the
/// sum of the root spans), and what is left as `unattributed`: the shares
/// and `unattributed_frac` add up to 1. A negative remainder means the
/// replayed parts ran longer apart than together — the client and server
/// halves of an operation overlap on two cores.
pub fn attribution(rec: &Recorder, counts: &BlockCounts, out: &mut Outcome) {
    let wall = rec.root_secs();
    let selfs = rec.self_by_name();
    let mut layers = 0.0;
    for (span, metric) in SHARES
        .iter()
        .copied()
        .chain([("os.socket", "os.socket.self_frac")])
    {
        let secs = selfs.get(span).copied().unwrap_or(0.0);
        layers += secs;
        out.push(
            metric,
            secs / wall,
            "frac",
            format!("{secs:.4} s of {wall:.4} s in {span}"),
        );
    }
    let unattributed = wall - layers;
    out.push(
        "traced_wall_s",
        wall,
        "s",
        "sum of the traced round's end-to-end calls".into(),
    );
    out.push(
        "unattributed_s",
        unattributed,
        "s",
        "traced wall minus every layer above".into(),
    );
    out.push(
        "unattributed_frac",
        unattributed / wall,
        "frac",
        "target: within 0.15 of zero".into(),
    );
    out.push(
        "codecs.frame.blocks",
        counts.blocks as f64,
        "count",
        "blocks written in the replay".into(),
    );
    out.push(
        "codecs.frame.raw_fallback_frac",
        counts.raw_fallbacks as f64 / counts.blocks.max(1) as f64,
        "frac",
        "compress attempts whose output was discarded for the stored block".into(),
    );
}

/// Per-layer rates and per-call times on a sample of the workload's own
/// 128 KiB blocks: every codec kernel, CRC, frame, probe, stream read,
/// pipeline, seekable container, request floor, block cache and loopback.
pub fn kernels(cfg: &Cfg, data: &[u8], out: &mut Outcome) {
    // Up to 96 blocks spread evenly over the data.
    let all: Vec<&[u8]> = data.chunks(BLOCK_LEN).collect();
    let want = if cfg.smoke { 12 } else { 96 };
    let step = all.len().div_ceil(want).max(1);
    let sample: Vec<&[u8]> = all.iter().copied().step_by(step).collect();
    let sample_bytes: u64 = sample.iter().map(|b| b.len() as u64).sum();
    let joined: Vec<u8> = sample.concat();

    let mut scratch = Scratch::new();
    let mut dscratch = DecodeScratch::new();
    let mut buf = Vec::with_capacity(2 * BLOCK_LEN);
    let mut restored = Vec::with_capacity(BLOCK_LEN);
    // Compress and decompress rates of one codec over `blocks`.
    let mut codec_rates = |id: CodecId, blocks: &[&[u8]]| -> (f64, f64) {
        let (mut c, mut d, mut bytes) = (0.0, 0.0, 0u64);
        for b in blocks {
            buf.clear();
            c += timed(|| codec_for(id).compress_with(&mut scratch, b, &mut buf)).0;
            restored.clear();
            let (secs, res) = timed(|| {
                codec_for(id).decompress_with(&mut dscratch, &buf, b.len(), &mut restored)
            });
            d += secs;
            out.check(res.is_ok() && restored == *b);
            bytes += b.len() as u64;
        }
        if bytes == 0 {
            (0.0, 0.0)
        } else {
            (bytes as f64 / 1e6 / c, bytes as f64 / 1e6 / d)
        }
    };
    let (light_c, light_d) = codec_rates(CodecId::QlzLight, &sample);
    let (medium_c, medium_d) = codec_rates(CodecId::QlzMedium, &sample);
    // HEAVY is slow: every fifth sample block, which still visits every class.
    let fifth: Vec<&[u8]> = sample.iter().copied().step_by(5).collect();
    let (heavy_c, heavy_d) = codec_rates(CodecId::Heavy, &fifth);
    // HUFF and COLUMNAR on the blocks the portfolio routes to them.
    let routed = |id: CodecId| -> Vec<&[u8]> {
        sample
            .iter()
            .copied()
            .filter(|b| portfolio::nominate(&portfolio::probe(b)).contains(&id))
            .collect()
    };
    let huff_blocks = routed(CodecId::Huffman);
    let columnar_blocks = routed(CodecId::Columnar);
    let (huff_c, huff_d) = codec_rates(CodecId::Huffman, &huff_blocks);
    let (col_c, col_d) = codec_rates(CodecId::Columnar, &columnar_blocks);
    let note = |what: &str| {
        format!(
            "{what}, {} sample blocks of this workload's data",
            sample.len()
        )
    };
    out.push(
        "codecs.qlz.light_compress_mbps",
        light_c,
        "MB/s",
        note("compress_with"),
    );
    out.push(
        "codecs.qlz.medium_compress_mbps",
        medium_c,
        "MB/s",
        note("compress_with"),
    );
    out.push(
        "codecs.qlz.decompress_mbps",
        2.0 / (1.0 / light_d + 1.0 / medium_d),
        "MB/s",
        note("decompress_with, LIGHT and MEDIUM payloads"),
    );
    out.push(
        "codecs.heavy.compress_mbps",
        heavy_c,
        "MB/s",
        format!("{} blocks", fifth.len()),
    );
    out.push(
        "codecs.heavy.decompress_mbps",
        heavy_d,
        "MB/s",
        format!("{} blocks", fifth.len()),
    );
    out.push(
        "codecs.huff.compress_mbps",
        huff_c,
        "MB/s",
        format!("{} routed blocks", huff_blocks.len()),
    );
    out.push(
        "codecs.huff.decompress_mbps",
        huff_d,
        "MB/s",
        format!("{} routed blocks", huff_blocks.len()),
    );
    out.push(
        "codecs.columnar.compress_mbps",
        col_c,
        "MB/s",
        format!("{} routed blocks", columnar_blocks.len()),
    );
    out.push(
        "codecs.columnar.decompress_mbps",
        col_d,
        "MB/s",
        format!("{} routed blocks", columnar_blocks.len()),
    );

    let (crc_s, ()) = timed(|| {
        for b in &sample {
            std::hint::black_box(crc32(b));
        }
    });
    out.push(
        "codecs.crc32.mbps",
        sample_bytes as f64 / 1e6 / crc_s,
        "MB/s",
        note("crc32"),
    );

    // Frame layer at LIGHT: encode_block_with / decode_block_with.
    let mut framed = Vec::new();
    let (enc_s, ()) = timed(|| {
        for b in &sample {
            encode_block_with(&mut scratch, codec_for(CodecId::QlzLight), b, &mut framed);
        }
    });
    let (dec_s, ()) = timed(|| {
        let mut pos = 0;
        while pos < framed.len() {
            restored.clear();
            pos += decode_block_with(
                &mut dscratch,
                &framed[pos..],
                &mut restored,
                DEFAULT_MAX_FRAME,
            )
            .expect("frames we wrote")
            .1;
        }
    });
    out.push(
        "codecs.frame.encode_mbps",
        sample_bytes as f64 / 1e6 / enc_s,
        "MB/s",
        note("encode_block_with at LIGHT"),
    );
    out.push(
        "codecs.frame.decode_mbps",
        sample_bytes as f64 / 1e6 / dec_s,
        "MB/s",
        note("decode_block_with at LIGHT"),
    );

    // Portfolio: probe + nominate, and the codec mix it picks at MEDIUM.
    let (probe_s, picks) = timed(|| {
        sample
            .iter()
            .map(|b| portfolio::select(b, 2))
            .collect::<Vec<CodecId>>()
    });
    out.push(
        "core.portfolio.probe_mbps",
        sample_bytes as f64 / 1e6 / probe_s,
        "MB/s",
        note("select at level 2"),
    );
    let frac = |f: &dyn Fn(CodecId) -> bool| {
        picks.iter().filter(|&&id| f(id)).count() as f64 / picks.len().max(1) as f64
    };
    out.push(
        "core.portfolio.frac_raw",
        frac(&|id| id == CodecId::Raw),
        "frac",
        note("nominated at level 2"),
    );
    out.push(
        "core.portfolio.frac_qlz",
        frac(&|id| matches!(id, CodecId::QlzLight | CodecId::QlzMedium)),
        "frac",
        note("nominated at level 2"),
    );
    out.push(
        "core.portfolio.frac_huff",
        frac(&|id| id == CodecId::Huffman),
        "frac",
        note("nominated at level 2"),
    );
    out.push(
        "core.portfolio.frac_columnar",
        frac(&|id| id == CodecId::Columnar),
        "frac",
        note("nominated at level 2"),
    );
    out.push(
        "core.portfolio.frac_heavy",
        frac(&|id| id == CodecId::Heavy),
        "frac",
        note("nominated at level 2"),
    );

    // Stream layer, read side, over a LIGHT and a portfolio stream.
    let stream_of =
        |level: usize, portfolio_on: bool, seekable: bool, workers: usize| -> (f64, Vec<u8>) {
            timed(|| {
                let mut w = harness::static_writer(Vec::new(), level, portfolio_on);
                w.set_pipeline_workers(workers);
                w.set_seekable(seekable);
                for b in &sample {
                    w.write_all(b).expect("in-memory sink");
                }
                w.finish().expect("in-memory sink").0
            })
        };
    let mut read_rate = |wire: &[u8]| -> f64 {
        let (secs, n) = timed(|| io::copy(&mut AdaptiveReader::new(wire), &mut io::sink()));
        out.check(matches!(n, Ok(n) if n == sample_bytes));
        sample_bytes as f64 / 1e6 / secs
    };
    let light_wire = stream_of(1, false, false, 1).1;
    let portfolio_wire = stream_of(2, true, false, 1).1;
    let (light_rate, portfolio_rate) = (read_rate(&light_wire), read_rate(&portfolio_wire));
    out.push(
        "core.stream.read_light_mbps",
        light_rate,
        "MB/s",
        note("AdaptiveReader over a LIGHT stream"),
    );
    out.push(
        "core.stream.read_portfolio_mbps",
        portfolio_rate,
        "MB/s",
        note("AdaptiveReader over a portfolio stream"),
    );

    // Pipeline: MEDIUM with two workers over serial; wire must not differ.
    let (serial_s, serial_wire) = stream_of(2, false, false, 1);
    let (j2_s, j2_wire) = stream_of(2, false, false, 2);
    out.check(serial_wire == j2_wire);
    out.push(
        "core.pipeline.j2_speedup",
        serial_s / j2_s,
        "ratio",
        format!(
            "MEDIUM serial {serial_s:.4} s / 2 workers {j2_s:.4} s on {} threads",
            cores()
        ),
    );

    // Seekable container: trailer cost and the `adcomp range` path.
    let seekable_wire = stream_of(2, false, true, 1).1;
    out.push(
        "codecs.seek.index_overhead_frac",
        (seekable_wire.len() - serial_wire.len()) as f64 / serial_wire.len() as f64,
        "frac",
        format!(
            "{} trailer B over {} wire B",
            seekable_wire.len() - serial_wire.len(),
            serial_wire.len()
        ),
    );
    let path = cfg.dir.join("seekable.adc");
    std::fs::write(&path, &seekable_wire).expect("write seekable file");
    let index = StreamIndex::scan(&serial_wire).expect("stream we wrote");
    let mut rng = Prng::new(cfg.seed ^ 0x5ee4);
    let reads = if cfg.smoke { 20 } else { 200 };
    let (mut range_us, mut decode_s, mut range_s) = (Vec::new(), 0.0, 0.0);
    for _ in 0..reads {
        let offset = rng.below(sample_bytes.saturating_sub(64 * KIB as u64).max(1));
        let mut got = Vec::new();
        let (secs, res) = timed(|| {
            IndexedReader::open(std::fs::File::open(&path)?)?.read_range(
                offset,
                64 * KIB as u64,
                &mut got,
            )
        });
        let end = (offset as usize + 64 * KIB).min(joined.len());
        out.check(res.is_ok() && got == joined[offset as usize..end]);
        range_us.push(secs * 1e6);
        range_s += secs;
        decode_s += timed(|| {
            for i in index.blocks_covering(offset, 64 * KIB as u64) {
                let e = index.entries[i];
                restored.clear();
                let frame = &serial_wire[e.frame_offset as usize..][..e.frame_len as usize];
                decode_block_with(&mut dscratch, frame, &mut restored, DEFAULT_MAX_FRAME)
                    .expect("frames we wrote");
            }
        })
        .0;
    }
    let _ = std::fs::remove_file(&path);
    out.push(
        "core.seek.read_range_us_p50",
        stats::median(&range_us),
        "us",
        format!("IndexedReader::open + read_range of 64 KiB on a MEDIUM file; n {reads}"),
    );
    out.push(
        "core.seek.self_frac",
        1.0 - decode_s / range_s,
        "frac",
        "share of read_range outside decode_block_with of the covering blocks".into(),
    );

    let floor = request_floor_secs(cfg);
    out.push(
        "serve.server.request_floor_us_p50",
        floor * 1e6,
        "us",
        "get of an unknown transfer: connect, accept, spawn, handshake, reject".into(),
    );

    // Block cache: insert and hit cost with this workload's blocks.
    let cache = BlockCache::new(16 * MIB as u64);
    // A quarter of the budget, like the hot set: nothing is evicted.
    let entries: Vec<_> = sample
        .iter()
        .take(32)
        .map(|b| ((crc32(b), b.len() as u32), Arc::new(b.to_vec())))
        .collect();
    let insert_ns: Vec<f64> = entries
        .iter()
        .map(|(k, v)| timed(|| cache.insert(*k, Arc::clone(v))).0 * 1e9)
        .collect();
    let mut hit_ns = Vec::new();
    for _ in 0..8 {
        for (k, _) in &entries {
            let (secs, hit) = timed(|| cache.get(*k));
            out.check(hit.is_some());
            hit_ns.push(secs * 1e9);
        }
    }
    out.push(
        "serve.cache.get_hit_ns_p50",
        stats::median(&hit_ns),
        "ns",
        format!("BlockCache::get hit; n {}", hit_ns.len()),
    );
    out.push(
        "serve.cache.insert_ns_p50",
        stats::median(&insert_ns),
        "ns",
        format!("BlockCache::insert; n {}", insert_ns.len()),
    );

    // Loopback socket: the same wire bytes through a bench-owned pair.
    let mut loopback = Loopback::new().expect("loopback pair");
    let (sock_s, moved) = timed(|| {
        let mut moved = 0u64;
        for _ in 0..4 {
            for (_, payload) in frames(&light_wire) {
                loopback.round_trip(payload).expect("loopback");
                moved += payload.len() as u64;
            }
        }
        moved
    });
    out.push(
        "os.socket.loopback_mbps",
        moved as f64 / 1e6 / sock_s,
        "MB/s",
        "LIGHT payloads, one round trip per block, over a loopback TcpStream pair".into(),
    );

    let (gen_s, ()) = timed(|| {
        for (i, class) in Class::ALL.into_iter().enumerate() {
            std::hint::black_box(corpus::generate(class, MIB, cfg.seed + 1000 + i as u64));
        }
    });
    out.push(
        "corpus.gen_mbps",
        3.0 * MIB as f64 / 1e6 / gen_s,
        "MB/s",
        "one 1 MiB segment per class".into(),
    );
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
