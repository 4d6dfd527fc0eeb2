//! `shared_link`: the paper's scenario. One transfer through the adaptive
//! writer and a throttled loopback connection — the link, not the CPU, is
//! the limit, so only better level decisions or better ratios move it.

use crate::gen::{BLOCK_LEN, MIB};
use crate::harness::{self, Cfg, Outcome};
use crate::layers::{self, BlockCounts};
use crate::span::Recorder;
use adcomp::codecs::crc32::Hasher;
use adcomp::core::{
    AdaptiveReader, AdaptiveWriter, DecisionModel, RateBasedModel, StaticModel, StreamStats,
    ThrottledWriter, WallClock,
};
use adcomp::corpus::source::{ByteSource, SwitchingSource};
use adcomp::corpus::{Class, CyclicSource};
use adcomp::prelude::LevelSet;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

/// The contended share of the link, bytes per second.
pub const LINK_BPS: f64 = 6.0e6;
/// A less contended share: here the CPU, not only the link, limits.
pub const FAST_LINK_BPS: f64 = 24.0e6;
pub const EPOCH_SECS: f64 = 0.5;
/// Bytes per compressibility phase of a rotating leg; a cycle is three.
pub const PHASE_BYTES: u64 = 24 * MIB as u64;

/// One transfer: its data, its link share and its length.
#[derive(Clone)]
pub struct Leg {
    pub name: &'static str,
    /// Compressibility classes the source rotates through, one phase each.
    pub classes: &'static [Class],
    pub link_bps: f64,
    pub phase_bytes: u64,
    pub bytes: u64,
    pub seed: u64,
}

/// The legs of one run. `main` is the paper's scenario (the issue's one
/// transfer); the side legs show DYNAMIC on one class at a time and on a
/// less contended link. Sizes are fixed by `--seconds` alone, so two runs
/// with the same arguments move the same bytes.
pub fn legs(cfg: &Cfg) -> [Leg; 5] {
    // MiB of application data per second of `--seconds` for each leg,
    // sized so `main` takes about 65 % of the run and each side leg 8 %.
    let mib = |per_second: f64| ((cfg.seconds * per_second).round().max(1.0) as u64) * MIB as u64;
    let (phase_bytes, cycle) = if cfg.smoke {
        (2 * MIB as u64, 6 * MIB as u64)
    } else {
        (PHASE_BYTES, 3 * PHASE_BYTES)
    };
    let cycles = |share: f64, cycle_secs: f64| {
        if cfg.smoke {
            cycle
        } else {
            ((cfg.seconds * share / cycle_secs).round().max(1.0) as u64) * cycle
        }
    };
    let smoke = |bytes: u64| if cfg.smoke { 2 * MIB as u64 } else { bytes };
    let leg = |name, classes, link_bps, bytes| Leg {
        name,
        classes,
        link_bps,
        phase_bytes,
        bytes,
        seed: cfg.seed,
    };
    [
        leg("main", &Class::ALL, LINK_BPS, cycles(0.65, 6.7)),
        leg("high", &[Class::High], LINK_BPS, smoke(mib(4.0))),
        leg("moderate", &[Class::Moderate], LINK_BPS, smoke(mib(1.0))),
        leg("low", &[Class::Low], LINK_BPS, smoke(mib(0.5))),
        leg("fast", &Class::ALL, FAST_LINK_BPS, cycles(0.08, 2.5)),
    ]
}

impl Leg {
    /// The application's data: one phase per class, round-robin.
    pub fn source(&self) -> SwitchingSource {
        let sources: Vec<Box<dyn ByteSource>> = self
            .classes
            .iter()
            .map(|&c| {
                let seed = self.seed + Class::ALL.iter().position(|&a| a == c).unwrap() as u64;
                Box::new(CyclicSource::of_class(c, MIB, seed)) as Box<dyn ByteSource>
            })
            .collect();
        SwitchingSource::new(sources, self.phase_bytes)
    }

    /// CRC-32 of the leg's `bytes` source bytes.
    pub fn source_crc(&self) -> u32 {
        let mut source = self.source();
        let mut buf = vec![0u8; BLOCK_LEN];
        let mut h = Hasher::new();
        let mut left = self.bytes;
        while left > 0 {
            let n = left.min(BLOCK_LEN as u64) as usize;
            source.fill(&mut buf[..n]);
            h.update(&buf[..n]);
            left -= n as u64;
        }
        h.finish()
    }
}

pub struct Transfer {
    /// First write to receiver EOF.
    pub secs: f64,
    /// Seconds the sender spent inside the writer's `write_all`/`finish`.
    pub write_secs: f64,
    pub stats: StreamStats,
    pub received_crc: u32,
    pub received_bytes: u64,
}

impl Transfer {
    pub fn intact(&self, leg: &Leg, expected_crc: u32) -> bool {
        self.received_bytes == leg.bytes && self.received_crc == expected_crc
    }
}

/// Streams the leg through `AdaptiveWriter(make_sink(socket))` — the sink
/// is a `ThrottledWriter` over the socket; the receiver thread decodes and
/// checksums. `before_block` sees the writer before each block (the
/// traced pass samples the level there).
pub fn transfer<W: Write>(
    leg: &Leg,
    model: Box<dyn DecisionModel>,
    make_sink: impl FnOnce(TcpStream) -> W,
    mut before_block: impl FnMut(&AdaptiveWriter<W>),
) -> io::Result<(Transfer, W)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let receiver = std::thread::Builder::new()
        .name("bench-receiver".into())
        .spawn(move || -> io::Result<(u32, u64, Instant)> {
            let (stream, _) = listener.accept()?;
            let mut reader = AdaptiveReader::new(stream);
            let mut buf = vec![0u8; 2 * BLOCK_LEN];
            let mut h = Hasher::new();
            let mut total = 0u64;
            loop {
                let n = reader.read(&mut buf)?;
                if n == 0 {
                    return Ok((h.finish(), total, Instant::now()));
                }
                h.update(&buf[..n]);
                total += n as u64;
            }
        })?;

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let closer = stream.try_clone()?;
    let mut writer = AdaptiveWriter::with_params(
        make_sink(stream),
        LevelSet::paper_default(),
        model,
        BLOCK_LEN,
        EPOCH_SECS,
        Box::new(WallClock::new()),
    );
    let mut source = leg.source();
    let mut block = vec![0u8; BLOCK_LEN];
    let mut write_secs = 0.0;
    let start = Instant::now();
    let sender = (|| -> io::Result<()> {
        let mut left = leg.bytes;
        while left > 0 {
            let n = left.min(BLOCK_LEN as u64) as usize;
            source.fill(&mut block[..n]);
            before_block(&writer);
            let t = Instant::now();
            writer.write_all(&block[..n])?;
            write_secs += t.elapsed().as_secs_f64();
            left -= n as u64;
        }
        Ok(())
    })();
    // Closing the write half is what ends the receiver: do it before
    // joining, whatever the sender's outcome was.
    let t = Instant::now();
    let sink = writer.finish().and_then(|(mut sink, stats)| {
        sink.flush()?;
        Ok((sink, stats))
    });
    write_secs += t.elapsed().as_secs_f64();
    let _ = closer.shutdown(Shutdown::Write);
    let received = receiver.join().expect("receiver thread panicked");
    sender?;
    let (sink, stats) = sink?;
    let (received_crc, received_bytes, eof) = received?;
    let secs = (eof - start).as_secs_f64();
    Ok((
        Transfer {
            secs,
            write_secs,
            stats,
            received_crc,
            received_bytes,
        },
        sink,
    ))
}

/// What each `opN_ms` slot holds on this workload.
const SLOTS: [(&str, &str); 5] = [
    ("op1_ms", "goodput_mbps"),
    ("op2_ms", "goodput_high_mbps"),
    ("op3_ms", "goodput_moderate_mbps"),
    ("op4_ms", "goodput_low_mbps"),
    ("op5_ms", "goodput_fast_link_mbps"),
];

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (plan, setup_s) = harness::median_setup(cfg, || {
        let legs = legs(cfg);
        let crcs: Vec<u32> = legs.iter().map(Leg::source_crc).collect();
        (legs, crcs)
    });
    let (legs, crcs) = plan;
    // Side legs first, the main transfer last: its wire ratio is the
    // workload's.
    for i in [1, 2, 3, 4, 0] {
        let leg = &legs[i];
        let result = transfer(
            leg,
            Box::new(RateBasedModel::paper_default()),
            |s| ThrottledWriter::new(s, leg.link_bps),
            |_| {},
        );
        out.check(matches!(&result, Ok((t, _)) if t.intact(leg, crcs[i])));
        let Ok((t, _socket)) = result else {
            continue;
        };
        out.push(
            SLOTS[i].0,
            t.secs * 1e3,
            "ms",
            format!(
                "DYNAMIC transfer '{}' of {:.0} MB at {:.0} MB/s link, first write to receiver EOF; {} = {:.3} MB/s; ratio {:.4}, {} epochs, blocks per level {:?}",
                leg.name,
                leg.bytes as f64 / 1e6,
                leg.link_bps / 1e6,
                SLOTS[i].1,
                harness::mbps(leg.bytes, t.secs),
                t.stats.wire_ratio(),
                t.stats.epochs,
                t.stats.blocks_per_level
            ),
        );
        if i == 0 {
            out.push(
                "wire_ratio",
                t.stats.wire_ratio(),
                "B/B",
                format!(
                    "{} wire B / {} app B of the main transfer",
                    t.stats.wire_bytes, t.stats.app_bytes
                ),
            );
        }
    }
    out.push(
        "setup_s",
        setup_s,
        "s",
        "build the sources and checksum them, median of 3".into(),
    );
    out.push(
        "peak_rss_mb",
        harness::peak_rss_mb(),
        "MB",
        "VmHWM at exit".into(),
    );
    out
}

/// Times every `write` of the sink below it.
pub struct Timed<W> {
    inner: W,
    secs: f64,
}

impl<W: Write> Write for Timed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf);
        self.secs += t.elapsed().as_secs_f64();
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The traced pass: the main transfer with bench-side timers above and
/// below the throttle, its blocks replayed through frame, kernels and CRC
/// at the levels the controller chose, and three static-level oracle legs.
/// The receiver's decode runs beside the sender on the other core and is
/// never what the transfer waits for, so it is not replayed.
pub fn traced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let main = legs(cfg)[0].clone();
    let mut levels: Vec<usize> = Vec::new();
    let result = transfer(
        &main,
        Box::new(RateBasedModel::paper_default()),
        |s| Timed {
            inner: ThrottledWriter::new(
                Timed {
                    inner: s,
                    secs: 0.0,
                },
                main.link_bps,
            ),
            secs: 0.0,
        },
        |w| levels.push(w.level()),
    );
    out.check(matches!(&result, Ok((t, _)) if t.intact(&main, main.source_crc())));
    let Ok((t, sink)) = result else {
        return out;
    };
    let throttled_s = sink.secs;
    let socket_s = sink.inner.into_inner().secs;

    let mut data = vec![0u8; main.bytes as usize];
    main.source().fill(&mut data);
    let mut rec = Recorder::new();
    let root = rec.add("e2e.transfer", None, 0, t.secs);
    rec.add("core.throttle", Some(root), 0, throttled_s - socket_s);
    rec.add("os.socket", Some(root), 0, socket_s);
    let stream = rec.add("core.stream", Some(root), 0, t.write_secs - throttled_s);
    let mut counts = BlockCounts::default();
    let ladder = LevelSet::paper_default();
    let plan = data
        .chunks(BLOCK_LEN)
        .zip(levels.iter().map(|&l| ladder.id(l)));
    layers::replay_frames(&mut rec, stream, 0, plan, &mut counts);
    layers::attribution(&rec, &counts, &mut out);
    out.push(
        "trace.overhead_frac",
        0.0,
        "frac",
        "one transfer per run: the timers add two clock reads per 16 KiB slice".into(),
    );

    let blocks: u64 = t.stats.blocks_per_level.iter().sum();
    out.push(
        "core.controller.epochs",
        t.stats.epochs as f64,
        "count",
        "decision epochs of 0.5 s".into(),
    );
    out.push(
        "core.controller.switches",
        levels.windows(2).filter(|w| w[0] != w[1]).count() as f64,
        "count",
        "level changes between consecutive blocks".into(),
    );
    for (level, name) in [
        "core.controller.level0_frac",
        "core.controller.level1_frac",
        "core.controller.level2_frac",
        "core.controller.level3_frac",
    ]
    .into_iter()
    .enumerate()
    {
        let n = t.stats.blocks_per_level[level];
        out.push(
            name,
            n as f64 / blocks as f64,
            "frac",
            format!("{n} of {blocks} blocks"),
        );
    }
    out.push(
        "core.throttle.link_util_frac",
        t.stats.wire_bytes as f64 / main.link_bps / t.secs,
        "frac",
        format!(
            "{} wire B at {:.0} B/s over {:.3} s",
            t.stats.wire_bytes, main.link_bps, t.secs
        ),
    );

    // Oracle legs: each static level on the first cycle of the source.
    let cycle = Leg {
        bytes: main.bytes.min(3 * main.phase_bytes),
        ..main.clone()
    };
    let dynamic_mbps = harness::mbps(main.bytes, t.secs);
    println!(
        "{:<8} {:>9} {:>11} {:>8}  blocks per level",
        "scheme", "time [s]", "app [MB/s]", "ratio"
    );
    let row = |name: &str, secs: f64, bytes: u64, stats: &StreamStats| {
        println!(
            "{name:<8} {secs:>9.2} {:>11.3} {:>8.4}  {:?}",
            harness::mbps(bytes, secs),
            stats.wire_ratio(),
            stats.blocks_per_level
        );
    };
    let mut best_static = 0.0f64;
    let cycle_crc = cycle.source_crc();
    for level in 1..4 {
        let result = transfer(
            &cycle,
            Box::new(StaticModel::new(level, 4)),
            |s| ThrottledWriter::new(s, cycle.link_bps),
            |_| {},
        );
        out.check(matches!(&result, Ok((t, _)) if t.intact(&cycle, cycle_crc)));
        if let Ok((s, _)) = result {
            row(
                ["NO", "LIGHT", "MEDIUM", "HEAVY"][level],
                s.secs,
                cycle.bytes,
                &s.stats,
            );
            best_static = best_static.max(harness::mbps(cycle.bytes, s.secs));
        }
    }
    row("DYNAMIC", t.secs, main.bytes, &t.stats);
    out.push(
        "core.controller.regret_frac",
        1.0 - dynamic_mbps / best_static,
        "frac",
        format!("DYNAMIC {dynamic_mbps:.3} MB/s against the best static level's {best_static:.3} MB/s on one cycle"),
    );

    layers::kernels(
        cfg,
        &data[..data.len().min(3 * main.phase_bytes as usize)],
        &mut out,
    );
    let _ = rec.write_jsonl(std::path::Path::new(
        "benchmark/out/trace-shared_link.jsonl",
    ));
    out.zero_fill(&crate::suite::PER_LAYER);
    out
}
