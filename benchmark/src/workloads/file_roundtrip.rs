//! `file_roundtrip`: what `adcomp compress` / `adcomp decompress` do to one
//! file — codecs, CRC, frame and stream do all the work, sockets, serve
//! and cache none.

use crate::gen::{self, MIB};
use crate::harness::{self, Cfg, Outcome};
use crate::layers::{self, BlockCounts};
use crate::span::{Recorder, SpanId};
use crate::stats;
use adcomp::codecs::crc32::Hasher;
use adcomp::core::{AdaptiveReader, StreamStats};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One compress configuration of a round.
#[derive(Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub level: usize,
    pub portfolio: bool,
}

pub const PHASES: [Phase; 3] = [
    Phase {
        name: "light",
        level: 1,
        portfolio: false,
    },
    Phase {
        name: "medium",
        level: 2,
        portfolio: false,
    },
    Phase {
        name: "portfolio",
        level: 2,
        portfolio: true,
    },
];

pub struct Input {
    pub src: PathBuf,
    pub len: u64,
    pub crc: u32,
}

/// Generates the source file: 1 MiB segments rotating HIGH/MODERATE/LOW.
pub fn setup(cfg: &Cfg) -> Input {
    let pool = gen::rotating_pool(if cfg.smoke { 3 } else { 48 }, cfg.seed);
    let src = cfg.dir.join("source.bin");
    std::fs::write(&src, &pool).expect("write source file");
    let mut h = Hasher::new();
    h.update(&pool);
    Input {
        src,
        len: pool.len() as u64,
        crc: h.finish(),
    }
}

/// The body of `adcomp compress -l LEVEL [--portfolio]` on a file.
pub fn compress(src: &Path, dst: &Path, phase: Phase) -> io::Result<(f64, StreamStats)> {
    let t = Instant::now();
    let mut input = BufReader::new(File::open(src)?);
    let output = BufWriter::new(File::create(dst)?);
    let mut writer = harness::static_writer(output, phase.level, phase.portfolio);
    io::copy(&mut input, &mut writer)?;
    let (mut out, stats) = writer.finish()?;
    out.flush()?;
    drop(out);
    Ok((t.elapsed().as_secs_f64(), stats))
}

/// The body of `adcomp decompress` on a file.
pub fn decompress(src: &Path, dst: &Path) -> io::Result<f64> {
    let t = Instant::now();
    let input = BufReader::new(File::open(src)?);
    let mut output = BufWriter::new(File::create(dst)?);
    let mut reader = AdaptiveReader::new(input);
    io::copy(&mut reader, &mut output)?;
    output.flush()?;
    drop(output);
    Ok(t.elapsed().as_secs_f64())
}

pub fn file_crc(path: &Path) -> io::Result<(u32, u64)> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; MIB];
    let mut h = Hasher::new();
    let mut total = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok((h.finish(), total));
        }
        h.update(&buf[..n]);
        total += n as u64;
    }
}

/// Compress then decompress at `phase`; checks the restored file outside
/// the timed calls. Returns `(compress s, decompress s, stats)`.
pub fn roundtrip(
    input: &Input,
    dir: &Path,
    phase: Phase,
    out: &mut Outcome,
) -> Option<(f64, f64, StreamStats)> {
    let packed = dir.join(format!("{}.adc", phase.name));
    let restored = dir.join("restored.bin");
    let c = compress(&input.src, &packed, phase);
    out.check(c.is_ok());
    let (c_secs, stats) = c.ok()?;
    let d = decompress(&packed, &restored);
    let intact = d.is_ok() && file_crc(&restored).ok() == Some((input.crc, input.len));
    out.check(intact);
    Some((c_secs, d.ok()?, stats))
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (input, setup_s) = harness::median_setup(cfg, || setup(cfg));
    if cfg.registry {
        adcomp::metrics::registry::install(adcomp::metrics::registry::RegistryMode::Wall);
    }
    let mut compress_s: [Vec<f64>; 3] = Default::default();
    let mut decompress_s: [Vec<f64>; 3] = Default::default();
    let (mut app, mut wire) = (0u64, 0u64);
    harness::run_rounds(cfg, |timed| {
        for (i, phase) in PHASES.iter().enumerate() {
            let Some((c, d, stats)) = roundtrip(&input, &cfg.dir, *phase, &mut out) else {
                continue;
            };
            if timed {
                compress_s[i].push(c * 1e3);
                decompress_s[i].push(d * 1e3);
                app += stats.app_bytes;
                wire += stats.wire_bytes;
            }
        }
    });

    let mb = input.len as f64 / 1e6;
    let mut slot = |name, what: &str, alias: &str, ms: &[f64]| {
        let med = harness::over_rounds(ms);
        out.push(
            name,
            med,
            "ms",
            format!(
                "{what}; {alias} = {:.2} MB/s; {}",
                mb / (med / 1e3),
                harness::rounds_note(ms)
            ),
        );
    };
    slot(
        "op1_ms",
        "compress the file at LIGHT",
        "compress_light_mbps",
        &compress_s[0],
    );
    slot(
        "op2_ms",
        "compress the file at MEDIUM",
        "compress_medium_mbps",
        &compress_s[1],
    );
    slot(
        "op3_ms",
        "compress the file at MEDIUM with the portfolio",
        "compress_portfolio_mbps",
        &compress_s[2],
    );
    slot(
        "op4_ms",
        "decompress the MEDIUM stream",
        "decompress_mbps",
        &decompress_s[1],
    );
    slot(
        "op5_ms",
        "decompress the portfolio stream",
        "decompress_portfolio_mbps",
        &decompress_s[2],
    );
    out.push(
        "wire_ratio",
        wire as f64 / app as f64,
        "B/B",
        format!("{wire} wire B / {app} app B over the timed compress passes"),
    );
    out.push(
        "setup_s",
        setup_s,
        "s",
        "generate and write the source file, median of 3".into(),
    );
    out.push(
        "peak_rss_mb",
        harness::peak_rss_mb(),
        "MB",
        "VmHWM at exit".into(),
    );
    out
}

/// One untraced light round trip per timed round, and nothing else: the
/// `--registry` child processes of the traced pass run this to price the
/// metrics registry on the end-to-end path. Prints the median compress
/// time in seconds.
pub fn light_probe(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let input = setup(cfg);
    if cfg.registry {
        adcomp::metrics::registry::install(adcomp::metrics::registry::RegistryMode::Wall);
    }
    let mut secs = Vec::new();
    for i in 0..7 {
        if let Some((c, _, _)) = roundtrip(&input, &cfg.dir, PHASES[0], &mut out) {
            if i > 0 {
                secs.push(c);
            }
        }
    }
    println!("light_probe_s {}", stats::median(&secs));
    out
}

/// Median light compress seconds of a child process with or without the
/// registry installed.
fn light_probe_child(cfg: &Cfg, registry: bool) -> Option<f64> {
    let mut cmd = std::process::Command::new(std::env::current_exe().ok()?);
    cmd.args([
        "--workload",
        "file_roundtrip",
        "--light-probe",
        "--seed",
        &cfg.seed.to_string(),
    ]);
    if registry {
        cmd.arg("--registry");
    }
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().ok()?;
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("light_probe_s "))
        .and_then(|v| v.trim().parse().ok())
}

fn read_through(path: &Path) -> io::Result<u64> {
    io::copy(&mut BufReader::new(File::open(path)?), &mut io::sink())
}

fn write_through(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(bytes)?;
    w.flush()
}

/// The traced pass: one round with a span around each end-to-end call,
/// then every call's bytes replayed through the layers below it.
pub fn traced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let input = setup(cfg);
    let pool = std::fs::read(&input.src).expect("read source file");
    let round = |out: &mut Outcome, rec: Option<&mut Recorder>| -> (f64, Vec<(SpanId, SpanId)>) {
        let mut rec = rec;
        let mut roots = Vec::new();
        let mut secs = 0.0;
        for (i, phase) in PHASES.iter().enumerate() {
            if let Some((c, d, _)) = roundtrip(&input, &cfg.dir, *phase, out) {
                secs += c + d;
                if let Some(rec) = rec.as_deref_mut() {
                    let op = i as u64 * 2;
                    roots.push((
                        rec.add("e2e.compress", None, op, c),
                        rec.add("e2e.decompress", None, op + 1, d),
                    ));
                }
            }
        }
        (secs, roots)
    };
    round(&mut out, None);
    let (untraced_s, _) = round(&mut out, None);
    let mut rec = Recorder::new();
    let (traced_s, roots) = round(&mut out, Some(&mut rec));

    let mut counts = BlockCounts::default();
    let scratch_file = cfg.dir.join("replay.bin");
    for (i, &(c_root, d_root)) in roots.iter().enumerate() {
        let phase = PHASES[i];
        let (c_op, d_op) = (i as u64 * 2, i as u64 * 2 + 1);
        let wire = layers::replay_write(
            &mut rec,
            c_root,
            c_op,
            &pool,
            phase.level,
            phase.portfolio,
            &mut counts,
        );
        rec.span("os.file", Some(c_root), c_op, || {
            read_through(&input.src)
                .and_then(|_| write_through(&scratch_file, &wire))
                .expect("file replay")
        });
        let restored = layers::replay_read(&mut rec, d_root, d_op, &wire, 8 * 1024);
        out.check(restored == input.len);
        rec.span("os.file", Some(d_root), d_op, || {
            read_through(&scratch_file)
                .and_then(|_| write_through(&scratch_file, &pool))
                .expect("file replay")
        });
    }
    layers::attribution(&rec, &counts, &mut out);
    out.push(
        "trace.overhead_frac",
        traced_s / untraced_s - 1.0,
        "frac",
        format!("traced round {traced_s:.4} s over untraced round {untraced_s:.4} s"),
    );
    layers::kernels(cfg, &pool, &mut out);
    match (light_probe_child(cfg, false), light_probe_child(cfg, true)) {
        (Some(off), Some(on)) => out.push(
            "metrics.registry.on_overhead_frac",
            on / off - 1.0,
            "frac",
            format!("light compress {on:.4} s with the wall registry installed over {off:.4} s without, one child process each"),
        ),
        _ => out.check(false),
    }
    let _ = rec.write_jsonl(std::path::Path::new(
        "benchmark/out/trace-file_roundtrip.jsonl",
    ));
    out.zero_fill(&crate::suite::PER_LAYER);
    out
}
