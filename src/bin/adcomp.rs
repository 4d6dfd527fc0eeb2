//! `adcomp` — command-line adaptive compression.
//!
//! A gzip-style utility around the library: compresses any file or stream
//! into the self-describing block-frame format, choosing the level
//! adaptively (or statically), and decompresses it back. Useful for piping
//! through bandwidth-constrained transports exactly the way the paper's
//! scheme is meant to be deployed — no coordination with the receiver.
//!
//! ```text
//! adcomp compress   [-l NO|LIGHT|MEDIUM|HEAVY|DYNAMIC] [-b BLOCK_KB] [-t EPOCH_S] [--pipeline-workers W] [--seekable] [IN] [OUT]
//! adcomp decompress [--pipeline-workers W] [IN] [OUT]
//! adcomp range      --offset N [--len N] [--pipeline-workers W] IN [OUT]
//! adcomp probe      [IN]          # report compressibility + per-level ratios
//! adcomp trace      [-l LEVEL] [-t EPOCH_S] [--class C] [--flows N] [--gb G] [OUT.jsonl]
//! adcomp chaos      [--runs N] [--seed S]             # fault-injection soak
//! adcomp chaos --net [--runs N] [--seed S] [--fault-rate R]  # socket-level soak
//! adcomp serve      [--listen A] [--metrics A] [--max-streams N] [--tenant-streams N] [--rate-bps B] [--cache-mb M]
//! adcomp put        --url HOST:PORT [--tenant T] [--id N] [IN]
//! adcomp get        --url HOST:PORT [--tenant T] [--id N] [--offset N] [--len N] [OUT]
//! adcomp drain      --url HOST:PORT
//! adcomp proxy      --listen A --url UPSTREAM [--seed S] [--fault-rate R]
//! ```
//!
//! `IN`/`OUT` default to stdin/stdout; `-` selects them explicitly.
//!
//! `trace` replays one deterministic Table-2 cell on the virtual-cloud
//! simulator with full instrumentation: the structured JSONL trace (run
//! manifest + per-epoch decision events with `DecisionCase`, cdr/pdr and
//! backoff state + simulator events) goes to `OUT.jsonl` (default stdout),
//! while an ASCII level-over-time timeline and a Prometheus-style snapshot
//! go to stderr — stdout stays machine-parseable.

use adcomp::codecs::{codec_for, compress_fresh, CodecId, LevelSet};
use adcomp::core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp::core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp::core::WallClock;
use adcomp::corpus::Class;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

struct Options {
    level: Option<usize>, // None = DYNAMIC
    block_kb: usize,
    epoch_secs: f64,
    class: Class,
    flows: usize,
    gb: f64,
    runs: usize,
    seed: u64,
    pipeline_workers: usize,
    url: Option<String>,
    once: bool,
    raw: bool,
    interval: f64,
    input: Option<String>,
    output: Option<String>,
    // serve / put / drain / proxy / chaos --net
    listen: String,
    metrics: Option<String>,
    tenant: String,
    transfer_id: u64,
    max_streams: usize,
    tenant_streams: usize,
    rate_bps: Option<f64>,
    net: bool,
    fault_rate: f64,
    concurrency: usize,
    // per-block content-aware codec selection
    portfolio: bool,
    // seekable container / ranged reads
    seekable: bool,
    offset: u64,
    len: Option<u64>,
    cache_mb: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: adcomp compress   [-l LEVEL] [-b BLOCK_KB] [-t EPOCH_S] [--seekable] [--portfolio] [IN] [OUT]\n\
         \x20      adcomp decompress [IN] [OUT]\n\
         \x20      adcomp range      --offset N [--len N] IN [OUT]\n\
         \x20      adcomp probe      [IN]\n\
         \x20      adcomp trace      [-l LEVEL] [-t EPOCH_S] [--class C] [--flows N] [--gb G] [OUT.jsonl]\n\
         \x20      adcomp chaos      [--runs N] [--seed S] [--net [--fault-rate R] [--concurrency N]]\n\
         \x20      adcomp serve      [--listen A] [--metrics A] [--max-streams N] [--tenant-streams N] [--rate-bps B] [--cache-mb M]\n\
         \x20      adcomp put        --url HOST:PORT [--tenant T] [--id N] [-l LEVEL] [IN]\n\
         \x20      adcomp get        --url HOST:PORT [--tenant T] [--id N] [--offset N] [--len N] [OUT]\n\
         \x20      adcomp drain      --url HOST:PORT\n\
         \x20      adcomp proxy      --listen A --url UPSTREAM [--seed S] [--fault-rate R]\n\
         \x20      adcomp top        [--url HOST:PORT[/PATH]] [--once] [--raw] [--interval S] [--gb G]\n\
         LEVEL: NO | LIGHT | MEDIUM | HEAVY | DYNAMIC (default DYNAMIC)\n\
         C    : HIGH | MODERATE | LOW (default HIGH); N: 0..=3 (default 2); G: simulated GB (default 2)\n\
         chaos: N seeded fault-injection runs (default 64);\n\
         \x20    --net runs real client-proxy-server transfers over loopback sockets\n\
         serve: overload-resilient daemon; exits 0 once drained (see `adcomp drain`)\n\
         top  : live dashboard from a served /metrics endpoint (--url), or a\n\
         \x20    deterministic simulated class/flow grid when no --url is given;\n\
         \x20    --raw prints the Prometheus exposition instead of the dashboard\n\
         --pipeline-workers W (compress/decompress/trace): compression worker\n\
         \x20    threads; 1 = serial (default, or $ADCOMP_THREADS), 0 = auto\n\
         --seekable (compress): append a block index trailer so `adcomp range`\n\
         \x20    finds the covering blocks without walking the frame headers\n\
         --portfolio (compress/put/trace): per-block content probes pick the codec\n\
         \x20    family (HUFF, COLUMNAR, ladder) backing each compression level"
    );
    std::process::exit(2)
}

fn parse_level(s: &str) -> Option<usize> {
    match s.to_ascii_uppercase().as_str() {
        "NO" | "0" => Some(0),
        "LIGHT" | "1" => Some(1),
        "MEDIUM" | "2" => Some(2),
        "HEAVY" | "3" => Some(3),
        "DYNAMIC" | "ADAPTIVE" => None,
        _ => usage(),
    }
}

fn parse_class(s: &str) -> Class {
    match s.to_ascii_uppercase().as_str() {
        "HIGH" => Class::High,
        "MODERATE" | "MODERATELY" | "MED" => Class::Moderate,
        "LOW" => Class::Low,
        _ => usage(),
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        level: None,
        block_kb: 128,
        epoch_secs: 2.0,
        class: Class::High,
        flows: 2,
        gb: 2.0,
        runs: 64,
        seed: 0xC4405,
        // Workers default to $ADCOMP_THREADS when set, else serial.
        pipeline_workers: std::env::var("ADCOMP_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        url: None,
        once: false,
        raw: false,
        interval: 2.0,
        input: None,
        output: None,
        listen: "127.0.0.1:0".to_string(),
        metrics: None,
        tenant: "default".to_string(),
        transfer_id: 1,
        max_streams: 64,
        tenant_streams: 8,
        rate_bps: None,
        net: false,
        fault_rate: 0.02,
        concurrency: 4,
        portfolio: false,
        seekable: false,
        offset: 0,
        len: None,
        cache_mb: 64,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-l" | "--level" => {
                i += 1;
                opts.level = parse_level(args.get(i).unwrap_or_else(|| usage()));
            }
            "-b" | "--block-kb" => {
                i += 1;
                opts.block_kb =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.block_kb == 0 || opts.block_kb > 4096 {
                    eprintln!("block size must be 1..=4096 KiB");
                    std::process::exit(2);
                }
            }
            "-t" | "--epoch" => {
                i += 1;
                opts.epoch_secs =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                // NaN parses successfully but must be rejected too.
                if opts.epoch_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    eprintln!("epoch length must be positive seconds");
                    std::process::exit(2);
                }
            }
            "--class" => {
                i += 1;
                opts.class = parse_class(args.get(i).unwrap_or_else(|| usage()));
            }
            "--flows" => {
                i += 1;
                opts.flows = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.flows > 3 {
                    eprintln!("flows must be 0..=3 (the paper's contention settings)");
                    std::process::exit(2);
                }
            }
            "--gb" => {
                i += 1;
                opts.gb = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.gb.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    eprintln!("simulated volume must be positive GB");
                    std::process::exit(2);
                }
            }
            "--runs" => {
                i += 1;
                opts.runs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.runs == 0 {
                    eprintln!("runs must be positive");
                    std::process::exit(2);
                }
            }
            "--seed" => {
                i += 1;
                opts.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--net" => opts.net = true,
            "--seekable" => opts.seekable = true,
            "--portfolio" => opts.portfolio = true,
            "--offset" => {
                i += 1;
                opts.offset =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--len" => {
                i += 1;
                opts.len =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--cache-mb" => {
                i += 1;
                opts.cache_mb =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--listen" => {
                i += 1;
                opts.listen = args.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--metrics" => {
                i += 1;
                opts.metrics = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--tenant" => {
                i += 1;
                opts.tenant = args.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--id" => {
                i += 1;
                opts.transfer_id =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--max-streams" => {
                i += 1;
                opts.max_streams =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.max_streams == 0 {
                    eprintln!("max streams must be positive");
                    std::process::exit(2);
                }
            }
            "--tenant-streams" => {
                i += 1;
                opts.tenant_streams =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.tenant_streams == 0 {
                    eprintln!("per-tenant streams must be positive");
                    std::process::exit(2);
                }
            }
            "--rate-bps" => {
                i += 1;
                let bps: f64 =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    eprintln!("tenant rate cap must be positive bytes/s");
                    std::process::exit(2);
                }
                opts.rate_bps = Some(bps);
            }
            "--fault-rate" => {
                i += 1;
                opts.fault_rate =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if !(0.0..=1.0).contains(&opts.fault_rate) {
                    eprintln!("fault rate must be in [0, 1]");
                    std::process::exit(2);
                }
            }
            "--concurrency" => {
                i += 1;
                opts.concurrency =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.concurrency == 0 || opts.concurrency > 64 {
                    eprintln!("concurrency must be 1..=64");
                    std::process::exit(2);
                }
            }
            "--url" => {
                i += 1;
                opts.url = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--once" => opts.once = true,
            "--raw" => opts.raw = true,
            "--interval" => {
                i += 1;
                opts.interval =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if opts.interval.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    eprintln!("refresh interval must be positive seconds");
                    std::process::exit(2);
                }
            }
            "--pipeline-workers" | "-j" => {
                i += 1;
                let w: usize =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if w > 64 {
                    eprintln!("pipeline workers must be 0 (auto) ..=64");
                    std::process::exit(2);
                }
                opts.pipeline_workers =
                    if w == 0 { adcomp::core::pipeline::default_workers() } else { w };
            }
            "-h" | "--help" => usage(),
            other => {
                if opts.input.is_none() {
                    opts.input = Some(other.to_string());
                } else if opts.output.is_none() {
                    opts.output = Some(other.to_string());
                } else {
                    usage();
                }
            }
        }
        i += 1;
    }
    opts
}

fn open_input(path: &Option<String>) -> io::Result<Box<dyn Read>> {
    match path.as_deref() {
        None | Some("-") => Ok(Box::new(io::stdin().lock())),
        Some(p) => Ok(Box::new(BufReader::new(std::fs::File::open(p)?))),
    }
}

fn open_output(path: &Option<String>) -> io::Result<Box<dyn Write>> {
    match path.as_deref() {
        None | Some("-") => Ok(Box::new(io::stdout().lock())),
        Some(p) => Ok(Box::new(BufWriter::new(std::fs::File::create(p)?))),
    }
}

fn cmd_compress(opts: Options) -> io::Result<()> {
    let mut input = open_input(&opts.input)?;
    let output = open_output(&opts.output)?;
    let model: Box<dyn DecisionModel> = match opts.level {
        Some(l) => Box::new(StaticModel::new(l, 4)),
        None => Box::new(RateBasedModel::paper_default()),
    };
    let mut writer = AdaptiveWriter::with_params(
        output,
        LevelSet::paper_default(),
        model,
        opts.block_kb * 1024,
        opts.epoch_secs,
        Box::new(WallClock::new()),
    );
    writer.set_pipeline_workers(opts.pipeline_workers);
    if opts.seekable {
        writer.set_seekable(true);
    }
    if opts.portfolio {
        writer.set_portfolio(true);
    }
    io::copy(&mut input, &mut writer)?;
    let (mut out, stats) = writer.finish()?;
    out.flush()?;
    let names = ["NO", "LIGHT", "MEDIUM", "HEAVY"];
    let mix: Vec<String> = stats
        .blocks_per_level
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(l, c)| format!("{}x{}", names[l], c))
        .collect();
    // In portfolio mode the level mix no longer names the wire codecs, so
    // report the per-codec-family block counts too.
    let codec_mix: Vec<String> = stats
        .blocks_per_codec
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .filter_map(|(id, &c)| {
            CodecId::from_u8(id as u8).ok().map(|cid| format!("{}x{}", cid.level_name(), c))
        })
        .collect();
    eprintln!(
        "adcomp: {} -> {} bytes (ratio {:.3}), {} epochs, levels {}{}{}",
        stats.app_bytes,
        stats.wire_bytes,
        stats.wire_ratio(),
        stats.epochs,
        mix.join(","),
        if opts.portfolio { format!(", codecs {}", codec_mix.join(",")) } else { String::new() },
        if opts.seekable { " [indexed]" } else { "" }
    );
    Ok(())
}

/// Decodes one byte range out of a stream without touching the rest:
/// `--offset`/`--len` select the application bytes, the block index
/// selects the covering frames. The index is the trailer of a `--seekable`
/// stream, or a walk of the frame headers of any other, where the blocks
/// before the range are decoded too, to check the lengths that place it.
/// A range that reaches a cut mid-frame is an error, and so is a missing
/// `--len` on such a stream.
fn cmd_range(opts: Options) -> io::Result<()> {
    use adcomp::core::IndexedReader;

    let Some(path) = opts.input.as_deref().filter(|p| *p != "-") else {
        eprintln!("adcomp range: a seekable input FILE is required (stdin cannot seek)");
        std::process::exit(2);
    };
    let mut reader = IndexedReader::open(std::fs::File::open(path)?)?;
    reader.set_pipeline_workers(opts.pipeline_workers);
    let len = match opts.len {
        Some(len) => len,
        None => reader.total_uncompressed()?.saturating_sub(opts.offset),
    };
    let mut out = Vec::new();
    let n = reader.read_range(opts.offset, len, &mut out)?;
    let mut sink = open_output(&opts.output)?;
    sink.write_all(&out)?;
    sink.flush()?;
    let index = reader.index();
    eprintln!(
        "adcomp range: [{}, {}) of {} indexed bytes via a block index of {} frames",
        opts.offset,
        opts.offset + n as u64,
        index.total_uncompressed(),
        index.entries.len(),
    );
    Ok(())
}

/// Fetches a byte range of a completed transfer from an `adcomp serve`
/// daemon; without `--len` the whole remainder is fetched.
fn cmd_get(opts: Options) -> io::Result<()> {
    use std::time::Duration;

    let Some(url) = opts.url.clone() else {
        eprintln!("adcomp get: --url HOST:PORT is required");
        std::process::exit(2);
    };
    let bytes = adcomp::serve::get(
        resolve(&url)?,
        &opts.tenant,
        opts.transfer_id,
        opts.offset,
        opts.len.unwrap_or(u64::MAX),
        Duration::from_secs(5),
    )?;
    // The single positional argument is the output destination.
    let mut sink = open_output(&opts.input)?;
    sink.write_all(&bytes)?;
    sink.flush()?;
    eprintln!(
        "adcomp get: {} bytes of {}/{} from offset {}",
        bytes.len(),
        opts.tenant,
        opts.transfer_id,
        opts.offset,
    );
    Ok(())
}

fn cmd_decompress(opts: Options) -> io::Result<()> {
    let input = open_input(&opts.input)?;
    let mut output = open_output(&opts.output)?;
    let mut reader = AdaptiveReader::new(input);
    reader.set_pipeline_workers(opts.pipeline_workers);
    io::copy(&mut reader, &mut output)?;
    output.flush()?;
    eprintln!(
        "adcomp: {} wire bytes -> {} bytes in {} blocks",
        reader.wire_bytes(),
        reader.app_bytes(),
        reader.blocks()
    );
    Ok(())
}

fn cmd_probe(opts: Options) -> io::Result<()> {
    let mut input = open_input(&opts.input)?;
    // Probe on up to 8 MiB.
    let mut sample = Vec::new();
    input.by_ref().take(8 * 1024 * 1024).read_to_end(&mut sample)?;
    if sample.is_empty() {
        eprintln!("adcomp: empty input");
        return Ok(());
    }
    println!(
        "bytes sampled : {}\nshannon       : {:.3} bits/byte\ndigram        : {:.3} bits/byte\nscore         : {:.3} (0 = incompressible)",
        sample.len(),
        adcomp::corpus::entropy::shannon_bits_per_byte(&sample),
        adcomp::corpus::entropy::digram_bits_per_byte(&sample),
        adcomp::corpus::entropy::compressibility_score(&sample),
    );
    for id in CodecId::REGISTRY {
        if id == CodecId::Raw {
            continue;
        }
        let codec = codec_for(id);
        let start = std::time::Instant::now();
        let mut out = Vec::new();
        compress_fresh(codec, &sample, &mut out);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<8}: ratio {:.3}, {:7.1} MB/s",
            id.level_name(),
            out.len() as f64 / sample.len() as f64,
            sample.len() as f64 / 1e6 / secs.max(1e-9)
        );
    }
    // Portfolio view: what the per-block probe sees and which ladder it
    // nominates for this sample.
    let p = adcomp::core::portfolio::probe(&sample);
    let ladder = adcomp::core::portfolio::nominate(&p);
    println!(
        "probe         : entropy {:.3} bits/byte, runs {:.3}, distinct {}\nportfolio     : {}",
        p.entropy_bits,
        p.run_fraction,
        p.distinct,
        ladder.map(|c| c.level_name()).join(" -> "),
    );
    Ok(())
}

/// Replays one deterministic Table-2 cell with full instrumentation and
/// exports every observability surface at once: JSONL (stdout/file), ASCII
/// timeline + Prometheus snapshot (stderr).
fn cmd_trace(opts: Options) -> io::Result<()> {
    use adcomp::metrics::registry::{self, RegistryMode};
    use adcomp::trace::{
        render_level_timeline, render_registry, JsonlWriter, RunManifest, TraceHandle,
    };
    use adcomp::vcloud::{run_transfer_traced, ConstantClass, SpeedModel, TransferConfig};

    let scheme = match opts.level {
        Some(l) => ["NO", "LIGHT", "MEDIUM", "HEAVY"][l.min(3)],
        None => "DYNAMIC",
    };
    let cfg = TransferConfig {
        total_bytes: (opts.gb * 1e9) as u64,
        background_flows: opts.flows,
        epoch_secs: opts.epoch_secs,
        deterministic: true,
        cpu_jitter: 0.0,
        pipeline_workers: opts.pipeline_workers,
        ..TransferConfig::paper_default()
    };
    let model: Box<dyn DecisionModel> = match opts.level {
        Some(l) => Box::new(StaticModel::new(l, 4)),
        None => Box::new(RateBasedModel::paper_default()),
    };
    let trace = TraceHandle::collecting();
    let speed =
        if opts.portfolio { SpeedModel::portfolio_fit() } else { SpeedModel::paper_fit() };
    let reg = registry::install(RegistryMode::Virtual);
    let out = run_transfer_traced(
        &cfg,
        &speed,
        &mut ConstantClass(opts.class),
        model,
        trace.clone(),
    );
    let events = trace.take();

    // JSONL export — manifest line first, then every event, stdout or file.
    let manifest = RunManifest::new("adcomp_trace", cfg.seed)
        .coord("scheme", scheme)
        .coord("class", opts.class.name())
        .coord("flows", opts.flows)
        .coord("portfolio", opts.portfolio)
        .cfg("epoch_secs", opts.epoch_secs)
        .cfg("deterministic", true)
        .volume(cfg.total_bytes);
    // The single positional argument is the JSONL destination.
    let mut w = JsonlWriter::new(open_output(&opts.input)?);
    w.write_run(&manifest, &events)?;
    let counts = w.counts();
    w.finish()?.flush()?;

    // Human-facing panels on stderr.
    if let Some(tl) = render_level_timeline(&events) {
        eprintln!("{tl}");
    }
    eprintln!("{}", render_registry(&reg.snapshot()));
    eprintln!(
        "adcomp trace: {scheme} on {} data, {} background flow(s): {:.0} s virtual, \
         {} epochs, wire ratio {:.3}, {} events",
        opts.class.name(),
        opts.flows,
        out.completion_secs,
        out.epochs,
        out.wire_ratio(),
        counts.total()
    );
    Ok(())
}

/// Runs the seeded fault-injection soak grid in-process and reports the
/// deterministic summary JSON on stdout (one line — diffable across
/// machines and thread counts). Exits non-zero if any case breaks the
/// soak contract (panic, silent corruption or order violation).
fn cmd_chaos(opts: Options) -> io::Result<()> {
    use adcomp_faults::soak::{grid, run_case, summarize};

    let cases = grid(opts.seed, opts.runs);
    let results: Vec<_> = cases.iter().map(run_case).collect();
    let summary = summarize(&results);
    println!("{}", summary.to_json());
    for r in results.iter().filter(|r| !r.ok()).take(8) {
        eprintln!("adcomp chaos: CONTRACT BROKEN: {}", r.to_json());
    }
    eprintln!(
        "adcomp chaos: {} runs (seed {:#x}): {} recovered, {} typed errors, {} panics, \
         {}/{} items intact",
        summary.runs,
        opts.seed,
        summary.recovered_runs,
        summary.typed_errors,
        summary.panics,
        summary.items_recovered,
        summary.items_written,
    );
    if summary.all_ok() {
        Ok(())
    } else {
        Err(io::Error::other("chaos soak contract broken (see stderr)"))
    }
}

fn resolve(addr: &str) -> io::Result<std::net::SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.strip_prefix("http://")
        .unwrap_or(addr)
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve {addr}"))
        })
}

/// The overload-resilient multi-tenant daemon. Serves until a drain
/// request (`adcomp drain`) has been received *and* every in-flight
/// stream has finished, then tears down and exits 0 — the graceful path
/// CI exercises. `--metrics ADDR` additionally exposes the live registry
/// at `GET /metrics`.
fn cmd_serve(opts: Options) -> io::Result<()> {
    use adcomp::metrics::registry::{self, RegistryMode};
    use adcomp::serve::{ServeConfig, Server};
    use adcomp::trace::{render_registry, MetricsServer};
    use std::time::Duration;

    let reg = registry::install(RegistryMode::Wall);
    let metrics = match &opts.metrics {
        Some(addr) => {
            Some(MetricsServer::start(addr, move || render_registry(&reg.snapshot()))?)
        }
        None => None,
    };
    let server = Server::start(ServeConfig {
        addr: opts.listen.clone(),
        max_streams: opts.max_streams,
        per_tenant_streams: opts.tenant_streams,
        tenant_rate_bps: opts.rate_bps,
        cache_bytes: opts.cache_mb << 20,
        ..ServeConfig::default()
    })?;
    eprintln!("adcomp serve: listening on {}", server.local_addr());
    if let Some(m) = &metrics {
        eprintln!("adcomp serve: metrics on http://{}/metrics", m.local_addr());
    }
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if server.draining() && server.active() == 0 {
            break;
        }
    }
    let stats = server.shutdown();
    if let Some(m) = metrics {
        m.shutdown();
    }
    eprintln!(
        "adcomp serve: drained and stopped: {} accepted, {} completed ({} while draining), \
         {} resumed, {} shed, {} timeouts, {} aborts",
        stats.accepted,
        stats.completed,
        stats.drained_transfers,
        stats.resumed,
        stats.shed,
        stats.timeouts,
        stats.aborts,
    );
    Ok(())
}

/// Uploads a file (or stdin) to a daemon with bounded-retry backoff and
/// resume-from-last-verified-byte.
fn cmd_put(opts: Options) -> io::Result<()> {
    use adcomp::serve::{put, PutOptions};

    let Some(url) = opts.url.clone() else {
        eprintln!("adcomp put: --url HOST:PORT is required");
        std::process::exit(2);
    };
    let addr = resolve(&url)?;
    let mut payload = Vec::new();
    open_input(&opts.input)?.read_to_end(&mut payload)?;
    let put_opts = PutOptions {
        tenant: opts.tenant.clone(),
        transfer_id: opts.transfer_id,
        block_len: opts.block_kb * 1024,
        epoch_secs: opts.epoch_secs,
        workers: opts.pipeline_workers,
        level: opts.level,
        portfolio: opts.portfolio,
        ..PutOptions::default()
    };
    let report = put(addr, &payload, &put_opts)?;
    eprintln!(
        "adcomp put: {} bytes as {}/{} in {} attempt(s){}, crc {:#010x}",
        payload.len(),
        opts.tenant,
        opts.transfer_id,
        report.attempts,
        if report.resumed { " (resumed)" } else { "" },
        report.crc,
    );
    Ok(())
}

/// Asks a daemon to drain gracefully.
fn cmd_drain(opts: Options) -> io::Result<()> {
    use std::time::Duration;

    let Some(url) = opts.url.clone() else {
        eprintln!("adcomp drain: --url HOST:PORT is required");
        std::process::exit(2);
    };
    let inflight = adcomp::serve::drain(resolve(&url)?, Duration::from_secs(5))?;
    eprintln!("adcomp drain: draining; {inflight} transfer(s) still in flight");
    Ok(())
}

/// A standalone fault-injecting TCP proxy in front of an upstream
/// (`--url`), driven by the same seeded plans as the soak. Runs until
/// killed.
fn cmd_proxy(opts: Options) -> io::Result<()> {
    use adcomp::faults::net::{ChaosProxy, NetFaultSpec};
    use std::time::Duration;

    let Some(url) = opts.url.clone() else {
        eprintln!("adcomp proxy: --url UPSTREAM_HOST:PORT is required");
        std::process::exit(2);
    };
    let spec = NetFaultSpec::from_rate(opts.seed, opts.fault_rate);
    let proxy = ChaosProxy::start_on(&opts.listen, resolve(&url)?, spec)?;
    eprintln!(
        "adcomp proxy: {} -> {} (seed {:#x}, fault rate {})",
        proxy.local_addr(),
        url,
        opts.seed,
        opts.fault_rate,
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The socket-level half of the chaos gauntlet (`chaos --net`): seeded
/// client ↔ ChaosProxy ↔ server runs over real loopback sockets.
fn cmd_net_chaos(opts: Options) -> io::Result<()> {
    use adcomp::serve::{run_net_soak, NetSoakConfig};

    let cfg = NetSoakConfig {
        runs: opts.runs as u32,
        seed: opts.seed,
        concurrency: opts.concurrency as u32,
        fault_rate: opts.fault_rate,
    };
    let mut show = |done: u32, total: u32| {
        eprint!("\radcomp chaos --net: {done}/{total} transfers");
        let _ = io::stderr().flush();
    };
    let summary = run_net_soak(&cfg, Some(&mut show));
    eprintln!();
    println!("{}", summary.to_json());
    eprintln!(
        "adcomp chaos --net: {} runs (seed {:#x}, rate {}): {} completed ({} resumed), \
         {} failed, {} retries, faults {}+{}+{}+{} (corrupt/partial/stall/close)",
        summary.runs,
        opts.seed,
        opts.fault_rate,
        summary.completed,
        summary.resumed,
        summary.failed,
        summary.retries,
        summary.corrupts,
        summary.partials,
        summary.stalls,
        summary.closes,
    );
    if summary.clean() {
        Ok(())
    } else {
        Err(io::Error::other("net soak contract broken (see summary JSON)"))
    }
}

/// Runs the deterministic class × flows simulation grid against the
/// process-global registry (virtual mode) and returns the exposition text.
/// Work is fanned over `threads` via a shared atomic index; because every
/// registry write the simulator makes is commutative and virtual-clocked,
/// the scrape is byte-identical for any thread count.
fn top_sim_exposition(opts: &Options, threads: usize) -> String {
    use adcomp::core::model::RateBasedModel;
    use adcomp::metrics::registry::{self, RegistryMode};
    use adcomp::vcloud::{run_transfer, ConstantClass, SpeedModel, TransferConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let reg = registry::install(RegistryMode::Virtual);
    let mut cells = Vec::new();
    for class in [Class::High, Class::Moderate, Class::Low] {
        for flows in 0..=2usize {
            cells.push((class, flows));
        }
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let speed = SpeedModel::paper_fit();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(class, flows)) = cells.get(i) else { break };
                    let cfg = TransferConfig {
                        total_bytes: (opts.gb * 1e9) as u64,
                        background_flows: flows,
                        epoch_secs: opts.epoch_secs,
                        deterministic: true,
                        cpu_jitter: 0.0,
                        seed: opts.seed ^ i as u64,
                        ..TransferConfig::paper_default()
                    };
                    let model: Box<dyn DecisionModel> =
                        Box::new(RateBasedModel::paper_default());
                    run_transfer(&cfg, &speed, &mut ConstantClass(class), model);
                }
            });
        }
    });

    // Seekable-container exercise for the cache panel: one deterministic
    // in-memory stream read through its block index with a small decoded-
    // block cache, run serially after the grid joins. Every registry write
    // it makes is a commutative counter/gauge delta (wall spans are dropped
    // in virtual mode), so the scrape stays byte-identical for any thread
    // count.
    {
        use adcomp::core::model::StaticModel;
        use adcomp::core::{IndexedReader, ManualClock};
        use adcomp::serve::BlockCache;
        use std::io::Cursor;
        use std::sync::Arc;

        let feed = || -> io::Result<()> {
            let data = adcomp::corpus::generate(Class::Moderate, 128 * 1024, 7);
            let mut w = AdaptiveWriter::with_params(
                Vec::new(),
                adcomp::codecs::LevelSet::paper_default(),
                Box::new(StaticModel::new(2, 4)),
                4 * 1024,
                opts.epoch_secs,
                Box::new(ManualClock::new()),
            );
            w.set_seekable(true);
            w.write_all(&data)?;
            let (wire, _) = w.finish()?;
            let mut r = IndexedReader::open(Cursor::new(wire))?;
            let cache = BlockCache::new(512 * 1024);
            let n = r.index().entries.len();
            let mut block = Vec::new();
            for _pass in 0..3 {
                for i in 0..n {
                    let e = r.index().entries[i];
                    let key = (e.crc, e.uncompressed_len);
                    if cache.get(key).is_none() {
                        block.clear();
                        r.fetch_block(i, &mut block)?;
                        cache.insert(key, Arc::new(block.clone()));
                    }
                }
            }
            let mut out = Vec::new();
            r.read_range(1000, 5000, &mut out)?;
            Ok(())
        };
        // In-memory and deterministic: failure here is a code bug, but the
        // dashboard should render the grid regardless.
        if let Err(e) = feed() {
            eprintln!("adcomp top: sim cache feed: {e}");
        }
    }

    adcomp::trace::render_registry(&reg.snapshot())
}

/// `adcomp top` — the live ASCII dashboard. With `--url` it scrapes a
/// served `/metrics` endpoint (refreshing every `--interval` seconds unless
/// `--once`); without it, it fills a virtual-mode registry from the
/// deterministic simulation grid and renders that. `--raw` prints the
/// Prometheus exposition itself instead of the dashboard.
fn cmd_top(opts: Options) -> io::Result<()> {
    use adcomp::trace::{conformance_lint, http_get, render_top};
    use std::time::Duration;

    if let Some(url) = opts.url.clone() {
        let target = url.strip_prefix("http://").unwrap_or(&url);
        let (addr, path) = match target.find('/') {
            Some(i) => (&target[..i], &target[i..]),
            None => (target, "/metrics"),
        };
        loop {
            let body = http_get(addr, path, Duration::from_secs(5))?;
            let mut out = io::stdout().lock();
            if opts.raw {
                out.write_all(body.as_bytes())?;
            } else {
                if !opts.once {
                    // Clear and home between refreshes, top(1)-style.
                    write!(out, "\x1b[2J\x1b[H")?;
                }
                writeln!(out, "{}", render_top(&body))?;
            }
            out.flush()?;
            if opts.once {
                return Ok(());
            }
            std::thread::sleep(Duration::from_secs_f64(opts.interval));
        }
    }

    let body = top_sim_exposition(&opts, opts.pipeline_workers);
    if let Err(errors) = conformance_lint(&body) {
        for e in &errors {
            eprintln!("adcomp top: exposition lint: {e}");
        }
        return Err(io::Error::other("metrics exposition failed conformance lint"));
    }
    let mut out = io::stdout().lock();
    if opts.raw {
        out.write_all(body.as_bytes())?;
    } else {
        writeln!(out, "{}", render_top(&body))?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_options(&args[1..]);
    let result = match cmd.as_str() {
        "compress" | "c" => cmd_compress(opts),
        "decompress" | "d" => cmd_decompress(opts),
        "probe" | "p" => cmd_probe(opts),
        "trace" | "t" => cmd_trace(opts),
        "chaos" if opts.net => cmd_net_chaos(opts),
        "chaos" => cmd_chaos(opts),
        "serve" => cmd_serve(opts),
        "put" => cmd_put(opts),
        "get" | "range" if opts.url.is_some() => cmd_get(opts),
        "get" | "range" => cmd_range(opts),
        "drain" => cmd_drain(opts),
        "proxy" => cmd_proxy(opts),
        "top" => cmd_top(opts),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("adcomp: {e}");
            ExitCode::FAILURE
        }
    }
}
