//! End-to-end tests of the `adcomp` command-line tool, driving the real
//! binary through files and pipes.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_adcomp")
}


/// Writes `data` to the child's stdin from a thread (avoids the classic
/// pipe deadlock when the child's stdout fills while stdin is still being
/// written) and returns the child's collected output.
fn feed_and_collect(mut child: std::process::Child, data: Vec<u8>) -> std::process::Output {
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&data);
    });
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap();
    out
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("adcomp-cli-{}-{name}", std::process::id()))
}

#[test]
fn compress_decompress_file_roundtrip() {
    let input = tmp("in.bin");
    let packed = tmp("packed.adc");
    let output = tmp("out.bin");
    let data = adcomp::corpus::generate(adcomp::corpus::Class::Moderate, 3_000_000, 5);
    std::fs::write(&input, &data).unwrap();

    let status = Command::new(bin())
        .args(["compress", "-l", "MEDIUM"])
        .arg(&input)
        .arg(&packed)
        .status()
        .unwrap();
    assert!(status.success());
    let packed_len = std::fs::metadata(&packed).unwrap().len();
    assert!(packed_len < data.len() as u64 / 2, "packed {packed_len}");

    let status = Command::new(bin()).arg("decompress").arg(&packed).arg(&output).status().unwrap();
    assert!(status.success());
    assert_eq!(std::fs::read(&output).unwrap(), data);

    for p in [&input, &packed, &output] {
        let _ = std::fs::remove_file(p);
    }
}

/// Four compress workers write the same bytes as one, and four decode
/// workers read them back to the source.
#[test]
fn worker_count_changes_no_byte() {
    let input = tmp("j-in.bin");
    let data = adcomp::corpus::generate(adcomp::corpus::Class::Moderate, 2_000_000, 11);
    std::fs::write(&input, &data).unwrap();
    let run = |args: &[&str], from: &std::path::Path, to: &std::path::Path| {
        let status = Command::new(bin()).args(args).arg(from).arg(to).status().unwrap();
        assert!(status.success(), "{args:?}");
        std::fs::read(to).unwrap()
    };
    let (one, four) = (tmp("j1.adc"), tmp("j4.adc"));
    let serial = run(&["compress", "-l", "MEDIUM", "-j", "1"], &input, &one);
    assert_eq!(run(&["compress", "-l", "MEDIUM", "-j", "4"], &input, &four), serial);
    let output = tmp("j-out.bin");
    assert_eq!(run(&["decompress", "-j", "4"], &four, &output), data);
    for p in [&input, &one, &four, &output] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn stdin_stdout_pipeline_roundtrip() {
    let data = adcomp::corpus::generate(adcomp::corpus::Class::High, 1_000_000, 9);
    let compress = Command::new(bin())
        .args(["compress", "-l", "LIGHT", "-b", "64"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let packed = feed_and_collect(compress, data.clone());
    assert!(packed.status.success());
    assert!(packed.stdout.len() < data.len() / 4);

    let decompress = Command::new(bin())
        .arg("decompress")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let out = feed_and_collect(decompress, packed.stdout);
    assert!(out.status.success());
    assert_eq!(out.stdout, data);
}

#[test]
fn adaptive_mode_roundtrips() {
    let data = adcomp::corpus::generate(adcomp::corpus::Class::Low, 2_000_000, 3);
    let compress = Command::new(bin())
        .args(["compress", "-t", "0.05"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let packed = feed_and_collect(compress, data.clone());
    assert!(packed.status.success());
    // Incompressible input: raw fallback caps expansion near 1.0.
    assert!(packed.stdout.len() < data.len() + data.len() / 100 + 64);

    let decompress = Command::new(bin())
        .arg("d")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let out = feed_and_collect(decompress, packed.stdout);
    assert_eq!(out.stdout, data);
}

#[test]
fn probe_reports_entropy_and_ratios() {
    let input = tmp("probe.bin");
    std::fs::write(&input, adcomp::corpus::generate(adcomp::corpus::Class::High, 500_000, 1))
        .unwrap();
    let out = Command::new(bin()).arg("probe").arg(&input).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shannon"), "{text}");
    assert!(text.contains("LIGHT"), "{text}");
    assert!(text.contains("HEAVY"), "{text}");
    let _ = std::fs::remove_file(&input);
}

/// `--portfolio` end to end: a heterogeneous file compresses into a
/// mixed-codec stream (the report names a HUFF or COLUMNAR frame), an
/// unmodified `decompress` restores it byte-for-byte, and `probe` prints
/// the nominated ladder.
#[test]
fn portfolio_compress_roundtrip_and_probe() {
    let input = tmp("pf-in.bin");
    let packed = tmp("pf-packed.adc");
    let output = tmp("pf-out.bin");
    // Runs, then text, then noise — three content classes in one file.
    let mut data = vec![7u8; 256 * 1024];
    data.extend(
        b"text-like content with words and repetition, repetition. "
            .iter()
            .copied()
            .cycle()
            .take(256 * 1024),
    );
    data.extend(adcomp::corpus::generate(adcomp::corpus::Class::Low, 256 * 1024, 3));
    std::fs::write(&input, &data).unwrap();

    let out = Command::new(bin())
        .args(["compress", "-l", "MEDIUM", "-b", "16", "--portfolio"])
        .arg(&input)
        .arg(&packed)
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(report.contains("codecs"), "{report}");
    assert!(
        report.contains("HUFF") || report.contains("COLUMNAR"),
        "portfolio report names no portfolio codec: {report}"
    );

    let status = Command::new(bin()).arg("decompress").arg(&packed).arg(&output).status().unwrap();
    assert!(status.success());
    assert_eq!(std::fs::read(&output).unwrap(), data);

    let out = Command::new(bin()).arg("probe").arg(&input).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("portfolio"), "{text}");
    assert!(text.contains("->"), "{text}");

    for p in [&input, &packed, &output] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(bin()).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = Command::new(bin()).output().unwrap();
    assert!(!out.status.success());
}

/// Sim-mode `adcomp top` output — both the raw Prometheus exposition and
/// the rendered dashboard — must be byte-identical across worker counts:
/// every registry write the simulator makes is commutative and
/// virtual-clocked, so the thread schedule cannot leak into the scrape.
#[test]
fn top_sim_mode_is_deterministic_across_thread_counts() {
    let run = |threads: &str, raw: bool| {
        let mut cmd = Command::new(bin());
        // 0.3 simulated GB per cell: enough virtual time for several
        // 2-second decision epochs, so the epoch-rate panel is populated.
        cmd.args(["top", "--once", "--gb", "0.3"]).env("ADCOMP_THREADS", threads);
        if raw {
            cmd.arg("--raw");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let raw1 = run("1", true);
    let raw4 = run("4", true);
    assert_eq!(raw1, raw4, "raw exposition differs between 1 and 4 threads");
    let dash1 = run("1", false);
    let dash4 = run("4", false);
    assert_eq!(dash1, dash4, "dashboard differs between 1 and 4 threads");

    // The scrape must pass the shared conformance lint, and the dashboard
    // must carry the headline panels.
    let text = String::from_utf8(raw1).unwrap();
    adcomp::trace::conformance_lint(&text).unwrap();
    assert!(text.contains("adcomp_sim_blocks_total"), "{text}");
    let dash = String::from_utf8(dash1).unwrap();
    assert!(dash.contains("registry mode: virtual"), "{dash}");
    assert!(dash.contains("epoch rate"), "{dash}");
    assert!(dash.contains("compress"), "{dash}");
}

/// `adcomp top --url` scrapes a live `/metrics` endpoint: serve a
/// wall-mode registry in-process and point the binary at it.
#[test]
fn top_scrapes_served_metrics_endpoint() {
    use adcomp::metrics::registry::{self, CounterKind, RegistryMode};

    let reg = registry::install(RegistryMode::Wall);
    reg.counter_add(CounterKind::Epochs, 3);
    let server = adcomp::trace::MetricsServer::start("127.0.0.1:0", move || {
        adcomp::trace::render_registry(&reg.snapshot())
    })
    .unwrap();
    let url = format!("{}", server.local_addr());

    let out = Command::new(bin()).args(["top", "--url", &url, "--once", "--raw"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    adcomp::trace::conformance_lint(&text).unwrap();
    assert!(text.contains("adcomp_epochs_total 3"), "{text}");
    assert!(text.contains("mode=\"wall\""), "{text}");

    let out = Command::new(bin()).args(["top", "--url", &url, "--once"]).output().unwrap();
    assert!(out.status.success());
    let dash = String::from_utf8(out.stdout).unwrap();
    assert!(dash.contains("registry mode: wall"), "{dash}");
    server.shutdown();
}

#[test]
fn corrupted_stream_fails_cleanly() {
    let data = adcomp::corpus::generate(adcomp::corpus::Class::Moderate, 500_000, 2);
    let compress = Command::new(bin())
        .args(["compress", "-l", "LIGHT"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut packed = feed_and_collect(compress, data).stdout;
    let mid = packed.len() / 2;
    packed[mid] ^= 0xFF;

    let decompress = Command::new(bin())
        .arg("decompress")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let out = feed_and_collect(decompress, packed);
    assert!(!out.status.success(), "corrupted stream must not decode successfully");
}
