//! The paper's sample job on the mini-Nephele engine: a sender task and a
//! receiver task connected by a real TCP network channel, with transparent
//! adaptive compression — "there is no modification required to their
//! program code".
//!
//! Run with: `cargo run --release --example nephele_job`

use adcomp::core::stream::StreamStats;
use adcomp::corpus::Class;
use adcomp::nephele::prelude::*;
use adcomp::nephele::SinkTask;

fn run(mode: CompressionMode, label: &str, class: Class, mb: u64) -> (f64, StreamStats) {
    let mut g = JobGraph::new(format!("sample-job-{label}"));
    let sender = g.add_vertex(
        "sender",
        Box::new(SourceTask {
            class,
            total_bytes: mb * 1_000_000,
            record_len: 8 * 1024,
            seed: 7,
        }),
    );
    let receiver = g.add_vertex("receiver", Box::new(SinkTask::new()));
    g.connect(sender, receiver, mode).unwrap();

    let exec = Executor {
        epoch_secs: 0.1, // fast adaptation for the demo
    };
    let report = exec.run(g).unwrap();
    let sink: &SinkTask = report.task("receiver").unwrap();
    assert_eq!(sink.bytes, mb * 1_000_000, "all bytes must arrive");
    (report.completion_secs, report.edges[0].stats.clone())
}

fn main() {
    let mb = 64;
    println!("mini-Nephele sample job: sender --TCP--> receiver, {mb} MB per run\n");
    for (class, title) in [
        (Class::High, "HIGH compressibility (ptt5-like)"),
        (Class::Low, "LOW compressibility (JPEG-like)"),
    ] {
        println!("== {title} ==");
        println!("{:<10} {:>9} {:>9} {:>8}", "channel", "time [s]", "ratio", "epochs");
        for (mode, label) in [
            (CompressionMode::Static(0), "NO"),
            (CompressionMode::Static(1), "LIGHT"),
            (CompressionMode::Adaptive(Default::default()), "DYNAMIC"),
        ] {
            let (secs, stats) = run(mode, label, class, mb);
            println!(
                "{:<10} {:>9.2} {:>9.3} {:>8}",
                label,
                secs,
                stats.wire_ratio(),
                stats.epochs
            );
        }
        println!();
    }
    println!("Task code never mentioned compression — the channel layer did it all.");
}
