//! The socket-level chaos gauntlet: real clients, a real daemon, and a
//! seeded [`ChaosProxy`] between them on loopback.
//!
//! Each *run* is one transfer pushed by a real [`put`] client
//! through the fault-injecting proxy into a live [`Server`]. Runs execute
//! in batches of `concurrency` against a fresh server + proxy pair, so a
//! damaged wire in one batch cannot leak state into the next. A client
//! retrying inside a batch may pick up a connection another run kept
//! alive, so proxy faults also land on the second and later requests of a
//! connection. The contract asserted over every run, hostile or not:
//!
//! * **zero panics** — every client executes under `catch_unwind`;
//! * **byte-accurate survivors** — a transfer the server reports complete,
//!   read back with a whole-object [`get`] straight from the daemon, must
//!   be byte-identical to the client's input;
//! * **clean prefixes** — a transfer that dies mid-wire must leave the
//!   server holding an exact prefix of the input (that is what makes the
//!   next resume sound). A clean [`put`] straight to the daemon resumes
//!   from that prefix, its receipt's CRC check fails on a dirty one, and
//!   the object it completes is read back like a survivor;
//! * **graceful teardown** — every batch drains and shuts down, and on
//!   Linux the harness checks that no daemon or proxy thread born during
//!   the soak outlives it (a census of the `adcomp-serve*`/`adcomp-chaos*`
//!   thread names, so threads of anything else sharing the process — a
//!   test harness's sibling tests — cannot read as leaks) and that no file
//!   descriptors leaked.
//!
//! `adcomp chaos --net --runs 256` drives this from the CLI; CI runs it
//! as the network half of the chaos gauntlet.

use super::client::{self, get, put, PutOptions};
use super::server::{ServeConfig, Server};
use adcomp_corpus::Prng;
use adcomp_core::Backoff;
use adcomp_faults::net::{ChaosProxy, NetFaultSpec};
use adcomp_trace::json::ObjWriter;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct NetSoakConfig {
    /// Total transfers to attempt.
    pub runs: u32,
    /// Base seed; every run derives its payload and fault plan from it.
    pub seed: u64,
    /// Concurrent clients per batch (each batch gets a fresh
    /// server + proxy pair).
    pub concurrency: u32,
    /// Socket fault intensity in `[0, 1]` (see
    /// [`NetFaultSpec::from_rate`]); 0 = transparent wire.
    pub fault_rate: f64,
}

/// Payload lengths span `[MIN_PAYLOAD, MAX_PAYLOAD)` bytes: from half of
/// one of the soak's 8 KiB blocks to eight of them.
const MIN_PAYLOAD: usize = 4 * 1024;
const MAX_PAYLOAD: usize = 64 * 1024;

/// Aggregate outcome of a soak; [`NetSoakSummary::to_json`] is the
/// machine-readable artifact the CLI prints and CI checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSoakSummary {
    pub runs: u32,
    /// Transfers the server acknowledged complete (all byte-verified).
    pub completed: u32,
    /// Transfers that gave up (retry budget or fatal reject) — their
    /// server-side prefixes were still verified exact.
    pub failed: u32,
    /// Client panics caught (the contract requires 0).
    pub panics: u32,
    /// Completed transfers that needed at least one resume.
    pub resumed: u32,
    /// Extra connection attempts beyond the first, summed over all runs.
    pub retries: u64,
    /// Application bytes acknowledged complete.
    pub bytes_completed: u64,
    /// Faults the proxy actually injected, by kind.
    pub corrupts: u64,
    pub partials: u64,
    pub stalls: u64,
    pub closes: u64,
    /// Byte-accuracy violations (complete-but-different payloads or dirty
    /// prefixes). The contract requires 0.
    pub mismatches: u32,
    /// Batches whose graceful drain timed out. The contract requires 0.
    pub drain_failures: u32,
    /// Daemon/proxy threads born during the soak and still alive after
    /// final teardown (Linux-only check; 0 elsewhere).
    pub leaked_threads: u64,
    /// File descriptors above the pre-soak baseline after final teardown
    /// (Linux-only check; 0 elsewhere).
    pub leaked_fds: u64,
}

impl NetSoakSummary {
    /// True when every robustness contract held.
    pub fn clean(&self) -> bool {
        self.panics == 0
            && self.mismatches == 0
            && self.drain_failures == 0
            && self.leaked_threads == 0
            && self.leaked_fds == 0
    }

    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.str_field("kind", "net_soak")
            .u64_field("runs", self.runs as u64)
            .u64_field("completed", self.completed as u64)
            .u64_field("failed", self.failed as u64)
            .u64_field("panics", self.panics as u64)
            .u64_field("resumed", self.resumed as u64)
            .u64_field("retries", self.retries)
            .u64_field("bytes_completed", self.bytes_completed)
            .u64_field("corrupts", self.corrupts)
            .u64_field("partials", self.partials)
            .u64_field("stalls", self.stalls)
            .u64_field("closes", self.closes)
            .u64_field("mismatches", self.mismatches as u64)
            .u64_field("drain_failures", self.drain_failures as u64)
            .u64_field("leaked_threads", self.leaked_threads)
            .u64_field("leaked_fds", self.leaked_fds)
            .bool_field("clean", self.clean());
        o.finish()
    }
}

/// A deterministic soak payload: alternating compressible structure and
/// seeded noise, so the adaptive model exercises more than one level.
fn soak_payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Prng::new(seed);
    (0..len)
        .map(|i| if i % 3 != 0 { (i / 5) as u8 } else { rng.next_u32() as u8 })
        .collect()
}

/// Runs the gauntlet. `progress` (when given) is called once per finished
/// batch with `(runs_done, runs_total)`.
pub fn run_net_soak(
    cfg: &NetSoakConfig,
    mut progress: Option<&mut dyn FnMut(u32, u32)>,
) -> NetSoakSummary {
    // The client keeps idle connections open for reuse; the census counts
    // none of them, before or after.
    client::close_idle();
    let baseline_threads = soak_threads();
    let baseline_fds = proc_fds();
    let mut summary = NetSoakSummary { runs: cfg.runs, ..Default::default() };
    let concurrency = cfg.concurrency.max(1);
    let mut run = 0u32;
    while run < cfg.runs {
        let batch = concurrency.min(cfg.runs - run);
        let server = Server::start(ServeConfig {
            io_timeout: Duration::from_secs(1),
            max_streams: batch as usize + 2,
            per_tenant_streams: 2,
            ..ServeConfig::default()
        })
        .expect("soak server failed to bind");
        let spec = NetFaultSpec::from_rate(cfg.seed ^ (run as u64).wrapping_mul(0x9E37), cfg.fault_rate);
        let proxy =
            ChaosProxy::start(server.local_addr(), spec).expect("soak proxy failed to bind");
        let proxy_addr = proxy.local_addr();

        let mut clients = Vec::new();
        for i in 0..batch {
            let id = run + i;
            let len = MIN_PAYLOAD
                + (Prng::new(cfg.seed ^ 0xFACE ^ id as u64).next_u64() as usize)
                    % (MAX_PAYLOAD - MIN_PAYLOAD);
            let data = soak_payload(cfg.seed.wrapping_add(id as u64), len);
            let opts = PutOptions {
                tenant: format!("tenant-{}", id % 3),
                transfer_id: id as u64 + 1,
                backoff: Backoff::new(0.01, 2.0, 0.1, 8).with_jitter(cfg.seed ^ id as u64),
                io_timeout: Duration::from_secs(1),
                block_len: 8 * 1024,
                epoch_secs: 0.25,
                workers: if id.is_multiple_of(3) { 2 } else { 1 },
                ..Default::default()
            };
            let data_cl = data.clone();
            let handle = std::thread::spawn(move || {
                let result =
                    catch_unwind(AssertUnwindSafe(|| put(proxy_addr, &data_cl, &opts)));
                (result, opts)
            });
            clients.push((handle, data));
        }
        let mut outcomes = Vec::new();
        for (handle, data) in clients {
            let (result, opts) = handle.join().expect("client thread died");
            let completed = match result {
                Err(_) => {
                    summary.panics += 1;
                    continue;
                }
                Ok(Ok(report)) => {
                    summary.completed += 1;
                    summary.retries += (report.attempts - 1) as u64;
                    if report.resumed {
                        summary.resumed += 1;
                    }
                    summary.bytes_completed += data.len() as u64;
                    true
                }
                Ok(Err(_)) => {
                    summary.failed += 1;
                    false
                }
            };
            outcomes.push((opts, data, completed));
        }
        // Every stream the proxy carried ends first (a stalled one at its
        // idle timeout), so no clean resume finds its transfer busy.
        settle(|| Some(server.active()), 0);
        let addr = server.local_addr();
        for (opts, data, completed) in outcomes {
            // A failed transfer is finished first by a clean `put`, which
            // resumes from the verified prefix and fails its receipt check
            // on a dirty one. Then the whole object must read back.
            let finished = if completed { Ok(()) } else { put(addr, &data, &opts).map(drop) };
            let (tenant, id) = (&opts.tenant, opts.transfer_id);
            let held = finished.and_then(|()| get(addr, tenant, id, 0, u64::MAX, opts.io_timeout));
            if !matches!(&held, Ok(held) if *held == data) {
                summary.mismatches += 1;
                let kind = if completed { "completed" } else { "prefix" };
                let held = held.map(|h| h.len());
                eprintln!("net soak MISMATCH ({kind}): {tenant}/{id} sent {} read back {held:?}", data.len());
            }
        }
        if !server.drain_and_wait(Duration::from_secs(30)) {
            summary.drain_failures += 1;
        }
        let pstats = proxy.shutdown();
        summary.corrupts += pstats.corrupts;
        summary.partials += pstats.partials;
        summary.stalls += pstats.stalls;
        summary.closes += pstats.closes;
        server.shutdown();
        run += batch;
        if let Some(p) = progress.as_deref_mut() {
            p(run, cfg.runs);
        }
    }

    // Leak detection. Every server and proxy is shut down by now, so any
    // daemon/proxy thread that appeared since the baseline is either a
    // leak or belongs to someone else in this process who will join it
    // shortly; the fd count must settle back to the pre-soak baseline.
    // Dying threads unregister asynchronously, so give the kernel a moment.
    if let (Some(before), Some(after)) = (baseline_threads, soak_threads()) {
        let born: HashSet<_> = after.difference(&before).cloned().collect();
        let alive = || soak_threads().map(|now| now.intersection(&born).count() as u64);
        summary.leaked_threads = settle(alive, 0);
    }
    if let (Some(before), Some(_)) = (baseline_fds, proc_fds()) {
        // Emptied on every sample: a sibling in this process (a test
        // harness's other tests) may pool a socket meanwhile.
        let fds = || {
            client::close_idle();
            proc_fds()
        };
        summary.leaked_fds = settle(fds, before);
    }
    summary
}

/// Polls `sample` until it drops back to `baseline` or ~10 s pass (a
/// clean soak returns at the first sample); returns the remaining excess
/// (0 = settled).
pub(super) fn settle(sample: impl Fn() -> Option<u64>, baseline: u64) -> u64 {
    let mut excess = 0;
    for _ in 0..500 {
        excess = sample().unwrap_or(baseline).saturating_sub(baseline);
        if excess == 0 {
            return 0;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    excess
}

/// Thread ids of this process's live daemon and proxy threads, told by
/// name. The kernel truncates `comm` to 15 bytes; both prefixes fit.
#[cfg(target_os = "linux")]
pub(super) fn soak_threads() -> Option<HashSet<std::ffi::OsString>> {
    let mut tids = HashSet::new();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may exit between the listing and the read: not ours to count.
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else { continue };
        if comm.starts_with("adcomp-serve") || comm.starts_with("adcomp-chaos") {
            tids.insert(task.file_name());
        }
    }
    Some(tids)
}

#[cfg(not(target_os = "linux"))]
pub(super) fn soak_threads() -> Option<HashSet<std::ffi::OsString>> {
    None
}

#[cfg(target_os = "linux")]
fn proc_fds() -> Option<u64> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count() as u64)
}

#[cfg(not(target_os = "linux"))]
fn proc_fds() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_wire_soak_completes_everything() {
        let cfg = NetSoakConfig {
            runs: 6,
            seed: 11,
            concurrency: 3,
            fault_rate: 0.0,
        };
        let s = run_net_soak(&cfg, None);
        assert!(s.clean(), "quiet soak violated a contract: {}", s.to_json());
        assert_eq!(s.completed, 6, "quiet wire lost transfers: {}", s.to_json());
        assert_eq!(s.failed, 0);
    }

    #[test]
    fn hostile_wire_soak_holds_the_contract() {
        let cfg = NetSoakConfig {
            runs: 12,
            seed: 7,
            concurrency: 4,
            fault_rate: 0.05,
        };
        let s = run_net_soak(&cfg, None);
        assert!(s.clean(), "hostile soak violated a contract: {}", s.to_json());
        assert_eq!(s.completed + s.failed, 12);
    }

    #[test]
    fn summary_json_is_wellformed() {
        let s = NetSoakSummary { runs: 3, completed: 2, failed: 1, ..Default::default() };
        let json = s.to_json();
        adcomp_trace::json::validate_line(&json).expect("summary JSON invalid");
        assert!(json.contains("\"clean\":true"));
    }
}
