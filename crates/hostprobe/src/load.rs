//! The paper's "small auxiliary programs to generate network and file I/O
//! load", reimplemented: saturating loopback TCP send/receive and file
//! write/read loops, each reporting the application-layer throughput
//! timeline the way the paper's §II-B instrumentation does (a timestamp
//! every 20 MB).

use adcomp_corpus::{ByteSource, CyclicSource, Class};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The paper's sampling interval: one timestamp per 20 MB of I/O.
pub const SAMPLE_INTERVAL_BYTES: u64 = 20_000_000;

/// Result of one load run: per-20 MB throughput samples (bytes/second),
/// the bytes moved and the wall time taken.
#[derive(Debug, Clone)]
pub struct LoadResult {
    pub samples: Vec<f64>,
    pub total_bytes: u64,
    pub elapsed_secs: f64,
}

struct IntervalTimer {
    last_mark: Instant,
    bytes_since: u64,
    samples: Vec<f64>,
}

impl IntervalTimer {
    fn new() -> Self {
        IntervalTimer { last_mark: Instant::now(), bytes_since: 0, samples: Vec::new() }
    }

    fn record(&mut self, bytes: u64) {
        self.bytes_since += bytes;
        while self.bytes_since >= SAMPLE_INTERVAL_BYTES {
            let now = Instant::now();
            let dt = now.duration_since(self.last_mark).as_secs_f64().max(1e-9);
            // Attribute the interval to exactly 20 MB; carry the remainder.
            let frac = SAMPLE_INTERVAL_BYTES as f64 / self.bytes_since as f64;
            self.samples.push(SAMPLE_INTERVAL_BYTES as f64 / (dt * frac));
            self.last_mark = now;
            self.bytes_since -= SAMPLE_INTERVAL_BYTES;
        }
    }
}

/// Network send load: streams `total_bytes` of the given class over a
/// loopback TCP connection as fast as possible, measuring the sender-side
/// application throughput (the paper's Fig. 2 viewpoint).
pub fn net_send_load(class: Class, total_bytes: u64) -> std::io::Result<LoadResult> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let sink = std::thread::spawn(move || -> std::io::Result<u64> {
        let (mut stream, _) = listener.accept()?;
        let mut buf = vec![0u8; 256 * 1024];
        let mut total = 0u64;
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Ok(total);
            }
            total += n as u64;
        }
    });

    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut source = CyclicSource::of_class(class, adcomp_corpus::DEFAULT_FILE_LEN, 42);
    let mut buf = vec![0u8; 256 * 1024];
    let mut timer = IntervalTimer::new();
    let start = Instant::now();
    let mut sent = 0u64;
    while sent < total_bytes {
        let n = (buf.len() as u64).min(total_bytes - sent) as usize;
        source.fill(&mut buf[..n]);
        stream.write_all(&buf[..n])?;
        sent += n as u64;
        timer.record(n as u64);
    }
    drop(stream);
    let received = sink.join().expect("sink thread")?;
    assert_eq!(received, total_bytes);
    Ok(LoadResult {
        samples: timer.samples,
        total_bytes,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

/// File write load: streams `total_bytes` to a file in `dir`, flushing per
/// chunk (the paper used raw I/O "to avoid caching effects inside the
/// virtual machine as far as possible" — a per-chunk flush is the portable
/// approximation). The file is removed afterwards.
pub fn file_write_load(dir: &std::path::Path, total_bytes: u64) -> std::io::Result<LoadResult> {
    let path = dir.join(format!("adcomp-hostprobe-{}.bin", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&path)?;
        let mut source = CyclicSource::of_class(Class::Low, adcomp_corpus::DEFAULT_FILE_LEN, 7);
        let mut buf = vec![0u8; 1024 * 1024];
        let mut timer = IntervalTimer::new();
        let start = Instant::now();
        let mut written = 0u64;
        while written < total_bytes {
            let n = (buf.len() as u64).min(total_bytes - written) as usize;
            source.fill(&mut buf[..n]);
            file.write_all(&buf[..n])?;
            file.flush()?;
            written += n as u64;
            timer.record(n as u64);
        }
        file.sync_all()?;
        Ok(LoadResult {
            samples: timer.samples,
            total_bytes,
            elapsed_secs: start.elapsed().as_secs_f64(),
        })
    })();
    let _ = std::fs::remove_file(&path);
    result
}

/// File read load: writes a scratch file once, then reads it back measuring
/// the read-side throughput. The file is removed afterwards.
pub fn file_read_load(dir: &std::path::Path, total_bytes: u64) -> std::io::Result<LoadResult> {
    let path = dir.join(format!("adcomp-hostprobe-r-{}.bin", std::process::id()));
    let result = (|| {
        {
            let mut file = std::fs::File::create(&path)?;
            let mut source =
                CyclicSource::of_class(Class::Low, adcomp_corpus::DEFAULT_FILE_LEN, 9);
            let mut buf = vec![0u8; 1024 * 1024];
            let mut written = 0u64;
            while written < total_bytes {
                let n = (buf.len() as u64).min(total_bytes - written) as usize;
                source.fill(&mut buf[..n]);
                file.write_all(&buf[..n])?;
                written += n as u64;
            }
            file.sync_all()?;
        }
        let mut file = std::fs::File::open(&path)?;
        let mut buf = vec![0u8; 1024 * 1024];
        let mut timer = IntervalTimer::new();
        let start = Instant::now();
        let mut read = 0u64;
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            read += n as u64;
            timer.record(n as u64);
        }
        assert_eq!(read, total_bytes);
        Ok(LoadResult {
            samples: timer.samples,
            total_bytes,
            elapsed_secs: start.elapsed().as_secs_f64(),
        })
    })();
    let _ = std::fs::remove_file(&path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_send_load_moves_all_bytes() {
        let r = net_send_load(Class::Low, 64_000_000).unwrap();
        assert_eq!(r.total_bytes, 64_000_000);
        assert!(r.elapsed_secs > 0.0);
        assert_eq!(r.samples.len(), 3, "one sample per 20 MB");
        let mean_rate = r.total_bytes as f64 / r.elapsed_secs;
        assert!(mean_rate > 1e6, "loopback should exceed 1 MB/s");
    }

    #[test]
    fn file_write_load_runs_and_cleans_up() {
        let dir = std::env::temp_dir();
        let r = file_write_load(&dir, 45_000_000).unwrap();
        assert_eq!(r.total_bytes, 45_000_000);
        assert_eq!(r.samples.len(), 2);
        assert!(!dir
            .join(format!("adcomp-hostprobe-{}.bin", std::process::id()))
            .exists());
    }

    #[test]
    fn file_read_load_roundtrips() {
        let dir = std::env::temp_dir();
        let r = file_read_load(&dir, 45_000_000).unwrap();
        assert_eq!(r.total_bytes, 45_000_000);
        assert!(r.samples.len() >= 2);
    }

    #[test]
    fn interval_timer_carries_remainders() {
        let mut t = IntervalTimer::new();
        // 3 × 15 MB = 45 MB → exactly 2 samples, 5 MB carried.
        t.record(15_000_000);
        t.record(15_000_000);
        t.record(15_000_000);
        assert_eq!(t.samples.len(), 2);
        assert_eq!(t.bytes_since, 5_000_000);
    }
}
