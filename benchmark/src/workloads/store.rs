//! The object set both serve workloads use: a corpus pool cut into
//! heavy-tailed objects, and the daemon they are put to.

use crate::gen::{self, Object, ObjectMix, KIB, MIB};
use crate::harness::{self, Cfg};
use adcomp::codecs::crc32::crc32;
use adcomp::core::StreamStats;
use adcomp::serve::{self, PutOptions, ServeConfig, Server};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const TENANT: &str = "bench";
/// Static level of every `put`: the adaptive model's wire bytes depend on
/// wall-clock epochs and would not repeat.
pub const PUT_LEVEL: usize = 1;
/// Objects up to this size are "small": one block or less, so connect,
/// accept, thread spawn, handshake and seal are the cost.
pub const SMALL_MAX: usize = 64 * KIB;
/// Objects from this size are "large": compress, socket, decode and
/// capture copy are the cost.
pub const LARGE_MIN: usize = 256 * KIB;
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Summed wall times of a size class are scaled to this many bytes: the
/// heavy tail puts anything from 35 to 70 MB into the large objects
/// depending on the seed, and the driver changes the seed on every run.
pub const NOMINAL_BYTES: f64 = 50e6;

/// `secs` spent on `bytes`, as milliseconds per [`NOMINAL_BYTES`].
pub fn nominal_ms(secs: f64, bytes: u64) -> f64 {
    secs * 1e3 * NOMINAL_BYTES / bytes as f64
}

pub struct Store {
    pub pool: Vec<u8>,
    pub objects: Vec<Object>,
    /// CRC-32 of each object's bytes, in `objects` order.
    pub crcs: Vec<u32>,
    pub cache_bytes: u64,
}

impl Store {
    pub fn new(cfg: &Cfg) -> Store {
        let (segments, max_len, cache_bytes) = if cfg.smoke {
            (6, MIB, 2 * MIB as u64)
        } else {
            (128, 8 * MIB, 16 * MIB as u64)
        };
        let pool = gen::rotating_pool(segments, cfg.seed);
        let objects = ObjectMix::web(max_len).cut(pool.len(), cfg.seed);
        let crcs = objects
            .iter()
            .map(|o| crc32(&pool[o.start..o.start + o.len]))
            .collect();
        Store {
            pool,
            objects,
            crcs,
            cache_bytes,
        }
    }

    pub fn bytes(&self, o: &Object) -> &[u8] {
        &self.pool[o.start..o.start + o.len]
    }

    pub fn server(&self) -> io::Result<Server> {
        Server::start(ServeConfig {
            cache_bytes: self.cache_bytes,
            ..ServeConfig::default()
        })
    }

    /// One blocking `put` as the client sees it: `(wall seconds, ok,
    /// attempts)`. A put that needed a second attempt, or whose receipt
    /// does not carry the checksum of the source slice, is a failed
    /// operation.
    pub fn put(&self, addr: SocketAddr, i: usize) -> (f64, bool, u32) {
        let o = &self.objects[i];
        let opts = PutOptions {
            tenant: TENANT.into(),
            transfer_id: o.id,
            level: Some(PUT_LEVEL),
            io_timeout: IO_TIMEOUT,
            ..PutOptions::default()
        };
        let data = self.bytes(o);
        let t = Instant::now();
        let report = serve::put(addr, data, &opts);
        let secs = t.elapsed().as_secs_f64();
        match report {
            Ok(r) => (secs, r.attempts == 1 && r.crc == self.crcs[i], r.attempts),
            Err(_) => (secs, false, 0),
        }
    }

    /// Wire bytes the client sends for the whole object set: the writer a
    /// `put` builds, replayed into nothing. Exact, because the level is
    /// static.
    pub fn wire_bytes(&self) -> u64 {
        self.objects
            .iter()
            .map(|o| put_wire(self.bytes(o), io::sink()).1.wire_bytes)
            .sum()
    }
}

/// Streams `data` through the writer `serve::put` builds (static
/// [`PUT_LEVEL`], 128 KiB blocks) into `sink`.
pub fn put_wire<W: Write>(data: &[u8], sink: W) -> (W, StreamStats) {
    harness::write_stream(sink, data, PUT_LEVEL, false)
}
