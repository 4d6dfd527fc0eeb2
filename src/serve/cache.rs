//! The hot-object block cache: decoded block prefixes of completed
//! transfers, keyed by the block's frame CRC, bounded by a byte budget.
//!
//! A ranged GET decodes only the blocks covering the requested range
//! (found through the transfer's [`StreamIndex`](adcomp_codecs::seek::StreamIndex)),
//! and each of those only as far as the range reaches into it; this cache
//! makes the *second* request for a hot block free — a hit returns the
//! decoded bytes without touching the decoder at all.
//!
//! Admission: the cache holds only bytes a ranged read's decode produced.
//! A block stored raw (its frame's payload *is* the block) is served as a
//! slice of the sealed wire, checked as a decode would check it, and is
//! never looked up, inserted or counted here; the budget goes to the
//! blocks that cost a decode. A whole-object read looks its blocks up and
//! sends the hits, but streams each miss through one decode buffer of its
//! own and inserts nothing. That keeps the cache scan-resistant — one
//! large object read whole would otherwise sweep out the blocks ranged
//! reads come back to — and bounds a whole reply's memory by one block
//! rather than by the object. The trade-off: an object of one block that
//! is only ever read whole is never cached, and each read decodes it.
//!
//! Design:
//!
//! * **CRC-keyed** — the key is `(payload_crc, uncompressed_len)`, the
//!   same pair every frame header and index entry carries. Identical
//!   blocks uploaded by different tenants deduplicate naturally, and a
//!   key never names stale bytes: change the block, change the CRC.
//! * **Prefixes** — an entry is the block's first bytes, as many as the
//!   read that decoded it needed, up to the whole block. A lookup names
//!   how many it needs: a shorter entry is a miss ([`Lookup::Short`]),
//!   and the longer prefix decoded for it replaces the entry.
//! * **Sharded** — the key space is split across independently locked
//!   shards so concurrent GET handlers don't serialize on one mutex. A
//!   shard whose lock a panicking thread poisoned is cleared and reused.
//! * **LRU with byte cost** — each shard evicts its least-recently-used
//!   entries until the *byte* budget holds; an entry is charged its own
//!   length, so a 128 KiB block pays 32× the rent of a 4 KiB prefix.
//! * **Observable** — hits, misses, evictions and resident bytes are
//!   kept in local atomics (always) and mirrored into the global metrics
//!   registry (when one is installed) as `adcomp_cache_*`.

use adcomp_metrics::registry::{self, CounterKind, GaugeKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: the block's frame-payload CRC-32 plus its decoded length.
/// The pair is what [`IndexEntry`](adcomp_codecs::seek::IndexEntry) and
/// the frame header both carry, so lookups need no extra bookkeeping.
pub type BlockKey = (u32, u32);

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (no decoder involved).
    pub hits: u64,
    /// Lookups that missed, or found fewer bytes than they needed (caller
    /// had to decode).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// hits / (hits + misses); 0.0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What [`BlockCache::lookup`] found under a key.
pub enum Lookup {
    /// A cached prefix holding at least the bytes asked for.
    Hit(Arc<Vec<u8>>),
    /// A cached prefix shorter than asked for: a miss, of a block that was
    /// read before.
    Short,
    /// Nothing cached under the key.
    Miss,
}

struct Shard {
    /// key → (decoded prefix, last-use stamp).
    map: HashMap<BlockKey, (Arc<Vec<u8>>, u64)>,
    /// Monotonic per-shard use counter; smallest stamp = LRU victim.
    tick: u64,
    /// Resident bytes this shard has added to the cache-wide count.
    bytes: u64,
}

/// Sharded, byte-budgeted, LRU block cache. Cheap to share: wrap in an
/// `Arc` (all methods take `&self`).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count).
    shard_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

const SHARDS: usize = 8;

impl BlockCache {
    /// A cache holding at most `budget_bytes` of decoded blocks.
    /// `budget_bytes == 0` disables it: every lookup misses, inserts are
    /// dropped.
    pub fn new(budget_bytes: u64) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), tick: 0, bytes: 0 }))
                .collect(),
            shard_budget: budget_bytes / SHARDS as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    /// Locks `key`'s shard. A shard whose lock a panicking thread poisoned
    /// is cleared and reused: its map is intact, but the panic may have
    /// cut an insert or an eviction between the map and the byte count.
    fn shard(&self, key: BlockKey) -> MutexGuard<'_, Shard> {
        let mutex = &self.shards[key.0 as usize % SHARDS];
        mutex.lock().unwrap_or_else(|poisoned| {
            let mut shard = poisoned.into_inner();
            shard.map.clear();
            self.set_bytes(&mut shard, 0);
            mutex.clear_poison();
            shard
        })
    }

    /// Sets a locked shard's byte count and moves the cache-wide count and
    /// the registry gauge by the same amount, so that what a shard added
    /// is always what its count says.
    fn set_bytes(&self, shard: &mut Shard, bytes: u64) {
        let delta = bytes as i64 - shard.bytes as i64;
        shard.bytes = bytes;
        if delta >= 0 {
            self.resident.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.resident.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
        }
        if let Some(m) = registry::global() {
            m.gauge_add(GaugeKind::CacheResidentBytes, delta);
        }
    }

    /// Looks up at least the first `need` bytes of a block, refreshing its
    /// recency on a hit. Counts the lookup either way: a cached prefix
    /// shorter than `need` is a miss.
    pub fn lookup(&self, key: BlockKey, need: usize) -> Lookup {
        let found = if self.enabled() {
            let mut shard = self.shard(key);
            shard.tick += 1;
            let tick = shard.tick;
            match shard.map.get_mut(&key) {
                Some((bytes, stamp)) if bytes.len() >= need => {
                    *stamp = tick;
                    Lookup::Hit(Arc::clone(bytes))
                }
                Some(_) => Lookup::Short,
                None => Lookup::Miss,
            }
        } else {
            Lookup::Miss
        };
        let (counter, kind) = match found {
            Lookup::Hit(_) => (&self.hits, CounterKind::CacheHits),
            Lookup::Short | Lookup::Miss => (&self.misses, CounterKind::CacheMisses),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = registry::global() {
            m.counter_add(kind, 1);
        }
        found
    }

    /// Looks up a whole block: [`BlockCache::lookup`] of all its bytes.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        match self.lookup(key, key.1 as usize) {
            Lookup::Hit(bytes) => Some(bytes),
            Lookup::Short | Lookup::Miss => None,
        }
    }

    /// Inserts a decoded block prefix, charged its own length, evicting
    /// LRU entries from its shard until the shard's byte budget holds. A
    /// longer prefix replaces a shorter one under the same key; one no
    /// longer than what is cached only refreshes the entry. Prefixes
    /// larger than a whole shard's budget are not cached at all (they
    /// would evict everything and then still not fit a second one).
    pub fn insert(&self, key: BlockKey, bytes: Arc<Vec<u8>>) {
        let cost = bytes.len() as u64;
        if !self.enabled() || cost > self.shard_budget {
            return;
        }
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        let mut resident = shard.bytes;
        if let Some((old, stamp)) = shard.map.get_mut(&key) {
            // Same CRC + length ⇒ same block: the longer prefix holds the
            // shorter.
            if old.len() as u64 >= cost {
                *stamp = tick;
                return;
            }
            resident -= old.len() as u64;
            shard.map.remove(&key);
        }
        let mut evicted = 0u64;
        while resident + cost > self.shard_budget {
            let victim = shard.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(&k, _)| k);
            let Some((gone, _)) = victim.and_then(|k| shard.map.remove(&k)) else {
                break;
            };
            resident -= gone.len() as u64;
            evicted += 1;
        }
        shard.map.insert(key, (bytes, tick));
        self.set_bytes(&mut shard, resident + cost);
        drop(shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some(m) = registry::global() {
                m.counter_add(CounterKind::CacheEvictions, evicted);
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
impl BlockCache {
    /// Poisons every shard's lock, as a thread panicking while it held
    /// one would.
    pub(super) fn poison_shards(&self) {
        for shard in &self.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = shard.lock();
                panic!("poisoning a cache shard");
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = BlockCache::new(1 << 20);
        let key = (0xABCD_EF01, 4096);
        assert!(c.get(key).is_none());
        c.insert(key, block(7, 4096));
        assert_eq!(c.get(key).unwrap().len(), 4096);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, 4096);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // One shard's budget is total/8; use keys that land in the same
        // shard (same crc % 8) so the LRU order is deterministic.
        let c = BlockCache::new(8 * 10_000);
        let keys: Vec<BlockKey> = (0..4).map(|i| (8 * i + 16, 4096)).collect();
        for &k in &keys {
            c.insert(k, block(1, 4096));
        }
        // Budget per shard = 10_000 → two 4096-byte blocks fit, four don't.
        let s = c.stats();
        assert!(s.evictions >= 2, "evictions {}", s.evictions);
        assert!(s.resident_bytes <= 10_000);
        // The most recently inserted key must have survived.
        assert!(c.get(keys[3]).is_some());
        // The oldest must be gone.
        assert!(c.get(keys[0]).is_none());
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        let c = BlockCache::new(8 * 10_000);
        let hot = (8, 4096);
        let cold = (16, 4096);
        c.insert(hot, block(1, 4096));
        c.insert(cold, block(2, 4096));
        // Touch `hot` so `cold` becomes the LRU victim.
        assert!(c.get(hot).is_some());
        c.insert((24, 4096), block(3, 4096));
        assert!(c.get(hot).is_some(), "hot entry was evicted over the cold one");
        assert!(c.get(cold).is_none());
    }

    #[test]
    fn zero_budget_disables_cache() {
        let c = BlockCache::new(0);
        assert!(!c.enabled());
        c.insert((1, 10), block(0, 10));
        assert!(c.get((1, 10)).is_none());
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn oversized_block_is_not_cached() {
        let c = BlockCache::new(8 * 1000);
        c.insert((8, 5000), block(0, 5000));
        assert!(c.get((8, 5000)).is_none());
        assert_eq!(c.stats().resident_bytes, 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn replacing_same_key_keeps_resident_exact() {
        let c = BlockCache::new(1 << 20);
        c.insert((8, 100), block(1, 100));
        c.insert((8, 100), block(1, 100));
        assert_eq!(c.stats().resident_bytes, 100);
    }

    fn hit_len(c: &BlockCache, key: BlockKey, need: usize) -> Option<usize> {
        match c.lookup(key, need) {
            Lookup::Hit(bytes) => Some(bytes.len()),
            Lookup::Short | Lookup::Miss => None,
        }
    }

    #[test]
    fn a_prefix_is_charged_its_own_length_and_a_short_lookup_misses() {
        let c = BlockCache::new(1 << 20);
        let key = (8, 4096);
        c.insert(key, block(1, 1000));
        assert_eq!(c.stats().resident_bytes, 1000);
        assert_eq!(hit_len(&c, key, 1000), Some(1000));
        assert!(matches!(c.lookup(key, 1001), Lookup::Short));
        assert!(c.get(key).is_none(), "a whole-block lookup found a prefix");
        assert!(matches!(c.lookup((16, 4096), 1), Lookup::Miss));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn a_longer_prefix_replaces_a_short_one_and_a_shorter_does_not() {
        let c = BlockCache::new(1 << 20);
        let key = (8, 4096);
        c.insert(key, block(1, 1000));
        c.insert(key, block(1, 4096));
        assert_eq!(c.stats().resident_bytes, 4096);
        assert_eq!(c.get(key).map(|b| b.len()), Some(4096));
        c.insert(key, block(1, 10));
        assert_eq!(c.stats().resident_bytes, 4096);
        assert_eq!(hit_len(&c, key, 10), Some(4096));
        assert_eq!(c.stats().evictions, 0);
    }

    /// A replacement is a use: the replaced key is the most recent, and
    /// the eviction it is charged for takes the least recent other one.
    #[test]
    fn lru_order_holds_across_a_replacement() {
        // One shard's budget of 10 000 bytes; keys share shard 0.
        let c = BlockCache::new(8 * 10_000);
        let (a, b, d) = ((8, 4096), (16, 4096), (24, 4096));
        c.insert(a, block(1, 2000));
        c.insert(b, block(2, 4096));
        c.insert(a, block(1, 4096));
        assert_eq!(c.stats().resident_bytes, 8192);
        c.insert(d, block(3, 4096));
        let s = c.stats();
        assert_eq!((s.evictions, s.resident_bytes), (1, 8192));
        assert!(c.get(b).is_none(), "the least recent entry survived");
        assert!(c.get(a).is_some() && c.get(d).is_some());
    }

    /// A shard poisoned by a panic under its lock is cleared on its next
    /// use and serves again; the other shards keep their entries, and the
    /// resident count loses exactly what the cleared shard held.
    #[test]
    fn a_poisoned_shard_is_cleared_and_reused() {
        let c = BlockCache::new(1 << 20);
        let (poisoned, other) = ((8, 4096), (9, 4096));
        c.insert(poisoned, block(1, 4096));
        c.insert((16, 500), block(1, 500));
        c.insert(other, block(2, 4096));
        assert_eq!(c.stats().resident_bytes, 8692);
        let shard = &c.shards[poisoned.0 as usize % SHARDS];
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = shard.lock();
            panic!("poisoning a cache shard");
        }));
        assert!(shard.is_poisoned());
        assert!(matches!(c.lookup(poisoned, 1), Lookup::Miss));
        assert!(!shard.is_poisoned());
        assert_eq!(c.stats().resident_bytes, 4096);
        assert!(c.get(other).is_some());
        c.insert(poisoned, block(1, 4096));
        assert_eq!(c.get(poisoned).map(|b| b.len()), Some(4096));
        assert_eq!(c.stats().resident_bytes, 8192);
    }
}
