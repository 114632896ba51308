//! Sharded content-addressed plan cache.
//!
//! One LRU map serializes every lookup behind one mutex and persists to
//! a single snapshot file — one torn write loses the whole cache. A
//! [`ShardedCache`] splits the key space across N independent LRU
//! shards selected by the existing 64-bit content key (the `{key:016x}`
//! plan hash), each with its own lock, its own LRU budget, and its own
//! `save_atomic` persistence file. Shard loss or corruption is
//! therefore isolated: deleting (or tearing) one shard's file loses
//! only that shard's entries, and salvage restarts that one shard cold
//! while the others load warm.
//!
//! Shard selection is `key % shards` — a pure function of the content
//! key, so a request maps to the same shard in every process and every
//! session. With `shards == 1` the persistence file is the caller's
//! path itself: the cache of a sweep (`youtiao sweep --cache`) is a
//! one-shard cache.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::cache::{CacheLoadError, CacheStats, PlanCache};

/// Which shard a content key lives in: a pure function of the key and
/// the shard count, stable across processes and sessions.
pub fn shard_of_key(key: u64, shards: usize) -> usize {
    (key % shards.max(1) as u64) as usize
}

/// The persistence file of shard `index` of a `shards`-way cache rooted
/// at `path`. A single-shard cache uses `path` itself, so `--shards 1`
/// reads and writes the flat cache's snapshot format in place.
pub fn shard_file(path: &Path, index: usize, shards: usize) -> PathBuf {
    if shards <= 1 {
        path.to_path_buf()
    } else {
        PathBuf::from(format!("{}.shard{index}-of-{shards}", path.display()))
    }
}

/// A content-addressed LRU cache split across independently locked,
/// independently persisted shards.
///
/// # Example
///
/// ```
/// use youtiao_serve::shard::{shard_of_key, ShardedCache};
///
/// let cache: ShardedCache<String> = ShardedCache::new(4, 64);
/// cache.insert(7, "seven".into());
/// assert_eq!(cache.get(7), Some("seven".into()));
/// assert_eq!(cache.len(), 1);
/// assert_eq!(shard_of_key(7, 4), 3);
///
/// // One shard is one LRU map.
/// let cache: ShardedCache<String> = ShardedCache::new(1, 2);
/// cache.insert(1, "a".into());
/// cache.insert(2, "b".into());
/// assert_eq!(cache.get(1), Some("a".into()));
/// cache.insert(3, "c".into()); // evicts key 2, the least recently used
/// assert_eq!(cache.get(2), None);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
/// ```
pub struct ShardedCache<R> {
    shards: Vec<PlanCache<R>>,
}

impl<R> ShardedCache<R> {
    /// A cache of `shards` shards (min 1) holding at most `capacity`
    /// entries in total; the budget is split evenly, each shard keeping
    /// at least one entry.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| PlanCache::new(per_shard)).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` maps to.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Looks up `key` in its shard, counting a hit or miss there.
    pub fn get(&self, key: u64) -> Option<R>
    where
        R: Clone,
    {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Inserts (or refreshes) `key` in its shard, evicting that shard's
    /// least recently used entry when its budget is full.
    pub fn insert(&self, key: u64, value: R) {
        self.shards[self.shard_of(key)].insert(key, value);
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(PlanCache::len).sum()
    }

    /// `true` when nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Aggregate counters over all shards (capacity is the summed
    /// per-shard budget).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            entries: 0,
            capacity: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        for shard in &self.shards {
            let s = shard.stats();
            total.entries += s.entries;
            total.capacity += s.capacity;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(PlanCache::stats).collect()
    }

    /// Loads a sharded cache persisted under `path`: shard `i` reads
    /// [`shard_file`]`(path, i, shards)`. A missing shard file starts
    /// that shard cold. A torn or corrupted shard file (invalid UTF-8
    /// included) fails the load with its [`CacheLoadError`] — unless
    /// `salvage` is set, which restarts *only that shard* cold and
    /// keeps loading the rest; the second return is how many shards
    /// were salvaged. A shard file that exists but cannot be read fails
    /// the load with [`CacheLoadError::Read`] even with `salvage`.
    pub fn load(
        path: &Path,
        shards: usize,
        capacity: usize,
        salvage: bool,
    ) -> Result<(Self, usize), CacheLoadError>
    where
        R: Deserialize,
    {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        let mut loaded = Vec::with_capacity(shards);
        let mut salvaged = 0usize;
        for index in 0..shards {
            let file = shard_file(path, index, shards);
            let shard = match std::fs::read(&file) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => PlanCache::new(per_shard),
                Err(e) => return Err(CacheLoadError::Read(e.to_string())),
                Ok(bytes) => match String::from_utf8(bytes)
                    .map_err(|e| CacheLoadError::Parse(e.to_string()))
                    .and_then(|text| PlanCache::from_json(&text, per_shard))
                {
                    Ok(shard) => shard,
                    Err(_) if salvage => {
                        salvaged += 1;
                        PlanCache::new(per_shard)
                    }
                    Err(e) => return Err(e),
                },
            };
            loaded.push(shard);
        }
        Ok((ShardedCache { shards: loaded }, salvaged))
    }

    /// Persists every shard crash-safely to its own [`shard_file`]
    /// (a same-directory temp file renamed into place).
    /// A crash between shard writes leaves each file either old or new
    /// — never torn — and loses at most the shards not yet written.
    pub fn save_atomic(&self, path: &Path) -> std::io::Result<()>
    where
        R: Serialize,
    {
        let count = self.shards.len();
        for (index, shard) in self.shards.iter().enumerate() {
            shard.save_atomic(&shard_file(path, index, count))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{apply_cache_fault, CacheFault};

    fn temp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "youtiao-shard-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path, shards: usize) {
        for index in 0..shards {
            let _ = std::fs::remove_file(shard_file(path, index, shards));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn keys_spread_across_shards_and_aggregate_like_a_flat_cache() {
        let cache: ShardedCache<u64> = ShardedCache::new(4, 64);
        for key in 0..32u64 {
            cache.insert(key, key * 10);
        }
        assert_eq!(cache.len(), 32);
        for key in 0..32u64 {
            assert_eq!(cache.get(key), Some(key * 10));
            assert_eq!(cache.shard_of(key), (key % 4) as usize);
        }
        assert_eq!(cache.get(999), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (32, 1));
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.entries).sum::<usize>(), 32);
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 32);
        // Every shard saw its even share of the sequential keys.
        for s in &per_shard {
            assert_eq!(s.entries, 8);
        }
    }

    #[test]
    fn per_shard_lru_budgets_evict_independently() {
        // Total budget 4 over 2 shards -> 2 entries per shard. Keys
        // 0,2,4 land in shard 0, keys 1,3 in shard 1: the third even
        // key evicts within shard 0 only.
        let cache: ShardedCache<u32> = ShardedCache::new(2, 4);
        for key in 0..5u64 {
            cache.insert(key, key as u32);
        }
        assert_eq!(cache.get(0), None, "shard 0 evicted its LRU entry");
        assert_eq!(cache.get(1), Some(1), "shard 1 was untouched");
        assert_eq!(cache.get(3), Some(3));
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard[0].evictions, 1);
        assert_eq!(per_shard[1].evictions, 0);
    }

    #[test]
    fn single_shard_persistence_is_the_flat_snapshot_in_place() {
        let path = temp_base("flat");
        cleanup(&path, 1);
        assert_eq!(shard_file(&path, 0, 1), path);

        let cache: ShardedCache<String> = ShardedCache::new(1, 8);
        cache.insert(7, "seven".into());
        cache.save_atomic(&path).unwrap();
        // The file is one shard's snapshot, which that shard's loader
        // reads.
        let text = std::fs::read_to_string(&path).unwrap();
        let flat: PlanCache<String> = PlanCache::from_json(&text, 8).unwrap();
        assert_eq!(flat.get(7), Some("seven".into()));
        cleanup(&path, 1);
    }

    #[test]
    fn sharded_persistence_roundtrips_per_shard() {
        let path = temp_base("roundtrip");
        cleanup(&path, 4);
        let cache: ShardedCache<u64> = ShardedCache::new(4, 64);
        for key in 0..16u64 {
            cache.insert(key, key + 100);
        }
        cache.save_atomic(&path).unwrap();
        for index in 0..4 {
            assert!(shard_file(&path, index, 4).exists(), "shard {index} file");
        }
        let (back, salvaged) = ShardedCache::<u64>::load(&path, 4, 64, false).unwrap();
        assert_eq!(salvaged, 0);
        assert_eq!(back.len(), 16);
        for key in 0..16u64 {
            assert_eq!(back.get(key), Some(key + 100));
        }
        // Loading resets runtime counters, like the flat cache.
        assert_eq!(back.stats().misses, 0);
        cleanup(&path, 4);
    }

    #[test]
    fn losing_one_shard_file_loses_only_that_shards_entries() {
        let path = temp_base("loss");
        cleanup(&path, 4);
        let cache: ShardedCache<u64> = ShardedCache::new(4, 64);
        for key in 0..20u64 {
            cache.insert(key, key);
        }
        let lost_shard = 2usize;
        let lost: u64 = (0..20u64)
            .filter(|k| shard_of_key(*k, 4) == lost_shard)
            .count() as u64;
        cache.save_atomic(&path).unwrap();
        std::fs::remove_file(shard_file(&path, lost_shard, 4)).unwrap();

        let (back, salvaged) = ShardedCache::<u64>::load(&path, 4, 64, false).unwrap();
        assert_eq!(salvaged, 0, "a missing file is a cold shard, not salvage");
        assert_eq!(back.len(), 20 - lost as usize);
        for key in 0..20u64 {
            let expected = (shard_of_key(key, 4) != lost_shard).then_some(key);
            assert_eq!(back.get(key), expected, "key {key}");
        }
        cleanup(&path, 4);
    }

    /// A byte that is not UTF-8 is corruption like a torn write: it
    /// fails the load, and salvage restarts that shard. A file that
    /// cannot be read at all (here a directory) fails the load even
    /// with salvage.
    #[test]
    fn invalid_utf8_is_salvageable_and_unreadable_files_fail() {
        let path = temp_base("utf8");
        cleanup(&path, 1);
        let cache: ShardedCache<u64> = ShardedCache::new(1, 8);
        cache.insert(3, 30);
        cache.save_atomic(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let err = ShardedCache::<u64>::load(&path, 1, 8, false).err().unwrap();
        assert!(matches!(err, CacheLoadError::Parse(_)), "{err}");
        let (back, salvaged) = ShardedCache::<u64>::load(&path, 1, 8, true).unwrap();
        assert_eq!(salvaged, 1);
        assert!(back.is_empty());
        cleanup(&path, 1);

        std::fs::create_dir(&path).unwrap();
        for salvage in [false, true] {
            let err = ShardedCache::<u64>::load(&path, 1, 8, salvage)
                .err()
                .unwrap();
            assert!(matches!(err, CacheLoadError::Read(_)), "{err}");
        }
        std::fs::remove_dir(&path).unwrap();
    }

    #[test]
    fn torn_shard_fails_loudly_or_salvages_alone() {
        let path = temp_base("torn");
        cleanup(&path, 2);
        let cache: ShardedCache<u64> = ShardedCache::new(2, 64);
        for key in 0..10u64 {
            cache.insert(key, key);
        }
        cache.save_atomic(&path).unwrap();
        apply_cache_fault(&shard_file(&path, 1, 2), CacheFault::Truncate).unwrap();

        // Default: the torn shard fails the whole load, structurally.
        let err = ShardedCache::<u64>::load(&path, 2, 64, false)
            .err()
            .unwrap();
        assert!(matches!(err, CacheLoadError::Parse(_)), "{err}");

        // Salvage: only the torn shard restarts cold.
        let (back, salvaged) = ShardedCache::<u64>::load(&path, 2, 64, true).unwrap();
        assert_eq!(salvaged, 1);
        for key in 0..10u64 {
            let expected = (shard_of_key(key, 2) == 0).then_some(key);
            assert_eq!(back.get(key), expected, "key {key}");
        }
        cleanup(&path, 2);
    }
}
