//! Content-addressed plan cache.
//!
//! Repeated design requests dominate real sweep workloads (the same
//! chip/θ/seed point shows up across sweep axes), so finished reports
//! are memoized under a *content key*: a stable 64-bit FNV-1a hash of
//! the canonical JSON of whatever identifies the computation — for the
//! design flow, `(ChipSpec, planner knobs, seed)`. Canonical JSON is
//! deterministic here because the vendored serde `Map` is a `BTreeMap`
//! (sorted keys), so equal inputs always hash equal across runs,
//! platforms and processes.
//!
//! Each shard of a [`crate::ShardedCache`] is a mutex-guarded LRU with
//! hit/miss/eviction counters and JSON persistence, which is what lets
//! a *second* `youtiao batch` process over the same JSONL file answer
//! every job from cache.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use serde::{Deserialize, Map, Serialize, Value};

/// Schema tag of the persisted snapshot envelope.
pub const CACHE_SCHEMA: &str = "youtiao-plan-cache/v1";

/// Why a persisted cache snapshot was rejected. Structured so callers
/// (and the chaos harness's torn-file tests) can distinguish a file
/// that never was JSON from one that tore mid-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoadError {
    /// The file is not valid UTF-8 JSON — the usual signature of a
    /// write that died midway or of byte-level corruption.
    Parse(String),
    /// The file exists but could not be read. Unlike the other
    /// variants this is no sign of a torn file, so salvage does not
    /// restart the shard over it.
    Read(String),
    /// The file parses but is not a JSON object.
    NotAnObject,
    /// The envelope's `schema` tag is missing pieces or names a version
    /// this build does not read.
    BadSchema(String),
    /// The envelope parses but holds fewer entries than its `count`
    /// header claims — a torn write that still happens to parse.
    Truncated {
        /// Entry count the header promised.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// An entry key is not a 64-bit hexadecimal content key.
    BadKey {
        /// The offending key text.
        key: String,
        /// Parser detail.
        detail: String,
    },
    /// An entry value does not deserialize as the cached result type.
    BadEntry {
        /// The entry's content key.
        key: String,
        /// Deserializer detail.
        detail: String,
    },
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Parse(detail) => {
                write!(f, "cache file does not parse as JSON: {detail}")
            }
            CacheLoadError::Read(detail) => write!(f, "cache file could not be read: {detail}"),
            CacheLoadError::NotAnObject => f.write_str("cache file is not a JSON object"),
            CacheLoadError::BadSchema(detail) => {
                write!(f, "cache file schema mismatch: {detail}")
            }
            CacheLoadError::Truncated { expected, found } => write!(
                f,
                "cache file is torn: header promises {expected} entries, found {found}"
            ),
            CacheLoadError::BadKey { key, detail } => {
                write!(f, "bad cache key `{key}`: {detail}")
            }
            CacheLoadError::BadEntry { key, detail } => {
                write!(f, "cache entry {key}: {detail}")
            }
        }
    }
}

impl std::error::Error for CacheLoadError {}

/// Computes the stable content key of any serializable value: FNV-1a
/// over its compact canonical JSON.
///
/// # Example
///
/// ```
/// use youtiao_serve::cache::content_key;
///
/// let a = content_key(&("square", 3u32, 7u64));
/// let b = content_key(&("square", 3u32, 7u64));
/// let c = content_key(&("square", 3u32, 8u64));
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn content_key<T: Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a(value.to_value().to_json().as_bytes())
}

/// 64-bit FNV-1a. Not cryptographic — collision resistance is fine for
/// a memo table keyed by trusted request content.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cache behavior counters, included in the batch metrics summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas against an earlier snapshot of the same cache —
    /// per-batch activity on a long-lived cache. `entries`/`capacity`
    /// stay at their current values.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            entries: self.entries,
            capacity: self.capacity,
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

struct Entry<R> {
    value: R,
    last_used: u64,
}

struct Inner<R> {
    map: HashMap<u64, Entry<R>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe, content-addressed LRU memo of finished results: one
/// shard of a [`crate::ShardedCache`].
pub(crate) struct PlanCache<R> {
    inner: Mutex<Inner<R>>,
    capacity: usize,
}

impl<R> PlanCache<R> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: u64) -> Option<R>
    where
        R: Clone,
    {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry when full.
    pub fn insert(&self, key: u64, value: R) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let fresh = !inner.map.contains_key(&key);
        if fresh && inner.map.len() >= self.capacity {
            if let Some((&lru, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.map.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Serializes the resident entries as a versioned snapshot envelope
    /// — `{"schema": ..., "count": N, "entries": {<hex key>: ...}}` —
    /// whose `count` header lets [`Self::from_json`] detect a torn file
    /// that still parses (counters are not persisted).
    pub fn to_json(&self) -> String
    where
        R: Serialize,
    {
        let inner = self.inner.lock().expect("cache lock");
        let mut entries = Map::new();
        for (key, entry) in &inner.map {
            entries.insert(format!("{key:016x}"), entry.value.to_value());
        }
        let mut map = Map::new();
        map.insert("schema".into(), Value::String(CACHE_SCHEMA.into()));
        map.insert("count".into(), (entries.len() as u64).to_value());
        map.insert("entries".into(), Value::Object(entries));
        Value::Object(map).to_json()
    }

    /// Rebuilds a cache from [`Self::to_json`] output, rejecting torn
    /// or corrupted snapshots with a structured [`CacheLoadError`]
    /// instead of partially loading. Bare objects without the envelope
    /// (pre-v1 snapshots) still load. Entries beyond `capacity` are
    /// dropped oldest-key-first (persisted caches carry no recency
    /// order).
    pub fn from_json(text: &str, capacity: usize) -> Result<Self, CacheLoadError>
    where
        R: Deserialize,
    {
        let value: Value =
            serde_json::from_str(text).map_err(|e| CacheLoadError::Parse(e.to_string()))?;
        let object = value.as_object().ok_or(CacheLoadError::NotAnObject)?;
        let entries = match object.get("schema") {
            Some(schema) => {
                match schema.as_str() {
                    Some(CACHE_SCHEMA) => {}
                    Some(other) => return Err(CacheLoadError::BadSchema(other.to_string())),
                    None => return Err(CacheLoadError::BadSchema(schema.to_json())),
                }
                let entries = object
                    .get("entries")
                    .and_then(Value::as_object)
                    .ok_or_else(|| CacheLoadError::BadSchema("missing `entries` object".into()))?;
                let expected = object
                    .get("count")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| CacheLoadError::BadSchema("missing `count` header".into()))?
                    as usize;
                if expected != entries.len() {
                    return Err(CacheLoadError::Truncated {
                        expected,
                        found: entries.len(),
                    });
                }
                entries
            }
            // Legacy snapshot: the whole object is the entry map.
            None => object,
        };
        let cache = PlanCache::new(capacity);
        for (hex, entry) in entries {
            let key = u64::from_str_radix(hex, 16).map_err(|e| CacheLoadError::BadKey {
                key: hex.clone(),
                detail: e.to_string(),
            })?;
            let value = R::from_value(entry).map_err(|e| CacheLoadError::BadEntry {
                key: hex.clone(),
                detail: e.to_string(),
            })?;
            cache.insert(key, value);
        }
        // Loading must not count toward runtime stats.
        let mut inner = cache.inner.lock().expect("cache lock");
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
        drop(inner);
        Ok(cache)
    }

    /// Crash-safe persistence: writes the snapshot to a temp file next
    /// to `path` and renames it into place, so a crash mid-write leaves
    /// either the old snapshot or the new one on disk — never a torn
    /// file. (The rename is atomic only within one filesystem, which
    /// the same-directory temp guarantees.)
    pub fn save_atomic(&self, path: &Path) -> std::io::Result<()>
    where
        R: Serialize,
    {
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "cache".into());
        let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_key_is_stable_and_order_insensitive() {
        // Equal maps built in different insertion orders hash equal:
        // canonical JSON sorts keys.
        let mut a = Map::new();
        a.insert("x".into(), Value::Bool(true));
        a.insert("y".into(), 3u32.to_value());
        let mut b = Map::new();
        b.insert("y".into(), 3u32.to_value());
        b.insert("x".into(), Value::Bool(true));
        assert_eq!(
            content_key(&Value::Object(a)),
            content_key(&Value::Object(b))
        );
        // Known FNV-1a vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: PlanCache<u32> = PlanCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(1), Some(10)); // refresh 1
        cache.insert(3, 30); // evicts 2
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(3), Some(30));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn json_roundtrip_preserves_entries() {
        let cache: PlanCache<String> = PlanCache::new(8);
        cache.insert(7, "seven".into());
        cache.insert(u64::MAX, "max".into());
        let text = cache.to_json();
        assert!(text.contains(CACHE_SCHEMA));
        let back: PlanCache<String> = PlanCache::from_json(&text, 8).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(7), Some("seven".into()));
        assert_eq!(back.get(u64::MAX), Some("max".into()));
        assert_eq!(
            PlanCache::<String>::from_json("[]", 8).err().unwrap(),
            CacheLoadError::NotAnObject
        );
    }

    #[test]
    fn legacy_bare_object_snapshots_still_load() {
        let back: PlanCache<String> =
            PlanCache::from_json(r#"{"0000000000000007":"seven"}"#, 8).unwrap();
        assert_eq!(back.get(7), Some("seven".into()));
    }

    #[test]
    fn torn_and_corrupt_snapshots_are_rejected_structurally() {
        // Byte-truncated file: not JSON at all.
        let cache: PlanCache<u32> = PlanCache::new(8);
        cache.insert(1, 10);
        cache.insert(2, 20);
        let text = cache.to_json();
        let torn = &text[..text.len() / 2];
        assert!(matches!(
            PlanCache::<u32>::from_json(torn, 8).err().unwrap(),
            CacheLoadError::Parse(_)
        ));

        // Parses, but the count header contradicts the entries: the
        // torn-but-valid case only the envelope can catch.
        let half =
            r#"{"schema":"youtiao-plan-cache/v1","count":2,"entries":{"0000000000000001":10}}"#;
        let err = PlanCache::<u32>::from_json(half, 8).err().unwrap();
        assert_eq!(
            err,
            CacheLoadError::Truncated {
                expected: 2,
                found: 1
            }
        );
        assert!(err.to_string().contains("torn"), "{err}");

        // Unknown schema version.
        let vnext = r#"{"schema":"youtiao-plan-cache/v9","count":0,"entries":{}}"#;
        assert!(matches!(
            PlanCache::<u32>::from_json(vnext, 8).err().unwrap(),
            CacheLoadError::BadSchema(_)
        ));

        // Bad key and bad entry value.
        assert!(matches!(
            PlanCache::<u32>::from_json(r#"{"xyz":1}"#, 8)
                .err()
                .unwrap(),
            CacheLoadError::BadKey { .. }
        ));
        assert!(matches!(
            PlanCache::<u32>::from_json(r#"{"0000000000000001":"nope"}"#, 8)
                .err()
                .unwrap(),
            CacheLoadError::BadEntry { .. }
        ));
    }

    #[test]
    fn save_atomic_replaces_the_snapshot_in_place() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("youtiao-cache-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cache: PlanCache<u32> = PlanCache::new(8);
        cache.insert(1, 10);
        cache.save_atomic(&path).unwrap();
        cache.insert(2, 20);
        cache.save_atomic(&path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let back: PlanCache<u32> = PlanCache::from_json(&text, 8).unwrap();
        assert_eq!(back.len(), 2);
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| {
                n.contains(&format!("youtiao-cache-test-{}", std::process::id()))
                    && n.contains(".tmp-")
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hit_rate_counts() {
        let cache: PlanCache<u32> = PlanCache::new(4);
        cache.insert(1, 1);
        cache.get(1);
        cache.get(2);
        let s = cache.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            CacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                entries: 0,
                capacity: 1
            }
            .hit_rate(),
            0.0
        );
    }
}
