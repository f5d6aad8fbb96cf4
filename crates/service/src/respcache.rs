//! Sharded content-keyed LRU response cache.
//!
//! Every analysis endpoint is a pure function of its request body (seeds
//! are part of the payload; nothing is time- or scheduling-dependent), so
//! identical payloads can be answered from cache byte-for-byte. The shape
//! follows `ParseCache` in `sbomdiff-generators`: 16 mutex-guarded shards
//! selected by key hash, with hit/miss counters feeding `/metrics`.
//!
//! A request's key is its `path` and `body`. The shard map is indexed by
//! the workspace content hash ([`sbomdiff_types::content_hash`]) of the
//! two, and every entry keeps the path and body it was stored under: a
//! lookup is a hit only when both compare equal byte for byte. Two
//! requests whose hashes collide therefore never see each other's
//! response; the later one misses and, once computed, replaces the
//! earlier entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sbomdiff_types::{content_hash, content_hash_with_seed};

use crate::http::Response;

const SHARDS: usize = 16;

/// A cached response plus its preserialized wire bytes.
///
/// The wire form is serialized once, at insertion, in the *persistent*
/// framing (no `Connection` header — the HTTP/1.1 default; see
/// [`Response::serialize`]). A keep-alive cache hit is then answered by
/// queueing a clone of the shared slice: the hot path allocates nothing and
/// copies nothing. Only a hit on a closing connection (explicit
/// `Connection: close`) pays for an owned re-serialization.
pub struct CacheEntry {
    /// The structured response (batch sub-requests and closing connections
    /// read status/body from here).
    pub response: Response,
    /// The persistent-form wire bytes written zero-copy on keep-alive hits.
    pub wire: Arc<[u8]>,
}

impl CacheEntry {
    /// Builds the entry, preserializing the wire bytes.
    pub fn new(response: Response) -> CacheEntry {
        let wire = response.serialize_shared();
        CacheEntry { response, wire }
    }
}

/// A request's cache key: the content hash of `(path, body)` plus the
/// bytes themselves, which a hit must match exactly.
#[derive(Debug)]
pub struct CacheKey<'a> {
    hash: u64,
    path: &'a str,
    body: &'a [u8],
}

impl<'a> CacheKey<'a> {
    /// A key whose hash was already computed from `path` and `body` (the
    /// reactor hashes a request once and hands the hash to the worker
    /// that computes it). A wrong hash can only cost misses: hits compare
    /// the bytes.
    pub(crate) fn with_hash(hash: u64, path: &'a str, body: &'a [u8]) -> Self {
        CacheKey { hash, path, body }
    }

    /// The content hash of the path and body.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

struct Entry {
    path: Box<str>,
    body: Box<[u8]>,
    entry: Arc<CacheEntry>,
    last_used: u64,
}

struct Shard {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded LRU cache of successful responses.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// A cache holding roughly `capacity` responses (spread over 16
    /// shards; each shard keeps at least one entry).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a request.
    pub fn key<'a>(path: &'a str, body: &'a [u8]) -> CacheKey<'a> {
        let hash = content_hash_with_seed(content_hash(path.as_bytes()), body);
        CacheKey::with_hash(hash, path, body)
    }

    /// Looks up a cached response, bumping its recency. An entry under the
    /// same hash but with other bytes is a miss.
    pub fn get(&self, key: &CacheKey<'_>) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shard(key.hash);
        shard.tick += 1;
        let tick = shard.tick;
        let found = shard
            .entries
            .get_mut(&key.hash)
            .filter(|e| *e.path == *key.path && *e.body == *key.body)
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.entry)
            });
        drop(shard);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a response, replacing whatever the key's hash held (a
    /// colliding entry included) and otherwise evicting the
    /// least-recently-used entry of the shard when it is full.
    pub fn put(&self, key: &CacheKey<'_>, entry: Arc<CacheEntry>) {
        let mut shard = self.shard(key.hash);
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.per_shard_cap && !shard.entries.contains_key(&key.hash) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
            }
        }
        shard.entries.insert(
            key.hash,
            Entry {
                path: key.path.into(),
                body: key.body.into(),
                entry,
                last_used: tick,
            },
        );
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit ratio over all lookups (0 when none happened yet).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Total cached responses.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the shard of `hash`. A poisoned shard only means a thread
    /// panicked while holding it; every update leaves the map whole (an
    /// insert or remove either happened or did not), so recover the guard
    /// instead of failing every later request on that shard.
    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        self.shards[hash as usize % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> Arc<CacheEntry> {
        Arc::new(CacheEntry::new(Response::json(
            200,
            format!("{{\"tag\":\"{tag}\"}}"),
        )))
    }

    #[test]
    fn distinct_payloads_get_distinct_keys() {
        let a = ResponseCache::key("/v1/diff", b"{\"a\":1}").hash();
        let b = ResponseCache::key("/v1/diff", b"{\"a\":2}").hash();
        let c = ResponseCache::key("/v1/analyze", b"{\"a\":1}").hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ResponseCache::key("/v1/diff", b"{\"a\":1}").hash());
        // The path/body boundary is part of the key.
        assert_ne!(
            ResponseCache::key("/v1/a", b"b").hash(),
            ResponseCache::key("/v1/", b"ab").hash()
        );
    }

    #[test]
    fn hit_after_put() {
        let cache = ResponseCache::new(8);
        let key = ResponseCache::key("/v1/diff", b"x");
        assert!(cache.get(&key).is_none());
        cache.put(&key, resp("one"));
        let found = cache.get(&key).expect("hit");
        assert_eq!(found.response.body, resp("one").response.body);
        // The preserialized wire bytes match the persistent serialization.
        assert_eq!(&*found.wire, found.response.serialize(false).as_slice());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn colliding_hash_with_other_bytes_is_a_miss() {
        // Three requests pinned to one hash: the stored entry answers only
        // its own path and body; a put under the shared hash replaces it.
        let cache = ResponseCache::new(8);
        let first = CacheKey::with_hash(7, "/v1/diff", b"first");
        let second = CacheKey::with_hash(7, "/v1/diff", b"second");
        let other_path = CacheKey::with_hash(7, "/v1/impact", b"first");
        cache.put(&first, resp("first"));
        assert!(cache.get(&second).is_none(), "colliding body must miss");
        assert!(cache.get(&other_path).is_none(), "colliding path must miss");
        assert_eq!(
            cache.get(&first).expect("own bytes hit").response.body,
            resp("first").response.body
        );
        cache.put(&second, resp("second"));
        assert_eq!(cache.len(), 1, "the colliding entry is replaced");
        assert!(cache.get(&first).is_none(), "replaced entry must miss");
        assert_eq!(
            cache.get(&second).expect("replacement hits").response.body,
            resp("second").response.body
        );
        // Every lookup is counted once, as a hit or as a miss.
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        let cache = ResponseCache::new(8);
        let key = ResponseCache::key("/v1/diff", b"x");
        cache.put(&key, resp("one"));
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.shard(key.hash());
                panic!("poison the shard");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(cache.shards[key.hash() as usize % SHARDS].is_poisoned());
        assert!(cache.get(&key).is_some());
        cache.put(&key, resp("two"));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get(&key).expect("hit").response.body,
            resp("two").response.body
        );
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Single-entry shards: every insertion evicts the previous tenant
        // of its shard, and the recently-used key must survive its shard.
        let cache = ResponseCache::new(1);
        let bodies: Vec<[u8; 1]> = (0..64u8).map(|i| [i]).collect();
        let keys: Vec<CacheKey> = bodies
            .iter()
            .map(|b| ResponseCache::key("/v1/analyze", b))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            cache.put(k, resp(&i.to_string()));
        }
        assert!(cache.len() <= 16, "len={}", cache.len());
        // The last-inserted key's shard holds exactly that key.
        assert!(cache.get(keys.last().unwrap()).is_some());
    }

    #[test]
    fn recency_protects_hot_entries() {
        // Two entries per shard: a hot key touched before every insertion
        // is never the LRU of its shard, so evictions always pick a cold
        // neighbor and the hot entry survives arbitrarily many inserts.
        let cache = ResponseCache::new(32);
        let hot = ResponseCache::key("/v1/diff", b"hot");
        cache.put(&hot, resp("hot"));
        for i in 0..255u8 {
            assert!(cache.get(&hot).is_some(), "hot evicted after {i} inserts");
            cache.put(&ResponseCache::key("/v1/diff", &[i]), resp("cold"));
        }
        assert!(cache.get(&hot).is_some());
        assert!(cache.len() <= 32, "len={}", cache.len());
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(ResponseCache::new(64));
        let key = ResponseCache::key("/healthz", b"");
        cache.put(&key, resp("ok"));
        let results = sbomdiff_parallel::par_map(4, &[0u8; 16], |_, _| {
            cache.get(&key).map(|r| r.response.body.clone())
        });
        for r in results {
            assert_eq!(r, Some(resp("ok").response.body.clone()));
        }
        assert_eq!(cache.hits(), 16);
    }
}
