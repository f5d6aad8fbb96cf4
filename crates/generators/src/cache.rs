//! Shared memoized metadata-parse cache.
//!
//! Every studied tool walks the *same* repository metadata, so in the
//! differential pipeline each manifest used to be parsed four times — once
//! per emulator. [`ParseCache`] memoizes the parsed declarations keyed by
//! `(path, content hash, file kind, parser)`: the requirements dialect is
//! the only profile-dependent parser input, so Trivy and Syft — which share
//! the [`ReqStyle::TrivySyft`] dialect — also share cache entries, and
//! every other file kind is parsed exactly once no matter how many
//! emulators scan it.
//!
//! The key is the file *content*, not the repository name: entries are
//! indexed by the workspace content hash ([`sbomdiff_types::content_hash`])
//! and keep the bytes they parsed, and a lookup is a hit only when those
//! bytes equal the file's. Two consequences:
//!
//! * A long-lived cache (the analysis service, corpus experiments) can be
//!   shared across repositories and requests: re-analyzing an unchanged
//!   manifest is a lookup, while a *mutated* file is re-parsed — a stale
//!   parse can never be served, even when two requests reuse one
//!   repository name, and even when request-supplied content is crafted
//!   to collide with another file's hash (the collision costs a miss and
//!   the new parse replaces the old entry).
//! * Identical manifests in different repositories (common in synthetic
//!   corpora and real monorepos) collapse into one parse.
//!
//! The cache is sharded (16 mutexes selected by key hash) so the parallel
//! fan-out in `sbomdiff-experiments` contends only when two workers touch
//! the same shard at the same instant. Hit/miss counters feed the
//! experiment driver's timing report and the service's `/metrics`.
//!
//! Capacity is bounded in *bytes* (manifest content plus a fixed per-entry
//! overhead), evicting least-recently-used entries per shard. The default
//! budget is far above what any batch run parses, so experiments see an
//! effectively unbounded cache; the long-lived service keeps a stable
//! footprint instead of growing with every distinct manifest it ever saw.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_metadata::{MetadataKind, Parsed, RepoFs};
use sbomdiff_types::content_hash;

const SHARDS: usize = 16;

/// Default cache budget. Generous: a whole calibrated corpus parses well
/// under this, so only the service's unbounded request stream ever evicts.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

/// Fixed accounting overhead per entry (key strings, map slot, `Arc`
/// bookkeeping) added to the manifest's content length (the entry holds
/// the content, shared with the repository, to verify hits against).
const ENTRY_OVERHEAD: usize = 64;

/// Which parser family produced a cached entry. Emulator profiles use the
/// dialect parsers (parameterized by requirements style); the best-practice
/// generator uses the reference parsers, which accept strictly more syntax
/// — the two must never share entries for the same file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ParserKey {
    /// Tool-dialect parse; the `Option` is the requirements dialect
    /// (`None` for every kind other than `requirements.txt`, collapsing
    /// all profiles onto one entry).
    Dialect(Option<ReqStyle>),
    /// Reference (spec-faithful) parse for the best-practice generator.
    Reference,
}

impl ParserKey {
    /// Dense index for per-scan memo slots (see [`crate::ScanContext`]).
    pub(crate) fn slot(self) -> usize {
        match self {
            ParserKey::Dialect(None) => 0,
            ParserKey::Dialect(Some(ReqStyle::Pip)) => 1,
            ParserKey::Dialect(Some(ReqStyle::TrivySyft)) => 2,
            ParserKey::Dialect(Some(ReqStyle::SbomTool)) => 3,
            ParserKey::Dialect(Some(ReqStyle::GithubDg)) => 4,
            ParserKey::Reference => 5,
        }
    }

    /// Number of distinct [`ParserKey::slot`] values.
    pub(crate) const SLOTS: usize = 6;
}

/// `(path, content hash, kind, parser)`.
type Key = (String, u64, MetadataKind, ParserKey);

struct Entry {
    /// The parsed bytes; a hit must match them exactly.
    content: Arc<[u8]>,
    parsed: Arc<Parsed>,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct ShardState {
    map: HashMap<Key, Entry>,
    /// Sum of `cost` over `map` — must stay exact across insert, replace
    /// and evict, or the shard's eviction pressure drifts from reality.
    bytes: usize,
}

impl ShardState {
    /// The cached parse of `content` under `key`, if the entry holds
    /// exactly those bytes; bumps its recency.
    fn get(&mut self, key: &Key, content: &[u8], tick: u64) -> Option<Arc<Parsed>> {
        let found = self.map.get_mut(key).filter(|e| *e.content == *content)?;
        found.last_used = tick;
        Some(Arc::clone(&found.parsed))
    }

    fn insert(
        &mut self,
        key: Key,
        content: Arc<[u8]>,
        parsed: Arc<Parsed>,
        cost: usize,
        tick: u64,
    ) -> Arc<Parsed> {
        use std::collections::hash_map::Entry as MapEntry;
        let entry = Entry {
            content,
            parsed: Arc::clone(&parsed),
            cost,
            last_used: tick,
        };
        match self.map.entry(key) {
            MapEntry::Occupied(mut slot) => {
                // Replace (two workers raced on the same parse, or other
                // content collided on the hash): debit the outgoing
                // entry's bytes *before* crediting the new ones. Crediting
                // alone inflates the tally on every overwrite, and the
                // phantom bytes then evict live entries long before the
                // shard is actually full.
                let outgoing = slot.get().cost;
                self.bytes = self.bytes + cost - outgoing;
                slot.insert(entry);
            }
            MapEntry::Vacant(slot) => {
                self.bytes += cost;
                slot.insert(entry);
            }
        }
        parsed
    }

    /// Evicts least-recently-used entries until the shard fits `cap`.
    /// A single oversized entry is kept (there is nothing useful to evict
    /// it for); returns how many entries were dropped.
    fn evict_to(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > cap && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    if let Some(old) = self.map.remove(&key) {
                        self.bytes -= old.cost;
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }
}

type Shard = Mutex<ShardState>;

/// Memoizes [`parse`](ParseCache::parse) results across tool emulators,
/// repositories and requests.
///
/// # Examples
///
/// ```
/// use sbomdiff_generators::{ParseCache, SbomGenerator, ToolEmulator};
/// use sbomdiff_metadata::RepoFs;
///
/// let mut repo = RepoFs::new("demo");
/// repo.add_text("requirements.txt", "numpy==1.19.2\n");
/// let cache = ParseCache::new();
/// let a = ToolEmulator::trivy().generate_with_cache(&repo, &cache);
/// let b = ToolEmulator::syft().generate_with_cache(&repo, &cache);
/// assert_eq!(a.len(), b.len());
/// // Trivy and Syft share the requirements dialect: one parse, one hit.
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// ```
pub struct ParseCache {
    shards: Vec<Shard>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    tick: AtomicU64,
}

impl Default for ParseCache {
    fn default() -> Self {
        ParseCache::new()
    }
}

impl ParseCache {
    /// An empty cache with the default byte budget.
    pub fn new() -> Self {
        ParseCache::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }

    /// An empty cache holding at most `capacity` accounted bytes
    /// (distributed evenly across shards).
    pub fn with_capacity_bytes(capacity: usize) -> Self {
        ParseCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }

    /// Parses `path` of `repo` as `kind` under the `style` requirements
    /// dialect, memoized. The returned `Arc` is shared with every other
    /// caller asking for the same `(path, content, kind, dialect)`.
    pub fn parse(
        &self,
        repo: &RepoFs,
        path: &str,
        kind: MetadataKind,
        style: ReqStyle,
    ) -> Arc<Parsed> {
        // Only requirements.txt parsing is dialect-dependent; collapsing
        // the key for every other kind lets all four tools share one entry.
        let dialect = (kind == MetadataKind::RequirementsTxt).then_some(style);
        self.memoized(repo, path, kind, ParserKey::Dialect(dialect), || {
            crate::emulator::parse_with_style(repo, path, kind, style)
        })
    }

    /// Parses `path` of `repo` as `kind` with the *reference* parsers the
    /// best-practice generator uses, memoized separately from the dialect
    /// parses (the reference grammar accepts strictly more syntax).
    pub fn parse_reference(&self, repo: &RepoFs, path: &str, kind: MetadataKind) -> Arc<Parsed> {
        self.memoized(repo, path, kind, ParserKey::Reference, || {
            crate::bestpractice::parse_reference(repo, path, kind)
        })
    }

    fn memoized(
        &self,
        repo: &RepoFs,
        path: &str,
        kind: MetadataKind,
        parser: ParserKey,
        parse: impl FnOnce() -> Parsed,
    ) -> Arc<Parsed> {
        // Under an installed fault plan the cache is bypassed entirely:
        // keys hash clean content, so caching a faulted parse would let
        // corrupt results outlive the plan (and clean cached entries would
        // mask injected faults). Counted as a miss to keep stats honest.
        if sbomdiff_faultline::enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(parse());
        }
        let content = repo.shared_bytes(path).unwrap_or_default();
        let key: Key = (path.to_string(), content_hash(&content), kind, parser);
        self.memoized_as(key, content, parse)
    }

    /// The lookup-or-parse behind [`Self::memoized`], for a key already
    /// built from `content` (tests pin the hash in `key` to force
    /// collisions).
    fn memoized_as(
        &self,
        key: Key,
        content: Arc<[u8]>,
        parse: impl FnOnce() -> Parsed,
    ) -> Arc<Parsed> {
        let cost = content.len() + key.0.len() + ENTRY_OVERHEAD;
        let shard = &self.shards[fxhash(&key) as usize % SHARDS];
        // A poisoned shard only means another worker panicked mid-insert;
        // the map itself is still coherent, so recover instead of cascading.
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let found = shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key, &content, tick);
        if let Some(parsed) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return parsed;
        }
        // Parse outside the lock: other shard keys stay available and a
        // racing duplicate parse is deterministic anyway (the loser's
        // result replaces the winner's byte-identical one).
        let parsed = Arc::new(parse());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        let out = guard.insert(key, content, parsed, cost, tick);
        let evicted = guard.evict_to(self.per_shard_cap);
        drop(guard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        out
    }

    /// Records a reuse that was served from a scan-local memo instead of a
    /// shard lookup — still a shared parse avoided, so it counts as a hit.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hits so far (memoized parses reused).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (actual parses performed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total entries currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// True when nothing has been parsed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes currently held across all shards.
    pub fn total_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).bytes)
            .sum()
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.per_shard_cap * SHARDS
    }

    /// Entries evicted so far to stay under the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

fn fxhash(key: &Key) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SbomGenerator, ToolEmulator};

    fn bytes(b: &[u8]) -> Arc<[u8]> {
        Arc::from(b)
    }

    fn repo() -> RepoFs {
        let mut repo = RepoFs::new("cache-demo");
        repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\n");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        repo
    }

    #[test]
    fn memoizes_per_dialect() {
        let repo = repo();
        let cache = ParseCache::new();
        let trivy = ToolEmulator::trivy();
        let syft = ToolEmulator::syft();
        let github = ToolEmulator::github_dg();
        trivy.generate_with_cache(&repo, &cache);
        syft.generate_with_cache(&repo, &cache);
        github.generate_with_cache(&repo, &cache);
        // requirements.txt: TrivySyft dialect parsed once (shared by two
        // tools) + GithubDg dialect once. go.mod: dialect-independent, one
        // parse shared by all supporting tools.
        assert_eq!(cache.misses(), 3);
        assert!(cache.hits() >= 2, "hits={}", cache.hits());
    }

    #[test]
    fn cached_scan_equals_uncached_scan() {
        let repo = repo();
        let cache = ParseCache::new();
        for tool in [
            ToolEmulator::trivy(),
            ToolEmulator::syft(),
            ToolEmulator::github_dg(),
        ] {
            let plain = tool.generate(&repo);
            let cached = tool.generate_with_cache(&repo, &cache);
            assert_eq!(plain, cached, "{}", tool.id());
        }
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let repo = repo();
        let cache = ParseCache::new();
        let sboms = sbomdiff_parallel::par_map(4, &[0u8; 8], |_, _| {
            ToolEmulator::trivy().generate_with_cache(&repo, &cache)
        });
        for sbom in &sboms {
            assert_eq!(sbom, &sboms[0]);
        }
        assert_eq!(cache.misses() + cache.hits(), 16, "2 files x 8 scans");
    }

    #[test]
    fn mutated_content_is_reparsed_not_served_stale() {
        // Same repository name, same path, different bytes: the content
        // hash in the key forces a fresh parse.
        let cache = ParseCache::new();
        let mut v1 = RepoFs::new("same-name");
        v1.add_text("requirements.txt", "numpy==1.19.2\n");
        let mut v2 = RepoFs::new("same-name");
        v2.add_text("requirements.txt", "numpy==1.25.0\n");
        let a = ToolEmulator::trivy().generate_with_cache(&v1, &cache);
        let b = ToolEmulator::trivy().generate_with_cache(&v2, &cache);
        assert_eq!(a.components()[0].version.as_deref(), Some("1.19.2"));
        assert_eq!(b.components()[0].version.as_deref(), Some("1.25.0"));
        assert_eq!(cache.misses(), 2, "mutated file must re-parse");
    }

    #[test]
    fn identical_content_shared_across_repositories() {
        // Different repository names, identical manifest bytes: one parse.
        let cache = ParseCache::new();
        let mut a = RepoFs::new("repo-a");
        a.add_text("requirements.txt", "numpy==1.19.2\n");
        let mut b = RepoFs::new("repo-b");
        b.add_text("requirements.txt", "numpy==1.19.2\n");
        ToolEmulator::trivy().generate_with_cache(&a, &cache);
        ToolEmulator::trivy().generate_with_cache(&b, &cache);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn replace_debits_outgoing_entry_bytes() {
        // Regression: overwriting an existing key (racing duplicate parse)
        // must subtract the old entry's cost. With credit-only accounting
        // the tally drifts up by the old cost on every overwrite and the
        // shard evicts while half empty.
        let key = |p: &str| -> Key {
            (
                p.to_string(),
                7,
                MetadataKind::RequirementsTxt,
                ParserKey::Reference,
            )
        };
        let mut shard = ShardState::default();
        shard.insert(
            key("a"),
            bytes(b"a"),
            Arc::new(Parsed::ok(Vec::new())),
            1000,
            0,
        );
        assert_eq!(shard.bytes, 1000);
        for tick in 1..50 {
            shard.insert(
                key("a"),
                bytes(b"a"),
                Arc::new(Parsed::ok(Vec::new())),
                1000,
                tick,
            );
            assert_eq!(shard.bytes, 1000, "replace must not drift at tick {tick}");
        }
        // Replacement with a different cost settles on the new cost alone.
        shard.insert(
            key("a"),
            bytes(b"a"),
            Arc::new(Parsed::ok(Vec::new())),
            400,
            50,
        );
        assert_eq!(shard.bytes, 400);
        shard.insert(
            key("a"),
            bytes(b"a"),
            Arc::new(Parsed::ok(Vec::new())),
            1200,
            51,
        );
        assert_eq!(shard.bytes, 1200);
    }

    #[test]
    fn colliding_hash_with_other_content_is_a_miss() {
        // Two contents pinned to one hash under one path: the second must
        // parse rather than be served the first's result, the new parse
        // replaces the entry, and every lookup counts as one hit or miss.
        let cache = ParseCache::new();
        let key = || -> Key {
            (
                "requirements.txt".to_string(),
                7,
                MetadataKind::RequirementsTxt,
                ParserKey::Dialect(Some(ReqStyle::Pip)),
            )
        };
        let parsed = |name: &str| {
            let mut repo = RepoFs::new("collide");
            repo.add_text("requirements.txt", format!("{name}==1.0\n"));
            let kind = MetadataKind::RequirementsTxt;
            crate::emulator::parse_with_style(&repo, "requirements.txt", kind, ReqStyle::Pip)
        };
        let first = cache.memoized_as(key(), bytes(b"first"), || parsed("first"));
        let second = cache.memoized_as(key(), bytes(b"second"), || parsed("second"));
        assert_ne!(first, second, "a colliding hash must not share a parse");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1, "the colliding entry is replaced");
        let again = cache.memoized_as(key(), bytes(b"second"), || unreachable!("cached"));
        assert!(Arc::ptr_eq(&again, &second));
        let first_again = cache.memoized_as(key(), bytes(b"first"), || parsed("first"));
        assert_eq!(first_again, first);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!(
            cache.total_bytes(),
            "first".len() + "requirements.txt".len() + ENTRY_OVERHEAD,
            "replacement keeps the byte tally exact"
        );
    }

    #[test]
    fn churning_one_key_keeps_capacity_stable() {
        // One path, ever-changing content: every revision is a distinct
        // content-hash key, so a long-lived service would grow without
        // bound were the byte budget not enforced.
        let cache = ParseCache::with_capacity_bytes(16 * 1024);
        for i in 0..400 {
            let mut repo = RepoFs::new("churn");
            repo.add_text(
                "requirements.txt",
                format!("pkg{i}==1.0.{i}\n{}\n", "x".repeat(100)),
            );
            ToolEmulator::trivy().generate_with_cache(&repo, &cache);
            assert!(
                cache.total_bytes() <= cache.capacity_bytes(),
                "over budget at revision {i}: {} > {}",
                cache.total_bytes(),
                cache.capacity_bytes()
            );
        }
        assert!(cache.evictions() > 0, "churn past the budget must evict");
        assert!(cache.len() < 400, "stale revisions must not accumulate");
        // Accounting stays exact: re-derive the tally from live entries.
        let recomputed: usize = cache
            .shards
            .iter()
            .map(|s| {
                let guard = s.lock().unwrap();
                let sum: usize = guard.map.values().map(|e| e.cost).sum();
                assert_eq!(sum, guard.bytes, "shard tally must match entries");
                sum
            })
            .sum();
        assert_eq!(recomputed, cache.total_bytes());
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let cache = ParseCache::with_capacity_bytes(8 * 1024);
        let mut hot = RepoFs::new("hot");
        hot.add_text("requirements.txt", "numpy==1.19.2\n");
        ToolEmulator::trivy().generate_with_cache(&hot, &cache);
        for i in 0..200 {
            let mut cold = RepoFs::new("cold");
            cold.add_text(
                "requirements.txt",
                format!("cold{i}==0.0.{i}\n{}\n", "y".repeat(80)),
            );
            ToolEmulator::trivy().generate_with_cache(&cold, &cache);
            // Touch the hot entry each round so its recency stays fresh.
            let before = cache.misses();
            ToolEmulator::trivy().generate_with_cache(&hot, &cache);
            assert_eq!(cache.misses(), before, "hot entry evicted at round {i}");
        }
    }

    #[test]
    fn default_capacity_never_evicts_in_batch_scale_runs() {
        let cache = ParseCache::new();
        for i in 0..50 {
            let mut repo = RepoFs::new(format!("repo-{i}"));
            repo.add_text("requirements.txt", format!("pkg{i}==1.0.0\n"));
            repo.add_text("go.mod", format!("module m{i}\nrequire a.b/c v1.{i}.0\n"));
            ToolEmulator::trivy().generate_with_cache(&repo, &cache);
        }
        assert_eq!(cache.evictions(), 0);
        assert!(cache.total_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn reference_and_dialect_parses_do_not_share_entries() {
        let cache = ParseCache::new();
        let mut repo = RepoFs::new("split");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        let dialect = cache.parse(&repo, "go.mod", MetadataKind::GoMod, ReqStyle::TrivySyft);
        let reference = cache.parse_reference(&repo, "go.mod", MetadataKind::GoMod);
        assert_eq!(cache.misses(), 2, "two parser families, two entries");
        assert!(!Arc::ptr_eq(&dialect, &reference));
    }
}
