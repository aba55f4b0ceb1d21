//! The process-lifetime caches behind batch, chip and service
//! extraction: one sharded LRU, [`ShardedLru`], under both.
//!
//! The paper's instantiable-basis economics (conf_dac_HsiaoD11) make the
//! pair integral the dominant, *reusable* unit of setup work, and one
//! level up, the window result. [`TemplateCache`] keeps the first warm
//! across runs and requests, [`crate::chip::WindowCache`] the second:
//!
//! * **bit-identity** — keys are exact: the pair plan stores
//!   [`PairKey`]s canonical under translation, mirroring and axis
//!   permutation, and a pair's integral is evaluated from its key alone,
//!   so a hit returns the very `f64` a recomputation would produce, for
//!   every translated, mirrored or axis-permuted copy of the pair.
//!   Eviction can only cause recomputation, never a different answer:
//!   results are bit-identical at any bound, including zero.
//! * **bounded memory** — a bound is split evenly over the shards, and
//!   every value reports its own weight ([`CacheValue::weight`];
//!   [`ENTRY_BYTES`] per pair integral). When an insert would push a shard
//!   over its budget, the least-recently-used quarter of the shard (by a
//!   global epoch counter advanced on every lookup and insert; at least
//!   one entry) is evicted, repeated until the new entry fits. The newest
//!   entry always stays resident, so the bound holds after every insert
//!   except while a lone entry heavier than a shard's budget is resident.
//! * **sharded locking** — a fixed [`SHARDS`]-way shard array keyed by
//!   hash keeps lock traffic off the hot path; values are computed
//!   outside any lock, so two workers may rarely duplicate a computation,
//!   which is wasted work but never a wrong answer.
//!
//! Batch and chip extraction use private per-run instances by default and
//! accept shared ones; the daemon constructs one of each at startup and
//! shares them across every connection.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use bemcap_basis::PairKey;
use bemcap_basis::PAIR_KEY_WORDS;

use crate::metrics::{metrics, Metric};
use crate::report::CacheStats;

/// Approximate resident bytes per cache entry, used to convert the
/// configured memory bound into an entry budget: a 113-byte hash-map slot
/// (the 96-byte [`PairKey`], the `f64` value, the `u64` epoch, one control
/// byte) over the map's typical fill — its table is a power of two at
/// most 7/8 full, so between 7/16 and 7/8 — rounded up.
pub const ENTRY_BYTES: usize = 192;

/// Shards of every [`ShardedLru`].
pub const SHARDS: usize = 32;

/// The smallest bound [`TemplateCache::with_max_bytes`] actually
/// enforces: one entry per shard (`SHARDS * ENTRY_BYTES`). Budgets below
/// this floor are rounded up to it, so the cache always absorbs repeated
/// lookups; [`ShardedLru::max_bytes`] reports the effective bound.
pub const MIN_MAX_BYTES: usize = SHARDS * ENTRY_BYTES;

/// Fraction of a full shard evicted in one sweep (a quarter): large
/// enough to amortize the O(n) epoch scan, small enough to keep the hot
/// working set resident.
const EVICT_DENOMINATOR: usize = 4;

/// A value a [`ShardedLru`] can hold: its resident weight and the
/// process-global counters its kind of cache feeds.
pub trait CacheValue: Clone {
    /// Approximate resident bytes of one entry holding this value.
    fn weight(&self) -> usize;

    /// The process-global hit, miss, eviction and inserted-byte counters
    /// of this kind of cache, in that order (`None` for one it does not
    /// publish).
    fn metrics() -> [Option<&'static Metric>; 4];
}

/// A pair integral, as a [`TemplateCache`] holds it.
impl CacheValue for f64 {
    fn weight(&self) -> usize {
        ENTRY_BYTES
    }

    fn metrics() -> [Option<&'static Metric>; 4] {
        let m = metrics();
        [
            Some(m.template_cache_hits),
            Some(m.template_cache_misses),
            Some(m.template_cache_evictions),
            None,
        ]
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Summed weight of the resident entries.
    bytes: usize,
}

impl<K: Hash + Eq, V: CacheValue> Shard<K, V> {
    fn remove(&mut self, key: &K) {
        if let Some(old) = self.map.remove(key) {
            self.bytes -= old.value.weight();
        }
    }

    /// Stores `value` under `key`, which must not be resident.
    fn put(&mut self, key: K, value: V, last_used: u64) {
        self.bytes += value.weight();
        self.map.insert(key, Entry { value, last_used });
    }

    /// Evicts the least-recently-used quarter of the shard (at least one
    /// entry) until `incoming` more bytes fit `budget` or the shard is
    /// empty, and returns how many entries were dropped.
    fn evict_to_fit(&mut self, incoming: usize, budget: usize) -> usize {
        let before = self.map.len();
        while self.bytes + incoming > budget && !self.map.is_empty() {
            let target = (self.map.len() / EVICT_DENOMINATOR).max(1);
            let mut epochs: Vec<u64> = self.map.values().map(|e| e.last_used).collect();
            // Epoch stamps are unique, so this drops exactly `target`.
            let threshold = *epochs.select_nth_unstable(target - 1).1;
            let bytes = &mut self.bytes;
            self.map.retain(|_, e| {
                let keep = e.last_used > threshold;
                if !keep {
                    *bytes -= e.value.weight();
                }
                keep
            });
        }
        before - self.map.len()
    }
}

/// A process-lifetime, optionally memory-bounded, sharded LRU map. See
/// the module docs for the invariants; [`TemplateCache`] and
/// [`crate::chip::WindowCache`] are its two instances.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard byte budget; `None` = unbounded.
    shard_budget: Option<usize>,
    /// Global logical clock: advanced on every lookup and insert, stamped
    /// into the touched entry for LRU ordering.
    epoch: AtomicU64,
    /// Lifetime hits, misses, evictions and inserted bytes.
    counters: [AtomicU64; 4],
}

/// A process-lifetime, memory-bounded, sharded map from template-pair
/// keys to raw pair integrals. See the module docs for the invariants.
///
/// ```
/// use bemcap_core::cache::{PairKey, TemplateCache};
///
/// let cache = TemplateCache::with_max_bytes(16 << 20);
/// let key = PairKey::from([1u64; 12]);
/// let (v, first) = cache.get_or_compute(key, || 42.0);
/// let (w, second) = cache.get_or_compute(key, || unreachable!("cached"));
/// assert_eq!((v, w), (42.0, 42.0));
/// assert_eq!((first.misses, second.hits), (1, 1));
/// ```
pub type TemplateCache = ShardedLru<PairKey, f64>;

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("entries", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .field("max_bytes", &self.max_bytes())
            .field("lifetime", &self.lifetime())
            .finish()
    }
}

impl<K, V> ShardedLru<K, V> {
    /// A cache with no memory bound — every value ever inserted stays
    /// resident. The per-run default of [`crate::batch::BatchExtractor`]
    /// and [`crate::chip::ChipExtractor`].
    pub fn unbounded() -> ShardedLru<K, V> {
        ShardedLru::with_shard_budget(None)
    }

    /// A cache whose every shard holds at most `shard_budget` bytes
    /// (`None` = unbounded).
    pub(crate) fn with_shard_budget(shard_budget: Option<usize>) -> ShardedLru<K, V> {
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), bytes: 0 }))
                .collect(),
            shard_budget,
            epoch: AtomicU64::new(0),
            counters: Default::default(),
        }
    }

    /// The effective memory bound in bytes (`None` = unbounded): the
    /// per-shard budget actually enforced, after each constructor's
    /// rounding, times [`SHARDS`].
    pub fn max_bytes(&self) -> Option<usize> {
        self.shard_budget.map(|budget| budget * SHARDS)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes: the summed weight of every entry.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Lifetime counters: every hit, miss, eviction, and inserted byte
    /// since construction, across all users of the cache.
    pub fn lifetime(&self) -> CacheStats {
        let [hits, misses, evictions, inserted_bytes] =
            self.counters.each_ref().map(|c| c.load(Ordering::Relaxed) as usize);
        CacheStats { hits, misses, evictions, inserted_bytes }
    }

    /// Drops every resident entry (counters keep running).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = lock(shard);
            s.map.clear();
            s.bytes = 0;
        }
    }
}

impl<K: Hash + Eq, V: CacheValue> ShardedLru<K, V> {
    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `key` up, returning the resident value (if any) and this
    /// lookup's counters: one hit or one miss.
    pub fn get(&self, key: &K) -> (Option<V>, CacheStats) {
        let now = self.epoch.fetch_add(1, Ordering::Relaxed);
        let found = lock(self.shard(key)).map.get_mut(key).map(|entry| {
            entry.last_used = now;
            entry.value.clone()
        });
        let hit = usize::from(found.is_some());
        (found, self.count(CacheStats { hits: hit, misses: 1 - hit, ..CacheStats::default() }))
    }

    /// Stores a freshly computed value, evicting least-recently-used
    /// entries until it fits the shard budget, and returns this insert's
    /// counters (its evictions and inserted bytes). Re-inserting a
    /// resident key replaces the entry (the value is identical by key
    /// construction). The entry is stamped when it is inserted, not when
    /// the lookup that missed it ran: concurrent lookups advance the epoch
    /// while the value is computed, and the stale stamp would make the
    /// entry just paid for the first in line for eviction.
    pub fn insert(&self, key: K, value: V) -> CacheStats {
        let weight = value.weight();
        let stamp = self.epoch.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(self.shard(&key));
        shard.remove(&key);
        let evicted = self.shard_budget.map_or(0, |budget| shard.evict_to_fit(weight, budget));
        shard.put(key, value, stamp);
        drop(shard);
        self.count(CacheStats {
            evictions: evicted,
            inserted_bytes: weight,
            ..CacheStats::default()
        })
    }

    /// Adds `delta` to the lifetime counters and to this kind's
    /// process-global ones, and returns it.
    fn count(&self, delta: CacheStats) -> CacheStats {
        let deltas = [delta.hits, delta.misses, delta.evictions, delta.inserted_bytes];
        for ((counter, metric), n) in self.counters.iter().zip(V::metrics()).zip(deltas) {
            if n > 0 {
                counter.fetch_add(n as u64, Ordering::Relaxed);
                if let Some(metric) = metric {
                    metric.add(n as u64);
                }
            }
        }
        delta
    }
}

fn lock<T>(shard: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    shard.lock().expect("cache shard poisoned")
}

impl TemplateCache {
    /// A cache bounded to approximately `max_bytes` resident bytes
    /// ([`ENTRY_BYTES`] per entry). The budget is rounded **down** to a
    /// whole number of entries per shard, but never below one entry per
    /// shard: any `max_bytes` under [`MIN_MAX_BYTES`] (including 0) is
    /// silently raised to that floor so the cache still absorbs repeats.
    /// [`ShardedLru::max_bytes`] reports the bound actually enforced,
    /// which may therefore differ from `max_bytes` in either direction.
    pub fn with_max_bytes(max_bytes: usize) -> TemplateCache {
        let entries = (max_bytes / ENTRY_BYTES / SHARDS).max(1);
        TemplateCache::with_shard_budget(Some(entries * ENTRY_BYTES))
    }

    /// Returns the cached integral for `key`, or computes, stores, and
    /// returns it, with this lookup's counters. The computation runs
    /// outside the shard lock.
    pub fn get_or_compute(&self, key: PairKey, f: impl FnOnce() -> f64) -> (f64, CacheStats) {
        let (cached, mut stats) = self.get(&key);
        if let Some(value) = cached {
            return (value, stats);
        }
        let value = f();
        stats.absorb(self.insert(key, value));
        (value, stats)
    }

    /// Writes every resident entry to `w` in the versioned snapshot
    /// format (see [`SNAPSHOT_HEADER`]) and returns how many entries
    /// were written. The format is binary-safe *text*: one header line,
    /// then one line per entry of 13 lowercase-hex `u64` words (the 12
    /// [`PairKey`] words followed by the value's raw `f64` bits), so a
    /// restored value is the identical `f64`, bit for bit, and the file
    /// survives any text transport.
    ///
    /// Concurrent lookups during the snapshot are safe (each shard is
    /// locked only while it is copied out); the snapshot is a consistent
    /// view per shard, not across shards — fine for its purpose of
    /// warm-starting a fresh process.
    ///
    /// # Errors
    ///
    /// Any I/O error from `w`.
    pub fn snapshot_to(&self, w: &mut impl Write) -> io::Result<usize> {
        let mut entries: Vec<(PairKey, f64)> = Vec::new();
        for shard in &self.shards {
            entries.extend(lock(shard).map.iter().map(|(k, e)| (*k, e.value)));
        }
        // Deterministic file contents for identical cache contents:
        // sort by key words, not by shard/hash iteration order.
        entries.sort_by_key(|(key, _)| key.words());
        writeln!(w, "{} {}", SNAPSHOT_HEADER, entries.len())?;
        for (key, value) in &entries {
            let mut line = String::with_capacity(ENTRY_WORDS * 17);
            for word in &key.words() {
                push_hex(&mut line, *word);
                line.push(' ');
            }
            push_hex(&mut line, value.to_bits());
            writeln!(w, "{line}")?;
        }
        Ok(entries.len())
    }

    /// Restores entries from a snapshot produced by
    /// [`TemplateCache::snapshot_to`] and returns how many were
    /// admitted. Restored entries behave exactly like computed ones (a
    /// later lookup is a hit returning the identical bits) but the
    /// restore itself moves **no** hit/miss counters — warm-start is not
    /// traffic. On a bounded cache, entries beyond a shard's budget are
    /// skipped rather than evicting each other, so the memory bound
    /// holds and the admitted count may be less than the file's.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a missing/foreign header, an
    /// unsupported snapshot version (including v1, whose absolute-placement
    /// keys cannot answer canonical lookups, v2, whose keys are in the
    /// translation-only orientation, and v3, whose keys are not canonical
    /// under axis permutations), or a malformed entry line; any I/O error
    /// from `r`.
    pub fn restore_from(&self, r: impl BufRead) -> io::Result<usize> {
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad_snapshot("empty snapshot file"))??;
        let declared = parse_snapshot_header(&header)?;
        let mut restored = 0usize;
        let mut seen = 0usize;
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            seen += 1;
            let mut words = [0u64; ENTRY_WORDS];
            let mut fields = line.split_ascii_whitespace();
            for (i, slot) in words.iter_mut().enumerate() {
                let field = fields.next().ok_or_else(|| {
                    bad_snapshot(format!("entry {seen}: expected {ENTRY_WORDS} words"))
                })?;
                *slot = u64::from_str_radix(field, 16).map_err(|e| {
                    bad_snapshot(format!("entry {seen} word {i}: not a hex u64: {e}"))
                })?;
            }
            if fields.next().is_some() {
                return Err(bad_snapshot(format!("entry {seen}: more than {ENTRY_WORDS} words")));
            }
            let mut key = [0u64; PAIR_KEY_WORDS];
            key.copy_from_slice(&words[..PAIR_KEY_WORDS]);
            let key = PairKey::from(key);
            let value = f64::from_bits(words[PAIR_KEY_WORDS]);
            let stamp = self.epoch.fetch_add(1, Ordering::Relaxed);
            let mut shard = lock(self.shard(&key));
            shard.remove(&key);
            if self.shard_budget.is_some_and(|budget| shard.bytes + ENTRY_BYTES > budget) {
                continue;
            }
            shard.put(key, value, stamp);
            restored += 1;
        }
        if seen != declared {
            return Err(bad_snapshot(format!(
                "snapshot declares {declared} entries but carries {seen} (truncated file?)"
            )));
        }
        Ok(restored)
    }
}

/// Magic-plus-version tag opening every [`TemplateCache::snapshot_to`]
/// file. Bump the version on any change to the entry encoding or to what
/// a key's value means; restore refuses versions it does not know instead
/// of misreading them.
pub const SNAPSHOT_HEADER: &str = "bemcap-template-cache v4";

/// Words per snapshot entry line: the key words, then the value's bits.
const ENTRY_WORDS: usize = PAIR_KEY_WORDS + 1;

fn push_hex(out: &mut String, word: u64) {
    use std::fmt::Write as _;
    write!(out, "{word:x}").expect("writing to a String is infallible");
}

fn bad_snapshot(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Validates the header line and returns the declared entry count.
fn parse_snapshot_header(header: &str) -> io::Result<usize> {
    let mut fields = header.split_ascii_whitespace();
    let (magic, version) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
    if magic != "bemcap-template-cache" {
        return Err(bad_snapshot(format!(
            "not a template-cache snapshot (expected a '{SNAPSHOT_HEADER}' header, got '{header}')"
        )));
    }
    if version != "v4" {
        return Err(bad_snapshot(format!(
            "unsupported template-cache snapshot version '{version}' (this build reads v4)"
        )));
    }
    fields
        .next()
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|_| fields.next().is_none())
        .ok_or_else(|| bad_snapshot(format!("snapshot header lacks an entry count: '{header}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PairKey {
        let mut words = [i; PAIR_KEY_WORDS];
        words[PAIR_KEY_WORDS - 1] = i.wrapping_mul(31);
        PairKey::from(words)
    }

    #[test]
    fn hit_returns_stored_bits_and_counts() {
        let cache = TemplateCache::unbounded();
        let v = 0.1 + 0.2; // a value with a non-trivial bit pattern
        let (a, l1) = cache.get_or_compute(key(1), || v);
        let (b, l2) = cache.get_or_compute(key(1), || unreachable!("must hit"));
        assert_eq!(a.to_bits(), v.to_bits());
        assert_eq!(b.to_bits(), v.to_bits());
        assert_eq!((l1.misses, l2.hits), (1, 1));
        let stats = cache.lifetime();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.inserted_bytes, ENTRY_BYTES);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), ENTRY_BYTES);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = TemplateCache::unbounded();
        for i in 0..10_000 {
            cache.get_or_compute(key(i), || i as f64);
        }
        assert_eq!(cache.len(), 10_000);
        assert_eq!(cache.lifetime().evictions, 0);
        assert_eq!(cache.max_bytes(), None);
    }

    #[test]
    fn memory_bound_is_respected_under_pressure() {
        let max = 512 * ENTRY_BYTES;
        let cache = TemplateCache::with_max_bytes(max);
        let bound = cache.max_bytes().expect("bounded");
        assert!(bound <= max);
        for i in 0..5_000 {
            cache.get_or_compute(key(i), || i as f64);
            assert!(
                cache.resident_bytes() <= bound,
                "resident {} over bound {bound} after insert {i}",
                cache.resident_bytes()
            );
        }
        let stats = cache.lifetime();
        assert!(stats.evictions > 0, "pressure must evict");
        assert_eq!(stats.misses, 5_000);
        // Evicted keys recompute to the same value (bit-identity is
        // trivially preserved: the cache stores what f returns).
        let (v, _) = cache.get_or_compute(key(0), || 0.0);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn lru_keeps_the_hot_entry() {
        // One shard would make this exact; across shards, keep the bound
        // large enough that only cold keys age out.
        let cache = TemplateCache::with_max_bytes(256 * ENTRY_BYTES);
        cache.get_or_compute(key(0), || 7.0);
        for i in 1..40_000 {
            // Touch the hot key frequently so its epoch stays fresh.
            if i % 4 == 0 {
                let (v, l) = cache.get_or_compute(key(0), || unreachable!("hot key evicted"));
                assert_eq!(l.hits, 1);
                assert_eq!(v, 7.0);
            }
            cache.get_or_compute(key(i), || i as f64);
        }
    }

    #[test]
    fn eviction_sequence_is_pinned() {
        // A fixed single-threaded stream under a 100-entry bound (3 entries
        // per shard): a warm set that recurs every third step, a long cold
        // tail, and a hot key touched every other step. The counters, the
        // residency and the surviving keys pin the eviction order exactly.
        let cache = TemplateCache::with_max_bytes(100 * ENTRY_BYTES);
        cache.get_or_compute(key(0), || 0.5);
        for i in 0..3_000u64 {
            let k = if i % 3 == 0 { 1 + i % 40 } else { 100 + (i * 37) % 1_000 };
            let (v, _) = cache.get_or_compute(key(k), || k as f64);
            assert_eq!(v, k as f64);
            if i % 2 == 0 {
                let (v, _) = cache.get_or_compute(key(0), || unreachable!("hot key evicted"));
                assert_eq!(v, 0.5);
            }
        }
        let stats = cache.lifetime();
        let mut file = Vec::new();
        cache.snapshot_to(&mut file).unwrap();
        let survivors: Vec<u64> = String::from_utf8(file)
            .unwrap()
            .lines()
            .skip(1)
            .map(|line| u64::from_str_radix(line.split(' ').next().unwrap(), 16).unwrap())
            .collect();
        let expected = CacheStats {
            hits: 1_741,
            misses: 2_760,
            evictions: 2_664,
            inserted_bytes: 2_760 * ENTRY_BYTES,
        };
        assert_eq!(stats, expected);
        assert_eq!(cache.len(), 96);
        #[rustfmt::skip]
        let expected_survivors = [
            0, 2, 3, 5, 8, 10, 11, 12, 14, 15, 16, 17, 18, 20, 23, 24, 25, 26, 29, 30, 31, 32, 33,
            35, 36, 38, 39, 40, 138, 139, 141, 142, 143, 176, 180, 249, 251, 252, 254, 258, 286,
            287, 288, 295, 360, 361, 364, 397, 399, 406, 471, 472, 474, 475, 508, 509, 510, 511,
            582, 583, 590, 619, 620, 621, 623, 693, 695, 699, 705, 730, 731, 732, 734, 804, 805,
            806, 811, 813, 818, 841, 842, 915, 916, 917, 918, 926, 952, 953, 955, 956, 1026, 1027,
            1063, 1064, 1065, 1066,
        ];
        assert_eq!(survivors, expected_survivors);
    }

    #[test]
    fn tiny_bound_still_caches_repeats() {
        let cache = TemplateCache::with_max_bytes(1);
        let (_, l1) = cache.get_or_compute(key(5), || 1.0);
        let (_, l2) = cache.get_or_compute(key(5), || unreachable!("repeat must hit"));
        assert_eq!((l1.misses, l2.hits), (1, 1));
    }

    #[test]
    fn sub_floor_budgets_report_the_documented_floor() {
        // A zero budget is legal: it clamps to the one-entry-per-shard
        // floor, and max_bytes() reports that effective bound rather
        // than echoing the request.
        let zero = TemplateCache::with_max_bytes(0);
        assert_eq!(zero.max_bytes(), Some(MIN_MAX_BYTES));
        let (_, l1) = zero.get_or_compute(key(9), || 3.0);
        let (v, l2) = zero.get_or_compute(key(9), || unreachable!("repeat must hit"));
        assert_eq!((l1.misses, l2.hits), (1, 1));
        assert_eq!(v, 3.0);

        // Every budget under the floor lands exactly on the floor...
        for budget in [1, ENTRY_BYTES - 1, ENTRY_BYTES, MIN_MAX_BYTES - 1] {
            let cache = TemplateCache::with_max_bytes(budget);
            assert_eq!(cache.max_bytes(), Some(MIN_MAX_BYTES), "budget {budget}");
        }
        // ...and the floor itself is representable exactly, as is any
        // whole multiple of it.
        assert_eq!(TemplateCache::with_max_bytes(MIN_MAX_BYTES).max_bytes(), Some(MIN_MAX_BYTES));
        assert_eq!(
            TemplateCache::with_max_bytes(4 * MIN_MAX_BYTES).max_bytes(),
            Some(4 * MIN_MAX_BYTES)
        );
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = TemplateCache::unbounded();
        cache.get_or_compute(key(1), || 1.0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.lifetime().misses, 1);
        let (_, l) = cache.get_or_compute(key(1), || 2.0);
        assert_eq!(l.misses, 1, "cleared entry recomputes");
    }

    #[test]
    fn concurrent_lookups_agree() {
        use std::sync::Arc;
        let cache = Arc::new(TemplateCache::with_max_bytes(64 * ENTRY_BYTES));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for round in 0..200 {
                        for i in 0..32 {
                            let (v, _) = cache.get_or_compute(key(i), || i as f64 * 1.5);
                            assert_eq!(v, i as f64 * 1.5, "thread {t} round {round}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    }

    #[test]
    fn debug_is_compact() {
        let cache = TemplateCache::with_max_bytes(1 << 20);
        let s = format!("{cache:?}");
        assert!(s.contains("entries") && s.contains("max_bytes"), "{s}");
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exactly() {
        let cache = TemplateCache::unbounded();
        // Values with non-trivial bit patterns, including a negative zero
        // and a subnormal, so bit-identity is actually exercised.
        let values = [0.1 + 0.2, -0.0, f64::MIN_POSITIVE / 2.0, -3.25e-18, 7.0];
        for (i, v) in values.iter().enumerate() {
            cache.get_or_compute(key(i as u64), || *v);
        }
        let mut file = Vec::new();
        let written = cache.snapshot_to(&mut file).unwrap();
        assert_eq!(written, values.len());

        let restored = TemplateCache::unbounded();
        let admitted = restored.restore_from(&file[..]).unwrap();
        assert_eq!(admitted, values.len());
        assert_eq!(restored.len(), values.len());
        // A restore is not traffic: no hit/miss movement yet.
        let stats = restored.lifetime();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        for (i, v) in values.iter().enumerate() {
            let (got, l) = restored.get_or_compute(key(i as u64), || unreachable!("restored"));
            assert_eq!(l.hits, 1, "entry {i} must be resident after restore");
            assert_eq!(got.to_bits(), v.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn snapshot_is_deterministic_for_equal_contents() {
        let a = TemplateCache::unbounded();
        let b = TemplateCache::unbounded();
        // Insert in different orders; the snapshot sorts by key words.
        for i in 0..50 {
            a.get_or_compute(key(i), || i as f64);
        }
        for i in (0..50).rev() {
            b.get_or_compute(key(i), || i as f64);
        }
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        a.snapshot_to(&mut fa).unwrap();
        b.snapshot_to(&mut fb).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn bounded_restore_respects_the_memory_bound() {
        let big = TemplateCache::unbounded();
        for i in 0..5_000 {
            big.get_or_compute(key(i), || i as f64);
        }
        let mut file = Vec::new();
        big.snapshot_to(&mut file).unwrap();

        let small = TemplateCache::with_max_bytes(256 * ENTRY_BYTES);
        let bound = small.max_bytes().expect("bounded");
        let admitted = small.restore_from(&file[..]).unwrap();
        assert!(admitted < 5_000, "a small cache cannot admit the whole snapshot");
        assert!(admitted > 0);
        assert!(small.resident_bytes() <= bound);
        assert_eq!(small.lifetime().evictions, 0, "restore skips, never evicts");
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cache = TemplateCache::unbounded();
        let errors = [
            ("", "empty"),
            ("not a snapshot\n", "foreign header"),
            ("bemcap-template-cache v9 0\n", "future version"),
            ("bemcap-template-cache v1 0\n", "absolute-placement v1"),
            ("bemcap-template-cache v2 0\n", "translation-only v2"),
            ("bemcap-template-cache v3 0\n", "mirror-only v3"),
            ("bemcap-template-cache v4\n", "missing count"),
            ("bemcap-template-cache v4 2\n", "truncated body"),
            ("bemcap-template-cache v4 1\n1 2 3\n", "short entry"),
            ("bemcap-template-cache v4 1\nzz 1 1 1 1 1 1 1 1 1 1 1 1\n", "bad hex"),
            ("bemcap-template-cache v4 1\n1 1 1 1 1 1 1 1 1 1 1 1 1 1\n", "long entry"),
        ];
        for (text, what) in errors {
            let e = cache.restore_from(text.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        }
        assert!(cache.is_empty() || !cache.is_empty(), "no panic is the contract");
        // The version messages name the version problem.
        let versions = ["v9", "v1", "v2", "v3"].map(|v| format!("bemcap-template-cache {v} 0\n"));
        for old in versions {
            let e = cache.restore_from(old.as_bytes()).unwrap_err();
            assert!(e.to_string().contains("version"), "{e}");
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let cache = TemplateCache::unbounded();
        let mut file = Vec::new();
        assert_eq!(cache.snapshot_to(&mut file).unwrap(), 0);
        let restored = TemplateCache::unbounded();
        assert_eq!(restored.restore_from(&file[..]).unwrap(), 0);
        assert!(restored.is_empty());
    }
}
