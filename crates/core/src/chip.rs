//! Full-chip windowed extraction with incremental (ECO) re-extraction.
//!
//! The paper's divide-and-conquer story at chip scale: a layout is cut
//! into an `nx × ny` grid of overlapping windows
//! ([`bemcap_geom::layout`]), each window's neighborhood-complete
//! geometry is extracted as an ordinary self-contained problem by the
//! chip's [`BatchExtractor`] (one job per window the window cache
//! misses, the window jobs admitted together as one batch), and the owned
//! rows of every per-window capacitance matrix are stitched into one
//! sparse chip-level [`SparseMatrix`]. Three invariants carry the design:
//!
//! * **stitched ≈ monolithic** — a window sees every conductor within
//!   its halo, so its owned rows approach the full-chip answer as the
//!   halo grows; with one window the result *is* the monolithic
//!   extraction, bit for bit.
//! * **bit-determinism** — windows are extracted by the executor's
//!   bit-deterministic job path and stitched in window-index order, so
//!   pool size and completion order never change a bit of the chip
//!   matrix.
//! * **incremental reuse** — per-window results live in a
//!   [`WindowCache`] keyed by the exact bit-level content of the window
//!   geometry plus the solver-configuration digest. Re-extracting a
//!   revision only recomputes windows whose member content changed —
//!   which is precisely the set whose halo intersects the
//!   [`GeometryDiff`] — and an unchanged layout reuses every window,
//!   returning a bit-identical matrix without running a single job.
//!
//! ```
//! use bemcap_core::chip::ChipExtractor;
//! use bemcap_core::Extractor;
//! use bemcap_geom::structures::{self, BusParams};
//!
//! let geo = structures::bus_crossing(4, 4, BusParams::default());
//! let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(3.0e-6);
//! let full = chip.extract(&geo)?;
//! assert_eq!(full.capacitance().dim(), 8);
//! let again = chip.extract(&geo)?; // unchanged: every window reused
//! assert_eq!(again.report().reused, again.report().windows);
//! # Ok::<(), bemcap_core::CoreError>(())
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bemcap_geom::layout::{GeometryDiff, Layout, PartitionConfig};
use bemcap_geom::Geometry;
use bemcap_linalg::{Matrix, SparseMatrix};

use crate::batch::BatchExtractor;
use crate::cache::{CacheValue, ShardedLru, TemplateCache, SHARDS};
use crate::error::CoreError;
use crate::exec::Executor;
use crate::extraction::Extractor;
use crate::metrics::{metrics, Metric, Span};
use crate::report::CacheStats;

/// Cache identity of one extracted window: the solver-configuration
/// digest ([`Extractor::config_digest`]) plus the exact bit-level
/// content of the window geometry. Two windows share an entry exactly
/// when recomputation would produce bit-identical results — including
/// identical windows at different chip positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowKey {
    config: Vec<u64>,
    content: Vec<u64>,
}

impl WindowKey {
    /// Builds the key for extracting `geo` under `config`
    /// (an [`Extractor::config_digest`]).
    pub fn new(config: Vec<u64>, geo: &Geometry) -> WindowKey {
        let mut content = Vec::new();
        content.push(geo.eps_rel().to_bits());
        content.push(geo.conductor_count() as u64);
        for c in geo.conductors() {
            let bytes = c.name().as_bytes();
            content.push(bytes.len() as u64);
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                content.push(u64::from_le_bytes(word));
            }
            content.push(c.boxes().len() as u64);
            for b in c.boxes() {
                let (lo, hi) = (b.min(), b.max());
                for v in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
                    content.push(v.to_bits());
                }
            }
        }
        WindowKey { config, content }
    }
}

/// The cached result of one window extraction: the window-local
/// conductor names and capacitance matrix, free of global indices so
/// identical windows anywhere on the chip share one entry.
#[derive(Debug)]
pub struct WindowResult {
    names: Vec<String>,
    matrix: Matrix,
}

/// A window result's weight is its matrix plus its names.
impl CacheValue for Arc<WindowResult> {
    fn weight(&self) -> usize {
        self.matrix.memory_bytes() + self.names.iter().map(|n| n.len() + 24).sum::<usize>() + 64
    }

    fn metrics() -> [Option<&'static Metric>; 4] {
        let m = metrics();
        [
            m.window_cache_hits,
            m.window_cache_misses,
            m.window_cache_evictions,
            m.window_cache_inserted_bytes,
        ]
        .map(Some)
    }
}

/// A process-lifetime, memory-bounded, sharded cache of per-window
/// extraction results: the [`TemplateCache`] design one level up the
/// stack (see [`crate::cache`]). Keys are exact ([`WindowKey`]), so a hit
/// returns the very bits a recomputation would produce; a bound smaller
/// than one result degrades to "cache of the last window per shard".
pub type WindowCache = ShardedLru<WindowKey, Arc<WindowResult>>;

impl WindowCache {
    /// A cache bounded to approximately `max_bytes` resident bytes,
    /// rounded down to a whole number of bytes per shard (at least one).
    /// Every bound, however small, keeps at least the most recently
    /// inserted entry per shard.
    pub fn with_max_bytes(max_bytes: usize) -> WindowCache {
        WindowCache::with_shard_budget(Some((max_bytes / SHARDS).max(1)))
    }
}

/// The sparse full-chip capacitance matrix, indexed like the layout's
/// conductor order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipCapacitance {
    names: Vec<String>,
    c: SparseMatrix,
}

impl ChipCapacitance {
    /// Number of conductors.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// Net names in matrix order (the layout's conductor order).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Matrix index of a net name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Entry `(i, j)` in farad; `0.0` for net pairs sharing no window.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.c.get(i, j)
    }

    /// The underlying sparse matrix.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.c
    }

    /// Worst relative asymmetry `|c_ij − c_ji| / max|c|` over stored
    /// entries — the chip-level analogue of
    /// [`crate::extraction::CapacitanceMatrix::asymmetry`]. Windowing
    /// adds its own asymmetry: `c_ij` comes from `i`'s owner window and
    /// `c_ji` from `j`'s, which see different neighborhoods.
    pub fn asymmetry(&self) -> f64 {
        let scale = self.c.max_abs().max(f64::MIN_POSITIVE);
        let mut worst = 0.0_f64;
        for (i, j, v) in self.c.iter() {
            if j > i {
                worst = worst.max((v - self.c.get(j, i)).abs() / scale);
            }
        }
        worst
    }
}

impl fmt::Display for ChipCapacitance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chip capacitance: {} conductors, {} stored entries ({:.1} % dense)",
            self.dim(),
            self.c.nnz(),
            100.0 * self.c.nnz() as f64 / (self.dim() * self.dim()).max(1) as f64
        )
    }
}

/// Performance and reuse record of one chip extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Windows in the partition (`nx × ny`).
    pub windows: usize,
    /// Windows extracted this run (window-cache misses).
    pub extracted: usize,
    /// Windows reused from the window cache (hits).
    pub reused: usize,
    /// For [`ChipExtractor::reextract`]: how many windows the diff
    /// touched (`None` for plain [`ChipExtractor::extract`] runs).
    pub touched: Option<usize>,
    /// Stored entries of the stitched sparse matrix.
    pub nnz: usize,
    /// Worker threads of the executor the windows ran on.
    pub workers: usize,
    /// Wall-clock seconds of the whole chip extraction.
    pub wall_seconds: f64,
    /// Sum of per-window job seconds (work the pool absorbed).
    pub busy_seconds: f64,
    /// Seconds the window jobs waited in the executor queue, summed over
    /// the jobs.
    pub queue_seconds: f64,
    /// Window-cache counters of this run (hits = reused windows).
    pub window_cache: CacheStats,
    /// Pair-integral cache counters aggregated over the extracted
    /// windows.
    pub template_cache: CacheStats,
}

impl fmt::Display for ChipReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows ({} extracted, {} reused) on {} workers in {:.3} s, \
             {} stored entries; window cache {}",
            self.windows,
            self.extracted,
            self.reused,
            self.workers,
            self.wall_seconds,
            self.nnz,
            self.window_cache,
        )?;
        if let Some(t) = self.touched {
            write!(f, "; diff touched {t} windows")?;
        }
        Ok(())
    }
}

/// A completed chip extraction: the stitched sparse matrix plus the
/// run's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipExtraction {
    capacitance: ChipCapacitance,
    report: ChipReport,
}

impl ChipExtraction {
    /// The stitched sparse capacitance matrix.
    pub fn capacitance(&self) -> &ChipCapacitance {
        &self.capacitance
    }

    /// The run's performance and reuse record.
    pub fn report(&self) -> &ChipReport {
        &self.report
    }
}

/// Builder and driver of full-chip windowed extraction.
///
/// Construction is cheap; the same `ChipExtractor` can extract many
/// layouts (or many revisions of one layout) and carries the window
/// cache that makes revisions incremental. See the module docs for the
/// invariants.
#[derive(Debug, Clone)]
pub struct ChipExtractor {
    /// Runs the window misses: extractor, pool, executor and pair cache.
    batch: BatchExtractor,
    partition: PartitionConfig,
    window_cache: Arc<WindowCache>,
}

impl ChipExtractor {
    /// A chip extractor running `extractor` per window, with the default
    /// 2×2 partition, a private unbounded window cache, and a private
    /// unbounded pair-integral cache.
    pub fn new(extractor: Extractor) -> ChipExtractor {
        ChipExtractor {
            batch: BatchExtractor::new(extractor)
                .shared_cache(Arc::new(TemplateCache::unbounded())),
            partition: PartitionConfig::default(),
            window_cache: Arc::new(WindowCache::unbounded()),
        }
    }

    /// Sets the window grid (`nx` columns × `ny` rows).
    pub fn windows(mut self, nx: usize, ny: usize) -> ChipExtractor {
        self.partition.nx = nx;
        self.partition.ny = ny;
        self
    }

    /// Sets the halo margin around each core tile, in layout units.
    pub fn halo(mut self, halo: f64) -> ChipExtractor {
        self.partition.halo = halo;
        self
    }

    /// Sets the whole partition configuration at once.
    pub fn partition_config(mut self, cfg: PartitionConfig) -> ChipExtractor {
        self.partition = cfg;
        self
    }

    /// Worker threads for the private per-run executor (default:
    /// `BEMCAP_POOL` or 1). Ignored when [`ChipExtractor::executor`]
    /// installs a shared executor.
    pub fn workers(mut self, workers: usize) -> ChipExtractor {
        self.batch = self.batch.workers(workers.max(1));
        self
    }

    /// Runs window jobs on a shared executor instead of a private one.
    /// The window jobs then honor the shared admission bound as one group
    /// — an executor without room for all of them fails the extraction
    /// with [`CoreError::Busy`] (or [`CoreError::OverDepth`] when they
    /// outnumber its whole depth) before any runs — and queue alongside
    /// the executor's other traffic.
    pub fn executor(mut self, exec: Arc<Executor>) -> ChipExtractor {
        self.batch = self.batch.executor(exec);
        self
    }

    /// Shares a window cache (e.g. a daemon's process-lifetime one)
    /// instead of the private default.
    pub fn window_cache(mut self, cache: Arc<WindowCache>) -> ChipExtractor {
        self.window_cache = cache;
        self
    }

    /// Shares a pair-integral cache instead of the private default.
    pub fn shared_cache(mut self, cache: Arc<TemplateCache>) -> ChipExtractor {
        self.batch = self.batch.shared_cache(cache);
        self
    }

    /// Extracts the full chip: partition, per-window extraction (cache
    /// misses only), stitch. See the module docs for the invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::Geometry`] for unusable layouts or partition
    /// configurations, [`CoreError::ChipWindow`] when a window's
    /// extraction fails, [`CoreError::Busy`] or [`CoreError::OverDepth`]
    /// when a shared executor refuses the window jobs (none of them ran).
    pub fn extract(&self, geo: &Geometry) -> Result<ChipExtraction, CoreError> {
        self.run(geo, None)
    }

    /// Extracts a revised layout, reporting how many windows `diff`
    /// touched ([`ChipReport::touched`]).
    ///
    /// Reuse is driven by the window cache's exact content keys, so this
    /// is [`ChipExtractor::extract`] plus diff accounting: with the
    /// prior revision's windows resident, exactly the touched windows
    /// re-extract, and an empty diff reuses everything bit-identically.
    pub fn reextract(
        &self,
        geo: &Geometry,
        diff: &GeometryDiff,
    ) -> Result<ChipExtraction, CoreError> {
        self.run(geo, Some(diff))
    }

    fn run(
        &self,
        geo: &Geometry,
        diff: Option<&GeometryDiff>,
    ) -> Result<ChipExtraction, CoreError> {
        let start = Instant::now();
        let layout = Layout::new(geo.clone())?;
        let part = layout.partition(&self.partition)?;
        let touched = diff.map(|d| part.windows_touched(d).len());
        let config = self.batch.extractor().config_digest();

        // Probe the window cache; collect the misses as executor jobs.
        let mut results: Vec<Option<Arc<WindowResult>>> = vec![None; part.window_count()];
        let mut misses: Vec<(usize, WindowKey)> = Vec::new();
        let mut jobs: Vec<Geometry> = Vec::new();
        let mut run_cache = CacheStats::default();
        for w in part.windows() {
            // A window whose halo holds no conductor has nothing to
            // extract and owns nothing to stitch — skip it entirely
            // (it counts neither as a hit nor as a miss).
            if w.members().is_empty() {
                continue;
            }
            let sub = w.geometry(&layout);
            let key = WindowKey::new(config.clone(), &sub);
            let (cached, lookup) = self.window_cache.get(&key);
            run_cache.absorb(lookup);
            match cached {
                Some(r) => results[w.index()] = Some(r),
                None => {
                    jobs.push(sub);
                    misses.push((w.index(), key));
                }
            }
        }

        // Extract the misses as one batch; a failing job is reported
        // under its window's index.
        let run = self.batch.extract_geometries(jobs).map_err(|e| match e {
            CoreError::BatchJob { index, source, .. } => {
                CoreError::ChipWindow { window: misses[index].0, source }
            }
            e => e,
        })?;
        for ((window, key), point) in misses.into_iter().zip(run.points()) {
            let capacitance = point.extraction.capacitance();
            let result = Arc::new(WindowResult {
                names: capacitance.names().to_vec(),
                matrix: capacitance.matrix().clone(),
            });
            run_cache.absorb(self.window_cache.insert(key, Arc::clone(&result)));
            results[window] = Some(result);
        }

        // Stitch owned rows in window-index order. Ownership is a
        // partition of the conductors, so every (row, col) slot is
        // written by exactly one window and build order cannot matter.
        let stitch_span = Span::enter(metrics().chip_stitch_nanos);
        let n = layout.conductor_count();
        let mut builder = SparseMatrix::builder(n, n);
        for w in part.windows() {
            let Some(r) = results[w.index()].as_ref() else {
                debug_assert!(w.members().is_empty(), "only empty windows are skipped");
                continue;
            };
            debug_assert_eq!(r.names.len(), w.members().len(), "cached result matches window");
            for (li, gi) in w.members().iter().copied().enumerate() {
                if w.owned().binary_search(&gi).is_err() {
                    continue;
                }
                for (lj, gj) in w.members().iter().copied().enumerate() {
                    builder.push(gi, gj, r.matrix.get(li, lj));
                }
            }
        }
        let c = builder.build();
        drop(stitch_span);
        let names = layout.names().into_iter().map(str::to_string).collect();
        let nnz = c.nnz();
        let extracted = run_cache.misses;
        let reused = run_cache.hits;
        // Non-empty windows only, so extracted + reused == windows holds
        // for the metric triple even when the partition has empty tiles.
        metrics().chip_windows.add((extracted + reused) as u64);
        metrics().chip_windows_extracted.add(extracted as u64);
        metrics().chip_windows_reused.add(reused as u64);
        Ok(ChipExtraction {
            capacitance: ChipCapacitance { names, c },
            report: ChipReport {
                windows: part.window_count(),
                extracted,
                reused,
                touched,
                nnz,
                workers: run.report().workers,
                wall_seconds: start.elapsed().as_secs_f64(),
                busy_seconds: run.report().busy_seconds,
                queue_seconds: run.report().exec.queue_seconds,
                window_cache: run_cache,
                template_cache: run.report().cache,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use bemcap_geom::structures::{self, BusParams};

    fn bus() -> Geometry {
        structures::bus_crossing(3, 3, BusParams::default())
    }

    fn window_key(i: u64) -> WindowKey {
        WindowKey { config: vec![i], content: vec![i, i + 1] }
    }

    fn result_of_bytes(n: usize) -> Arc<WindowResult> {
        Arc::new(WindowResult { names: vec!["x".repeat(n); 1], matrix: Matrix::zeros(1, 1) })
    }

    #[test]
    fn window_key_separates_configs_and_content() {
        let geo = bus();
        let a = WindowKey::new(vec![1, 2], &geo);
        let b = WindowKey::new(vec![1, 3], &geo);
        let c = WindowKey::new(vec![1, 2], &geo.clone().with_eps_rel(3.9));
        let d = WindowKey::new(vec![1, 2], &bus());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, d, "same config and same content must collide");
    }

    #[test]
    fn window_cache_hit_miss_and_bytes() {
        let cache = WindowCache::unbounded();
        assert!(cache.get(&window_key(1)).0.is_none());
        let r = result_of_bytes(10);
        cache.insert(window_key(1), Arc::clone(&r));
        let hit = cache.get(&window_key(1)).0.expect("hit");
        assert!(Arc::ptr_eq(&hit, &r));
        let stats = cache.lifetime();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(cache.resident_bytes(), r.weight());
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn bounded_window_cache_evicts_lru_and_keeps_newest() {
        let one = result_of_bytes(100).weight();
        // Room for about two entries per shard; keys may collide into
        // one shard, so only the aggregate bound is asserted.
        let cache = WindowCache::with_max_bytes(2 * one * SHARDS);
        for i in 0..200 {
            cache.insert(window_key(i), result_of_bytes(100));
            assert!(
                cache.resident_bytes() <= cache.max_bytes().expect("bounded"),
                "resident {} over bound after insert {i}",
                cache.resident_bytes()
            );
        }
        assert!(cache.lifetime().evictions > 0);
        // The newest entry always survives its own insert.
        assert!(cache.get(&window_key(199)).0.is_some());
    }

    #[test]
    fn weighted_eviction_keeps_the_newest_and_the_hot_entry() {
        // Per-shard budget 1 000 bytes; results of mixed weight, all but
        // one far under it, and one heavier than the whole cache.
        let cache = WindowCache::with_max_bytes(1_000 * SHARDS);
        let bound = cache.max_bytes().expect("bounded");
        let hot = window_key(1_000_000);
        cache.insert(hot.clone(), result_of_bytes(10));
        let oversized = window_key(150);
        let mut oversized_resident = false;
        for i in 0..400u64 {
            let size = if i == 150 { 2 * bound } else { [10, 60, 150, 300][i as usize % 4] };
            let stats = cache.insert(window_key(i), result_of_bytes(size));
            assert_eq!(stats.inserted_bytes, result_of_bytes(size).weight());
            if i == 150 {
                oversized_resident = true;
            } else if oversized_resident {
                oversized_resident = cache.get(&oversized).0.is_some();
            }
            assert!(cache.get(&window_key(i)).0.is_some(), "insert {i} evicted itself");
            assert!(cache.get(&hot).0.is_some(), "the hot entry was evicted at insert {i}");
            // The bound holds except while the oversized entry is resident
            // (alone in its shard: its insert evicted every other entry).
            assert_eq!(cache.resident_bytes() > bound, oversized_resident, "insert {i}");
        }
        assert!(!oversized_resident, "later inserts into its shard evict the oversized entry");
        assert!(cache.lifetime().evictions > 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = WindowCache::unbounded();
        cache.insert(window_key(1), result_of_bytes(10));
        let before = cache.resident_bytes();
        cache.insert(window_key(1), result_of_bytes(10));
        assert_eq!(cache.resident_bytes(), before);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn single_window_chip_is_bitwise_monolithic() {
        let geo = bus();
        let ex = Extractor::new();
        let chip = ChipExtractor::new(ex.clone()).windows(1, 1).halo(0.0);
        let full = chip.extract(&geo).expect("chip");
        let mono = ex.extract(&geo).expect("monolithic");
        let c = mono.capacitance();
        assert_eq!(full.capacitance().dim(), c.dim());
        assert_eq!(full.capacitance().names(), c.names());
        for i in 0..c.dim() {
            for j in 0..c.dim() {
                assert_eq!(
                    full.capacitance().get(i, j).to_bits(),
                    c.get(i, j).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
        assert_eq!(full.report().windows, 1);
        assert_eq!(full.report().extracted, 1);
    }

    #[test]
    fn second_run_reuses_every_window_bit_identically() {
        let geo = bus();
        let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(2.0e-6);
        let first = chip.extract(&geo).expect("first");
        assert_eq!(first.report().extracted, first.report().windows);
        let second = chip.extract(&geo).expect("second");
        assert_eq!(second.report().extracted, 0);
        assert_eq!(second.report().reused, second.report().windows);
        assert_eq!(second.capacitance(), first.capacitance());
        assert_eq!(second.report().busy_seconds, 0.0, "no jobs ran");
    }

    #[test]
    fn reextract_reports_touched_windows() {
        let geo = bus();
        let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(1.0e-6);
        chip.extract(&geo).expect("warm");
        let diff = GeometryDiff::between(&geo, &geo.clone());
        let again = chip.reextract(&geo, &diff).expect("reextract");
        assert_eq!(again.report().touched, Some(0));
        assert_eq!(again.report().extracted, 0);
    }

    #[test]
    fn chip_errors_are_typed() {
        let chip = ChipExtractor::new(Extractor::new());
        match chip.extract(&Geometry::new(vec![])) {
            Err(CoreError::Geometry(_)) => {}
            other => panic!("expected Geometry error, got {other:?}"),
        }
        let bad = ChipExtractor::new(Extractor::new()).windows(0, 1);
        match bad.extract(&bus()) {
            Err(CoreError::Geometry(_)) => {}
            other => panic!("expected Geometry error, got {other:?}"),
        }
    }

    #[test]
    fn empty_windows_are_skipped_not_extracted() {
        // Two conductors at the chip's x extremes with a tiny halo: the
        // middle window of a 3×1 grid holds nothing and must neither be
        // submitted (an empty geometry would fail) nor counted.
        use bemcap_geom::{Box3, Conductor};
        let micron_box = |x0: f64, x1: f64| {
            Box3::from_bounds((x0 * 1.0e-6, x1 * 1.0e-6), (0.0, 1.0e-6), (0.0, 1.0e-6))
                .expect("valid box")
        };
        let geo = Geometry::new(vec![
            Conductor::new("a").with_box(micron_box(0.0, 1.0)),
            Conductor::new("b").with_box(micron_box(9.0, 10.0)),
        ]);
        let chip = ChipExtractor::new(Extractor::new()).windows(3, 1).halo(0.5e-6);
        let full = chip.extract(&geo).expect("chip");
        assert_eq!(full.report().windows, 3);
        assert_eq!(full.report().extracted, 2);
        assert_eq!(full.capacitance().dim(), 2);
        assert!(full.capacitance().get(0, 0) > 0.0 && full.capacitance().get(1, 1) > 0.0);
    }

    #[test]
    fn a_failing_window_is_reported_under_its_window_index() {
        // Window 1 of the 3×1 grid is empty, so window 2 is the second
        // job: its pFFT grid (conductors 20 µm apart) exceeds the cap
        // that window 0's single cube fits.
        use bemcap_geom::{Box3, Conductor};
        let cube = |x: f64, y: f64| {
            Box3::from_bounds((x, x + 1.0e-6), (y, y + 1.0e-6), (0.0, 1.0e-6)).expect("valid box")
        };
        let geo = Geometry::new(vec![
            Conductor::new("a").with_box(cube(0.0, 0.0)),
            Conductor::new("b").with_box(cube(9.0e-6, 0.0)),
            Conductor::new("c").with_box(cube(9.0e-6, 20.0e-6)),
        ]);
        let pfft = crate::PfftConfig { max_grid_points: 4096, ..Default::default() };
        let ex =
            Extractor::new().method(crate::Method::PwcPfft).mesh_divisions(2).pfft_config(pfft);
        match ChipExtractor::new(ex).windows(3, 1).halo(0.5e-6).extract(&geo) {
            Err(CoreError::ChipWindow { window: 2, source }) => {
                assert!(matches!(*source, CoreError::Pfft(_)), "{source:?}");
            }
            other => panic!("expected window 2 to fail, got {other:?}"),
        }
    }

    #[test]
    fn shared_executor_busy_propagates() {
        // With the worker held and one job waiting, the four non-empty
        // windows fit the depth-4 queue but not its free room: the chip
        // is refused whole and no window runs. A per-window admission
        // would deterministically admit three.
        let (geo, windows) = (bus(), PartitionConfig { nx: 2, ny: 2, ..Default::default() });
        let part = Layout::new(geo.clone()).expect("layout").partition(&windows).expect("part");
        assert_eq!(part.windows().iter().filter(|w| !w.members().is_empty()).count(), 4);
        let exec = Arc::new(Executor::new(ExecConfig { workers: 1, queue_depth: 4 }));
        let cache = Arc::new(TemplateCache::unbounded());
        let chip = ChipExtractor::new(Extractor::new())
            .partition_config(windows)
            .executor(Arc::clone(&exec))
            .shared_cache(Arc::clone(&cache));
        let gate = exec.block_workers();
        let filler = exec.submit(&Extractor::new(), None, vec![bus()]).expect("room for one");
        match chip.extract(&geo) {
            Err(CoreError::Busy { queued: 1, depth: 4 }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        gate.release();
        assert!(filler.wait()[0].result.is_ok());
        exec.drain();
        assert_eq!(exec.stats().jobs, 1, "a refused chip ran window jobs");
        assert!(cache.is_empty(), "a refused chip filled the shared cache");
        // Four windows can never fit a depth-3 queue: over-depth, not busy.
        let shallow = Arc::new(Executor::new(ExecConfig { workers: 1, queue_depth: 3 }));
        match chip.executor(Arc::clone(&shallow)).extract(&geo) {
            Err(CoreError::OverDepth { jobs: 4, depth: 3 }) => {}
            other => panic!("expected OverDepth, got {other:?}"),
        }
        assert_eq!(shallow.stats().jobs, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn display_and_asymmetry() {
        let geo = bus();
        let chip = ChipExtractor::new(Extractor::new()).windows(2, 1).halo(4.0e-6);
        let full = chip.extract(&geo).expect("chip");
        let shown = format!("{}", full.capacitance());
        assert!(shown.contains("conductors"), "{shown}");
        let report = format!("{}", full.report());
        assert!(report.contains("windows") && report.contains("extracted"), "{report}");
        assert!(full.capacitance().asymmetry() < 0.5);
        assert_eq!(full.capacitance().index_of(full.capacitance().names()[0].as_str()), Some(0));
        assert!(full.capacitance().matrix().is_finite());
    }
}
