//! Content-addressed caching of emulation reports.
//!
//! The emulator is deterministic: a report is a pure function of the
//! model's semantics ([`Psm::digest`]), the [`EmulatorConfig`] and the
//! frame count. [`job_digest`] folds all three into one stable 64-bit key;
//! [`ReportCache`] is a fixed-capacity LRU over completed reports keyed on
//! it; [`CachedPool`] puts the cache in front of a [`SweepPool`] so that
//! batch fronts (the `segbus batch` subcommand and the `segbus-serve`
//! service) only pay for the *distinct* jobs in a batch.
//!
//! Everything here is std-only (`HashMap` + an intrusive slab for the LRU
//! list — no external crates) and the cache never returns a stale entry:
//! the key covers every input the engine reads, so a hit is bit-identical
//! to a fresh run by construction. Hit/miss/eviction counters are kept for
//! the service's stats endpoint and surface in [`CacheStats`].
//!
//! A [`CachedPool`] can additionally be backed by a [`DiskStore`]
//! ([`CachedPool::attach_disk`]): fresh reports are written through to
//! disk, LRU evictions spill there, and a memory miss consults the store
//! before emulating — so the cache warm-starts across process restarts.
//! Disk hits promote back into memory and are counted separately
//! ([`CacheStats::disk_hits`]).

use std::collections::HashMap;
use std::path::Path;

use segbus_model::diag::SegbusError;
use segbus_model::digest::Fnv64;
use segbus_model::mapping::Psm;

use crate::config::{ArbitrationPolicy, EmulatorConfig, ProducerRelease};
use crate::engine::Engine;
use crate::parallel::SweepPool;
use crate::persist::DiskStore;
use crate::report::EmulationReport;

/// Absorb every semantic field of an [`EmulatorConfig`] into `h`.
///
/// Tagged like the PSM encoding (see `segbus_model::digest`): a leading
/// section byte, then each field in declaration order. `trace` is
/// included — traced and untraced reports differ in content.
fn absorb_config(h: &mut Fnv64, config: &EmulatorConfig) {
    const TAG_CONFIG: u8 = 0x10;
    h.write_u8(TAG_CONFIG);
    let t = &config.timing;
    for v in [
        t.request_ticks,
        t.header_ticks,
        t.release_ticks,
        t.ca_request_ticks,
        t.ca_grant_ticks,
        t.ca_release_ticks,
        t.wp_sample_ticks,
        t.bu_sync_ticks,
        t.sa_grant_ticks,
        t.master_response_ticks,
        t.sa_grant_reset_ticks,
    ] {
        h.write_u64(v);
    }
    h.write_u8(match config.producer_release {
        ProducerRelease::AfterDelivery => 0,
        ProducerRelease::AfterLocalPhase => 1,
    });
    h.write_u8(match config.arbitration {
        ArbitrationPolicy::Fifo => 0,
        ArbitrationPolicy::FixedPriority => 1,
        ArbitrationPolicy::FairRoundRobin => 2,
    });
    h.write_u8(config.trace as u8);
}

/// The cache key of one emulation job: `Psm::digest` + config + frames.
///
/// Two jobs with equal digests produce bit-identical reports (up to the
/// ~`n²/2⁶⁵` FNV collision probability, which the cache accepts).
pub fn job_digest(psm: &Psm, config: &EmulatorConfig, frames: u64) -> u64 {
    job_digest_from(psm.digest(), config, frames)
}

/// [`job_digest`] for a model digest computed elsewhere.
///
/// Placement search hashes thousands of allocations of one fixed
/// platform + application; it derives each candidate's model digest
/// incrementally ([`Psm::digest_prefix`] +
/// [`segbus_model::digest_with_slots`]) and finishes the cache key here
/// without materialising a `Psm` per candidate. Equal to
/// [`job_digest`] whenever `psm_digest == psm.digest()`.
pub fn job_digest_from(psm_digest: u64, config: &EmulatorConfig, frames: u64) -> u64 {
    const TAG_FRAMES: u8 = 0x11;
    let mut h = Fnv64::new();
    h.write_u64(psm_digest);
    absorb_config(&mut h, config);
    h.write_u8(TAG_FRAMES);
    h.write_u64(frames);
    h.finish()
}

/// Snapshot of a cache's counters, surfaced by the service stats response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the pool.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Hits answered from the persistent store (a subset of `hits`;
    /// always `0` without an attached [`DiskStore`]).
    pub disk_hits: u64,
    /// Reports resident on disk (`0` without an attached store).
    pub disk_len: usize,
}

impl CacheStats {
    /// Hits answered from resident memory — the fastest tier. Together
    /// with [`disk_hits`](CacheStats::disk_hits) and `misses` (the
    /// emulate tier) this splits every lookup across the three tiers.
    pub fn memory_hits(&self) -> u64 {
        self.hits.saturating_sub(self.disk_hits)
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: u64,
    report: EmulationReport,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from [`job_digest`] keys to completed reports.
///
/// `HashMap` for lookup, an intrusive doubly linked list threaded through
/// a slab (`Vec<Entry>` + free list) for recency — O(1) get/insert/evict
/// with no per-operation allocation once warm.
pub struct ReportCache {
    capacity: usize,
    map: HashMap<u64, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction end).
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ReportCache {
    /// A cache holding at most `capacity` reports (`0` is treated as `1`).
    pub fn new(capacity: usize) -> ReportCache {
        let capacity = capacity.max(1);
        ReportCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
            // The persistent tier lives in [`CachedPool`], which overlays
            // these two fields in its own `stats`.
            disk_hits: 0,
            disk_len: 0,
        }
    }

    /// `true` if `key` is resident, without counting a lookup or
    /// refreshing recency (for "was this a hit?" reporting).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Look `key` up, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: u64) -> Option<EmulationReport> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.hits += 1;
                self.detach(i);
                self.push_front(i);
                Some(self.slab[i].report.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least recently used entry
    /// when full. The evicted entry, if any, is returned so a caller with
    /// a persistent tier can spill it instead of dropping it.
    pub fn insert(&mut self, key: u64, report: EmulationReport) -> Option<(u64, EmulationReport)> {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].report = report;
            self.detach(i);
            self.push_front(i);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            let old_key = self.slab[lru].key;
            self.map.remove(&old_key);
            self.evictions += 1;
            let old = std::mem::replace(
                &mut self.slab[lru],
                Entry {
                    key,
                    report,
                    prev: NIL,
                    next: NIL,
                },
            );
            evicted = Some((old_key, old.report));
            self.map.insert(key, lru);
            self.push_front(lru);
            return evicted;
        }
        let entry = Entry {
            key,
            report,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        self.slab[i].prev = NIL;
        self.slab[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].next = self.head;
        self.slab[i].prev = NIL;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// One job of a cached batch: a model plus its run parameters.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The validated model to emulate.
    pub psm: Psm,
    /// Emulator configuration for this job.
    pub config: EmulatorConfig,
    /// Number of pipelined frames (`1` = the paper's single-shot run).
    pub frames: u64,
}

impl BatchJob {
    /// A single-frame job under `config`.
    pub fn new(psm: Psm, config: EmulatorConfig) -> BatchJob {
        BatchJob {
            psm,
            config,
            frames: 1,
        }
    }

    /// This job's cache key.
    pub fn digest(&self) -> u64 {
        job_digest(&self.psm, &self.config, self.frames)
    }
}

/// A [`ReportCache`] in front of a [`SweepPool`].
///
/// `run_batch` answers duplicate jobs from the cache (and deduplicates
/// *within* the batch: a digest occurring `k` times is emulated once),
/// fans the distinct misses out over the pool through the fallible
/// pre-flight path ([`Engine::try_run_frames`], never the panicking one),
/// and returns per-job results in input order.
///
/// With an attached [`DiskStore`] the lookup order is memory → disk →
/// emulate: fresh reports are written through to disk (best-effort — an
/// I/O failure degrades to a memory-only cache rather than failing the
/// job), and memory evictions spill to disk, so nothing computed is ever
/// lost to capacity pressure.
pub struct CachedPool {
    pool: SweepPool,
    cache: ReportCache,
    disk: Option<DiskStore>,
    disk_hits: u64,
}

impl CachedPool {
    /// A cached pool whose workers default to `config`, caching up to
    /// `capacity` reports.
    pub fn new(config: EmulatorConfig, capacity: usize) -> CachedPool {
        CachedPool::with_pool(SweepPool::new(config), capacity)
    }

    /// A cached pool over an explicit [`SweepPool`].
    pub fn with_pool(pool: SweepPool, capacity: usize) -> CachedPool {
        CachedPool {
            pool,
            cache: ReportCache::new(capacity),
            disk: None,
            disk_hits: 0,
        }
    }

    /// Attach (opening or creating) a persistent [`DiskStore`] under
    /// `dir`. Reports already on disk become warm-start hits; everything
    /// emulated from now on is written through.
    pub fn attach_disk(&mut self, dir: &Path) -> std::io::Result<()> {
        self.disk = Some(DiskStore::open(dir)?);
        Ok(())
    }

    /// The attached persistent store, if any.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The underlying pool.
    pub fn pool(&self) -> &SweepPool {
        &self.pool
    }

    /// Current cache counters (memory and disk tiers combined).
    pub fn stats(&self) -> CacheStats {
        let mut s = self.cache.stats();
        s.disk_hits = self.disk_hits;
        s.disk_len = self.disk.as_ref().map_or(0, DiskStore::len);
        s
    }

    /// `true` if `job` would be answered from the cache (either tier)
    /// right now.
    pub fn is_cached(&self, job: &BatchJob) -> bool {
        let key = job.digest();
        self.cache.contains(key) || self.disk.as_ref().is_some_and(|d| d.contains(key))
    }

    /// Run one job through the cache (a batch of one).
    pub fn run_one(&mut self, job: &BatchJob) -> Result<EmulationReport, SegbusError> {
        self.run_batch(std::slice::from_ref(job)).pop().unwrap()
    }

    /// Look one digest up in the memory → disk tiers without emulating on
    /// a miss. Counts a hit or a miss, and a disk hit is promoted into
    /// memory (and counted in `disk_hits`), exactly as `run_batch` would.
    ///
    /// This is the tier front-end used by callers that own their own
    /// emulation loop (the parallel placement search): they consult the
    /// shared tiers first and [`CachedPool::insert`] what they compute.
    pub fn lookup(&mut self, key: u64) -> Option<EmulationReport> {
        if self.cache.contains(key) {
            return self.cache.get(key);
        }
        if let Some(report) = self.disk.as_mut().and_then(|d| d.get(key)) {
            self.cache.hits += 1;
            self.disk_hits += 1;
            self.insert_and_spill(key, report.clone());
            return Some(report);
        }
        self.cache.misses += 1;
        None
    }

    /// Record a freshly computed report under `key`: write-through to the
    /// persistent tier (best-effort) and insert into memory, spilling the
    /// LRU evictee to disk. The counterpart of [`CachedPool::lookup`].
    pub fn insert(&mut self, key: u64, report: &EmulationReport) {
        if let Some(disk) = self.disk.as_mut() {
            let _ = disk.append(key, report);
        }
        self.insert_and_spill(key, report.clone());
    }

    /// Run a batch, answering duplicates from the cache. Results are in
    /// input order; each failed job carries its typed [`SegbusError`].
    ///
    /// Duplicates *within* the batch also count as hits: they are answered
    /// from the in-flight first occurrence rather than a fresh emulation,
    /// so only the first occurrence of each digest registers a miss.
    pub fn run_batch(&mut self, jobs: &[BatchJob]) -> Vec<Result<EmulationReport, SegbusError>> {
        // Phase 1: resolve hits and collect the distinct misses.
        let mut results: Vec<Option<Result<EmulationReport, SegbusError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let mut miss_index: HashMap<u64, usize> = HashMap::new();
        let mut misses: Vec<(u64, usize)> = Vec::new(); // (digest, first job idx)
        let mut pending: Vec<(usize, usize)> = Vec::new(); // (job idx, miss idx)
        for (i, job) in jobs.iter().enumerate() {
            let key = job.digest();
            if let Some(&m) = miss_index.get(&key) {
                // In-batch duplicate: shares the first occurrence's run.
                // (A key can only be here if it missed both tiers, so this
                // never shadows a cache hit.)
                self.cache.hits += 1;
                pending.push((i, m));
            } else if let Some(report) = self.lookup(key) {
                results[i] = Some(Ok(report));
            } else {
                miss_index.insert(key, misses.len());
                misses.push((key, i));
                pending.push((i, misses.len() - 1));
            }
        }

        // Phase 2: emulate the distinct misses on the pool. A job whose
        // config differs from the pool default gets a one-off engine; the
        // common case reuses the worker's warm scratch state.
        let computed: Vec<Result<EmulationReport, SegbusError>> =
            self.pool.sweep_with(&misses, |engine, &(_, idx)| {
                let job = &jobs[idx];
                if *engine.config() == job.config {
                    engine.try_run_frames(&job.psm, job.frames)
                } else {
                    Engine::new(job.config).try_run_frames(&job.psm, job.frames)
                }
            });

        // Phase 3: fill successes into the cache (writing through to the
        // persistent tier) and assemble the output.
        for ((key, _), result) in misses.iter().zip(&computed) {
            if let Ok(report) = result {
                self.insert(*key, report);
            }
        }
        for (i, m) in pending {
            results[i] = Some(computed[m].clone());
        }
        results
            .into_iter()
            .map(|r| r.expect("every job is a hit or a pending miss"))
            .collect()
    }

    /// Insert into the memory tier; an LRU evictee spills to disk so
    /// capacity pressure never discards a computed report (a no-op when
    /// the report is already stored or carries a trace).
    fn insert_and_spill(&mut self, key: u64, report: EmulationReport) {
        if let Some((old_key, old_report)) = self.cache.insert(key, report) {
            if let Some(disk) = self.disk.as_mut() {
                let _ = disk.append(old_key, &old_report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;

    fn psm(items: u64) -> Psm {
        let mut app = Application::new("c");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, items, 1, 50)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(1));
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        Psm::new(platform, app, alloc).unwrap()
    }

    fn assert_same_report(a: &EmulationReport, b: &EmulationReport) {
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sas, b.sas);
        assert_eq!(a.ca, b.ca);
        assert_eq!(a.bus, b.bus);
        assert_eq!(a.fus, b.fus);
    }

    #[test]
    fn hit_is_bit_identical_to_fresh_run() {
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
        let job = BatchJob::new(psm(72), config);
        let first = pool.run_one(&job).unwrap();
        let second = pool.run_one(&job).unwrap();
        let fresh = crate::engine::Emulator::new(config)
            .try_run(&job.psm)
            .unwrap();
        assert_same_report(&first, &fresh);
        assert_same_report(&second, &fresh);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn batch_deduplicates_within_itself() {
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
        let a = BatchJob::new(psm(36), config);
        let b = BatchJob::new(psm(72), config);
        let jobs = vec![a.clone(), b.clone(), a.clone(), b.clone(), a.clone()];
        let out = pool.run_batch(&jobs);
        assert_eq!(out.len(), 5);
        assert_same_report(out[0].as_ref().unwrap(), out[2].as_ref().unwrap());
        assert_same_report(out[0].as_ref().unwrap(), out[4].as_ref().unwrap());
        assert_same_report(out[1].as_ref().unwrap(), out[3].as_ref().unwrap());
        // Only the first occurrence of each distinct job misses; the three
        // in-batch duplicates are hits (answered from the in-flight runs).
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!(s.len, 2);
        // A second identical batch is all hits.
        let again = pool.run_batch(&jobs);
        assert_eq!(pool.stats().hits, 8);
        for (x, y) in out.iter().zip(&again) {
            assert_same_report(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn digest_distinguishes_config_and_frames() {
        let m = psm(72);
        let base = EmulatorConfig::default();
        let d = job_digest(&m, &base, 1);
        assert_ne!(d, job_digest(&m, &base, 2), "frames are semantic");
        assert_ne!(
            d,
            job_digest(&m, &EmulatorConfig::detailed(), 1),
            "timing is semantic"
        );
        assert_ne!(
            d,
            job_digest(&m, &EmulatorConfig::traced(), 1),
            "tracing changes report content"
        );
        let rr = EmulatorConfig {
            arbitration: ArbitrationPolicy::FairRoundRobin,
            ..base
        };
        assert_ne!(d, job_digest(&m, &rr, 1), "arbitration is semantic");
        let fire = EmulatorConfig {
            producer_release: ProducerRelease::AfterLocalPhase,
            ..base
        };
        assert_ne!(d, job_digest(&m, &fire, 1), "release policy is semantic");
    }

    /// Literal cache keys of the MP3 three-segment system: a change to
    /// the digest encoding would strand every `--cache-dir` store, so the
    /// values are pinned, not just their distinctness.
    #[test]
    fn job_digests_are_pinned() {
        let psm = segbus_apps::mp3::three_segment_psm();
        let traced_fair_local = EmulatorConfig {
            arbitration: ArbitrationPolicy::FairRoundRobin,
            producer_release: ProducerRelease::AfterLocalPhase,
            ..EmulatorConfig::traced()
        };
        let golden = [
            (EmulatorConfig::default(), 1, 0xcba9_cb4c_f5ed_cf75),
            (EmulatorConfig::default(), 2, 0xeaa4_9256_00dd_1996),
            (EmulatorConfig::detailed(), 1, 0x97a3_c667_9e67_2086),
            (EmulatorConfig::detailed(), 2, 0x78a8_ff5e_9377_d665),
            (traced_fair_local, 1, 0x8d98_a4bf_dc1b_34f7),
            (traced_fair_local, 2, 0x30a8_4fa4_bb4d_5694),
        ];
        for (config, frames, digest) in golden {
            assert_eq!(
                job_digest(&psm, &config, frames),
                digest,
                "{config:?} x {frames} frames"
            );
        }
    }

    #[test]
    fn per_job_config_overrides_use_their_own_engine() {
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
        let m = psm(72);
        let jobs = vec![
            BatchJob::new(m.clone(), config),
            BatchJob::new(m.clone(), EmulatorConfig::detailed()),
        ];
        let out = pool.run_batch(&jobs);
        let plain = out[0].as_ref().unwrap();
        let detailed = out[1].as_ref().unwrap();
        // Detailed timing adds latency, so the jobs must not share a report.
        assert!(detailed.makespan > plain.makespan);
        let fresh = crate::engine::Emulator::new(EmulatorConfig::detailed())
            .try_run(&m)
            .unwrap();
        assert_same_report(detailed, &fresh);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ReportCache::new(2);
        let config = EmulatorConfig::default();
        let mk = |items| {
            crate::engine::Emulator::new(config)
                .try_run(&psm(items))
                .unwrap()
        };
        cache.insert(1, mk(36));
        cache.insert(2, mk(72));
        assert!(cache.get(1).is_some()); // 1 is now MRU
        cache.insert(3, mk(108)); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn invalid_jobs_return_typed_errors_without_poisoning_the_cache() {
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
        let good = BatchJob::new(psm(72), config);
        let bad = BatchJob {
            frames: 0, // C001
            ..good.clone()
        };
        let out = pool.run_batch(&[bad.clone(), good.clone(), bad]);
        assert_eq!(out[0].as_ref().unwrap_err().code, "C001");
        assert!(out[1].is_ok());
        assert_eq!(out[2].as_ref().unwrap_err().code, "C001");
        // Errors are never cached; only the good report is resident.
        assert_eq!(pool.stats().len, 1);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "segbus-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_tier_warm_starts_a_fresh_pool() {
        let dir = tmpdir("warm");
        let config = EmulatorConfig::default();
        let job = BatchJob::new(psm(72), config);
        let first = {
            let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
            pool.attach_disk(&dir).unwrap();
            assert!(!pool.is_cached(&job));
            let report = pool.run_one(&job).unwrap();
            let s = pool.stats();
            assert_eq!((s.misses, s.disk_hits, s.disk_len), (1, 0, 1));
            report
        };
        // A brand-new pool (fresh process, conceptually) over the same dir
        // answers from disk without emulating.
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 16);
        pool.attach_disk(&dir).unwrap();
        assert!(pool.is_cached(&job), "disk contents count as cached");
        let warm = pool.run_one(&job).unwrap();
        assert_same_report(&first, &warm);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 0, 1));
        // The promotion means a repeat is a pure memory hit.
        pool.run_one(&job).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.disk_hits), (2, 1));
    }

    #[test]
    fn eviction_spills_to_disk_instead_of_discarding() {
        let dir = tmpdir("spill");
        let config = EmulatorConfig::default();
        // Memory capacity 1: the second distinct job evicts the first.
        let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 2), 1);
        pool.attach_disk(&dir).unwrap();
        let a = BatchJob::new(psm(36), config);
        let b = BatchJob::new(psm(72), config);
        pool.run_one(&a).unwrap();
        pool.run_one(&b).unwrap();
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.disk_len, 2, "both reports reached disk");
        // The evicted job comes back as a disk hit, not a re-emulation.
        assert!(pool.is_cached(&a));
        pool.run_one(&a).unwrap();
        let s = pool.stats();
        assert_eq!((s.misses, s.disk_hits), (2, 1));
    }
}
