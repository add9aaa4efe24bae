//! The placement search's shared evaluation substrate: the
//! allocation-digest memo, the report-cache tiers, and the sharded
//! exhaustive search, all owned by the one search driver,
//! [`Portfolio`](crate::Portfolio).
//!
//! [`ParallelSearch`] holds the [`SweepPool`] the portfolio fans its
//! solver families out on, and every worker evaluates candidates through
//! a [`SharedEval`] — the only evaluator the solvers know. Exhaustive
//! enumeration splits into prefix-partitioned sub-ranges: each shard
//! fixes the segments of the first `depth` processes and walks the
//! suffix odometer.
//!
//! All workers share one thread-safe **allocation-digest memo**: the
//! canonical allocation hash ([`allocation_digest`], mirroring the
//! `TAG_ALLOCATION` section of the name-insensitive `Psm::digest`) maps
//! to the emulated makespan, and an in-flight marker plus condvar makes a
//! worker *wait* for a candidate another worker is already emulating
//! instead of duplicating the run — no two workers ever emulate the same
//! candidate (the tests assert `duplicate_emulations == 0`).
//!
//! Misses fall through to the same memory → disk → emulate tier as
//! `segbus batch`/`serve`: evaluations are routed through a
//! [`CachedPool`] keyed by [`job_digest`], so with a cache directory
//! attached ([`Portfolio::with_cache_dir`](crate::Portfolio::with_cache_dir))
//! a repeated placement search warm-starts from the `reports.sbc`
//! produced by any of the three front ends.
//!
//! Results are deterministic for any thread count: the memo is a pure
//! cache of the deterministic cost function (sharing it cannot steer a
//! chain), every task is seeded, and winners are merged under a total
//! order — lower cost first, ties broken by the lexicographically
//! smallest dense segment vector (canonical allocation order).

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use segbus_core::{
    job_digest, job_digest_from, CacheStats, CachedPool, EmulatorConfig, Engine, SweepPool,
};
use segbus_model::digest::{digest_with_slots, Fnv64};
use segbus_model::mapping::{Allocation, Psm};

use crate::delta::{EvalBase, HopState, PatchOutcome, PatchState};
use crate::{Objective, PlaceTool, Placement};

/// In-memory LRU capacity of the search's report cache. Placement
/// neighbourhoods revisit at most a few thousand distinct candidates per
/// run, so this comfortably holds a whole search; overflow spills to the
/// attached [`DiskStore`](segbus_core::DiskStore) when one is present.
const CACHE_CAPACITY: usize = 8192;

/// Canonical digest of a complete allocation: the `TAG_ALLOCATION`
/// section of the name-insensitive `Psm::digest` encoding (section tag,
/// process count, then each process's segment index), hashed with a
/// fresh [`Fnv64`] by [`digest_with_slots`]. `slots` is the dense
/// segment-index vector in `ProcessId` order. Two allocations collide
/// only if they place every process identically (up to FNV collision),
/// independent of names.
pub fn allocation_digest(slots: &[u16]) -> u64 {
    digest_with_slots(Fnv64::new(), slots)
}

/// Counters of one `ParallelSearch` (cumulative across runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Makespan evaluations requested by the solvers. The portfolio
    /// refines each distinct start once per search, so a family whose
    /// start was already refined asks for nothing: this counts the
    /// candidates of the refines that ran, not of one refine per family.
    pub evaluations: u64,
    /// Evaluations answered by the shared allocation-digest memo.
    pub memo_hits: u64,
    /// Candidates actually emulated (memo and cache tiers all missed).
    pub emulations: u64,
    /// Emulation runs whose job digest had already been emulated — the
    /// shared memo's no-duplicate guarantee holds iff this stays `0`.
    pub duplicate_emulations: u64,
    /// Always 0: the search no longer bounds candidates. Every
    /// evaluation is accounted exactly once:
    /// `memo_len == evaluations − memo_hits`.
    pub bound_skips: u64,
    /// Successful plan remaps (one per process moved between consecutive
    /// candidates of an evaluator's patched [`segbus_core::EnginePlan`]).
    pub plan_patches: u64,
    /// Distinct allocations recorded in the memo.
    pub memo_len: usize,
    /// Counters of the underlying report cache (memory + disk tiers).
    pub cache: CacheStats,
}

/// Shared memo state: allocation digest → cost, with `None` marking a
/// candidate some worker is emulating right now.
#[derive(Default)]
struct MemoState {
    map: HashMap<u64, Option<u64>>,
    /// Job digests that went to the engine, for duplicate accounting.
    emulated: HashSet<u64>,
    duplicates: u64,
}

/// The shared evaluation state of one [`Portfolio`](crate::Portfolio):
/// a copy of the tool, a [`SweepPool`], the shared memo, and the report
/// cache. It lives as long as the portfolio, so a second search over the
/// same instance answers every candidate from the memo without emulating.
pub(crate) struct ParallelSearch<'a> {
    pub(crate) tool: PlaceTool<'a>,
    pub(crate) pool: SweepPool,
    /// Annealing-chain families per portfolio round (at least one).
    pub(crate) restarts: usize,
    memo: Mutex<MemoState>,
    done: Condvar,
    cache: Mutex<CachedPool>,
    /// `true` once a disk store is attached. A cold in-process search
    /// never hits the report-cache tiers (the allocation-digest memo
    /// already answers every repeat), so without disk the tier lookup
    /// and the per-report write-back clone are pure overhead and both
    /// are skipped.
    cache_tier: bool,
    evaluations: AtomicU64,
    memo_hits: AtomicU64,
    emulations: AtomicU64,
    plan_patches: AtomicU64,
}

impl<'a> ParallelSearch<'a> {
    /// A search over `tool` on `threads` workers (`0` picks the machine
    /// parallelism), with the default three annealing restarts.
    pub(crate) fn new(tool: PlaceTool<'a>, threads: usize) -> ParallelSearch<'a> {
        let pool = if threads == 0 {
            SweepPool::new(EmulatorConfig::default())
        } else {
            SweepPool::with_threads(EmulatorConfig::default(), threads)
        };
        ParallelSearch {
            tool,
            pool,
            restarts: 3,
            memo: Mutex::new(MemoState::default()),
            done: Condvar::new(),
            // The cache's own pool is unused here (workers emulate on
            // their sweep engines); one thread keeps it inert.
            cache: Mutex::new(CachedPool::with_pool(
                SweepPool::with_threads(EmulatorConfig::default(), 1),
                CACHE_CAPACITY,
            )),
            cache_tier: false,
            evaluations: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            emulations: AtomicU64::new(0),
            plan_patches: AtomicU64::new(0),
        }
    }

    /// Attach the persistent report store under `dir` (shared with
    /// `segbus batch`/`serve` via `--cache-dir`): cached makespans
    /// survive the process, and a warm directory answers repeated
    /// searches from disk instead of the emulator.
    pub(crate) fn attach_disk(&mut self, dir: &Path) -> io::Result<()> {
        self.cache
            .get_mut()
            .expect("no worker panicked holding the report cache")
            .attach_disk(dir)?;
        self.cache_tier = true;
        Ok(())
    }

    /// Run `f` against a worker-local evaluator over this search's shared
    /// state, on `engine`.
    pub(crate) fn with_eval<R>(
        &self,
        engine: &mut Engine,
        f: impl FnOnce(&mut SharedEval<'_, '_, 'a>) -> R,
    ) -> R {
        let base = EvalBase::new(&self.tool);
        f(&mut SharedEval::new(self, engine, &base))
    }

    /// Snapshot of the search counters (cumulative across runs).
    pub(crate) fn stats(&self) -> SearchStats {
        let memo = self.memo.lock().unwrap();
        SearchStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            emulations: self.emulations.load(Ordering::Relaxed),
            duplicate_emulations: memo.duplicates,
            bound_skips: 0,
            plan_patches: self.plan_patches.load(Ordering::Relaxed),
            memo_len: memo.map.len(),
            cache: self.cache.lock().unwrap().stats(),
        }
    }

    // -- solvers ------------------------------------------------------------

    /// Sharded exhaustive search; same contract and result as
    /// [`PlaceTool::exhaustive`] (`None` beyond ~20 million assignments
    /// or when no feasible allocation exists), ties broken by canonical
    /// allocation order regardless of which shard found the winner.
    pub(crate) fn exhaustive(&self) -> Option<Placement> {
        let n = self.tool.app.process_count();
        let k = self.tool.segments;
        let mut size: u64 = 1;
        for _ in 0..n {
            size = size.checked_mul(k as u64)?;
            if size > 20_000_000 {
                return None;
            }
        }
        // Prefix partitioning: fix the segments of the first `depth`
        // processes per shard, enough shards to keep every worker busy.
        // The candidate set is the full odometer regardless of `depth`,
        // so the thread count cannot change the result.
        let target = (self.pool.threads() * 8) as u64;
        let mut depth = 0usize;
        let mut shards = 1u64;
        while depth < n && shards < target {
            shards *= k as u64;
            depth += 1;
        }
        let prefixes: Vec<u64> = (0..shards).collect();
        let results = self.pool.sweep_with(&prefixes, |engine, &prefix| {
            self.with_eval(engine, |eval| self.exhaustive_shard(eval, prefix, depth))
        });
        let mut best: Option<(u64, Vec<u16>)> = None;
        for cand in results.into_iter().flatten() {
            if better(&cand, &best) {
                best = Some(cand);
            }
        }
        let (cost, slots) = best?;
        Some(Placement {
            allocation: self.tool.allocation_of(&slots),
            cost,
        })
    }

    /// One shard of the exhaustive odometer: processes `0..depth` pinned
    /// to the base-`k` digits of `prefix`, suffix enumerated in full.
    fn exhaustive_shard(
        &self,
        eval: &mut SharedEval<'_, '_, 'a>,
        prefix: u64,
        depth: usize,
    ) -> Option<(u64, Vec<u16>)> {
        let n = self.tool.app.process_count();
        let k = self.tool.segments;
        let mut assign = vec![0u16; n];
        let mut rest = prefix;
        for slot in assign.iter_mut().take(depth) {
            *slot = (rest % k as u64) as u16;
            rest /= k as u64;
        }
        let mut best: Option<(u64, Vec<u16>)> = None;
        'outer: loop {
            let alloc = self.tool.allocation_of(&assign);
            if self.tool.feasible(&alloc) {
                let cand = (eval.cost(&alloc), assign.clone());
                if better(&cand, &best) {
                    best = Some(cand);
                }
            }
            // Advance the suffix odometer (positions depth..n).
            let mut i = depth;
            loop {
                if i == n {
                    break 'outer;
                }
                assign[i] += 1;
                if assign[i] as usize == k {
                    assign[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
        best
    }

    // -- shared evaluation --------------------------------------------------

    /// Makespan of a candidate through the shared memo and cache tiers.
    /// Pure: the answer never depends on which worker asks, or when.
    fn shared_cost(
        &self,
        engine: &mut Engine,
        patch: &mut PatchState<'_>,
        alloc: &Allocation,
    ) -> u64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let mut outcome = patch.prepare(&self.tool, alloc);
        let key = allocation_digest(patch.cand());
        {
            let mut memo = self.memo.lock().unwrap();
            loop {
                match memo.map.get(&key) {
                    Some(Some(c)) => {
                        self.memo_hits.fetch_add(1, Ordering::Relaxed);
                        return *c;
                    }
                    // Another worker is emulating this exact candidate:
                    // wait for its answer instead of duplicating the run.
                    Some(None) => memo = self.done.wait(memo).unwrap(),
                    None => {
                        memo.map.insert(key, None);
                        break;
                    }
                }
            }
        }
        // Memo miss: only now patch the plan onto the candidate — the
        // hits above never pay the remap work.
        if outcome == PatchOutcome::Ready {
            outcome = patch.patch();
            self.plan_patches
                .fetch_add(patch.take_patches(), Ordering::Relaxed);
        }
        let c = match outcome {
            // Empty segment or unroutable move: same `u64::MAX` the
            // model-rebuild path reports for a PSM failing validation.
            PatchOutcome::Infeasible => u64::MAX,
            PatchOutcome::NoPlan => self.compute_rebuilt(engine, alloc),
            PatchOutcome::Ready => self.compute_patched(engine, patch),
        };
        self.memo.lock().unwrap().map.insert(key, Some(c));
        self.done.notify_all();
        c
    }

    /// Memo-miss path on the patched plan: memory → disk → emulate, with
    /// the candidate's job digest derived incrementally from the base
    /// model's digest prefix (equal to the digest of the rebuilt model,
    /// so warm `segbus batch`/`serve` caches keep hitting). Holds the
    /// cache lock only around the tier lookup and the write-back — never
    /// across the emulation itself.
    fn compute_patched(&self, engine: &mut Engine, patch: &mut PatchState<'_>) -> u64 {
        let digest = job_digest_from(patch.psm_digest(), &EmulatorConfig::default(), 1);
        if self.cache_tier {
            if let Some(report) = self.cache.lock().unwrap().lookup(digest) {
                return report.makespan.0;
            }
        }
        {
            let mut memo = self.memo.lock().unwrap();
            if !memo.emulated.insert(digest) {
                memo.duplicates += 1;
            }
        }
        self.emulations.fetch_add(1, Ordering::Relaxed);
        let makespan = patch.run(engine);
        if self.cache_tier {
            self.cache.lock().unwrap().insert(digest, patch.report());
        }
        makespan
    }

    /// Memo-miss fallback when no base plan exists (the greedy base
    /// model fails validation): rebuild and emulate the model per
    /// candidate.
    fn compute_rebuilt(&self, engine: &mut Engine, alloc: &Allocation) -> u64 {
        let platform = self
            .tool
            .platform
            .expect("Objective::Makespan is only set together with a platform");
        let psm = match Psm::new(platform.clone(), self.tool.app.clone(), alloc.clone()) {
            Ok(psm) => psm,
            Err(_) => return u64::MAX,
        };
        let digest = job_digest(&psm, &EmulatorConfig::default(), 1);
        if self.cache_tier {
            if let Some(report) = self.cache.lock().unwrap().lookup(digest) {
                return report.makespan.0;
            }
        }
        {
            let mut memo = self.memo.lock().unwrap();
            if !memo.emulated.insert(digest) {
                memo.duplicates += 1;
            }
        }
        self.emulations.fetch_add(1, Ordering::Relaxed);
        match engine.try_run(&psm) {
            Ok(report) => {
                let makespan = report.makespan.0;
                if self.cache_tier {
                    self.cache.lock().unwrap().insert(digest, &report);
                }
                makespan
            }
            Err(_) => u64::MAX,
        }
    }
}

/// `true` if `cand` beats `best` under the canonical total order.
pub(crate) fn better(cand: &(u64, Vec<u16>), best: &Option<(u64, Vec<u16>)>) -> bool {
    match best {
        None => true,
        Some((c, s)) => cand.0 < *c || (cand.0 == *c && cand.1 < *s),
    }
}

/// Worker-local view of the shared evaluation state — the one evaluator
/// every solver runs on. For the hop objectives it keeps an incremental
/// [`HopState`] (O(degree) per candidate instead of a full flow sweep).
/// For [`Objective::Makespan`] the engine and the patched plan stay
/// worker-private, while memoisation and the cache tiers go through
/// [`ParallelSearch::shared_cost`].
pub(crate) struct SharedEval<'x, 'b, 'a> {
    search: &'x ParallelSearch<'a>,
    engine: &'x mut Engine,
    hop: Option<HopState>,
    patch: PatchState<'b>,
}

impl<'x, 'b, 'a> SharedEval<'x, 'b, 'a> {
    /// A worker-local evaluator over `search`, compiling its patchable
    /// plan from the caller-owned `base`.
    fn new(
        search: &'x ParallelSearch<'a>,
        engine: &'x mut Engine,
        base: &'b EvalBase,
    ) -> SharedEval<'x, 'b, 'a> {
        SharedEval {
            hop: (search.tool.objective != Objective::Makespan)
                .then(|| HopState::new(&search.tool)),
            patch: PatchState::new(&search.tool, base),
            search,
            engine,
        }
    }

    /// Objective value of a feasible candidate.
    pub(crate) fn cost(&mut self, alloc: &Allocation) -> u64 {
        match self.hop.as_mut() {
            Some(hop) => hop.cost(&self.search.tool, alloc),
            None => self.search.shared_cost(self.engine, &mut self.patch, alloc),
        }
    }
}
