//! # segbus-place
//!
//! The *PlaceTool* substrate (paper §3.5, ref.\[16\]): given the
//! communication matrix of an application and the number of segments of the
//! target platform, find a process-to-segment allocation that minimises
//! inter-segment traffic.
//!
//! The objective is the hop-weighted traffic
//! `Σ_flows weight(f) · hops(seg(src), seg(dst))` over the linear topology,
//! with the weight either in data items or in packages at a given package
//! size (what actually crosses the border units). Allocations must keep
//! every segment non-empty (the platform's structural constraint V005) and
//! may be capacity-limited.
//!
//! Four solvers are provided:
//!
//! * [`PlaceTool::exhaustive`] — exact, for small instances;
//! * [`PlaceTool::greedy`] — traffic-ordered constructive heuristic;
//! * [`PlaceTool::refine`] — move/swap hill climbing from a start point;
//! * [`PlaceTool::anneal`] — seeded simulated annealing;
//! * [`kernighan_lin`] — classic KL bipartitioning for two segments.
//!
//! [`PlaceTool::best`] composes them (greedy → refine, anneal → refine,
//! best of the two) and is what the experiments use.
//!
//! Hop-weighted traffic is a *proxy* for what the designer actually wants
//! — a short schedule. [`PlaceTool::with_makespan`] switches the solvers
//! to [`Objective::Makespan`]: every candidate allocation is judged by
//! running the discrete-event estimator on a concrete platform, with
//! per-allocation memoisation and a reused engine keeping the inner loop
//! affordable (emulation in the loop).
//!
//! ```
//! use segbus_apps::generators::{chain, GeneratorConfig};
//! use segbus_place::{Objective, PlaceTool};
//!
//! let app = chain(6, GeneratorConfig::default());
//! let tool = PlaceTool::new(&app, 3);
//! let exact = tool.exhaustive().expect("small instance");
//! let best = tool.best(42);
//! assert_eq!(best.cost, exact.cost); // heuristics find the optimum here
//! let _ = Objective::Items;
//! ```

#![warn(missing_docs)]

mod delta;
pub mod kl;
pub mod parallel;
pub mod portfolio;

pub use kl::kernighan_lin;
pub use parallel::{allocation_digest, ParallelSearch, SearchStats};
pub use portfolio::Portfolio;

use std::collections::HashMap;

use segbus_core::{EmulatorConfig, Engine};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::{Platform, Topology};
use segbus_model::psdf::Application;
use segbus_model::rng::SmallRng;

/// What the solvers minimise.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Objective {
    /// Hop-weighted data items (the communication-matrix entries).
    #[default]
    Items,
    /// Hop-weighted packages at the given package size.
    Packages(u32),
    /// The emulated makespan, in picoseconds, of the candidate allocation
    /// on a concrete platform (emulation in the loop). Configure it with
    /// [`PlaceTool::with_makespan`]; the hop-count objectives are proxies
    /// for exactly this quantity, so this variant trades solver speed for
    /// fidelity. Candidate evaluations are memoised per allocation, and
    /// the constructive heuristics (greedy seeding, Kernighan–Lin) keep
    /// using the item-count surrogate to stay cheap.
    Makespan,
}

/// A solved placement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    /// The allocation (complete and feasible).
    pub allocation: Allocation,
    /// Objective value.
    pub cost: u64,
}

/// The placement solver.
#[derive(Clone, Copy, Debug)]
pub struct PlaceTool<'a> {
    app: &'a Application,
    segments: usize,
    capacity: Option<usize>,
    objective: Objective,
    topology: Topology,
    /// The concrete platform emulated by [`Objective::Makespan`].
    platform: Option<&'a Platform>,
    emu_config: EmulatorConfig,
    /// Measured per-flow weights (indexed by flow position) overriding
    /// the model-declared traffic; see
    /// [`PlaceTool::with_measured_weights`].
    measured: Option<&'a [u64]>,
    /// Incremental candidate evaluation (delta hop sums, plan patching,
    /// lower-bound skips); see [`PlaceTool::with_incremental`].
    incremental: bool,
}

impl<'a> PlaceTool<'a> {
    /// A solver for `segments` segments with no capacity limit and the
    /// [`Objective::Items`] objective.
    ///
    /// # Panics
    /// Panics if `segments` is zero or exceeds the process count (a
    /// non-empty-segment-feasible allocation would not exist).
    pub fn new(app: &'a Application, segments: usize) -> PlaceTool<'a> {
        assert!(segments > 0, "at least one segment");
        assert!(
            segments <= app.process_count(),
            "more segments than processes: no feasible allocation keeps every segment non-empty"
        );
        PlaceTool {
            app,
            segments,
            capacity: None,
            objective: Objective::Items,
            topology: Topology::Linear,
            platform: None,
            emu_config: EmulatorConfig::default(),
            measured: None,
            incremental: true,
        }
    }

    /// Toggle incremental candidate evaluation (on by default): delta
    /// hop-cost maintenance, plan patching and lower-bound emulation
    /// skips. `false` forces the pre-incremental path — every candidate
    /// rebuilds its model and is evaluated from scratch. Search results
    /// are bit-identical either way (the delta paths are exact and the
    /// bound is admissible); this is a diagnostics and benchmarking
    /// escape hatch.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Use ring (or linear) hop distances for the objective.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Limit every segment to at most `cap` processes.
    ///
    /// # Panics
    /// Panics if the capacity makes the instance infeasible.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        assert!(
            cap * self.segments >= self.app.process_count(),
            "capacity × segments must cover all processes"
        );
        assert!(cap >= 1);
        self.capacity = Some(cap);
        self
    }

    /// Change the objective.
    ///
    /// # Panics
    /// Panics on [`Objective::Makespan`] — that variant needs a platform;
    /// use [`PlaceTool::with_makespan`] instead.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        assert!(
            objective != Objective::Makespan,
            "Objective::Makespan needs a platform: use with_makespan"
        );
        self.objective = objective;
        self
    }

    /// Minimise the emulated makespan on `platform` (emulation in the
    /// loop). `refine`/`anneal`/`best` evaluate every candidate allocation
    /// by running the discrete-event estimator, memoising results per
    /// allocation so revisited candidates cost a hash lookup.
    ///
    /// # Panics
    /// Panics if the platform's segment count differs from the solver's.
    pub fn with_makespan(mut self, platform: &'a Platform) -> Self {
        assert_eq!(
            platform.segment_count(),
            self.segments,
            "platform segment count must match the solver"
        );
        self.objective = Objective::Makespan;
        self.platform = Some(platform);
        self
    }

    /// Emulator configuration for [`Objective::Makespan`] evaluations.
    pub fn with_emulator_config(mut self, config: EmulatorConfig) -> Self {
        self.emu_config = config;
        self
    }

    /// Weight flows by *measured* traffic instead of the model's declared
    /// item counts: `weights[i]` is the weight of the application's `i`-th
    /// flow (e.g. packages actually delivered in a trace — see
    /// `segbus_core`'s trace analysis). The hop-weighted objectives and
    /// the greedy placement order both use these weights; a flow the
    /// measurement never saw weighs nothing, however large its declared
    /// rate.
    ///
    /// # Panics
    /// Panics if `weights` does not have one entry per flow.
    pub fn with_measured_weights(mut self, weights: &'a [u64]) -> Self {
        assert_eq!(
            weights.len(),
            self.app.flows().len(),
            "one measured weight per flow"
        );
        self.measured = Some(weights);
        self
    }

    /// Hop distance between two segments under the configured topology.
    fn dist(&self, a: SegmentId, b: SegmentId) -> u64 {
        let d = a.hops_to(b) as u64;
        match self.topology {
            Topology::Linear => d,
            Topology::Ring => d.min(self.segments as u64 - d),
        }
    }

    /// Objective value of a complete allocation. For
    /// [`Objective::Makespan`] this emulates the candidate from scratch
    /// (the solvers go through a memoised evaluator instead); the
    /// allocation must then also be feasible, since the PSM validator
    /// rejects empty segments.
    pub fn cost(&self, alloc: &Allocation) -> u64 {
        if self.objective == Objective::Makespan {
            return self.emulate(&mut Engine::new(self.emu_config), alloc);
        }
        self.hop_cost(alloc)
    }

    /// The hop-weighted traffic objective (always defined, used directly
    /// by the `Items`/`Packages` objectives).
    fn hop_cost(&self, alloc: &Allocation) -> u64 {
        self.app
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let a = alloc.segment_of_checked(f.src);
                let b = alloc.segment_of_checked(f.dst);
                self.flow_weight(i, f) * self.dist(a, b)
            })
            .sum()
    }

    /// Emulated makespan of the candidate, in picoseconds.
    ///
    /// Candidates that fail PSM construction or the engine pre-flight
    /// (possible when the search is driven from imported, adversarial
    /// models) cost `u64::MAX` — they can never win, and the search stays
    /// panic-free instead of unwinding out of `Engine::run`.
    fn emulate(&self, engine: &mut Engine, alloc: &Allocation) -> u64 {
        let platform = self
            .platform
            .expect("Objective::Makespan is only set together with a platform");
        let psm = match Psm::new(platform.clone(), self.app.clone(), alloc.clone()) {
            Ok(psm) => psm,
            Err(_) => return u64::MAX,
        };
        match engine.try_run(&psm) {
            Ok(report) => report.makespan.0,
            Err(_) => u64::MAX,
        }
    }

    /// The allocation as a dense segment-index vector (memoisation key).
    fn slots(&self, alloc: &Allocation) -> Vec<u16> {
        (0..self.app.process_count() as u32)
            .map(|p| alloc.segment_of_checked(ProcessId(p)).0)
            .collect()
    }

    /// `true` if the allocation is complete, within capacity, and leaves no
    /// segment empty.
    pub fn feasible(&self, alloc: &Allocation) -> bool {
        let n = self.app.process_count();
        if !alloc.is_complete(n) {
            return false;
        }
        for s in 0..self.segments as u16 {
            let c = alloc.count_on(SegmentId(s));
            if c == 0 {
                return false;
            }
            if let Some(cap) = self.capacity {
                if c > cap {
                    return false;
                }
            }
        }
        true
    }

    // -- exact solver -------------------------------------------------------

    /// Exhaustive search. Returns `None` when the instance exceeds
    /// ~20 million assignments (`segments ^ processes`).
    pub fn exhaustive(&self) -> Option<Placement> {
        let n = self.app.process_count();
        let k = self.segments;
        // k^n with overflow guard.
        let mut size: u64 = 1;
        for _ in 0..n {
            size = size.checked_mul(k as u64)?;
            if size > 20_000_000 {
                return None;
            }
        }
        let mut assign = vec![0usize; n];
        let mut best: Option<(u64, Vec<usize>)> = None;
        'outer: loop {
            // Evaluate.
            let mut alloc = Allocation::new(k);
            for (p, &s) in assign.iter().enumerate() {
                alloc.assign(ProcessId(p as u32), SegmentId(s as u16));
            }
            if self.feasible(&alloc) {
                let c = self.cost(&alloc);
                if best.as_ref().map(|(b, _)| c < *b).unwrap_or(true) {
                    best = Some((c, assign.clone()));
                }
            }
            // Next assignment (odometer).
            let mut i = 0;
            loop {
                if i == n {
                    break 'outer;
                }
                assign[i] += 1;
                if assign[i] == k {
                    assign[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
        let (cost, assign) = best?;
        let mut alloc = Allocation::new(k);
        for (p, &s) in assign.iter().enumerate() {
            alloc.assign(ProcessId(p as u32), SegmentId(s as u16));
        }
        Some(Placement {
            allocation: alloc,
            cost,
        })
    }

    // -- greedy constructive --------------------------------------------------

    /// Traffic-ordered constructive heuristic: processes are placed in
    /// descending order of total traffic; each goes to the feasible segment
    /// that minimises the cost against already-placed neighbours, with
    /// empty segments seeded first.
    pub fn greedy(&self) -> Placement {
        let alloc = self.greedy_allocation();
        let cost = self.cost(&alloc);
        Placement {
            allocation: alloc,
            cost,
        }
    }

    fn greedy_allocation(&self) -> Allocation {
        let n = self.app.process_count();
        let mut order: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        if self.measured.is_some() {
            // Measured traffic drives the placement order too.
            let mut totals = vec![0u64; n];
            for (i, f) in self.app.flows().iter().enumerate() {
                let w = self.flow_weight(i, f);
                totals[f.src.index()] += w;
                totals[f.dst.index()] += w;
            }
            order.sort_by_key(|&p| std::cmp::Reverse(totals[p.index()]));
        } else {
            let matrix = segbus_model::matrix::CommMatrix::from_application(self.app);
            order.sort_by_key(|&p| std::cmp::Reverse(matrix.row_sum(p) + matrix.col_sum(p)));
        }

        let mut alloc = Allocation::new(self.segments);
        let mut placed = 0usize;
        for &p in &order {
            let unplaced_left = n - placed;
            let empty = (0..self.segments as u16)
                .filter(|&s| alloc.count_on(SegmentId(s)) == 0)
                .count();
            let must_seed = unplaced_left <= empty;
            let mut best_seg = None;
            let mut best_cost = u64::MAX;
            for s in 0..self.segments as u16 {
                let seg = SegmentId(s);
                if let Some(cap) = self.capacity {
                    if alloc.count_on(seg) >= cap {
                        continue;
                    }
                }
                if must_seed && alloc.count_on(seg) > 0 {
                    continue;
                }
                let c = self.incremental_cost(&alloc, p, seg);
                if c < best_cost {
                    best_cost = c;
                    best_seg = Some(seg);
                }
            }
            alloc.assign(p, best_seg.expect("capacity assertion guarantees room"));
            placed += 1;
        }
        debug_assert!(self.feasible(&alloc));
        alloc
    }

    /// Cost contribution of placing `p` on `seg` given the flows to/from
    /// already-placed processes.
    fn incremental_cost(&self, alloc: &Allocation, p: ProcessId, seg: SegmentId) -> u64 {
        self.app
            .flows()
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let (other, w) = if f.src == p {
                    (f.dst, self.flow_weight(i, f))
                } else if f.dst == p {
                    (f.src, self.flow_weight(i, f))
                } else {
                    return None;
                };
                alloc.segment_of(other).map(|os| w * self.dist(os, seg))
            })
            .sum()
    }

    fn flow_weight(&self, i: usize, f: &segbus_model::psdf::Flow) -> u64 {
        if let Some(w) = self.measured {
            return w[i];
        }
        match self.objective {
            // Makespan uses items as the constructive-heuristic surrogate;
            // the emulator only judges complete candidates.
            Objective::Items | Objective::Makespan => f.items,
            Objective::Packages(s) => f.packages(s),
        }
    }

    // -- local search -----------------------------------------------------------

    /// Hill climbing: single-process moves and pairwise swaps until no
    /// improving step exists. Never returns a worse placement than the
    /// start.
    ///
    /// # Panics
    /// Panics if `start` is infeasible.
    pub fn refine(&self, start: Allocation) -> Placement {
        let base = delta::EvalBase::new(self);
        self.refine_in(&mut Evaluator::new(self, &base), start)
    }

    fn refine_in<E: CostEval>(&self, eval: &mut E, start: Allocation) -> Placement {
        assert!(self.feasible(&start), "refine needs a feasible start");
        let n = self.app.process_count();
        let mut alloc = start;
        let mut cost = eval.cost(&alloc);
        loop {
            let mut improved = false;
            // Single moves.
            for p in (0..n as u32).map(ProcessId) {
                let from = alloc.segment_of_checked(p);
                for s in 0..self.segments as u16 {
                    let to = SegmentId(s);
                    if to == from {
                        continue;
                    }
                    alloc.assign(p, to);
                    let better = self.feasible(&alloc) && {
                        match eval.cost_if_below(&alloc, cost) {
                            Some(c) if c < cost => {
                                cost = c;
                                true
                            }
                            _ => false,
                        }
                    };
                    if better {
                        improved = true;
                        break;
                    }
                    alloc.assign(p, from);
                }
            }
            // Pairwise swaps.
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    let (pa, pb) = (ProcessId(a), ProcessId(b));
                    let (sa, sb) = (alloc.segment_of_checked(pa), alloc.segment_of_checked(pb));
                    if sa == sb {
                        continue;
                    }
                    alloc.assign(pa, sb);
                    alloc.assign(pb, sa);
                    let better = self.feasible(&alloc) && {
                        match eval.cost_if_below(&alloc, cost) {
                            Some(c) if c < cost => {
                                cost = c;
                                true
                            }
                            _ => false,
                        }
                    };
                    if better {
                        improved = true;
                    } else {
                        alloc.assign(pa, sa);
                        alloc.assign(pb, sb);
                    }
                }
            }
            if !improved {
                return Placement {
                    allocation: alloc,
                    cost,
                };
            }
        }
    }

    // -- simulated annealing ------------------------------------------------------

    /// Seeded simulated annealing over moves and swaps, starting from the
    /// greedy placement. Deterministic for a given seed.
    pub fn anneal(&self, seed: u64, iterations: usize) -> Placement {
        let base = delta::EvalBase::new(self);
        self.anneal_in(&mut Evaluator::new(self, &base), seed, iterations)
    }

    fn anneal_in<E: CostEval>(&self, eval: &mut E, seed: u64, iterations: usize) -> Placement {
        self.anneal_from(eval, self.greedy_allocation(), seed, iterations)
    }

    /// Annealing from an explicit feasible start (the portfolio search
    /// restarts chains from the global incumbent). Identical draw
    /// sequence to [`PlaceTool::anneal`] for the same seed.
    fn anneal_from<E: CostEval>(
        &self,
        eval: &mut E,
        start: Allocation,
        seed: u64,
        iterations: usize,
    ) -> Placement {
        let n = self.app.process_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        debug_assert!(self.feasible(&start), "anneal needs a feasible start");
        let mut alloc = start;
        let mut cost = eval.cost(&alloc) as f64;
        let mut best = alloc.clone();
        let mut best_cost = cost;

        let t0 = (cost / 2.0).max(1.0);
        let iters = iterations.max(1);
        for it in 0..iters {
            let temp = t0 * (1.0 - it as f64 / iters as f64) + 1e-9;
            // Propose: 50 % move, 50 % swap.
            let undo: [(ProcessId, SegmentId); 2] = if rng.gen_bool(0.5) {
                let p = ProcessId(rng.below(n as u64) as u32);
                let from = alloc.segment_of_checked(p);
                let to = SegmentId(rng.below(self.segments as u64) as u16);
                alloc.assign(p, to);
                [(p, from), (p, from)]
            } else {
                let a = ProcessId(rng.below(n as u64) as u32);
                let b = ProcessId(rng.below(n as u64) as u32);
                let (sa, sb) = (alloc.segment_of_checked(a), alloc.segment_of_checked(b));
                alloc.assign(a, sb);
                alloc.assign(b, sa);
                [(a, sa), (b, sb)]
            };
            if !self.feasible(&alloc) {
                for (p, s) in undo {
                    alloc.assign(p, s);
                }
                continue;
            }
            let c = eval.cost(&alloc) as f64;
            let accept = c <= cost || rng.gen_bool(((cost - c) / temp).exp().clamp(0.0, 1.0));
            if accept {
                cost = c;
                if c < best_cost {
                    best_cost = c;
                    best = alloc.clone();
                }
            } else {
                for (p, s) in undo {
                    alloc.assign(p, s);
                }
            }
        }
        Placement {
            allocation: best,
            cost: best_cost as u64,
        }
    }

    /// The composed solver used by the experiments: exact search when the
    /// instance is small enough to enumerate quickly, otherwise the best of
    /// greedy → refine, three annealing restarts → refine, and (on two
    /// segments without capacity limits) Kernighan–Lin → refine.
    pub fn best(&self, seed: u64) -> Placement {
        let n = self.app.process_count();
        // Enumerating every allocation is off the table when each
        // evaluation is a full emulation run.
        if self.objective != Objective::Makespan
            && (self.segments as f64).powi(n as i32) <= 250_000.0
        {
            if let Some(p) = self.exhaustive() {
                return p;
            }
        }
        // One evaluator for the whole composition: candidates revisited
        // across greedy/KL/annealing restarts hit the memo, and the
        // makespan evaluator's patched plan survives across phases.
        let base = delta::EvalBase::new(self);
        let mut eval = Evaluator::new(self, &base);
        let mut winner = self.refine_in(&mut eval, self.greedy_allocation());
        if self.kl_applicable() {
            let kl = self.refine_in(&mut eval, self.kl_allocation());
            if kl.cost < winner.cost {
                winner = kl;
            }
        }
        let iterations = self.best_iterations();
        for restart in 0..3u64 {
            let a = self.anneal_in(
                &mut eval,
                seed.wrapping_add(restart.wrapping_mul(0x9e37_79b9)),
                iterations,
            );
            let a = self.refine_in(&mut eval, a.allocation);
            if a.cost < winner.cost {
                winner = a;
            }
        }
        winner
    }

    /// Annealing iteration budget used by `best` (and the parallel
    /// search, which must match it to stay comparable).
    fn best_iterations(&self) -> usize {
        let n = self.app.process_count();
        match self.objective {
            // Emulated evaluations are ~1000× a hop count; memoisation
            // soaks up revisits but fresh candidates stay expensive.
            Objective::Makespan => (20 * n * self.segments).min(600),
            _ => 200 * n * self.segments,
        }
    }

    /// `true` when `best` runs the Kernighan–Lin start (two segments, no
    /// capacity limit, at least two processes).
    fn kl_applicable(&self) -> bool {
        self.segments == 2 && self.capacity.is_none() && self.app.process_count() >= 2
    }

    /// The Kernighan–Lin start used by `best`: KL optimises the surrogate
    /// cut weight; the refine pass after it judges with the real
    /// objective.
    fn kl_allocation(&self) -> Allocation {
        let kl_objective = match self.objective {
            Objective::Makespan => Objective::Items,
            o => o,
        };
        crate::kl::kernighan_lin(self.app, kl_objective, 8).allocation
    }

    /// A parallel search over this solver: candidate evaluation sharded
    /// across `threads` [`segbus_core::SweepPool`] workers with a shared
    /// allocation-digest memo and cache-tiered makespan evaluation. See
    /// [`ParallelSearch`]. `threads == 0` picks the machine parallelism.
    pub fn parallel(self, threads: usize) -> ParallelSearch<'a> {
        ParallelSearch::new(self, threads)
    }

    /// A portfolio search over this solver: the greedy, Kernighan–Lin and
    /// annealing families run concurrently in synchronous rounds with a
    /// shared memo and a shared incumbent, stale families restarting from
    /// the incumbent between rounds. See [`Portfolio`]. `threads == 0`
    /// picks the machine parallelism.
    pub fn portfolio(self, threads: usize) -> Portfolio<'a> {
        Portfolio::new(self, threads)
    }
}

/// Objective evaluation seen by the local-search solvers.
///
/// The sequential solvers use the single-threaded [`Evaluator`]; the
/// parallel search substitutes a worker-local view of a shared,
/// thread-safe memo (see [`parallel`]). Implementations must be pure
/// caches of the same deterministic cost function — the solvers' search
/// trajectories must not depend on which evaluator backs them.
trait CostEval {
    /// Objective value of a feasible candidate.
    fn cost(&mut self, alloc: &Allocation) -> u64;

    /// Objective value, or `None` when the evaluator can prove — via an
    /// admissible lower bound — that the candidate costs at least
    /// `incumbent` without evaluating it exactly. `None` therefore never
    /// hides a candidate an exact evaluator would have accepted: the
    /// hill-climbing trajectory is identical either way, only the number
    /// of exact evaluations differs. The default is the exact evaluation.
    fn cost_if_below(&mut self, alloc: &Allocation, incumbent: u64) -> Option<u64> {
        let _ = incumbent;
        Some(self.cost(alloc))
    }
}

/// Objective evaluator shared across the solver phases of one `best` run.
///
/// For the hop-count objectives it maintains an incremental
/// [`delta::HopState`] (O(degree) per candidate instead of a full flow
/// sweep). For [`Objective::Makespan`] it owns a reusable [`Engine`] and a
/// [`delta::PatchState`] — a compiled plan of the caller-provided
/// [`delta::EvalBase`] patched per candidate, with a reused report buffer
/// — memoises the makespan per allocation digest, and skips emulation
/// entirely when the plan's admissible lower bound proves a candidate
/// cannot beat the incumbent ([`CostEval::cost_if_below`]).
struct Evaluator<'b, 't, 'a> {
    tool: &'t PlaceTool<'a>,
    engine: Engine,
    hop: Option<delta::HopState>,
    patch: delta::PatchState<'b>,
    memo: HashMap<u64, u64>,
    /// Distinct emulation runs performed (memo misses).
    misses: usize,
    /// Candidates rejected by the lower bound without emulation.
    bound_skips: u64,
}

impl<'b, 't, 'a> Evaluator<'b, 't, 'a> {
    fn new(tool: &'t PlaceTool<'a>, base: &'b delta::EvalBase) -> Evaluator<'b, 't, 'a> {
        Evaluator {
            tool,
            engine: Engine::new(tool.emu_config),
            hop: (tool.incremental && tool.objective != Objective::Makespan)
                .then(|| delta::HopState::new(tool)),
            patch: delta::PatchState::new(tool, base),
            memo: HashMap::new(),
            misses: 0,
            bound_skips: 0,
        }
    }

    /// Makespan of the candidate, or `None` when `threshold` is set and
    /// the lower bound proves the candidate cannot beat it.
    fn makespan_cost(&mut self, alloc: &Allocation, threshold: Option<u64>) -> Option<u64> {
        let outcome = self.patch.prepare(self.tool, alloc);
        let key = allocation_digest(self.patch.cand());
        if let Some(&c) = self.memo.get(&key) {
            return Some(c);
        }
        // Memo miss: only now patch the plan onto the candidate — memo
        // hits never pay the remap work.
        let outcome = match outcome {
            delta::PatchOutcome::Ready => self.patch.patch(),
            o => o,
        };
        let c = match outcome {
            // Empty segment or unroutable move: same `u64::MAX` the
            // model-rebuild path reports for a PSM that fails validation.
            delta::PatchOutcome::Infeasible => u64::MAX,
            delta::PatchOutcome::NoPlan => self.tool.emulate(&mut self.engine, alloc),
            delta::PatchOutcome::Ready => {
                if let Some(incumbent) = threshold {
                    if self.patch.lower_bound(self.tool) >= incumbent {
                        // Provably no better than the incumbent: skip the
                        // emulation. Not memoised — the exact cost is
                        // still unknown.
                        self.bound_skips += 1;
                        return None;
                    }
                }
                self.patch.run(&mut self.engine)
            }
        };
        self.misses += 1;
        self.memo.insert(key, c);
        Some(c)
    }
}

impl CostEval for Evaluator<'_, '_, '_> {
    fn cost(&mut self, alloc: &Allocation) -> u64 {
        if self.tool.objective != Objective::Makespan {
            return match self.hop.as_mut() {
                Some(hop) => hop.cost(self.tool, alloc),
                None => self.tool.hop_cost(alloc),
            };
        }
        self.makespan_cost(alloc, None)
            .expect("exact evaluation never bound-skips")
    }

    fn cost_if_below(&mut self, alloc: &Allocation, incumbent: u64) -> Option<u64> {
        if self.tool.objective != Objective::Makespan {
            return Some(self.cost(alloc));
        }
        let threshold = self.tool.incremental.then_some(incumbent);
        self.makespan_cost(alloc, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::psdf::{Flow, Process};

    /// Two tightly-coupled cliques connected by a thin link — the optimum
    /// is obvious.
    fn two_cliques() -> Application {
        let mut app = Application::new("cliques");
        let p: Vec<ProcessId> = (0..6)
            .map(|i| app.add_process(Process::new(format!("P{i}"))))
            .collect();
        // Clique A: P0-P1-P2 heavy, clique B: P3-P4-P5 heavy.
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            app.add_flow(Flow::new(p[a], p[b], 1000, 1, 1)).unwrap();
        }
        // Thin bridge.
        app.add_flow(Flow::new(p[2], p[3], 36, 2, 1)).unwrap();
        app
    }

    #[test]
    fn exhaustive_finds_the_obvious_cut() {
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2);
        let best = tool.exhaustive().unwrap();
        assert_eq!(best.cost, 36, "only the bridge crosses");
        let a = &best.allocation;
        let seg0 = a.segment_of_checked(ProcessId(0));
        for i in 1..3 {
            assert_eq!(a.segment_of_checked(ProcessId(i)), seg0);
        }
        let seg1 = a.segment_of_checked(ProcessId(3));
        assert_ne!(seg0, seg1);
        for i in 4..6 {
            assert_eq!(a.segment_of_checked(ProcessId(i)), seg1);
        }
    }

    #[test]
    fn greedy_is_feasible_and_bounded() {
        // Greedy is a constructive heuristic; on this instance it gets
        // caught by the non-empty-segment constraint (everything gravitates
        // to one segment, the last process seeds the other), so we only
        // require feasibility and a sane bound — `best` recovers the
        // optimum via annealing.
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2);
        let g = tool.greedy();
        assert!(tool.feasible(&g.allocation));
        assert!(g.cost <= 1000, "greedy cost {}", g.cost);
    }

    #[test]
    fn anneal_and_best_match_optimum_on_cliques() {
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2);
        assert_eq!(tool.anneal(7, 2000).cost, 36);
        assert_eq!(tool.best(7).cost, 36);
    }

    #[test]
    fn measured_weights_override_declared_traffic() {
        // Declared traffic says the cliques are heavy and the bridge is
        // thin; a measurement saying the *bridge* is the only active flow
        // must flip the optimum to "keep P2 and P3 together".
        let app = two_cliques();
        let weights = [0u64, 0, 0, 0, 1000]; // only the bridge observed
        let tool = PlaceTool::new(&app, 2).with_measured_weights(&weights);
        let best = tool.exhaustive().unwrap();
        assert_eq!(best.cost, 0, "the bridge must not cross");
        assert_eq!(
            best.allocation.segment_of_checked(ProcessId(2)),
            best.allocation.segment_of_checked(ProcessId(3)),
        );
        // Greedy stays feasible under measured ordering too.
        let g = tool.greedy();
        assert!(tool.feasible(&g.allocation));
    }

    #[test]
    #[should_panic(expected = "one measured weight per flow")]
    fn measured_weights_must_cover_every_flow() {
        let app = two_cliques();
        let _ = PlaceTool::new(&app, 2).with_measured_weights(&[1, 2, 3]);
    }

    #[test]
    fn refine_never_worsens() {
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2);
        // Deliberately bad but feasible start: split the cliques.
        let start = Allocation::from_groups(&[&[0, 2, 4], &[1, 3, 5]]);
        let start_cost = tool.cost(&start);
        let refined = tool.refine(start);
        assert!(refined.cost <= start_cost);
        assert_eq!(refined.cost, 36, "hill climbing solves this instance");
    }

    #[test]
    fn capacity_is_respected() {
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2).with_capacity(3);
        let g = tool.greedy();
        assert!(tool.feasible(&g.allocation));
        for s in 0..2u16 {
            assert!(g.allocation.count_on(SegmentId(s)) <= 3);
        }
        let e = tool.exhaustive().unwrap();
        assert!(tool.feasible(&e.allocation));
        // With capacity 3 the split is forced 3 + 3, still cost 36.
        assert_eq!(e.cost, 36);
    }

    #[test]
    fn no_segment_left_empty() {
        // A star: everything talks to P0; the unconstrained optimum would
        // collapse onto one segment, but feasibility forces a seed.
        let mut app = Application::new("star");
        let hub = app.add_process(Process::new("HUB"));
        let leaves: Vec<_> = (0..4)
            .map(|i| app.add_process(Process::new(format!("L{i}"))))
            .collect();
        for &l in &leaves {
            app.add_flow(Flow::new(hub, l, 100, 1, 1)).unwrap();
        }
        let tool = PlaceTool::new(&app, 2);
        for pl in [tool.greedy(), tool.exhaustive().unwrap(), tool.best(1)] {
            assert!(tool.feasible(&pl.allocation));
            assert!(pl.allocation.count_on(SegmentId(0)) >= 1);
            assert!(pl.allocation.count_on(SegmentId(1)) >= 1);
        }
    }

    #[test]
    fn exhaustive_bails_on_large_instances() {
        let app = segbus_apps::generators::random_layered(
            6,
            5,
            3,
            segbus_apps::generators::GeneratorConfig::default(),
        );
        // 3^30 is far beyond the cap.
        assert!(PlaceTool::new(&app, 3).exhaustive().is_none());
    }

    #[test]
    fn heuristics_close_to_exact_on_random_instances() {
        let cfg = segbus_apps::generators::GeneratorConfig::default();
        for seed in 0..4 {
            let app = segbus_apps::generators::random_layered(3, 3, seed, cfg);
            let tool = PlaceTool::new(&app, 2);
            let exact = tool.exhaustive().unwrap();
            let best = tool.best(seed);
            assert!(
                best.cost <= exact.cost + exact.cost / 5 + 36,
                "seed {seed}: best {} vs exact {}",
                best.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn determinism_of_seeded_solvers() {
        let app = two_cliques();
        let tool = PlaceTool::new(&app, 2);
        assert_eq!(tool.anneal(11, 500), tool.anneal(11, 500));
        assert_eq!(tool.best(11), tool.best(11));
    }

    #[test]
    fn packages_objective_differs_from_items() {
        let mut app = Application::new("obj");
        let a = app.add_process(Process::new("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::new("C"));
        // 35 items = 1 package; 37 items = 2 packages.
        app.add_flow(Flow::new(a, b, 35, 1, 1)).unwrap();
        app.add_flow(Flow::new(a, c, 37, 1, 1)).unwrap();
        let alloc = Allocation::from_groups(&[&[0], &[1], &[2]]);
        let items = PlaceTool::new(&app, 3).cost(&alloc);
        assert_eq!(items, 35 + 2 * 37);
        let pkgs = PlaceTool::new(&app, 3)
            .with_objective(Objective::Packages(36))
            .cost(&alloc);
        assert_eq!(pkgs, 1 + 2 * 2);
    }

    #[test]
    fn ring_topology_changes_the_optimum() {
        // A 4-stage pipeline wrapped around: stage 0 talks to stage 3,
        // adjacent on the ring but far apart on the line.
        let mut app = Application::new("wrap");
        let p: Vec<ProcessId> = (0..4)
            .map(|i| app.add_process(Process::new(format!("P{i}"))))
            .collect();
        app.add_flow(Flow::new(p[0], p[3], 1000, 1, 1)).unwrap();
        app.add_flow(Flow::new(p[1], p[2], 1000, 1, 1)).unwrap();
        let alloc = Allocation::from_groups(&[&[0], &[1], &[2], &[3]]);
        let linear = PlaceTool::new(&app, 4).cost(&alloc);
        let ring = PlaceTool::new(&app, 4)
            .with_topology(segbus_model::platform::Topology::Ring)
            .cost(&alloc);
        // Linear: P0->P3 costs 3 hops; ring: 1 hop over the wrap unit.
        assert_eq!(linear, 3000 + 1000);
        assert_eq!(ring, 1000 + 1000);
        // The exhaustive ring solver exploits the wrap link.
        let best = PlaceTool::new(&app, 4)
            .with_topology(segbus_model::platform::Topology::Ring)
            .exhaustive()
            .unwrap();
        assert!(best.cost <= 2000);
    }

    #[test]
    #[should_panic(expected = "more segments than processes")]
    fn too_many_segments_rejected() {
        let mut app = Application::new("tiny");
        app.add_process(Process::new("A"));
        let _ = PlaceTool::new(&app, 2);
    }

    // -- emulation-in-the-loop ------------------------------------------------

    /// A schedulable application (the clique fixtures violate the wave
    /// ordering rule and cannot become a PSM).
    fn pipeline_app() -> Application {
        segbus_apps::generators::chain(6, segbus_apps::generators::GeneratorConfig::default())
    }

    fn two_segment_platform() -> Platform {
        Platform::builder("t")
            .uniform_segments(2, segbus_model::time::ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

    #[test]
    fn makespan_cost_matches_the_emulator() {
        let app = pipeline_app();
        let platform = two_segment_platform();
        let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
        let alloc = Allocation::from_groups(&[&[0, 1, 2], &[3, 4, 5]]);
        let reference = segbus_core::Emulator::default()
            .run(&Psm::new(platform.clone(), app.clone(), alloc.clone()).unwrap())
            .makespan
            .0;
        assert_eq!(tool.cost(&alloc), reference);
    }

    #[test]
    fn makespan_refine_never_worsens_the_schedule() {
        let app = pipeline_app();
        let platform = two_segment_platform();
        let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
        // Deliberately bad but feasible start: alternate the stages so
        // every flow crosses the border.
        let start = Allocation::from_groups(&[&[0, 2, 4], &[1, 3, 5]]);
        let start_makespan = tool.cost(&start);
        let refined = tool.refine(start);
        assert!(tool.feasible(&refined.allocation));
        assert!(refined.cost <= start_makespan);
        assert_eq!(refined.cost, tool.cost(&refined.allocation));
    }

    #[test]
    fn makespan_best_is_deterministic_and_no_worse_than_greedy() {
        let app = pipeline_app();
        let platform = two_segment_platform();
        let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
        let best = tool.best(3);
        assert!(tool.feasible(&best.allocation));
        assert!(best.cost <= tool.greedy().cost);
        assert_eq!(best, tool.best(3));
    }

    #[test]
    fn makespan_evaluations_are_memoised() {
        let app = pipeline_app();
        let platform = two_segment_platform();
        let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
        let base = delta::EvalBase::new(&tool);
        let mut eval = Evaluator::new(&tool, &base);
        let a = Allocation::from_groups(&[&[0, 1, 2], &[3, 4, 5]]);
        let b = Allocation::from_groups(&[&[0, 1], &[2, 3, 4, 5]]);
        let first = eval.cost(&a);
        assert_eq!(eval.cost(&a), first);
        assert_eq!(eval.misses, 1, "repeat candidate must hit the memo");
        let _ = eval.cost(&b);
        assert_eq!(eval.misses, 2);
        assert_eq!(eval.cost(&b), eval.cost(&b));
        assert_eq!(eval.misses, 2);
    }

    #[test]
    #[should_panic(expected = "use with_makespan")]
    fn bare_makespan_objective_rejected() {
        let app = two_cliques();
        let _ = PlaceTool::new(&app, 2).with_objective(Objective::Makespan);
    }
}
