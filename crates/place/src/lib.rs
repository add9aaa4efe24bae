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
//! One search driver, [`Portfolio`], composes five solvers:
//!
//! * [`PlaceTool::exhaustive`] — exact, for small instances (and the
//!   test oracle the sharded search is checked against);
//! * [`PlaceTool::greedy`] — traffic-ordered constructive heuristic;
//! * [`PlaceTool::refine`] — move/swap hill climbing from a start point;
//! * [`PlaceTool::anneal`] — seeded simulated annealing;
//! * [`kernighan_lin`] — classic KL bipartitioning for two segments.
//!
//! The portfolio runs greedy → refine, KL → refine and seeded annealing
//! chains → refine over one shared evaluator, and breaks cost ties by
//! the lexicographically smallest segment vector. [`PlaceTool::best`] is
//! its one-thread, one-round instance and is what the experiments use.
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
mod parallel;
pub mod portfolio;

pub use kl::kernighan_lin;
pub use parallel::{allocation_digest, SearchStats};
pub use portfolio::Portfolio;

use parallel::{better, ParallelSearch, SharedEval};
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

/// Why a placement search cannot start.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlaceError {
    /// `Σ weight(f) × max(1, segments − 1)` does not fit in `u64`, so a
    /// hop-weighted sum the solvers form could wrap.
    CostOverflow,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::CostOverflow => f.write_str(
                "hop-weighted traffic overflows u64: \
                 Σ flow weight × max(1, segments − 1) exceeds u64::MAX",
            ),
        }
    }
}

impl std::error::Error for PlaceError {}

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
    /// Measured per-flow weights (indexed by flow position) overriding
    /// the model-declared traffic; see
    /// [`PlaceTool::with_measured_weights`].
    measured: Option<&'a [u64]>,
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
            measured: None,
        }
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

    /// One checked bound on every hop-weighted sum the solvers form:
    /// `Σ weight(f) × max(1, segments − 1)`. A flow crosses at most
    /// `segments − 1` hops, so the bound covers `hop_cost`, `HopState`'s
    /// running sum and the greedy placement costs; the `max(1, …)` keeps
    /// it above the plain weight totals that order the greedy placement
    /// and fill the Kernighan–Lin weight matrix. A flow's weight here is
    /// the larger of its declared items (which bound its packages and are
    /// what the greedy order and Kernighan–Lin read without a
    /// measurement) and its measured weight.
    fn check_traffic(&self) -> Result<(), PlaceError> {
        let hops = (self.segments as u64 - 1).max(1);
        self.app
            .flows()
            .iter()
            .enumerate()
            .try_fold(0u64, |sum, (i, f)| {
                sum.checked_add(self.measured.map_or(0, |w| w[i]).max(f.items))
            })
            .and_then(|sum| sum.checked_mul(hops))
            .map(|_| ())
            .ok_or(PlaceError::CostOverflow)
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
            return self.emulate(&mut Engine::new(EmulatorConfig::default()), alloc);
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

    /// The allocation described by a dense segment-index vector.
    fn allocation_of(&self, slots: &[u16]) -> Allocation {
        let mut alloc = Allocation::new(self.segments);
        for (p, &s) in slots.iter().enumerate() {
            alloc.assign(ProcessId(p as u32), SegmentId(s));
        }
        alloc
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
    /// ~20 million assignments (`segments ^ processes`). Ties go to the
    /// lexicographically smallest segment vector, as in every solver.
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
        let mut assign = vec![0u16; n];
        let mut best: Option<(u64, Vec<u16>)> = None;
        'outer: loop {
            let alloc = self.allocation_of(&assign);
            if self.feasible(&alloc) {
                let cand = (self.cost(&alloc), assign.clone());
                if better(&cand, &best) {
                    best = Some(cand);
                }
            }
            // Next assignment (odometer).
            let mut i = 0;
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
        let (cost, slots) = best?;
        Some(Placement {
            allocation: self.allocation_of(&slots),
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
        self.solo(|eval| self.refine_in(eval, start))
    }

    /// Run `f` on the calling thread against a one-thread instance of the
    /// portfolio's shared evaluation state.
    fn solo<R>(&self, f: impl FnOnce(&mut SharedEval<'_, '_, 'a>) -> R) -> R {
        ParallelSearch::new(*self, 1).with_eval(&mut Engine::new(EmulatorConfig::default()), f)
    }

    fn refine_in(&self, eval: &mut SharedEval<'_, '_, '_>, start: Allocation) -> Placement {
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
                    let c = self.feasible(&alloc).then(|| eval.cost(&alloc));
                    if let Some(c) = c.filter(|&c| c < cost) {
                        cost = c;
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
                    let c = self.feasible(&alloc).then(|| eval.cost(&alloc));
                    if let Some(c) = c.filter(|&c| c < cost) {
                        cost = c;
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
        self.solo(|eval| self.anneal_from(eval, self.greedy_allocation(), seed, iterations))
    }

    /// Annealing from an explicit feasible start (the portfolio search
    /// restarts chains from the global incumbent). Identical draw
    /// sequence to [`PlaceTool::anneal`] for the same seed. Costs stay
    /// exact `u64`s; only the Metropolis probability is computed in `f64`.
    fn anneal_from(
        &self,
        eval: &mut SharedEval<'_, '_, '_>,
        start: Allocation,
        seed: u64,
        iterations: usize,
    ) -> Placement {
        let n = self.app.process_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        debug_assert!(self.feasible(&start), "anneal needs a feasible start");
        let mut alloc = start;
        let mut cost = eval.cost(&alloc);
        let mut best = alloc.clone();
        let mut best_cost = cost;

        let t0 = (cost as f64 / 2.0).max(1.0);
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
            let c = eval.cost(&alloc);
            let accept =
                c <= cost || rng.gen_bool(((cost as f64 - c as f64) / temp).exp().clamp(0.0, 1.0));
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
            cost: best_cost,
        }
    }

    /// The composed solver used by the experiments: the one-thread,
    /// one-round [`Portfolio`] — exact search when the instance is small
    /// enough to enumerate quickly, otherwise the canonical best of
    /// greedy → refine, three annealing restarts → refine, and (on two
    /// segments without capacity limits) Kernighan–Lin → refine.
    ///
    /// # Panics
    /// Panics where [`Portfolio::best`] does.
    pub fn best(&self, seed: u64) -> Placement {
        self.portfolio(1).with_rounds(1).best(seed)
    }

    /// Annealing iteration budget of every portfolio chain.
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

    /// A portfolio search over this solver: the greedy, Kernighan–Lin and
    /// annealing families run concurrently in synchronous rounds with a
    /// shared memo and a shared incumbent, stale families restarting from
    /// the incumbent between rounds. See [`Portfolio`]. `threads == 0`
    /// picks the machine parallelism.
    pub fn portfolio(self, threads: usize) -> Portfolio<'a> {
        Portfolio::new(self, threads)
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
        let reference = segbus_core::Engine::default()
            .try_run(&Psm::new(platform.clone(), app.clone(), alloc.clone()).unwrap())
            .unwrap()
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
    fn anneal_reports_costs_exactly_beyond_f64_precision() {
        // 2^53 + 1 is the smallest integer an `f64` cannot hold: a cost
        // routed through floating point comes back as 2^53.
        let mut app = Application::new("wide");
        let a = app.add_process(Process::new("A"));
        let b = app.add_process(Process::new("B"));
        app.add_flow(Flow::new(a, b, 1, 1, 1)).unwrap();
        let weights = [(1u64 << 53) + 1];
        let tool = PlaceTool::new(&app, 2).with_measured_weights(&weights);
        let annealed = tool.anneal(1, 50);
        assert_eq!(annealed.cost, (1u64 << 53) + 1);
        assert_eq!(annealed.cost, tool.cost(&annealed.allocation));
    }

    /// A search starts only when `Σ weight × max(1, segments − 1)` fits
    /// in `u64`, and then forms no sum above it (debug builds would
    /// panic on a wrap). The clique flows declare 4 × 1000 + 36 items;
    /// the measured weight of the bridge dominates.
    #[test]
    fn searches_refuse_hop_sums_beyond_u64() {
        let app = two_cliques();
        let search = |segments: usize, bridge: u64| {
            let weights = [0, 0, 0, 0, bridge];
            PlaceTool::new(&app, segments)
                .with_measured_weights(&weights)
                .portfolio(1)
                .try_best(1)
                .map(|p| p.cost)
        };
        // Two segments: one hop at most, the plain sum must fit.
        assert!(search(2, u64::MAX - 4000).is_ok());
        assert_eq!(search(2, u64::MAX - 3999), Err(PlaceError::CostOverflow));
        // Three segments: up to two hops per flow.
        let half = u64::MAX / 2;
        assert!(search(3, half - 4000).is_ok());
        assert_eq!(search(3, half - 3999), Err(PlaceError::CostOverflow));
    }

    #[test]
    #[should_panic(expected = "use with_makespan")]
    fn bare_makespan_objective_rejected() {
        let app = two_cliques();
        let _ = PlaceTool::new(&app, 2).with_objective(Objective::Makespan);
    }
}
