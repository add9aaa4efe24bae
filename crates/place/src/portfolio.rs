//! Portfolio placement search — the one search driver: heterogeneous
//! solver families racing over one shared evaluation substrate.
//!
//! The family roster is greedy → refine, Kernighan–Lin → refine (when
//! applicable) and `restarts` annealing chains → refine. A single fan-out
//! of it leaves every family exploring alone, and a family stuck in a
//! poor basin wastes its whole budget there, so [`Portfolio`] runs the
//! roster in **synchronous rounds** over the shared allocation-digest
//! memo and a shared incumbent:
//!
//! * **Round 0** fans every family out once; one round
//!   (`with_rounds(1)`) is exactly [`PlaceTool::best`] and
//!   `segbus place`'s default.
//! * After every round the family results are merged under the canonical
//!   total order (lowest cost, ties broken by the lexicographically
//!   smallest segment vector) into the **global incumbent**.
//! * In round `r ≥ 1` every family continues as a freshly seeded
//!   annealing chain + refine. A family whose own best is *stale* —
//!   strictly worse than the incumbent — restarts from the incumbent
//!   instead (cross-pollination); the others keep exploring their own
//!   basin.
//! * The portfolio stops early once a round fails to improve the
//!   incumbent's cost, and always after [`Portfolio::with_rounds`]
//!   rounds or past the optional wall-clock budget.
//!
//! **Two barriers per round.** A round first fans out the *starts* —
//! the greedy and Kernighan–Lin allocations and every annealing chain —
//! and then *refines* each distinct start once, handing every family
//! the refined placement of its own start. Annealing often returns its
//! start unchanged (the greedy allocation in round 0, the incumbent
//! later), and two families refining one start would ask for the same
//! candidates in the same order: the second would only wait on the
//! memo's in-flight marker for each. A per-search map from start slots
//! to refined placement skips that replay. Refine is a pure function of
//! its start, and a refined placement is its own fixed point (its last
//! pass found no improving step), so every refined placement is also
//! recorded as its own start: a later chain that returns the incumbent
//! refines nothing.
//!
//! **Determinism.** Results are bit-identical for any thread count: every
//! chain is seeded by `(seed, family, round)` alone, the shared memo is a
//! pure cache of the deterministic cost function, refine's scan order is
//! fixed, and every decision that shapes the search — staleness, restart
//! points, the stop rule — reads only the *round-merged* state at a
//! barrier. Skipping a repeated refine therefore changes no result, only
//! the evaluation count. The wall-clock budget is likewise only
//! consulted at round boundaries, so it can truncate the round sequence
//! but never change the result of the rounds that did run. The full
//! argument lives in DESIGN.md §11.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::parallel::{better, ParallelSearch, SearchStats};
use crate::{Objective, PlaceError, PlaceTool, Placement};

/// Counters of one [`Portfolio`] (cumulative across runs): the underlying
/// shared-evaluation counters plus the round bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortfolioStats {
    /// The shared evaluation substrate's counters (memo, cache tiers,
    /// plan patches).
    pub search: SearchStats,
    /// Synchronous rounds completed.
    pub rounds: u64,
    /// Family restarts from the global incumbent (stale families
    /// re-seeded at a round boundary).
    pub cross_pollinations: u64,
}

/// A round-based portfolio search over one [`PlaceTool`].
///
/// Construct with [`PlaceTool::portfolio`]. The portfolio owns its pool,
/// shared memo and cache tiers, and reuses them across rounds and across
/// runs.
///
/// ```
/// use segbus_apps::generators::{chain, GeneratorConfig};
/// use segbus_place::PlaceTool;
///
/// let app = chain(6, GeneratorConfig::default());
/// let tool = PlaceTool::new(&app, 3);
/// let portfolio = tool.portfolio(4).with_rounds(2);
/// assert_eq!(portfolio.best(42), tool.portfolio(1).with_rounds(2).best(42));
/// ```
pub struct Portfolio<'a> {
    search: ParallelSearch<'a>,
    rounds: usize,
    time_budget: Option<Duration>,
    rounds_run: AtomicU64,
    cross_pollinations: AtomicU64,
}

/// One family's start in a round: an allocation, annealed by a chain
/// with `seed` first unless `seed` is `None` (round 0's greedy and
/// Kernighan–Lin starts are refined as they are).
struct Start {
    slots: Vec<u16>,
    seed: Option<u64>,
}

/// Refined placements of one search as `(cost, slots)`, keyed by the
/// slots of every start refined so far and of every refined placement.
type Refined = HashMap<Vec<u16>, (u64, Vec<u16>)>;

/// The seed of family `family`'s chain in round `round`; depends on
/// nothing else, so trajectories are thread-count independent.
fn chain_seed(seed: u64, family: u64, round: u64) -> u64 {
    seed.wrapping_add(family.wrapping_mul(0x9e37_79b9))
        .wrapping_add(round.wrapping_mul(0x85eb_ca6b))
}

impl<'a> Portfolio<'a> {
    /// Default maximum number of synchronous rounds.
    pub const DEFAULT_ROUNDS: usize = 3;

    /// A portfolio over `tool` on `threads` workers (`0` picks the
    /// machine parallelism), with the default three annealing chains and
    /// [`Portfolio::DEFAULT_ROUNDS`] rounds.
    pub fn new(tool: PlaceTool<'a>, threads: usize) -> Portfolio<'a> {
        Portfolio {
            search: ParallelSearch::new(tool, threads),
            rounds: Self::DEFAULT_ROUNDS,
            time_budget: None,
            rounds_run: AtomicU64::new(0),
            cross_pollinations: AtomicU64::new(0),
        }
    }

    /// Maximum number of synchronous rounds (clamped to at least one;
    /// the portfolio may stop earlier when a round fails to improve the
    /// incumbent). One round is exactly [`PlaceTool::best`]'s fan-out.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Stop starting new rounds once `budget` wall-clock time has
    /// elapsed. Checked only at round boundaries, so the budget bounds
    /// *how many* rounds run (machine-dependent) without ever changing
    /// the result of the rounds that do run.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Number of annealing-chain families (clamped to at least one).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.search.restarts = restarts.max(1);
        self
    }

    /// Attach the persistent report store under `dir` (shared with
    /// `segbus batch`/`serve` via `--cache-dir`): cached makespans
    /// survive the process, and a warm directory answers repeated
    /// searches from disk instead of the emulator.
    pub fn with_cache_dir(mut self, dir: &Path) -> io::Result<Self> {
        self.search.attach_disk(dir)?;
        Ok(self)
    }

    /// The worker cap.
    pub fn threads(&self) -> usize {
        self.search.pool.threads()
    }

    /// The solver this portfolio runs.
    pub fn tool(&self) -> &PlaceTool<'a> {
        &self.search.tool
    }

    /// Snapshot of the portfolio counters (cumulative across runs).
    pub fn stats(&self) -> PortfolioStats {
        PortfolioStats {
            search: self.search.stats(),
            rounds: self.rounds_run.load(Ordering::Relaxed),
            cross_pollinations: self.cross_pollinations.load(Ordering::Relaxed),
        }
    }

    /// Run the portfolio. Deterministic in `(seed, rounds, restarts)`
    /// for any thread count; never worse than its own round 0 (the
    /// one-round result with the same seed and restarts), since later
    /// rounds only replace results that improve on it.
    ///
    /// # Panics
    /// Panics where [`Portfolio::try_best`] returns an error.
    pub fn best(&self, seed: u64) -> Placement {
        self.try_best(seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Portfolio::best`], or [`PlaceError::CostOverflow`] before any
    /// solver runs when a hop-weighted sum could exceed `u64`.
    pub fn try_best(&self, seed: u64) -> Result<Placement, PlaceError> {
        let tool = &self.search.tool;
        tool.check_traffic()?;
        let n = tool.app.process_count();
        // Tiny hop-objective instances: exact enumeration. Enumerating
        // is off the table when each evaluation is a full emulation run.
        if tool.objective != Objective::Makespan
            && (tool.segments as f64).powi(n as i32) <= 250_000.0
        {
            if let Some(p) = self.search.exhaustive() {
                return Ok(p);
            }
        }
        let started = Instant::now();
        let mut refined = Refined::new();

        // The family roster, in fixed order.
        let greedy = tool.slots(&tool.greedy_allocation());
        let mut starts = vec![Start {
            slots: greedy.clone(),
            seed: None,
        }];
        if tool.kl_applicable() {
            starts.push(Start {
                slots: tool.slots(&tool.kl_allocation()),
                seed: None,
            });
        }
        for r in 0..self.search.restarts as u64 {
            starts.push(Start {
                slots: greedy.clone(),
                seed: Some(seed.wrapping_add(r.wrapping_mul(0x9e37_79b9))),
            });
        }
        // Per-family best-so-far, and the round-merged global incumbent.
        let mut family_state = self.round(&starts, &mut refined);
        let mut incumbent: Option<(u64, Vec<u16>)> = None;
        for st in &family_state {
            if better(st, &incumbent) {
                incumbent = Some(st.clone());
            }
        }
        let mut incumbent = incumbent.expect("the greedy family always runs");
        let mut rounds_run = 1u64;
        let mut cross = 0u64;

        for round in 1..self.rounds {
            if self
                .time_budget
                .is_some_and(|budget| started.elapsed() >= budget)
            {
                break;
            }
            let starts: Vec<Start> = family_state
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    let stale = st.0 > incumbent.0;
                    if stale {
                        cross += 1;
                    }
                    Start {
                        slots: if stale {
                            incumbent.1.clone()
                        } else {
                            st.1.clone()
                        },
                        seed: Some(chain_seed(seed, i as u64, round as u64)),
                    }
                })
                .collect();
            let results = self.round(&starts, &mut refined);
            // Deterministic merge at the barrier: each family keeps its
            // best-so-far, then the incumbent is re-folded in family
            // order under the canonical total order.
            for (i, cand) in results.into_iter().enumerate() {
                if better(&cand, &Some(family_state[i].clone())) {
                    family_state[i] = cand;
                }
            }
            let prev_cost = incumbent.0;
            for st in &family_state {
                if better(st, &Some(incumbent.clone())) {
                    incumbent = st.clone();
                }
            }
            rounds_run += 1;
            // Converged: the round bought no cost improvement.
            if incumbent.0 >= prev_cost {
                break;
            }
        }

        self.rounds_run.fetch_add(rounds_run, Ordering::Relaxed);
        self.cross_pollinations.fetch_add(cross, Ordering::Relaxed);
        let (cost, slots) = incumbent;
        Ok(Placement {
            allocation: tool.allocation_of(&slots),
            cost,
        })
    }

    /// One round's two barriers over the pool: anneal every start that
    /// carries a seed, then refine each distinct start that `refined`
    /// does not hold yet. Returns each family's refined `(cost, slots)`,
    /// in start order.
    fn round(&self, starts: &[Start], refined: &mut Refined) -> Vec<(u64, Vec<u16>)> {
        let tool = &self.search.tool;
        let iterations = tool.best_iterations();
        let annealed = self
            .search
            .pool
            .sweep_with(starts, |engine, start| match start.seed {
                None => start.slots.clone(),
                Some(seed) => self.search.with_eval(engine, |eval| {
                    let from = tool.allocation_of(&start.slots);
                    tool.slots(&tool.anneal_from(eval, from, seed, iterations).allocation)
                }),
            });
        let mut fresh: Vec<&Vec<u16>> = Vec::new();
        for slots in &annealed {
            if !refined.contains_key(slots) && !fresh.contains(&slots) {
                fresh.push(slots);
            }
        }
        let results = self.search.pool.sweep_with(&fresh, |engine, slots| {
            let p = self.search.with_eval(engine, |eval| {
                tool.refine_in(eval, tool.allocation_of(slots))
            });
            (p.cost, tool.slots(&p.allocation))
        });
        for (start, st) in fresh.into_iter().zip(results) {
            // A refined placement is a fixed point of refine.
            refined.insert(st.1.clone(), st.clone());
            refined.insert(start.clone(), st);
        }
        annealed
            .iter()
            .map(|slots| refined[slots].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use segbus_apps::generators::{
        chain, diamond, random_layered, round_robin_allocation, uniform_platform, GeneratorConfig,
    };
    use segbus_core::{EmulatorConfig, Engine};

    use crate::parallel::ParallelSearch;
    use crate::{Objective, PlaceTool};

    /// The rule the rounds' refine map rests on: refine returns a
    /// refined placement unchanged at the same cost, and asks only for
    /// candidates the first refine already evaluated, so it emulates
    /// nothing.
    #[test]
    fn refining_a_refined_placement_returns_it_and_emulates_nothing() {
        let cfg = GeneratorConfig::default();
        let apps = [
            chain(7, cfg),
            diamond(3, cfg),
            random_layered(3, 3, 5, cfg),
            random_layered(4, 2, 11, cfg),
        ];
        let platform = uniform_platform(3, 18);
        for app in &apps {
            for objective in [
                Objective::Makespan,
                Objective::Items,
                Objective::Packages(9),
            ] {
                let tool = PlaceTool::new(app, 3);
                let tool = match objective {
                    Objective::Makespan => tool.with_makespan(&platform),
                    o => tool.with_objective(o),
                };
                let search = ParallelSearch::new(tool, 1);
                let mut engine = Engine::new(EmulatorConfig::default());
                search.with_eval(&mut engine, |eval| {
                    let once = tool.refine_in(eval, round_robin_allocation(app, 3));
                    let emulated = search.stats().emulations;
                    let twice = tool.refine_in(eval, once.allocation.clone());
                    let what = format!("{} under {objective:?}", app.name());
                    assert_eq!(twice, once, "{what}: refine moved a refined placement");
                    assert_eq!(
                        search.stats().emulations,
                        emulated,
                        "{what}: the second refine emulated"
                    );
                    if objective == Objective::Makespan {
                        assert!(emulated > 0, "{what}: the first refine emulated nothing");
                    }
                });
            }
        }
    }
}
