//! Incremental (delta) cost evaluation for the placement solvers.
//!
//! The solvers walk move/swap neighbourhoods: consecutive candidates
//! differ in the placement of one or two processes. Re-deriving the
//! objective from scratch per candidate — a full flow sweep for the hop
//! objectives, a model rebuild + plan compile + emulation for
//! [`Objective::Makespan`] — caps the search at graphs of a dozen
//! processes. This module maintains the evaluation state *across*
//! candidates instead:
//!
//! * [`HopState`] keeps the hop-weighted traffic sum and per-process
//!   flow adjacency, so a candidate costs one O(processes) slot diff
//!   plus O(degree) flow re-weighings — exactly equal (same integer
//!   additions and subtractions) to the full [`PlaceTool::cost`] sweep,
//!   which the property tests pin across arbitrary move/swap sequences.
//! * [`PatchState`] keeps a compiled [`EnginePlan`] of a base model and
//!   *patches* it per candidate via [`EnginePlan::try_remap`] (O(degree)
//!   per moved process), runs it with a reused report buffer, derives
//!   the candidate's content digest incrementally from the base model's
//!   [`Psm::digest_prefix`].
//!
//! Both are exact caches of the same deterministic cost functions the
//! full-sweep [`PlaceTool::cost`] computes, which the tests below pin.

use segbus_core::{EmulationReport, EmulatorConfig, Engine, EnginePlan};
use segbus_model::digest::{digest_with_slots, Fnv64};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::{Allocation, Psm};

use crate::{Objective, PlaceTool};

/// The base model a makespan evaluator compiles its patchable plan from:
/// the tool's platform + application under the (feasible) greedy
/// allocation, validated once. `None` when the instance cannot form a
/// valid PSM at all — evaluators then fall back to the per-candidate
/// model-rebuild path, which reports the same typed failures candidate
/// by candidate.
pub(crate) struct EvalBase {
    pub(crate) psm: Option<Psm>,
}

impl EvalBase {
    /// Build (and strictly validate) the base model. Cheap no-op for the
    /// hop objectives, which never emulate.
    pub(crate) fn new(tool: &PlaceTool) -> EvalBase {
        if tool.objective != Objective::Makespan {
            return EvalBase { psm: None };
        }
        let platform = tool
            .platform
            .expect("Objective::Makespan is only set together with a platform");
        let alloc = tool.greedy_allocation();
        let psm = match Psm::new(platform.clone(), tool.app.clone(), alloc) {
            Ok(psm) => psm,
            Err(_) => return EvalBase { psm: None },
        };
        if segbus_core::strict_validate(&psm, 1, &EmulatorConfig::default()).is_err() {
            return EvalBase { psm: None };
        }
        EvalBase { psm: Some(psm) }
    }
}

/// What [`PatchState::prepare`] concluded about a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PatchOutcome {
    /// The plan now describes the candidate; run it.
    Ready,
    /// The candidate cannot be emulated (empty segment or unroutable
    /// move) — its cost is `u64::MAX`, same as the model-rebuild path.
    Infeasible,
    /// No base plan exists; evaluate through the per-candidate model
    /// rebuild.
    NoPlan,
}

/// Plan-patching state for [`Objective::Makespan`] evaluation: the
/// compiled plan of the base model, the slot vector it currently
/// describes, the base digest prefix, and a reused report buffer.
pub(crate) struct PatchState<'b> {
    plan: Option<EnginePlan<'b>>,
    /// The allocation `plan` currently describes.
    slots: Vec<u16>,
    /// Allocation-independent digest prefix of the base model.
    prefix: Fnv64,
    /// Reused across runs by [`Engine::run_plan_into`].
    report: EmulationReport,
    /// Candidate slots loaded by the last [`PatchState::prepare`].
    cand: Vec<u16>,
    seg_count: Vec<u32>,
    /// Successful [`EnginePlan::try_remap`] calls (one per moved
    /// process), surfaced as `plan_patches` in the search stats.
    pub(crate) patches: u64,
}

impl<'b> PatchState<'b> {
    pub(crate) fn new(tool: &PlaceTool, base: &'b EvalBase) -> PatchState<'b> {
        let n = tool.app.process_count();
        let (plan, slots) = match &base.psm {
            Some(psm) => match EnginePlan::try_new(psm) {
                Ok(plan) => {
                    let slots = (0..n as u32)
                        .map(|p| plan.segment_of(ProcessId(p)).0)
                        .collect();
                    (Some(plan), slots)
                }
                Err(_) => (None, Vec::new()),
            },
            None => (None, Vec::new()),
        };
        let prefix = base
            .psm
            .as_ref()
            .map(|p| p.digest_prefix())
            .unwrap_or_default();
        PatchState {
            plan,
            slots,
            prefix,
            report: EmulationReport::empty(),
            cand: Vec::with_capacity(n),
            seg_count: vec![0; tool.segments],
            patches: 0,
        }
    }

    /// Load the candidate's slots and classify it — **without** touching
    /// the plan. `Ready` here means "patchable": callers answer the memo
    /// first (via [`PatchState::cand`]'s digest) and call
    /// [`PatchState::patch`] only on a miss, so memo hits never pay the
    /// remap work.
    pub(crate) fn prepare(&mut self, tool: &PlaceTool, alloc: &Allocation) -> PatchOutcome {
        let n = tool.app.process_count();
        self.seg_count.iter_mut().for_each(|c| *c = 0);
        self.cand.clear();
        for p in 0..n as u32 {
            let s = alloc.segment_of_checked(ProcessId(p)).0;
            self.cand.push(s);
            self.seg_count[s as usize] += 1;
        }
        // An empty segment fails PSM validation (V005): cost `u64::MAX`,
        // exactly as the model-rebuild path would report.
        if self.seg_count.contains(&0) {
            return PatchOutcome::Infeasible;
        }
        if self.plan.is_none() {
            return PatchOutcome::NoPlan;
        }
        PatchOutcome::Ready
    }

    /// Patch the plan to describe the candidate loaded by the last
    /// [`PatchState::prepare`] (which must have returned `Ready`). After
    /// `Ready`, [`PatchState::run`] emulates this candidate.
    pub(crate) fn patch(&mut self) -> PatchOutcome {
        let plan = self.plan.as_mut().expect("patch needs a prepared plan");
        for p in 0..self.cand.len() {
            if self.slots[p] != self.cand[p] {
                match plan.try_remap(ProcessId(p as u32), SegmentId(self.cand[p])) {
                    Ok(_) => {
                        self.slots[p] = self.cand[p];
                        self.patches += 1;
                    }
                    // Unroutable move: the plan keeps describing
                    // `self.slots`; the candidate can never win.
                    Err(_) => return PatchOutcome::Infeasible,
                }
            }
        }
        PatchOutcome::Ready
    }

    /// The prepared candidate's dense slot vector (memo key material).
    pub(crate) fn cand(&self) -> &[u16] {
        &self.cand
    }

    /// Content digest of the prepared candidate's model — equal to
    /// `Psm::digest()` of the rebuilt model, derived in O(processes)
    /// from the base prefix.
    pub(crate) fn psm_digest(&self) -> u64 {
        digest_with_slots(self.prefix, &self.cand)
    }

    /// Emulate the prepared candidate on the patched plan, reusing the
    /// report buffer. Bit-identical to running a freshly compiled plan
    /// of the rebuilt model.
    pub(crate) fn run(&mut self, engine: &mut Engine) -> u64 {
        let plan = self.plan.as_ref().expect("run needs a prepared plan");
        engine.run_plan_into(plan, 1, &mut self.report);
        self.report.makespan.0
    }

    /// The report of the last [`PatchState::run`] (for cache insertion).
    pub(crate) fn report(&self) -> &EmulationReport {
        &self.report
    }

    /// Take and reset the patch counter (for flushing into shared
    /// atomics).
    pub(crate) fn take_patches(&mut self) -> u64 {
        std::mem::take(&mut self.patches)
    }
}

/// Incremental hop-weighted traffic: the current slot vector, the
/// running cost, and a CSR flow adjacency so a candidate re-weighs only
/// the flows touching the processes that moved.
pub(crate) struct HopState {
    /// Slots of the last evaluated candidate; empty until the first
    /// evaluation (which does the one full sweep).
    slots: Vec<u16>,
    cost: u64,
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    flow_src: Vec<u32>,
    flow_dst: Vec<u32>,
    flow_w: Vec<u64>,
    cand: Vec<u16>,
    changed: Vec<u32>,
}

impl HopState {
    pub(crate) fn new(tool: &PlaceTool) -> HopState {
        let n = tool.app.process_count();
        let flows = tool.app.flows();
        let flow_src: Vec<u32> = flows.iter().map(|f| f.src.0).collect();
        let flow_dst: Vec<u32> = flows.iter().map(|f| f.dst.0).collect();
        let flow_w: Vec<u64> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| tool.flow_weight(i, f))
            .collect();
        // CSR adjacency; a flow is listed once per distinct endpoint.
        let mut adj_off = vec![0u32; n + 1];
        for i in 0..flows.len() {
            adj_off[flow_src[i] as usize + 1] += 1;
            if flow_dst[i] != flow_src[i] {
                adj_off[flow_dst[i] as usize + 1] += 1;
            }
        }
        for p in 0..n {
            adj_off[p + 1] += adj_off[p];
        }
        let mut adj = vec![0u32; adj_off[n] as usize];
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        for i in 0..flows.len() {
            adj[cursor[flow_src[i] as usize] as usize] = i as u32;
            cursor[flow_src[i] as usize] += 1;
            if flow_dst[i] != flow_src[i] {
                adj[cursor[flow_dst[i] as usize] as usize] = i as u32;
                cursor[flow_dst[i] as usize] += 1;
            }
        }
        HopState {
            slots: Vec::new(),
            cost: 0,
            adj_off,
            adj,
            flow_src,
            flow_dst,
            flow_w,
            cand: Vec::with_capacity(n),
            changed: Vec::new(),
        }
    }

    /// Hop cost of `alloc`, updated incrementally from the previously
    /// evaluated candidate. Equal to [`PlaceTool::cost`] for the hop
    /// objectives: the delta path subtracts and re-adds exactly the
    /// `weight × dist` terms of the touched flows, so the running sum is
    /// always the full sum.
    pub(crate) fn cost(&mut self, tool: &PlaceTool, alloc: &Allocation) -> u64 {
        let n = tool.app.process_count();
        self.cand.clear();
        for p in 0..n as u32 {
            self.cand.push(alloc.segment_of_checked(ProcessId(p)).0);
        }
        if self.slots.len() != n {
            // First candidate: one full sweep seeds the running sum.
            self.cost = (0..self.flow_w.len())
                .map(|f| {
                    self.flow_w[f]
                        * tool.dist(
                            SegmentId(self.cand[self.flow_src[f] as usize]),
                            SegmentId(self.cand[self.flow_dst[f] as usize]),
                        )
                })
                .sum();
            self.slots.clone_from(&self.cand);
            return self.cost;
        }
        self.changed.clear();
        for p in 0..n {
            if self.slots[p] != self.cand[p] {
                self.changed.push(p as u32);
            }
        }
        for i in 0..self.changed.len() {
            let p = self.changed[i] as usize;
            let (lo, hi) = (self.adj_off[p] as usize, self.adj_off[p + 1] as usize);
            for k in lo..hi {
                let f = self.adj[k] as usize;
                self.cost -= self.flow_w[f]
                    * tool.dist(
                        SegmentId(self.slots[self.flow_src[f] as usize]),
                        SegmentId(self.slots[self.flow_dst[f] as usize]),
                    );
            }
            self.slots[p] = self.cand[p];
            for k in lo..hi {
                let f = self.adj[k] as usize;
                self.cost += self.flow_w[f]
                    * tool.dist(
                        SegmentId(self.slots[self.flow_src[f] as usize]),
                        SegmentId(self.slots[self.flow_dst[f] as usize]),
                    );
            }
        }
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_apps::generators::{random_layered, GeneratorConfig};
    use segbus_core::Engine;
    use segbus_model::platform::{Platform, Topology};
    use segbus_model::rng::SmallRng;
    use segbus_model::time::ClockDomain;

    const SEGMENTS: usize = 3;

    fn app() -> segbus_model::psdf::Application {
        random_layered(3, 3, 7, GeneratorConfig::default())
    }

    fn alloc_of(slots: &[u16], segments: usize) -> Allocation {
        let mut alloc = Allocation::new(segments);
        for (p, &s) in slots.iter().enumerate() {
            alloc.assign(ProcessId(p as u32), SegmentId(s));
        }
        alloc
    }

    /// One random step of the solvers' neighbourhood: a swap of two
    /// processes, or a single move guarded to never empty a segment (so
    /// every visited candidate stays emulable).
    fn random_step(rng: &mut SmallRng, slots: &mut [u16], segments: usize) {
        if rng.gen_bool(0.5) {
            let a = rng.range_usize(0, slots.len() - 1);
            let b = rng.range_usize(0, slots.len() - 1);
            slots.swap(a, b);
        } else {
            let p = rng.range_usize(0, slots.len() - 1);
            let from = slots[p];
            if slots.iter().filter(|&&s| s == from).count() > 1 {
                slots[p] = rng.range_usize(0, segments - 1) as u16;
            }
        }
    }

    /// The incremental hop cost equals the full [`PlaceTool::cost`]
    /// sweep after arbitrary move/swap sequences, for every hop
    /// objective, both topologies, and capacitated variants.
    #[test]
    fn hop_delta_matches_full_cost_over_random_walks() {
        let app = app();
        let n = app.process_count();
        let variants = [
            (Objective::Items, Topology::Linear, None),
            (Objective::Items, Topology::Ring, Some(n)),
            (Objective::Packages(12), Topology::Linear, Some(n)),
            (Objective::Packages(12), Topology::Ring, None),
        ];
        for (objective, topology, capacity) in variants {
            let mut tool = PlaceTool::new(&app, SEGMENTS)
                .with_objective(objective)
                .with_topology(topology);
            if let Some(cap) = capacity {
                tool = tool.with_capacity(cap);
            }
            let mut hop = HopState::new(&tool);
            let mut rng = SmallRng::seed_from_u64(0xDE17A);
            let mut slots: Vec<u16> = (0..n).map(|p| (p % SEGMENTS) as u16).collect();
            for step in 0..300 {
                random_step(&mut rng, &mut slots, SEGMENTS);
                let alloc = alloc_of(&slots, SEGMENTS);
                assert_eq!(
                    hop.cost(&tool, &alloc),
                    tool.cost(&alloc),
                    "step {step}: {objective:?}/{topology:?} delta diverged"
                );
            }
        }
    }

    /// Plan patching is exact: after an arbitrary move/swap walk, the
    /// patched plan's report is bit-identical (every counter, not just
    /// the makespan) to emulating a freshly built model of the same
    /// candidate.
    #[test]
    fn patched_plan_reports_match_fresh_models_bitwise() {
        let app = app();
        let n = app.process_count();
        let platform = Platform::builder("delta-test")
            .uniform_segments(SEGMENTS, ClockDomain::from_mhz(100.0))
            .build()
            .expect("valid platform");
        let tool = PlaceTool::new(&app, SEGMENTS).with_makespan(&platform);
        let base = EvalBase::new(&tool);
        let mut patch = PatchState::new(&tool, &base);
        let mut engine = Engine::new(EmulatorConfig::default());
        let mut rng = SmallRng::seed_from_u64(0xB17);
        let mut slots: Vec<u16> = (0..n).map(|p| (p % SEGMENTS) as u16).collect();
        for step in 0..40 {
            random_step(&mut rng, &mut slots, SEGMENTS);
            let alloc = alloc_of(&slots, SEGMENTS);
            assert_eq!(patch.prepare(&tool, &alloc), PatchOutcome::Ready);
            assert_eq!(patch.patch(), PatchOutcome::Ready);
            let patched = patch.run(&mut engine);
            let fresh_psm =
                Psm::new(platform.clone(), app.clone(), alloc).expect("walk stays feasible");
            let fresh = Engine::default().try_run(&fresh_psm).unwrap();
            assert_eq!(patched, fresh.makespan.0, "step {step}");
            assert_eq!(
                format!("{:?}", patch.report()),
                format!("{fresh:?}"),
                "step {step}: patched report diverged from the fresh model"
            );
        }
    }
}
