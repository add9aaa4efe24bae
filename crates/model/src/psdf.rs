//! Packet Synchronous Data Flow (PSDF) application models.
//!
//! A PSDF (paper §3.1) consists of *processes* and *packet flows*. A flow is
//! the tuple `(Pt, D, T, C)`:
//!
//! * `Pt` — the target process of the flow's transactions;
//! * `D`  — the number of data items emitted by the source towards `Pt`
//!   (transformed into `ceil(D/s)` packages for platform package size `s`);
//! * `T`  — a relative ordering number among the flows of the system; flows
//!   that share an ordering number may coexist during execution;
//! * `C`  — the number of clock ticks the source process consumes before
//!   sending one package.
//!
//! The paper re-uses one PSDF with two package sizes (36 and 18 items) and
//! observes only a modest slowdown at the smaller size, so `C` cannot be a
//! size-independent per-package constant. [`CostModel`] makes the
//! interpretation explicit: [`CostModel::PerItem`] (the default used for the
//! paper experiments) treats `C` as the cost of one package *at the PSDF's
//! reference package size* and scales it proportionally when the platform
//! repackages the stream; [`CostModel::PerPackage`] uses `C` verbatim.

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroU32;

use crate::error::ModelError;
use crate::ids::{FlowId, ProcessId};
use crate::stochastic::FlowNoise;

/// Role of a process inside the dataflow graph.
///
/// The paper's DSL extension introduces the stereotypes *InitialNode*,
/// *ProcessNode* and *FinalNode* (§2.2); these map to the three variants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessKind {
    /// A source of the application; starts executing immediately.
    Initial,
    /// An interior process: consumes input packages, produces output ones.
    Internal,
    /// A sink (system output); only consumes.
    Final,
}

impl fmt::Display for ProcessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProcessKind::Initial => "initial",
            ProcessKind::Internal => "process",
            ProcessKind::Final => "final",
        })
    }
}

/// An application process (a functional unit's workload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Process {
    /// Human-readable name (`"P0"`, `"P1"`, … in the paper).
    pub name: String,
    /// Dataflow role.
    pub kind: ProcessKind,
}

impl Process {
    /// An interior process.
    pub fn new(name: impl Into<String>) -> Process {
        Process {
            name: name.into(),
            kind: ProcessKind::Internal,
        }
    }

    /// An initial (source) process.
    pub fn initial(name: impl Into<String>) -> Process {
        Process {
            name: name.into(),
            kind: ProcessKind::Initial,
        }
    }

    /// A final (sink) process. Named `final_` because `final` is reserved.
    pub fn final_(name: impl Into<String>) -> Process {
        Process {
            name: name.into(),
            kind: ProcessKind::Final,
        }
    }
}

/// A packet flow `(Pt, D, T, C)` with its source process made explicit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Flow {
    /// Source process emitting the data.
    pub src: ProcessId,
    /// Target process (`Pt`).
    pub dst: ProcessId,
    /// Number of data items (`D`).
    pub items: u64,
    /// Relative ordering number (`T`); flows sharing a value may coexist.
    pub order: u32,
    /// Clock ticks consumed by the source per package (`C`), interpreted
    /// through the application's [`CostModel`].
    pub ticks: u64,
}

impl Flow {
    /// Create a flow. Use [`Application::add_flow`] to attach it.
    pub fn new(src: ProcessId, dst: ProcessId, items: u64, order: u32, ticks: u64) -> Flow {
        Flow {
            src,
            dst,
            items,
            order,
            ticks,
        }
    }

    /// Number of packages this flow produces at platform package size `s`.
    #[inline]
    pub fn packages(&self, package_size: u32) -> u64 {
        debug_assert!(package_size > 0);
        self.items.div_ceil(package_size as u64)
    }

    /// The flow's sampleable values `(D, C)`.
    #[inline]
    pub fn values(&self) -> FlowValues {
        FlowValues {
            items: self.items,
            ticks: self.ticks,
        }
    }
}

/// The two values of a flow a stochastic sample can change: the data
/// volume `D` and the per-package cost `C`. Endpoints and ordering are
/// structure and stay with the [`Flow`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowValues {
    /// Number of data items (`D`).
    pub items: u64,
    /// Clock ticks per package (`C`), before the cost model is applied.
    pub ticks: u64,
}

/// Interpretation of a flow's `C` value under repackaging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostModel {
    /// `C` is the per-package cost at `reference_package_size`; the cost per
    /// package at platform size `s` is `round(C · s / reference)`. Total
    /// compute time is (approximately) invariant under repackaging, which is
    /// the behaviour the paper's 18-vs-36 experiment exhibits.
    PerItem {
        /// Package size at which the PSDF's `C` values were specified.
        /// Non-zero by construction — the value is a divisor.
        reference_package_size: NonZeroU32,
    },
    /// `C` is a fixed per-package cost regardless of package size.
    PerPackage,
    /// Affine model: one package costs a fixed `base_ticks` (packetisation,
    /// per-package software overhead) plus a data-proportional part; the
    /// PSDF's `C` is the total at `reference_package_size`, so at platform
    /// size `s` a package costs `base + round((C − base) · s / reference)`.
    ///
    /// This is the model that reproduces the paper's observed ~14 %
    /// slowdown when halving the package size (see EXPERIMENTS.md): pure
    /// per-item costs are invariant under repackaging, pure per-package
    /// costs double — the measured behaviour sits in between.
    Affine {
        /// Fixed ticks per package, independent of its size.
        base_ticks: u64,
        /// Package size at which the PSDF's `C` values were specified.
        /// Non-zero by construction — the value is a divisor.
        reference_package_size: NonZeroU32,
    },
}

impl CostModel {
    /// The paper's reference package size (36 items), as the non-zero
    /// type the cost models carry.
    pub const REFERENCE_36: NonZeroU32 = match NonZeroU32::new(36) {
        Some(n) => n,
        None => unreachable!(),
    };

    /// A [`CostModel::PerItem`] at `reference`, or `None` when the
    /// reference is zero (it is a divisor).
    pub fn per_item(reference: u32) -> Option<CostModel> {
        Some(CostModel::PerItem {
            reference_package_size: NonZeroU32::new(reference)?,
        })
    }

    /// A [`CostModel::Affine`] at `reference`, or `None` when the
    /// reference is zero (it is a divisor).
    pub fn affine(base_ticks: u64, reference: u32) -> Option<CostModel> {
        Some(CostModel::Affine {
            base_ticks,
            reference_package_size: NonZeroU32::new(reference)?,
        })
    }

    /// Processing ticks the producer spends on one package of size
    /// `package_size`, for a flow annotated with `c` ticks.
    ///
    /// Total-function by construction: the reference package size is a
    /// [`NonZeroU32`], so the division cannot trap on any value of the
    /// type (ROADMAP item C007).
    #[inline]
    pub fn ticks_per_package(&self, c: u64, package_size: u32) -> u64 {
        match *self {
            CostModel::PerItem {
                reference_package_size,
            } => {
                let r = reference_package_size.get() as u64;
                // round(c * s / r) in integer arithmetic
                (c * package_size as u64 + r / 2) / r
            }
            CostModel::PerPackage => c,
            CostModel::Affine {
                base_ticks,
                reference_package_size,
            } => {
                let r = reference_package_size.get() as u64;
                let variable = c.saturating_sub(base_ticks);
                base_ticks + (variable * package_size as u64 + r / 2) / r
            }
        }
    }

    /// [`CostModel::ticks_per_package`] in checked arithmetic: `None`
    /// exactly where the unchecked form overflows `u64` (a hostile `c`),
    /// which would panic in debug builds and wrap in release.
    #[inline]
    pub fn checked_ticks_per_package(&self, c: u64, package_size: u32) -> Option<u64> {
        let scale = |v: u64, r: NonZeroU32| {
            let r = r.get() as u64;
            Some(v.checked_mul(package_size as u64)?.checked_add(r / 2)? / r)
        };
        match *self {
            CostModel::PerItem {
                reference_package_size,
            } => scale(c, reference_package_size),
            CostModel::PerPackage => Some(c),
            CostModel::Affine {
                base_ticks,
                reference_package_size,
            } => {
                base_ticks.checked_add(scale(c.saturating_sub(base_ticks), reference_package_size)?)
            }
        }
    }
}

impl Default for CostModel {
    /// The paper's MP3 PSDF uses 36-item packages as its reference.
    fn default() -> Self {
        CostModel::PerItem {
            reference_package_size: CostModel::REFERENCE_36,
        }
    }
}

/// A group of flows sharing one ordering number `T`.
///
/// Under the wave semantics (DESIGN.md §4) the flows of wave `k` become
/// eligible once every flow of wave `k-1` has fully delivered.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Wave {
    /// The shared ordering value.
    pub order: u32,
    /// Flows in this wave, in insertion order.
    pub flows: Vec<FlowId>,
}

/// Per-process tables over an application's flows, built in one pass
/// ([`Application::flow_tables`]) so whole-graph checks stay linear.
pub(crate) struct FlowTables {
    /// Number of flows into each process.
    pub(crate) inputs: Vec<u32>,
    /// Number of flows out of each process.
    pub(crate) outputs: Vec<u32>,
    /// The largest order among the flows into each process; `None` for a
    /// process without inputs.
    pub(crate) max_input_order: Vec<Option<u32>>,
}

impl FlowTables {
    /// `true` if `f`'s order exceeds the order of every flow feeding its
    /// source (always true for a source without inputs).
    pub(crate) fn respects_dependencies(&self, f: &Flow) -> bool {
        self.max_input_order[f.src.index()].is_none_or(|m| m < f.order)
    }
}

/// A complete PSDF application: processes plus packet flows.
#[derive(Clone, PartialEq, Debug)]
pub struct Application {
    name: String,
    processes: Vec<Process>,
    flows: Vec<Flow>,
    cost_model: CostModel,
    /// Stochastic annotations, keyed by flow (see [`crate::stochastic`]).
    /// A sidecar so [`Flow`] stays `Copy` and the base model stays a
    /// plain deterministic PSM; excluded from [`crate::digest`].
    noise: BTreeMap<FlowId, FlowNoise>,
}

impl Application {
    /// Create an empty application with the default [`CostModel`].
    pub fn new(name: impl Into<String>) -> Application {
        Application {
            name: name.into(),
            processes: Vec::new(),
            flows: Vec::new(),
            cost_model: CostModel::default(),
            noise: BTreeMap::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// Replace the cost model (builder-style).
    pub fn with_cost_model(mut self, cm: CostModel) -> Application {
        self.cost_model = cm;
        self
    }

    /// Set the cost model in place.
    pub fn set_cost_model(&mut self, cm: CostModel) {
        self.cost_model = cm;
    }

    /// Add a process, returning its id.
    pub fn add_process(&mut self, p: Process) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(p);
        id
    }

    /// Add a flow after checking that it is representable.
    pub fn add_flow(&mut self, f: Flow) -> Result<FlowId, ModelError> {
        if f.src.index() >= self.processes.len() {
            return Err(ModelError::UnknownProcess(f.src));
        }
        if f.dst.index() >= self.processes.len() {
            return Err(ModelError::UnknownProcess(f.dst));
        }
        if f.src == f.dst {
            return Err(ModelError::SelfFlow(f.src));
        }
        if f.items == 0 {
            return Err(ModelError::EmptyFlow {
                src: f.src,
                dst: f.dst,
            });
        }
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(f);
        Ok(id)
    }

    /// All processes, indexable by [`ProcessId`].
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// All flows, indexable by [`FlowId`].
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Look up a process by id.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// Look up a flow by id.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.index()]
    }

    /// Find a process id by name.
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.processes
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProcessId(i as u32))
    }

    /// Ids of the flows whose source is `p`, in flow order.
    pub fn outputs_of(&self, p: ProcessId) -> impl Iterator<Item = FlowId> + '_ {
        self.flows
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.src == p)
            .map(|(i, _)| FlowId(i as u32))
    }

    /// Ids of the flows whose destination is `p`, in flow order.
    pub fn inputs_of(&self, p: ProcessId) -> impl Iterator<Item = FlowId> + '_ {
        self.flows
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.dst == p)
            .map(|(i, _)| FlowId(i as u32))
    }

    /// Processes with no incoming flows (the graph's sources).
    pub fn sources(&self) -> Vec<ProcessId> {
        let t = self.flow_tables();
        (0..self.processes.len() as u32)
            .map(ProcessId)
            .filter(|p| t.inputs[p.index()] == 0)
            .collect()
    }

    /// Processes with no outgoing flows (the graph's sinks).
    pub fn sinks(&self) -> Vec<ProcessId> {
        let t = self.flow_tables();
        (0..self.processes.len() as u32)
            .map(ProcessId)
            .filter(|p| t.outputs[p.index()] == 0)
            .collect()
    }

    /// The per-process flow tables, in one pass over the flows.
    pub(crate) fn flow_tables(&self) -> FlowTables {
        let n = self.processes.len();
        let mut t = FlowTables {
            inputs: vec![0; n],
            outputs: vec![0; n],
            max_input_order: vec![None; n],
        };
        for f in &self.flows {
            t.outputs[f.src.index()] += 1;
            let d = f.dst.index();
            t.inputs[d] += 1;
            t.max_input_order[d] = t.max_input_order[d].max(Some(f.order));
        }
        t
    }

    /// Total number of data items carried by all flows.
    pub fn total_items(&self) -> u64 {
        self.flows.iter().map(|f| f.items).sum()
    }

    /// Total number of packages at package size `s`.
    pub fn total_packages(&self, package_size: u32) -> u64 {
        self.flows.iter().map(|f| f.packages(package_size)).sum()
    }

    /// Group flows by ordering number, ascending (the execution *waves*).
    pub fn waves(&self) -> Vec<Wave> {
        let mut by_order: BTreeMap<u32, Vec<FlowId>> = BTreeMap::new();
        for (i, f) in self.flows.iter().enumerate() {
            by_order.entry(f.order).or_default().push(FlowId(i as u32));
        }
        by_order
            .into_iter()
            .map(|(order, flows)| Wave { order, flows })
            .collect()
    }

    /// `true` if every flow's ordering number is strictly greater than the
    /// ordering number of every flow delivering input to its source —
    /// i.e. the wave schedule respects data dependencies. Initial processes
    /// (no inputs) are unconstrained.
    pub fn orders_respect_dependencies(&self) -> bool {
        let t = self.flow_tables();
        self.flows.iter().all(|f| t.respects_dependencies(f))
    }

    /// Assign ordering numbers by topological wave: sources' flows get
    /// order 1, flows from processes whose inputs all arrive in waves `< k`
    /// get order `k`. Returns an error if the graph has a cycle.
    ///
    /// Useful for generated applications; the MP3 model carries the paper's
    /// explicit ordering.
    pub fn assign_orders_topologically(&mut self) -> Result<(), ModelError> {
        let level = self
            .topological_levels()
            .map_err(ModelError::UnknownProcess)?;
        for f in &mut self.flows {
            f.order = level[f.src.index()];
        }
        Ok(())
    }

    /// The topological wave of every process (1-based): sources are at
    /// level 1 and every other process one past its deepest input. One
    /// Kahn pass over a CSR adjacency of the flows. On a cycle, returns
    /// the first process (by id) that the pass could not reach.
    pub(crate) fn topological_levels(&self) -> Result<Vec<u32>, ProcessId> {
        let n = self.processes.len();
        // CSR adjacency: the targets of `p`'s flows, in flow order, are
        // `targets[start[p]..start[p + 1]]`.
        let mut start = vec![0usize; n + 1];
        let mut indeg = vec![0u32; n];
        for f in &self.flows {
            start[f.src.index() + 1] += 1;
            indeg[f.dst.index()] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        let mut next = start.clone();
        let mut targets = vec![0usize; self.flows.len()];
        for f in &self.flows {
            let s = f.src.index();
            targets[next[s]] = f.dst.index();
            next[s] += 1;
        }
        let mut level = vec![0u32; n];
        let mut queue: Vec<usize> = (0..n).filter(|&p| indeg[p] == 0).collect();
        for &p in &queue {
            level[p] = 1;
        }
        let mut qi = 0;
        while qi < queue.len() {
            let p = queue[qi];
            qi += 1;
            let below = level[p] + 1;
            for &d in &targets[start[p]..start[p + 1]] {
                level[d] = level[d].max(below);
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        match indeg.iter().position(|&d| d > 0) {
            Some(p) => Err(ProcessId(p as u32)),
            None => Ok(level),
        }
    }

    /// Largest ordering number used, or 0 for an empty application.
    pub fn max_order(&self) -> u32 {
        self.flows.iter().map(|f| f.order).max().unwrap_or(0)
    }

    /// Processing ticks the producer of `flow` spends per package at
    /// platform package size `s` (applies the cost model).
    #[inline]
    pub fn ticks_per_package(&self, flow: FlowId, package_size: u32) -> u64 {
        self.cost_model
            .ticks_per_package(self.flow(flow).ticks, package_size)
    }

    /// Attach stochastic annotations to a flow (replacing any present).
    /// An empty [`FlowNoise`] removes the entry. Rejects unknown flows and
    /// invalid distribution parameters ([`ModelError::InvalidNoise`]).
    pub fn set_flow_noise(&mut self, flow: FlowId, noise: FlowNoise) -> Result<(), ModelError> {
        if flow.index() >= self.flows.len() {
            return Err(ModelError::InvalidNoise {
                flow,
                reason: "no such flow".into(),
            });
        }
        noise
            .validate()
            .map_err(|reason| ModelError::InvalidNoise { flow, reason })?;
        if noise.is_empty() {
            self.noise.remove(&flow);
        } else {
            self.noise.insert(flow, noise);
        }
        Ok(())
    }

    /// The stochastic annotations of a flow, if any.
    pub fn flow_noise(&self, flow: FlowId) -> Option<&FlowNoise> {
        self.noise.get(&flow)
    }

    /// All stochastic annotations, in flow order.
    pub fn noise(&self) -> impl Iterator<Item = (FlowId, &FlowNoise)> + '_ {
        self.noise.iter().map(|(k, v)| (*k, v))
    }

    /// `true` when any flow carries a distribution.
    pub fn is_stochastic(&self) -> bool {
        !self.noise.is_empty()
    }

    /// Drop every stochastic annotation.
    pub fn clear_noise(&mut self) {
        self.noise.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> (Application, ProcessId, ProcessId, ProcessId) {
        let mut app = Application::new("chain");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 72, 1, 100)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 2, 50)).unwrap();
        (app, a, b, c)
    }

    #[test]
    fn packages_round_up() {
        let f = Flow::new(ProcessId(0), ProcessId(1), 576, 1, 250);
        assert_eq!(f.packages(36), 16);
        assert_eq!(f.packages(18), 32);
        assert_eq!(f.packages(100), 6); // 576/100 -> 6 packages
        assert_eq!(
            Flow::new(ProcessId(0), ProcessId(1), 1, 1, 1).packages(36),
            1
        );
    }

    #[test]
    fn add_flow_validates() {
        let mut app = Application::new("t");
        let a = app.add_process(Process::new("A"));
        let b = app.add_process(Process::new("B"));
        assert!(app.add_flow(Flow::new(a, b, 10, 1, 1)).is_ok());
        assert_eq!(
            app.add_flow(Flow::new(a, a, 10, 1, 1)),
            Err(ModelError::SelfFlow(a))
        );
        assert_eq!(
            app.add_flow(Flow::new(a, b, 0, 1, 1)),
            Err(ModelError::EmptyFlow { src: a, dst: b })
        );
        assert_eq!(
            app.add_flow(Flow::new(a, ProcessId(9), 1, 1, 1)),
            Err(ModelError::UnknownProcess(ProcessId(9)))
        );
    }

    #[test]
    fn sources_sinks_and_lookup() {
        let (app, a, b, c) = chain3();
        assert_eq!(app.sources(), vec![a]);
        assert_eq!(app.sinks(), vec![c]);
        assert_eq!(app.process_by_name("B"), Some(b));
        assert_eq!(app.process_by_name("Z"), None);
        assert_eq!(app.inputs_of(b).count(), 1);
        assert_eq!(app.outputs_of(b).count(), 1);
        assert_eq!(app.total_items(), 108);
        assert_eq!(app.total_packages(36), 3);
    }

    #[test]
    fn waves_group_by_order_ascending() {
        let mut app = Application::new("w");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::new("C"));
        let d = app.add_process(Process::final_("D"));
        app.add_flow(Flow::new(a, b, 36, 1, 1)).unwrap();
        app.add_flow(Flow::new(a, c, 36, 1, 1)).unwrap();
        app.add_flow(Flow::new(b, d, 36, 2, 1)).unwrap();
        app.add_flow(Flow::new(c, d, 36, 2, 1)).unwrap();
        let waves = app.waves();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].order, 1);
        assert_eq!(waves[0].flows.len(), 2);
        assert_eq!(waves[1].order, 2);
        assert!(app.orders_respect_dependencies());
        assert_eq!(app.max_order(), 2);
    }

    #[test]
    fn bad_ordering_detected() {
        let mut app = Application::new("w");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 36, 2, 1)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 1, 1)).unwrap(); // before its input
        assert!(!app.orders_respect_dependencies());
    }

    #[test]
    fn topological_order_assignment() {
        let mut app = Application::new("w");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::new("C"));
        let d = app.add_process(Process::final_("D"));
        app.add_flow(Flow::new(a, b, 36, 0, 1)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 0, 1)).unwrap();
        app.add_flow(Flow::new(a, c, 36, 0, 1)).unwrap();
        app.add_flow(Flow::new(c, d, 36, 0, 1)).unwrap();
        app.assign_orders_topologically().unwrap();
        assert!(app.orders_respect_dependencies());
        assert_eq!(app.flow(FlowId(0)).order, 1); // A->B
        assert_eq!(app.flow(FlowId(1)).order, 2); // B->C
        assert_eq!(app.flow(FlowId(2)).order, 1); // A->C
        assert_eq!(app.flow(FlowId(3)).order, 3); // C->D
    }

    #[test]
    fn topological_assignment_rejects_cycles() {
        let mut app = Application::new("cyc");
        let a = app.add_process(Process::new("A"));
        let b = app.add_process(Process::new("B"));
        app.add_flow(Flow::new(a, b, 1, 1, 1)).unwrap();
        app.add_flow(Flow::new(b, a, 1, 2, 1)).unwrap();
        assert!(app.assign_orders_topologically().is_err());
    }

    #[test]
    fn cost_model_per_item_scales() {
        let cm = CostModel::per_item(36).unwrap();
        assert_eq!(cm.ticks_per_package(250, 36), 250);
        assert_eq!(cm.ticks_per_package(250, 18), 125);
        assert_eq!(cm.ticks_per_package(250, 72), 500);
        // rounding: 250 * 24 / 36 = 166.67 -> 167
        assert_eq!(cm.ticks_per_package(250, 24), 167);
        let pp = CostModel::PerPackage;
        assert_eq!(pp.ticks_per_package(250, 18), 250);
    }

    #[test]
    fn cost_model_affine_interpolates() {
        let cm = CostModel::affine(40, 36).unwrap();
        // At the reference size the annotated cost is returned verbatim.
        assert_eq!(cm.ticks_per_package(250, 36), 250);
        // Halving the size halves only the variable part: 40 + 105 = 145.
        assert_eq!(cm.ticks_per_package(250, 18), 145);
        // Doubling: 40 + 420 = 460.
        assert_eq!(cm.ticks_per_package(250, 72), 460);
        // Cost below the base degrades gracefully to the base.
        assert_eq!(cm.ticks_per_package(10, 18), 40);
    }

    #[test]
    fn default_cost_model_is_per_item_at_36() {
        assert_eq!(CostModel::default(), CostModel::per_item(36).unwrap());
        // Zero references are unrepresentable (C007 moved into the type).
        assert_eq!(CostModel::per_item(0), None);
        assert_eq!(CostModel::affine(5, 0), None);
    }
}
