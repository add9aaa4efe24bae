//! The discrete-event estimation engine.
//!
//! One [`Emulator::run`] call executes a validated PSM to completion under
//! the wave semantics of DESIGN.md §4:
//!
//! * flows are grouped by ordering number `T`; wave `k` starts when wave
//!   `k-1` has fully delivered;
//! * a producer computes one package (`C` ticks of its segment clock,
//!   scaled by the cost model), requests the bus, and resumes with the next
//!   package once its local transfer phase completes;
//! * intra-segment transfers occupy the segment bus for
//!   [`crate::TimingParams::bus_transaction_ticks`] ticks;
//! * inter-segment transfers are circuit-switched: the CA reserves every
//!   segment on the path (linear, or the shorter way around a ring), the
//!   package hops BU to BU, and segments are released in a cascade as the
//!   package advances (paper Fig. 2);
//! * the run ends when every process has raised its status flag and no
//!   platform element has pending work — the monitor condition of §3.3.
//!
//! The engine is fully deterministic: events are ordered by (time,
//! insertion sequence), all queues are FIFO, and producers round-robin
//! over same-wave flows.
//!
//! Execution is split into an immutable [`EnginePlan`] — every table that
//! depends only on the PSM (flow endpoints, package counts, clock domains,
//! waves, precomputed inter-segment paths with their border units) — and a
//! mutable scratch state owned by [`Engine`], which is reset and reused
//! across runs so that parameter sweeps and placement searches do not pay
//! an allocation storm per emulation. The event loop itself lives in
//! [`crate::fast`]; [`Emulator`] remains the one-shot facade over the same
//! machinery.

use segbus_model::diag::SegbusError;
use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::psdf::FlowValues;
use segbus_model::time::{ClockDomain, Picos};

use crate::config::{EmulatorConfig, ProducerRelease};
use crate::precheck::compute_ticks;
use crate::report::EmulationReport;
use crate::trace::TraceLog;

/// The performance-estimation emulator.
///
/// Construct once with a configuration, then [`Emulator::run`] any number
/// of PSMs (runs are independent). Each call builds a fresh [`Engine`];
/// hold an `Engine` directly to reuse its scratch buffers across runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Emulator {
    config: EmulatorConfig,
}

impl Emulator {
    /// Create an emulator with the given configuration.
    pub fn new(config: EmulatorConfig) -> Emulator {
        Emulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EmulatorConfig {
        &self.config
    }

    /// Execute the PSM to completion and return the report.
    pub fn run(&self, psm: &Psm) -> EmulationReport {
        Engine::new(self.config).run(psm)
    }

    /// Execute `frames` back-to-back iterations of the application — the
    /// streaming case the single-shot paper experiment abstracts away.
    ///
    /// Successive frames *pipeline* through the wave schedule: frame
    /// `k`'s wave `w` becomes eligible as soon as frame `k`'s wave `w−1`
    /// has delivered, independent of frame `k−1`'s later waves; each
    /// functional unit still produces its own packages strictly in frame
    /// order. `run_frames(psm, 1)` is identical to [`Emulator::run`].
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_frames(&self, psm: &Psm, frames: u64) -> EmulationReport {
        Engine::new(self.config).run_frames(psm, frames)
    }

    /// Like [`Emulator::run`], but validate the PSM against the engine
    /// invariants first ([`crate::precheck::strict_validate`]) and report
    /// violations as typed errors instead of panicking. This is the entry
    /// point for untrusted input (imports, fuzzing, user files).
    pub fn try_run(&self, psm: &Psm) -> Result<EmulationReport, SegbusError> {
        self.try_run_frames(psm, 1)
    }

    /// Like [`Emulator::run_frames`], but panic-free; see
    /// [`Emulator::try_run`].
    pub fn try_run_frames(&self, psm: &Psm, frames: u64) -> Result<EmulationReport, SegbusError> {
        Engine::new(self.config).try_run_frames(psm, frames)
    }
}

// ---------------------------------------------------------------------------
// compiled plan

/// Sentinel in `flow_path` for intra-segment flows (no CA involvement).
pub(crate) const NO_PATH: u32 = u32::MAX;

/// Compile (or fetch from the `path_of` memo) the route from segment `a`
/// to segment `b`: the segment chain plus per-hop border-unit index and
/// crossing direction. Returns [`NO_PATH`] for `a == b`. Shared by plan
/// compilation and [`EnginePlan::try_remap`], which extends the same
/// route table incrementally as moves expose new segment pairs.
fn compile_route(
    platform: &segbus_model::platform::Platform,
    nseg: usize,
    paths: &mut Vec<PathInfo>,
    path_of: &mut [u32],
    a: SegmentId,
    b: SegmentId,
) -> Result<u32, SegbusError> {
    if a == b {
        return Ok(NO_PATH);
    }
    let key = a.index() * nseg + b.index();
    if path_of[key] == NO_PATH {
        let segs = platform.path_segments(a, b);
        if segs.len() < 2 || segs.first() != Some(&a) || segs.last() != Some(&b) {
            return Err(SegbusError::new(
                "C005",
                format!("no route from segment {a} to segment {b}"),
            ));
        }
        let mut bu = Vec::with_capacity(segs.len() - 1);
        let mut load_left = Vec::with_capacity(segs.len() - 1);
        let mut unload_right = Vec::with_capacity(segs.len() - 1);
        for w in segs.windows(2) {
            let r = platform.bu_between(w[0], w[1]).ok_or_else(|| {
                SegbusError::new(
                    "C005",
                    format!(
                        "no border unit between adjacent segments {} and {}",
                        w[0], w[1]
                    ),
                )
            })?;
            bu.push(r.index() as u32);
            load_left.push(w[0] == r.left);
            unload_right.push(w[1] == r.right);
        }
        path_of[key] = paths.len() as u32;
        paths.push(PathInfo {
            segs,
            bu,
            load_left,
            unload_right,
        });
    }
    Ok(path_of[key])
}

/// An inter-segment route with its per-hop border units, compiled once.
#[derive(Clone, Debug)]
pub(crate) struct PathInfo {
    /// Segments on the path, source first, destination last.
    pub(crate) segs: Vec<SegmentId>,
    /// `bu[h]` is the dense index of the BU between `segs[h]` and
    /// `segs[h+1]`.
    pub(crate) bu: Vec<u32>,
    /// `segs[h]` is the *left* side of `bu[h]` (load direction).
    pub(crate) load_left: Vec<bool>,
    /// `segs[h+1]` is the *right* side of `bu[h]` (unload direction).
    pub(crate) unload_right: Vec<bool>,
}

/// Division by a run-invariant divisor, strength-reduced to a 128-bit
/// multiply and compiled into the plan once. `floor(x / d)` becomes
/// `(x * ceil(2^70 / d)) >> 70`, which is exact whenever `x` is below
/// [`FastDiv::max_exact`]; larger operands fall back to the hardware
/// divider, so every result equals plain `x / d` everywhere.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastDiv {
    pub(crate) d: u64,
    /// `ceil(2^70 / d)`.
    inv: u128,
    /// Strict upper bound on `x` for the multiply to be exact:
    /// `min(2^70 / d, 2^57)`. The first term bounds the rounding error
    /// (see [`FastDiv::floor_div`]); the second keeps `x * inv` inside
    /// `u128` even for `d = 1`.
    max_exact: u64,
}

impl FastDiv {
    pub(crate) fn new(d: u64) -> FastDiv {
        assert!(d > 0, "divisor must be non-zero");
        let d128 = d as u128;
        FastDiv {
            d,
            inv: (1u128 << 70).div_ceil(d128),
            max_exact: ((1u128 << 70) / d128).min(1 << 57) as u64,
        }
    }

    /// `floor(x / d)`. Writing `inv = (2^70 + e) / d` with `0 <= e < d`,
    /// the multiply computes `floor(x/d + x*e/(d*2^70))`; for
    /// `x < 2^70 / d` the error term is below `1/d`, smaller than the
    /// distance from `x/d` to the next integer, so the floor is exact.
    #[inline]
    pub(crate) fn floor_div(&self, x: u64) -> u64 {
        if x < self.max_exact {
            ((x as u128 * self.inv) >> 70) as u64
        } else {
            x / self.d
        }
    }
}

/// Clock-edge arithmetic over a [`FastDiv`] of the clock period — the hot
/// loop's mirror of [`ClockDomain`], bit-identical everywhere.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastClock {
    pub(crate) period: FastDiv,
}

impl FastClock {
    pub(crate) fn new(c: ClockDomain) -> FastClock {
        FastClock {
            period: FastDiv::new(c.period_ps()),
        }
    }

    /// See [`ClockDomain::next_edge`].
    #[inline]
    pub(crate) fn next_edge(&self, t: Picos) -> Picos {
        Picos(self.period.floor_div(t.0 + self.period.d - 1) * self.period.d)
    }

    /// See [`ClockDomain::ticks_at`].
    #[inline]
    pub(crate) fn ticks_at(&self, t: Picos) -> u64 {
        self.period.floor_div(t.0)
    }
}

/// Everything about a PSM the engine needs, flattened into index-addressed
/// tables. Building the plan is the only part of a run that touches the
/// model crate's object graph; the event loop reads these arrays only.
///
/// A plan can be patched instead of recompiled: [`EnginePlan::try_remap`]
/// moves a process (placement search), [`EnginePlan::try_set_flow_values`]
/// replaces every flow's items and ticks (Monte-Carlo samples).
#[derive(Clone, Debug)]
pub struct EnginePlan<'a> {
    pub(crate) psm: &'a Psm,
    pub(crate) s: u32,
    pub(crate) nseg: usize,
    pub(crate) nproc: usize,
    pub(crate) n_bu: usize,
    pub(crate) flow_src: Vec<ProcessId>,
    pub(crate) flow_dst: Vec<ProcessId>,
    pub(crate) flow_pkgs: Vec<u64>,
    pub(crate) flow_compute: Vec<u64>,
    /// Wave index of each flow (parallel to the flow table).
    pub(crate) flow_wave: Vec<usize>,
    /// Index into `paths`, or [`NO_PATH`] for intra-segment flows.
    pub(crate) flow_path: Vec<u32>,
    pub(crate) proc_seg: Vec<SegmentId>,
    pub(crate) seg_clock: Vec<ClockDomain>,
    pub(crate) ca_clock: ClockDomain,
    /// Strength-reduced mirrors of `seg_clock` / `ca_clock` for the event
    /// loop (report assembly keeps the plain domains).
    pub(crate) fast_seg: Vec<FastClock>,
    pub(crate) fast_ca: FastClock,
    pub(crate) waves: Vec<Vec<FlowId>>,
    pub(crate) paths: Vec<PathInfo>,
    /// Route memo behind `paths`: `path_of[a·nseg + b]` is the compiled
    /// path index from segment `a` to `b`, or [`NO_PATH`] while that pair
    /// has not been routed. Kept in the plan so [`EnginePlan::try_remap`]
    /// extends the route table instead of recompiling it.
    path_of: Vec<u32>,
    /// CSR adjacency over flows: the flow indices touching process `p`
    /// (as source or destination) are
    /// `proc_flow[proc_flow_off[p]..proc_flow_off[p+1]]`. Lets a remap
    /// rebuild only the O(degree) mapping-dependent `flow_path` entries.
    proc_flow_off: Vec<u32>,
    proc_flow: Vec<u32>,
}

/// Reusable accumulation buffers for
/// [`EnginePlan::makespan_lower_bound_in`]. A default-constructed value
/// works for any plan; buffers grow to the plan's process and segment
/// counts on first use and are retained across calls.
#[derive(Default)]
pub struct LowerBoundScratch {
    proc_ps: Vec<u128>,
    seg_ps: Vec<u128>,
}

/// The revertable record of one [`EnginePlan::try_remap`]: which process
/// moved, where it came from, and every `flow_path` entry the move
/// rewrote. [`EnginePlan::revert`] undoes exactly this delta.
#[derive(Clone, Debug)]
pub struct PlanDelta {
    process: ProcessId,
    from: SegmentId,
    /// `(flow index, previous flow_path entry)` for each touched flow.
    flow_path: Vec<(u32, u32)>,
}

impl PlanDelta {
    /// The process the remap moved.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The segment the process was mapped to before the remap.
    pub fn from(&self) -> SegmentId {
        self.from
    }

    /// Number of per-flow hop-table entries the remap rewrote — the
    /// O(degree) work the patch did instead of a full plan recompile.
    pub fn touched_flows(&self) -> usize {
        self.flow_path.len()
    }
}

impl<'a> EnginePlan<'a> {
    /// Compile the static tables for `psm`.
    ///
    /// # Panics
    /// Panics if the PSM violates an engine invariant (unplaced process,
    /// missing border unit, compute ticks overflowing `u64`). Use
    /// [`EnginePlan::try_new`] for input that has not been through
    /// [`crate::precheck::strict_validate`].
    pub fn new(psm: &'a Psm) -> EnginePlan<'a> {
        match EnginePlan::try_new(psm) {
            Ok(plan) => plan,
            Err(e) => panic!("PSM violates an engine invariant: {e}"),
        }
    }

    /// Compile the static tables for `psm`, reporting engine-invariant
    /// violations as typed errors (`C0xx` codes, see [`crate::precheck`])
    /// instead of panicking.
    pub fn try_new(psm: &'a Psm) -> Result<EnginePlan<'a>, SegbusError> {
        let app = psm.application();
        let platform = psm.platform();
        let s = platform.package_size();
        let nseg = platform.segment_count();
        let nproc = app.process_count();
        let nflow = app.flows().len();

        let flow_src: Vec<ProcessId> = app.flows().iter().map(|f| f.src).collect();
        let flow_dst: Vec<ProcessId> = app.flows().iter().map(|f| f.dst).collect();
        let flow_pkgs: Vec<u64> = app.flows().iter().map(|f| f.packages(s)).collect();
        let flow_compute: Vec<u64> = app
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| compute_ticks(app.cost_model(), i, f.ticks, s))
            .collect::<Result<_, SegbusError>>()?;
        let proc_seg: Vec<SegmentId> = (0..nproc)
            .map(|i| {
                let p = ProcessId(i as u32);
                match psm.allocation().segment_of(p) {
                    Some(seg) if platform.contains(seg) => Ok(seg),
                    Some(seg) => Err(SegbusError::new(
                        "C002",
                        format!("process {p} is placed on non-existent segment {seg}"),
                    )),
                    None => Err(SegbusError::new(
                        "C002",
                        format!("process {p} is not placed"),
                    )),
                }
            })
            .collect::<Result<_, SegbusError>>()?;

        let waves: Vec<Vec<FlowId>> = app.waves().into_iter().map(|w| w.flows).collect();
        let mut flow_wave = vec![0usize; nflow];
        for (w, flows) in waves.iter().enumerate() {
            for f in flows {
                flow_wave[f.index()] = w;
            }
        }

        // Compile each distinct (source segment, destination segment) route
        // once: segments plus per-hop BU index and crossing direction.
        let mut paths: Vec<PathInfo> = Vec::new();
        let mut path_of = vec![NO_PATH; nseg * nseg];
        let flow_path: Vec<u32> = (0..nflow)
            .map(|i| {
                let a = proc_seg[flow_src[i].index()];
                let b = proc_seg[flow_dst[i].index()];
                compile_route(platform, nseg, &mut paths, &mut path_of, a, b)
            })
            .collect::<Result<_, SegbusError>>()?;

        // CSR adjacency: each flow is listed under both endpoints (once
        // when they coincide), so a remap of process `p` sees exactly the
        // flows whose hop table the move can change.
        let mut proc_flow_off = vec![0u32; nproc + 1];
        for i in 0..nflow {
            proc_flow_off[flow_src[i].index() + 1] += 1;
            if flow_dst[i] != flow_src[i] {
                proc_flow_off[flow_dst[i].index() + 1] += 1;
            }
        }
        for p in 0..nproc {
            proc_flow_off[p + 1] += proc_flow_off[p];
        }
        let mut proc_flow = vec![0u32; proc_flow_off[nproc] as usize];
        let mut cursor: Vec<u32> = proc_flow_off[..nproc].to_vec();
        for i in 0..nflow {
            proc_flow[cursor[flow_src[i].index()] as usize] = i as u32;
            cursor[flow_src[i].index()] += 1;
            if flow_dst[i] != flow_src[i] {
                proc_flow[cursor[flow_dst[i].index()] as usize] = i as u32;
                cursor[flow_dst[i].index()] += 1;
            }
        }

        let seg_clock: Vec<ClockDomain> = platform.segments().iter().map(|sg| sg.clock).collect();
        let ca_clock = platform.ca_clock();
        let fast_seg: Vec<FastClock> = seg_clock.iter().map(|&c| FastClock::new(c)).collect();
        let fast_ca = FastClock::new(ca_clock);
        Ok(EnginePlan {
            psm,
            s,
            nseg,
            nproc,
            n_bu: platform.border_unit_count(),
            flow_src,
            flow_dst,
            flow_pkgs,
            flow_compute,
            flow_wave,
            flow_path,
            proc_seg,
            seg_clock,
            ca_clock,
            fast_seg,
            fast_ca,
            waves,
            paths,
            path_of,
            proc_flow_off,
            proc_flow,
        })
    }

    /// The PSM this plan was compiled from.
    ///
    /// After a [`EnginePlan::try_remap`] the plan's tables describe the
    /// *moved* placement while this model still carries the original
    /// allocation; callers tracking content digests across remaps must
    /// derive them from their own slot vector
    /// ([`segbus_model::digest_with_slots`]), not from this PSM. Likewise,
    /// after [`EnginePlan::try_set_flow_values`] this model still carries
    /// the original flow values; a sampled run's digest comes from
    /// [`Psm::digest_with_flow_values`].
    pub fn psm(&self) -> &'a Psm {
        self.psm
    }

    /// Replace every flow's items and ticks with `values` (one entry per
    /// flow, in flow order), rewriting the only value-dependent tables:
    /// package counts and per-package compute ticks. Routes, waves,
    /// clocks and the placement do not depend on flow values and are
    /// untouched, so running the patched plan is bit-identical to
    /// compiling a fresh [`EnginePlan`] for the model with those values.
    ///
    /// The `C008` bound of [`crate::precheck::strict_validate`] runs first,
    /// over `values`, `frames` and `config`, and the compute ticks are
    /// derived in checked arithmetic, so no value that would fail the
    /// pre-flight can reach the plan. On an error the plan is unchanged.
    pub fn try_set_flow_values(
        &mut self,
        values: &[FlowValues],
        frames: u64,
        config: &EmulatorConfig,
    ) -> Result<(), SegbusError> {
        if values.len() != self.flow_src.len() {
            return Err(SegbusError::new(
                "C003",
                format!(
                    "{} flow value(s) for a plan of {} flow(s)",
                    values.len(),
                    self.flow_src.len()
                ),
            ));
        }
        crate::precheck::check_flow_values(
            self.psm,
            self.waves.len(),
            values.iter().copied(),
            frames,
            config,
        )?;
        // The check proved every compute tick fits, so no error can arise
        // once the first table entry is written.
        let cost_model = self.psm.application().cost_model();
        for (i, v) in values.iter().enumerate() {
            self.flow_pkgs[i] = v.items.div_ceil(self.s as u64);
            self.flow_compute[i] = compute_ticks(cost_model, i, v.ticks, self.s)?;
        }
        Ok(())
    }

    /// The segment each process is currently mapped to (reflects remaps).
    pub fn segment_of(&self, p: ProcessId) -> SegmentId {
        self.proc_seg[p.index()]
    }

    /// Re-point process `p` at segment `to`, rebuilding only the
    /// mapping-dependent plan slices: the process's segment entry and the
    /// per-flow hop tables of the O(degree) flows touching it. Routes
    /// newly exposed by the move are compiled once and memoised alongside
    /// the existing route table; everything else (package counts, clock
    /// tables, waves, picosecond slices derived at run setup) is
    /// untouched. Running a patched plan is bit-identical to compiling a
    /// fresh [`EnginePlan`] for the moved model — the differential suite
    /// pins this across the corpus.
    ///
    /// Returns the [`PlanDelta`] that [`EnginePlan::revert`] undoes. On a
    /// routing error (`C005`) the plan is left unchanged.
    pub fn try_remap(&mut self, p: ProcessId, to: SegmentId) -> Result<PlanDelta, SegbusError> {
        if p.index() >= self.nproc {
            return Err(SegbusError::new(
                "C002",
                format!("process {p} is out of range for this plan"),
            ));
        }
        let psm = self.psm;
        let platform = psm.platform();
        if !platform.contains(to) {
            return Err(SegbusError::new(
                "C002",
                format!("process {p} cannot move to non-existent segment {to}"),
            ));
        }
        let from = self.proc_seg[p.index()];
        let mut delta = PlanDelta {
            process: p,
            from,
            flow_path: Vec::new(),
        };
        if from == to {
            return Ok(delta);
        }
        // Two phases: resolve every touched flow's new route first (route
        // compilation can fail), then commit. A failed resolve may leave
        // freshly compiled routes in the memo — that cache stays valid —
        // but never a partially moved mapping.
        let lo = self.proc_flow_off[p.index()] as usize;
        let hi = self.proc_flow_off[p.index() + 1] as usize;
        let mut resolved = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let f = self.proc_flow[k] as usize;
            let a = if self.flow_src[f] == p {
                to
            } else {
                self.proc_seg[self.flow_src[f].index()]
            };
            let b = if self.flow_dst[f] == p {
                to
            } else {
                self.proc_seg[self.flow_dst[f].index()]
            };
            let idx = compile_route(
                platform,
                self.nseg,
                &mut self.paths,
                &mut self.path_of,
                a,
                b,
            )?;
            resolved.push((f as u32, idx));
        }
        self.proc_seg[p.index()] = to;
        for (f, idx) in resolved {
            delta.flow_path.push((f, self.flow_path[f as usize]));
            self.flow_path[f as usize] = idx;
        }
        Ok(delta)
    }

    /// [`EnginePlan::try_remap`] that panics on invalid moves; for input
    /// whose segments are known to exist and be routable.
    ///
    /// # Panics
    /// Panics if the move is out of range or unroutable.
    pub fn remap(&mut self, p: ProcessId, to: SegmentId) -> PlanDelta {
        match self.try_remap(p, to) {
            Ok(d) => d,
            Err(e) => panic!("invalid remap: {e}"),
        }
    }

    /// Undo a [`EnginePlan::try_remap`], restoring the process's segment
    /// and every rewritten hop-table entry. Deltas must be reverted in
    /// LIFO order relative to other remaps of the same process.
    pub fn revert(&mut self, delta: &PlanDelta) {
        self.proc_seg[delta.process.index()] = delta.from;
        for &(f, old) in &delta.flow_path {
            self.flow_path[f as usize] = old;
        }
    }

    /// An admissible lower bound on the plan's `frames`-frame makespan:
    /// the larger of a **global** term and a **wave-chain** term.
    ///
    /// The global term (scaled by `frames`) is the busiest single
    /// resource:
    ///
    /// * **producer serialisation** — a producer handles its packages
    ///   strictly one at a time: it computes a package and stays busy
    ///   until the package's bus phase completes (through final delivery
    ///   under [`ProducerRelease::AfterDelivery`], through the source
    ///   segment's serve under
    ///   [`ProducerRelease::AfterLocalPhase`]), so the sum of
    ///   compute-plus-serve over its packages bounds the run from below;
    /// * **boundary traffic** — every package transfer occupies each
    ///   segment on its path for the full bus transaction, and transfers
    ///   on one segment never overlap, so the busiest segment's occupancy
    ///   bounds the run from below.
    ///
    /// The wave-chain term exploits the barrier semantics of DESIGN.md
    /// §4: within a frame, wave `w`'s producers are armed only once wave
    /// `w−1` has *fully delivered*, so frame 0's waves execute strictly
    /// in sequence no matter how many frames pipeline around them. The
    /// single-frame chain — the sum over waves of each wave's busiest
    /// resource (the two global terms restricted to that wave's flows) —
    /// is therefore admissible for any frame count.
    ///
    /// All terms count mandatory work only (edge alignment, arbitration
    /// waits and circuit stalls can only add time), so the bound never
    /// exceeds the emulated makespan — the property tests pin
    /// `makespan_lower_bound ≤ makespan` across the corpus. Placement
    /// search uses it to skip emulating candidates that provably cannot
    /// beat an incumbent.
    pub fn makespan_lower_bound(&self, config: &EmulatorConfig, frames: u64) -> Picos {
        self.makespan_lower_bound_in(config, frames, &mut LowerBoundScratch::default())
    }

    /// [`EnginePlan::makespan_lower_bound`] with caller-owned scratch, so
    /// hot loops (placement search bounds one plan per candidate) pay no
    /// allocation per call.
    pub fn makespan_lower_bound_in(
        &self,
        config: &EmulatorConfig,
        frames: u64,
        scratch: &mut LowerBoundScratch,
    ) -> Picos {
        let bus_ticks = config.timing.bus_transaction_ticks(self.s) as u128;
        let full_path = config.producer_release == ProducerRelease::AfterDelivery;
        scratch.proc_ps.clear();
        scratch.proc_ps.resize(self.nproc, 0);
        scratch.seg_ps.clear();
        scratch.seg_ps.resize(self.nseg, 0);
        let (proc_ps, seg_ps) = (&mut scratch.proc_ps, &mut scratch.seg_ps);
        // Per-flow accumulation shared by the global pass (all flows) and
        // the per-wave passes (one wave's flows at a time): returns the
        // largest resource total after folding flow `f` in.
        let add_flow = |f: usize, proc_ps: &mut [u128], seg_ps: &mut [u128]| -> u128 {
            let pkgs = self.flow_pkgs[f] as u128;
            let src = self.flow_src[f].index();
            let src_seg = self.proc_seg[src].index();
            let src_period = self.seg_clock[src_seg].period_ps() as u128;
            let mut worst = 0u128;
            // Mandatory bus time between compute-done and the producer's
            // release, per package.
            let mut serve_ps = bus_ticks * src_period;
            let path = self.flow_path[f];
            if path == NO_PATH {
                seg_ps[src_seg] += pkgs * bus_ticks * src_period;
                worst = worst.max(seg_ps[src_seg]);
            } else {
                let mut path_ps = 0u128;
                for m in &self.paths[path as usize].segs {
                    let period = self.seg_clock[m.index()].period_ps() as u128;
                    seg_ps[m.index()] += pkgs * bus_ticks * period;
                    worst = worst.max(seg_ps[m.index()]);
                    path_ps += bus_ticks * period;
                }
                if full_path {
                    // Send-and-wait: the producer resumes only on final
                    // delivery, after the package was served on every
                    // segment along its path in turn.
                    serve_ps = path_ps;
                }
            }
            proc_ps[src] += pkgs * (self.flow_compute[f] as u128 * src_period + serve_ps);
            worst.max(proc_ps[src])
        };
        let mut bound = 0u128;
        if frames > 1 {
            // Global term. At `frames == 1` the chain term dominates it
            // (a resource's total is the sum of its per-wave loads, each
            // ≤ that wave's maximum), so the pass is skipped there.
            let mut global = 0u128;
            for f in 0..self.flow_src.len() {
                global = global.max(add_flow(f, proc_ps, seg_ps));
            }
            bound = global * frames as u128;
            proc_ps.fill(0);
            seg_ps.fill(0);
        }
        // Wave-chain term: the same accumulation one wave at a time,
        // zeroing only the touched slots between waves.
        let mut chain = 0u128;
        for flows in &self.waves {
            let mut wave_worst = 0u128;
            for f in flows {
                wave_worst = wave_worst.max(add_flow(f.index(), proc_ps, seg_ps));
            }
            chain += wave_worst;
            for f in flows {
                let fi = f.index();
                let src = self.flow_src[fi].index();
                proc_ps[src] = 0;
                let path = self.flow_path[fi];
                if path == NO_PATH {
                    seg_ps[self.proc_seg[src].index()] = 0;
                } else {
                    for m in &self.paths[path as usize].segs {
                        seg_ps[m.index()] = 0;
                    }
                }
            }
        }
        bound = bound.max(chain);
        Picos(bound.min(u64::MAX as u128) as u64)
    }
}

// ---------------------------------------------------------------------------
// engine

/// A reusable emulation engine: configuration plus scratch buffers.
///
/// Unlike the [`Emulator`] facade, an `Engine` is stateful — successive
/// [`Engine::run`] calls reuse every internal vector (event queue,
/// per-segment queues, counters), which makes tight loops over many PSMs
/// (sweeps, placement searches) allocation-free apart from plan
/// compilation. Results are bit-identical to a fresh `Emulator` run.
pub struct Engine {
    config: EmulatorConfig,
    fast: crate::fast::FastScratch,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EmulatorConfig) -> Engine {
        Engine {
            config,
            fast: crate::fast::FastScratch::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EmulatorConfig {
        &self.config
    }

    /// Execute the PSM to completion and return the report.
    pub fn run(&mut self, psm: &Psm) -> EmulationReport {
        let plan = EnginePlan::new(psm);
        self.run_plan(&plan, 1)
    }

    /// Multi-frame execution; see [`Emulator::run_frames`].
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_frames(&mut self, psm: &Psm, frames: u64) -> EmulationReport {
        let plan = EnginePlan::new(psm);
        self.run_plan(&plan, frames)
    }

    /// Panic-free [`Engine::run`]; see [`Emulator::try_run`].
    pub fn try_run(&mut self, psm: &Psm) -> Result<EmulationReport, SegbusError> {
        self.try_run_frames(psm, 1)
    }

    /// Panic-free [`Engine::run_frames`]: runs
    /// [`crate::precheck::strict_validate`], compiles the plan with
    /// [`EnginePlan::try_new`], and only then executes.
    pub fn try_run_frames(
        &mut self,
        psm: &Psm,
        frames: u64,
    ) -> Result<EmulationReport, SegbusError> {
        crate::precheck::strict_validate(psm, frames, &self.config)?;
        let plan = EnginePlan::try_new(psm)?;
        Ok(self.run_plan(&plan, frames))
    }

    /// Execute a pre-compiled plan. Compile once with [`EnginePlan::new`]
    /// to amortise table construction over repeated runs of one PSM.
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_plan(&mut self, plan: &EnginePlan, frames: u64) -> EmulationReport {
        let mut out = EmulationReport::empty();
        self.run_plan_into(plan, frames, &mut out);
        out
    }

    /// [`Engine::run_plan`] assembling the result into `out`, reusing its
    /// vectors (counters, clock tables, border-unit refs) instead of
    /// allocating a fresh report per run. Tight evaluation loops —
    /// placement search emulating thousands of candidates — hold one
    /// report buffer and make the whole run allocation-free apart from
    /// first-time growth. `out`'s previous contents are overwritten; the
    /// result is bit-identical to [`Engine::run_plan`]'s.
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_plan_into(&mut self, plan: &EnginePlan, frames: u64, out: &mut EmulationReport) {
        let mut log = self.config.trace.then(TraceLog::new);
        let sink = log.as_mut().map(|l| l as &mut dyn crate::trace::TraceSink);
        crate::fast::run_fast(plan, &mut self.fast, &self.config, frames, sink, out);
        out.trace = log;
    }

    /// Execute a pre-compiled plan, streaming every trace event into
    /// `sink` instead of collecting an in-memory [`TraceLog`] — the way
    /// to trace million-event runs without ballooning memory (pair with
    /// [`crate::sbt::SbtWriter`]). The returned report's `trace` field is
    /// `None`: the events went to the sink. Tracing is implied; the
    /// configured [`EmulatorConfig::trace`] flag is ignored here.
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_plan_with_sink(
        &mut self,
        plan: &EnginePlan,
        frames: u64,
        sink: &mut dyn crate::trace::TraceSink,
    ) -> EmulationReport {
        let mut report = EmulationReport::empty();
        crate::fast::run_fast(
            plan,
            &mut self.fast,
            &self.config,
            frames,
            Some(sink),
            &mut report,
        );
        report
    }

    /// Panic-free [`Engine::run_plan_with_sink`] over a PSM: validates,
    /// compiles the plan, then executes with trace streaming.
    pub fn try_run_frames_with_sink(
        &mut self,
        psm: &Psm,
        frames: u64,
        sink: &mut dyn crate::trace::TraceSink,
    ) -> Result<EmulationReport, SegbusError> {
        crate::precheck::strict_validate(psm, frames, &self.config)?;
        let plan = EnginePlan::try_new(psm)?;
        Ok(self.run_plan_with_sink(&plan, frames, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArbitrationPolicy;
    use crate::trace::TraceKind;
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};

    /// The strength-reduced division (and the clock arithmetic on top of
    /// it) must agree with the hardware divider on every operand,
    /// including the boundary where the multiply hands over to fallback.
    #[test]
    fn fast_div_and_clock_match_plain_arithmetic() {
        let divisors = [1u64, 2, 3, 7, 64, 9009, 10204, 10989, 11236, 16384, 999_983];
        for &p in &divisors {
            let c = ClockDomain::from_period_ps(p);
            let f = FastClock::new(c);
            let d = FastDiv::new(p);
            let mut xs: Vec<u64> = vec![0, 1, p - 1, p, p + 1, 3 * p, 3 * p + 1];
            xs.extend([
                d.max_exact.saturating_sub(1),
                d.max_exact,
                d.max_exact.saturating_add(1),
            ]);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                xs.push(x & ((1 << 50) - 1));
                xs.push(x);
            }
            for &v in &xs {
                assert_eq!(d.floor_div(v), v / p, "floor_div p={p} x={v}");
                assert_eq!(
                    f.ticks_at(Picos(v)),
                    c.ticks_at(Picos(v)),
                    "ticks_at p={p} x={v}"
                );
                if v <= u64::MAX - p {
                    assert_eq!(
                        f.next_edge(Picos(v)),
                        c.next_edge(Picos(v)),
                        "edge p={p} x={v}"
                    );
                }
            }
        }
    }

    fn uniform(nseg: usize, s: u32) -> Platform {
        Platform::builder("t")
            .package_size(s)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(nseg, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

    fn run(psm: &Psm) -> EmulationReport {
        Emulator::new(EmulatorConfig::traced()).run(psm)
    }

    /// One producer, one consumer, same segment, 2 packages of 36 items.
    fn local_pair() -> Psm {
        let mut app = Application::new("pair");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 72, 1, 100)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        Psm::new(uniform(1, 36), app, alloc).unwrap()
    }

    #[test]
    fn local_pair_timing_is_exact() {
        // Period 10000 ps. Per package: 100 compute + 40 bus = 140 ticks,
        // producer blocked during transfer => 2 packages = 280 ticks.
        let r = run(&local_pair());
        assert_eq!(r.makespan, Picos(280 * 10_000));
        assert_eq!(r.fus[0].packages_sent, 2);
        assert_eq!(r.fus[1].packages_received, 2);
        assert!(r.all_flags_raised());
        assert_eq!(r.sas[0].intra_requests, 2);
        assert_eq!(r.sas[0].inter_requests, 0);
        assert_eq!(r.ca.inter_requests, 0);
        assert_eq!(r.inter_segment_packages(), 0);
        // SA busy for 2 × 40 ticks.
        assert_eq!(r.sas[0].busy_ticks, 80);
        // CA polls to the end: TCT == makespan ticks.
        assert_eq!(r.ca.tct, 280);
        assert_eq!(r.execution_time(), Picos(2_800_000));
    }

    /// Producer and consumer on different segments of a 2-segment platform.
    fn remote_pair(items: u64) -> Psm {
        let mut app = Application::new("remote");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, items, 1, 100)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(1));
        Psm::new(uniform(2, 36), app, alloc).unwrap()
    }

    #[test]
    fn remote_pair_crosses_one_bu() {
        let r = run(&remote_pair(72));
        assert_eq!(r.bus[0].received_from_left, 2);
        assert_eq!(r.bus[0].transferred_to_right, 2);
        assert_eq!(r.bus[0].received_from_right, 0);
        assert_eq!(r.sas[0].inter_requests, 2);
        assert_eq!(r.sas[0].packets_to_right, 2);
        assert_eq!(r.sas[1].packets_to_left, 0);
        assert_eq!(r.ca.inter_requests, 2);
        assert_eq!(r.ca.grants, 2);
        // Cascade: 2 segments released per package.
        assert_eq!(r.ca.releases, 4);
        // Destination SA routes two BU deliveries.
        assert_eq!(r.sas[1].intra_requests, 2);
        assert!(r.all_flags_raised());
    }

    #[test]
    fn remote_transfer_timing() {
        // Package timeline (all clocks 10 ns):
        //  compute ends at 100 ticks; CA request arrives edge+1 = 101;
        //  grant at 101; hop0 occupies seg0 [101, 141); BU loaded at 141;
        //  hop1 starts 141 + wp_sample(1) = 142, ends 182 -> delivery.
        let r = run(&remote_pair(36));
        assert_eq!(r.makespan, Picos(182 * 10_000));
        // BU tct: 2 × 36 + wp(1) = 73.
        assert_eq!(r.bus[0].tct, 73);
        assert_eq!(r.bus[0].waiting_ticks, 1);
        // Default flow control: the producer is done when the package is
        // delivered (182); fire-and-forget would free it at 141.
        assert_eq!(r.fus[0].end, Some(Picos(182 * 10_000)));
        assert_eq!(r.fus[1].last_received, Some(Picos(182 * 10_000)));
        // Ablation: fire-and-forget frees the producer after hop 0.
        let cfg = EmulatorConfig {
            producer_release: ProducerRelease::AfterLocalPhase,
            ..EmulatorConfig::default()
        };
        let r2 = Emulator::new(cfg).run(&remote_pair(36));
        assert_eq!(r2.fus[0].end, Some(Picos(141 * 10_000)));
        assert_eq!(r2.makespan, r.makespan, "single package: same makespan");
    }

    #[test]
    fn useful_period_identity() {
        // UP = 2 × s × packages, exactly (paper §4 analysis).
        let r = run(&remote_pair(5 * 36));
        assert_eq!(r.bus[0].useful_period(36), 2 * 36 * 5);
        // TCT = UP + waiting ticks.
        assert_eq!(
            r.bus[0].tct,
            r.bus[0].useful_period(36) + r.bus[0].waiting_ticks
        );
    }

    /// Two waves: A -> B (wave 1), B -> C (wave 2), all local.
    #[test]
    fn waves_are_barriers() {
        let mut app = Application::new("w");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 2, 50)).unwrap();
        let mut alloc = Allocation::new(1);
        for p in [a, b, c] {
            alloc.assign(p, SegmentId(0));
        }
        let psm = Psm::new(uniform(1, 36), app, alloc).unwrap();
        let r = run(&psm);
        // Wave 1: 100 + 40 = 140 ticks. Wave 2 starts at 140: +50 +40 = 230.
        assert_eq!(r.makespan, Picos(230 * 10_000));
        let trace = r.trace.as_ref().unwrap();
        assert_eq!(trace.of_kind(TraceKind::WaveComplete).count(), 2);
        // B computes only after receiving its input.
        assert_eq!(r.fus[b.index()].start, Some(Picos(140 * 10_000)));
    }

    /// Two producers share one segment bus: transfers serialize.
    #[test]
    fn bus_contention_serializes() {
        let mut app = Application::new("c");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::initial("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, c, 36, 1, 10)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 1, 10)).unwrap();
        let mut alloc = Allocation::new(1);
        for p in [a, b, c] {
            alloc.assign(p, SegmentId(0));
        }
        let psm = Psm::new(uniform(1, 36), app, alloc).unwrap();
        let r = run(&psm);
        // Both ready at tick 10; transfers 40 ticks each, serialized:
        // first [10, 50), second [50, 90).
        assert_eq!(r.makespan, Picos(90 * 10_000));
        let iv = r.trace.as_ref().unwrap().bus_intervals(SegmentId(0));
        assert_eq!(iv.len(), 2);
        assert!(iv[0].1 <= iv[1].0, "no overlap on one bus");
    }

    /// Disjoint inter-segment paths can be in flight simultaneously.
    #[test]
    fn disjoint_paths_run_in_parallel() {
        // 4 segments; A on 0 -> B on 1, C on 2 -> D on 3.
        let mut app = Application::new("par");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        let c = app.add_process(Process::initial("C"));
        let d = app.add_process(Process::final_("D"));
        app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
        app.add_flow(Flow::new(c, d, 36, 1, 100)).unwrap();
        let mut alloc = Allocation::new(4);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(1));
        alloc.assign(c, SegmentId(2));
        alloc.assign(d, SegmentId(3));
        let psm = Psm::new(uniform(4, 36), app, alloc).unwrap();
        let r = run(&psm);
        // Same timing as a single remote pair: both transfers overlap.
        assert_eq!(r.makespan, Picos(182 * 10_000));
        assert_eq!(r.bus[0].total_in(), 1);
        assert_eq!(r.bus[2].total_in(), 1);
        assert_eq!(r.bus[1].total_in(), 0);
    }

    /// A two-hop transfer traverses both BUs and the middle segment.
    #[test]
    fn two_hop_transfer() {
        let mut app = Application::new("hop2");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
        let mut alloc = Allocation::new(3);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(2));
        let psm = Psm::new(uniform(3, 36), app, alloc).unwrap();
        let r = run(&psm);
        assert_eq!(r.bus[0].received_from_left, 1);
        assert_eq!(r.bus[0].transferred_to_right, 1);
        assert_eq!(r.bus[1].received_from_left, 1);
        assert_eq!(r.bus[1].transferred_to_right, 1);
        // Middle SA forwarded one BU delivery.
        assert_eq!(r.sas[1].intra_requests, 1);
        // Only the source segment counts the packet as pushed out.
        assert_eq!(r.sas[0].packets_to_right, 1);
        assert_eq!(r.sas[1].packets_to_right, 0);
        // hop0 [101,141), hop1 [142,182), hop2 [183,223).
        assert_eq!(r.makespan, Picos(223 * 10_000));
        // Cascade: 3 releases.
        assert_eq!(r.ca.releases, 3);
    }

    /// Leftward transfers mirror rightward ones.
    #[test]
    fn leftward_transfer() {
        let mut app = Application::new("left");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(1));
        alloc.assign(b, SegmentId(0));
        let psm = Psm::new(uniform(2, 36), app, alloc).unwrap();
        let r = run(&psm);
        assert_eq!(r.bus[0].received_from_right, 1);
        assert_eq!(r.bus[0].transferred_to_left, 1);
        assert_eq!(r.sas[1].packets_to_left, 1);
        assert_eq!(r.sas[0].packets_to_left, 0);
    }

    #[test]
    fn empty_application_terminates_immediately() {
        let mut app = Application::new("empty");
        let a = app.add_process(Process::new("A"));
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        let psm = Psm::new(uniform(1, 36), app, alloc).unwrap();
        let r = run(&psm);
        assert_eq!(r.makespan, Picos::ZERO);
        assert!(r.all_flags_raised());
        assert_eq!(r.ca.tct, 0);
    }

    #[test]
    fn determinism() {
        let psm = remote_pair(10 * 36);
        let a = run(&psm);
        let b = run(&psm);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sas, b.sas);
        assert_eq!(a.ca, b.ca);
        assert_eq!(a.bus, b.bus);
    }

    /// A reused engine must produce the same reports as fresh emulators,
    /// including after runs over differently shaped PSMs (scratch vectors
    /// are re-dimensioned on reset).
    #[test]
    fn engine_reuse_is_bit_identical() {
        let mut engine = Engine::new(EmulatorConfig::traced());
        let shapes = [
            remote_pair(10 * 36),
            local_pair(),
            remote_pair(36),
            local_pair(),
        ];
        for psm in &shapes {
            let fresh = run(psm);
            let reused = engine.run(psm);
            assert_eq!(fresh.makespan, reused.makespan);
            assert_eq!(fresh.sas, reused.sas);
            assert_eq!(fresh.ca, reused.ca);
            assert_eq!(fresh.bus, reused.bus);
            assert_eq!(fresh.fus, reused.fus);
        }
    }

    /// Running a compiled plan repeatedly matches per-run compilation.
    #[test]
    fn plan_reuse_matches_run() {
        let psm = remote_pair(5 * 36);
        let plan = EnginePlan::new(&psm);
        let mut engine = Engine::new(EmulatorConfig::default());
        let a = engine.run_plan(&plan, 1);
        let b = engine.run_plan(&plan, 1);
        let c = Emulator::default().run(&psm);
        assert_eq!(a.makespan, c.makespan);
        assert_eq!(b.makespan, c.makespan);
        assert_eq!(a.sas, c.sas);
        assert_eq!(a.bus, c.bus);
    }

    /// Arbitration policies: fixed priority favours low process ids; fair
    /// round-robin balances service; totals are conserved in all cases.
    #[test]
    fn arbitration_policies_change_service_order_not_totals() {
        // Three producers on one segment flood one sink; the bus is the
        // bottleneck (tiny compute, many packages).
        let mut app = Application::new("flood");
        let producers: Vec<ProcessId> = (0..3)
            .map(|i| app.add_process(Process::initial(format!("A{i}"))))
            .collect();
        let sink = app.add_process(Process::final_("SINK"));
        for &p in &producers {
            app.add_flow(Flow::new(p, sink, 6 * 36, 1, 5)).unwrap();
        }
        let mut alloc = Allocation::new(1);
        for p in producers.iter().chain(std::iter::once(&sink)) {
            alloc.assign(*p, SegmentId(0));
        }
        let psm = Psm::new(uniform(1, 36), app, alloc).unwrap();

        let run_with = |policy| {
            let cfg = EmulatorConfig {
                arbitration: policy,
                ..EmulatorConfig::traced()
            };
            Emulator::new(cfg).run(&psm)
        };
        let fifo = run_with(ArbitrationPolicy::Fifo);
        let prio = run_with(ArbitrationPolicy::FixedPriority);
        let fair = run_with(ArbitrationPolicy::FairRoundRobin);

        // Conservation is policy-independent; makespans may differ a
        // little (service order shifts the idle gaps) but the bus-bound
        // total work keeps them close.
        for r in [&fifo, &prio, &fair] {
            assert!(r.all_flags_raised());
            assert_eq!(r.fus[sink.index()].packages_received, 18);
            let ratio = r.makespan.0 as f64 / fifo.makespan.0 as f64;
            assert!((0.9..=1.1).contains(&ratio), "makespan ratio {ratio}");
        }
        // Fixed priority finishes A0 before A2 finishes.
        assert!(
            prio.fus[0].end.unwrap() <= prio.fus[2].end.unwrap(),
            "priority must favour the low id"
        );
        // Fairness: under fair round-robin the spread between the first
        // and last finisher is no larger than under fixed priority.
        let spread = |r: &EmulationReport| {
            let ends: Vec<u64> = (0..3).map(|i| r.fus[i].end.unwrap().0).collect();
            ends.iter().max().unwrap() - ends.iter().min().unwrap()
        };
        assert!(spread(&fair) <= spread(&prio));
    }

    /// Ring topology: a transfer from the last segment to the first takes
    /// the wrap-around unit (one hop) instead of walking the whole line.
    #[test]
    fn ring_wrap_transfer_takes_one_hop() {
        let mut app = Application::new("ring");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
        let mut alloc = Allocation::new(3);
        alloc.assign(a, SegmentId(2));
        alloc.assign(b, SegmentId(0));
        let ring = Platform::builder("ring")
            .package_size(36)
            .topology(segbus_model::platform::Topology::Ring)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(3, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let r = run(&Psm::new(ring, app.clone(), alloc.clone()).unwrap());
        // The wrap unit is BU31 (index 2): loaded from its left (segment 3),
        // delivered to its right (segment 1).
        assert_eq!(r.bu_refs[2].to_string(), "BU31");
        assert_eq!(r.bus[2].received_from_left, 1);
        assert_eq!(r.bus[2].transferred_to_right, 1);
        assert_eq!(r.bus[0].total_in(), 0);
        assert_eq!(r.bus[1].total_in(), 0);
        assert_eq!(r.sas[2].packets_to_right, 1);
        // Same single-hop timing as a linear adjacent transfer.
        assert_eq!(r.makespan, Picos(182 * 10_000));
        // Cascade: exactly two segments released.
        assert_eq!(r.ca.releases, 2);

        // The identical mapping on a *linear* platform walks two hops.
        let linear = uniform(3, 36);
        let rl = run(&Psm::new(linear, app, alloc).unwrap());
        assert_eq!(rl.makespan, Picos(223 * 10_000));
        assert_eq!(rl.ca.releases, 3);
        assert!(r.makespan < rl.makespan, "the ring must be faster here");
    }

    #[test]
    fn smaller_packages_cost_more_overall() {
        // Per-item cost model: compute constant, protocol overhead doubles.
        // (Enough packages that the steady-state per-package overhead
        // dominates the shorter pipeline tail of the small-package run.)
        let p36 = remote_pair(10 * 36);
        let p18 = p36.with_package_size(18).unwrap();
        let r36 = run(&p36);
        let r18 = run(&p18);
        assert!(
            r18.makespan > r36.makespan,
            "{:?} !> {:?}",
            r18.makespan,
            r36.makespan
        );
    }
}
