//! The engine's event loop: the discrete-event semantics of
//! [`crate::ReferenceEmulator`] with the per-event dynamic dispatch
//! compiled out.
//!
//! The reference runs the *plain schedule*: one queued event per protocol
//! step, popped in `(time, scheduling sequence)` order, with every
//! decision that is invariant over a whole run — which arbitration policy
//! picks the next local request, which release policy frees a producer,
//! whether a trace is being recorded — taken again on every event. This
//! module removes those decisions, and then removes events and arithmetic
//! the plain schedule performs redundantly:
//!
//! * **Monomorphisation** — the run loop is generic over
//!   `<A: Arbitration, R: Release, const TRACED: bool>`. `run_fast` picks
//!   `TRACED` once (is there a sink?) and one `match` over the
//!   `(ArbitrationPolicy, ProducerRelease)` pair picks the rest, so policy
//!   checks become compile-time constants and the arbiter's pick loop
//!   inlines into the dispatch handler.
//! * **Monomorphised tracing** — every trace hook sits behind
//!   `if TRACED`, so the untraced instantiations compile the plumbing
//!   out entirely (no `Option` checks, no side tables touched) and stay
//!   benchmark-neutral, while the traced instantiations emit the full
//!   [`crate::TraceEvent`] stream into any [`TraceSink`] (an in-memory
//!   [`crate::TraceLog`], a streaming [`crate::sbt::SbtWriter`], …).
//!   Tracing needs the frame-global package index the fast core
//!   otherwise elides (see "No package indices" below), so the traced
//!   instantiations reconstruct it in side tables keyed the only way
//!   packages can be in flight: one compute per producer (`cur_pkg`), a
//!   queue position per local request (`sa_pkg`), a FIFO of in-flight
//!   serves per segment (`intra_pkg`) and one entry per inter-segment
//!   transfer (`tr_pkg`). Traced and untraced runs execute one event
//!   schedule — every elision below applies to both — and differ only in
//!   what they emit.
//! * **Flat SoA scratch** — producer state (`pending`/`rr`/`busy`) and
//!   process bookkeeping (`remaining out`/`in`) are parallel arrays
//!   indexed by the [`EnginePlan`]'s dense ids instead of arrays of
//!   structs, so each handler touches only the columns it needs.
//! * **Unrolled per-segment dispatch tables** — the per-event clock
//!   arithmetic that multiplies run-invariant tick counts by a segment
//!   period (compute duration, bus occupancy, BU hop wait, CA request
//!   latency) is precomputed into per-flow/per-segment picosecond slices
//!   at reset. Edge-snapping (`next_edge`) survives only where a time
//!   genuinely crosses clock domains: compute ends, serve starts,
//!   `bus_free` and hop ends are all sums of `next_edge` results and
//!   whole-tick durations of the *same* segment clock, hence already
//!   multiples of its period and fixed points of `next_edge` (the
//!   debug assertions in the handlers check this).
//! * **Sorted event ring** — pending events live in a vector sorted by
//!   descending timestamp, so popping the minimum is `Vec::pop`.
//!   Insertion binary-searches to the *leftmost* slot among equal
//!   timestamps, which makes position encode the plain schedule's
//!   sequence numbers: among simultaneous events the earliest-scheduled
//!   sits rightmost and pops first. The in-flight population is bounded
//!   by `O(processes + segments)` (package-level flow control keeps at
//!   most one compute/transfer event per producer), so the insertion
//!   memmove stays within a few cache lines.
//! * **Inline FIFO dispatch** — a local request's dispatch attempt lands
//!   at the compute end itself (computation ends on a segment-clock
//!   edge). Under FIFO arbitration the serve order and serve times are a
//!   function of arrival order and bus availability alone (a dispatch
//!   that finds the bus busy, the segment reserved or the queue empty
//!   touches no state and is re-triggered by the blocking event), so
//!   running the attempt inline is report-identical and saves a queue
//!   round-trip per local package. It is also the one elision that moves
//!   trace events: the serve's `BusStart`/`BusEnd` are emitted before
//!   same-instant events the plain schedule would pop first, so traces
//!   agree with the reference as event *sets*, and the emission order is
//!   pinned by golden digests instead. Priority-based policies pick by
//!   queue *content* at dispatch time and keep the event.
//! * **Fused serve chains** — when a serve leaves the local queue
//!   non-empty, the plain schedule queues a follow-up dispatch at the
//!   transaction end: an event at the same `(time, seq)` neighbourhood
//!   as the `IntraDone` it just scheduled. Because the two carry
//!   consecutive sequence numbers, no third event can pop between them,
//!   so the fast core folds the chain into a `chain` flag on the
//!   `IntraDone` itself — one queue round-trip per contended package
//!   instead of two.
//! * **Dispatch dedup** — a dispatch attempt that finds the bus busy
//!   re-schedules itself at `bus_free`; under sustained contention the
//!   plain schedule accumulates *parasite* retries (each pops, finds the
//!   bus claimed again by the serve chain, and re-propagates until the
//!   queue drains). A retry/chain is a no-op or a propagation unless it
//!   is the first dispatch to pop at its timestamp, so the fast core
//!   keeps at most one outstanding dispatch per segment (`retry_at`) and
//!   per CA tick (`ca_disp_at`) and drops provably-covered duplicates.
//!   Dropping an event whose handler performs no state change preserves
//!   the relative order — and therefore the tie-breaks — of every
//!   remaining event.
//! * **Synchronous serve completion** — an `IntraDone` scheduled at the
//!   serve's end would pop next whenever every queued event lies
//!   strictly after it: it is the unique minimum, and no event can later
//!   be inserted at or before its timestamp (dispatch dedup markers
//!   always back already-queued events). The fast core detects this at
//!   schedule time and runs the handler inline, skipping the round-trip.
//! * **No package indices** — the plain schedule threads a global package
//!   index through every event only to divide it back into a frame
//!   number at delivery. The frame is already known when the package is
//!   picked from the producer's pending list, so the fast core carries
//!   the frame itself (29 bits of the packed event) and the per-package
//!   division disappears.
//!
//! **Bit-identity contract.** For every PSM, frame count and
//! configuration, the fast core produces an [`EmulationReport`] equal to
//! [`crate::ReferenceEmulator`]'s field for field, and a trace with the
//! same events. Every surviving event is scheduled in the same program
//! order (so tie-breaks coincide), every elided event is one whose
//! handler could not have changed state, and every timestamp is computed
//! by the same strength-reduced arithmetic (`engine::FastClock`).
//! The tests below, `tests/trace_differential.rs` and the fuzz harness in
//! `tests/fuzz_differential.rs` enforce the contract across all
//! arbitration × release modes; committed golden digests pin the trace
//! emission order.

use std::collections::VecDeque;
use std::marker::PhantomData;

use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::time::Picos;

use crate::config::{ArbitrationPolicy, EmulatorConfig, ProducerRelease};
use crate::counters::{BuCounters, CaCounters, FuTimes, SaCounters};
use crate::engine::{EnginePlan, NO_PATH};
use crate::report::EmulationReport;
use crate::trace::{TraceEvent, TraceKind, TraceSink};

// ---------------------------------------------------------------------------
// compile-time policies

/// Local-bus arbitration, resolved at monomorphisation time. `pick`
/// mirrors the reference's `min_by_key` selections exactly: the keys
/// below are made unambiguous by the queue index tie-break, and the scan
/// keeps the earliest index among equal primary keys.
trait Arbitration {
    /// `true` exactly for [`ArbitrationPolicy::Fifo`]: a dispatch attempt
    /// landing on the current clock edge may run inline (see "Inline
    /// FIFO dispatch" in the module docs).
    const FIFO: bool;
    /// Index of the request to serve next (queue is non-empty).
    fn pick(queue: &VecDeque<LocalReq>, flow_src: &[ProcessId], served: &[u64]) -> usize;
}

struct FifoArb;
impl Arbitration for FifoArb {
    const FIFO: bool = true;
    #[inline(always)]
    fn pick(_q: &VecDeque<LocalReq>, _src: &[ProcessId], _served: &[u64]) -> usize {
        0
    }
}

struct PriorityArb;
impl Arbitration for PriorityArb {
    const FIFO: bool = false;
    #[inline(always)]
    fn pick(q: &VecDeque<LocalReq>, flow_src: &[ProcessId], _served: &[u64]) -> usize {
        let mut best = 0;
        let mut best_key = flow_src[q[0].flow.index()];
        for i in 1..q.len() {
            let k = flow_src[q[i].flow.index()];
            if k < best_key {
                best = i;
                best_key = k;
            }
        }
        best
    }
}

struct FairArb;
impl Arbitration for FairArb {
    const FIFO: bool = false;
    #[inline(always)]
    fn pick(q: &VecDeque<LocalReq>, flow_src: &[ProcessId], served: &[u64]) -> usize {
        let mut best = 0;
        let mut best_key = served[flow_src[q[0].flow.index()].index()];
        for i in 1..q.len() {
            let k = served[flow_src[q[i].flow.index()].index()];
            if k < best_key {
                best = i;
                best_key = k;
            }
        }
        best
    }
}

/// Producer release policy, resolved at monomorphisation time.
trait Release {
    /// `true` exactly for [`ProducerRelease::AfterLocalPhase`].
    const AFTER_LOCAL_PHASE: bool;
}

struct RelDelivery;
impl Release for RelDelivery {
    const AFTER_LOCAL_PHASE: bool = false;
}

struct RelLocal;
impl Release for RelLocal {
    const AFTER_LOCAL_PHASE: bool = true;
}

// ---------------------------------------------------------------------------
// events and scratch

/// The plain schedule's event alphabet, hand-packed into one `u64` so a
/// queue entry is exactly 16 bytes: tag in bits 0..3, a 32-bit field in
/// bits 3..35 (flow / segment / request id) and a 29-bit field in bits
/// 35..64 (`frame << 1 | chain` for `IntraDone`, the hop for
/// `PhaseDone`). [`MAX_FRAMES`] bounds the frame field; runs anywhere
/// near it would exhaust memory on the per-instance bookkeeping first.
mod ev {
    pub const COMPUTE_DONE: u64 = 0;
    pub const SA_DISPATCH: u64 = 1;
    pub const CA_ARRIVE: u64 = 2;
    pub const CA_DISPATCH: u64 = 3;
    pub const INTRA_DONE: u64 = 4;
    pub const PHASE_DONE: u64 = 5;

    #[inline(always)]
    pub fn pack(tag: u64, a: u32, b: u32) -> u64 {
        debug_assert!(b < (1 << 29));
        tag | (a as u64) << 3 | (b as u64) << 35
    }

    #[inline(always)]
    pub fn tag(ev: u64) -> u64 {
        ev & 7
    }

    #[inline(always)]
    pub fn a(ev: u64) -> u32 {
        (ev >> 3) as u32
    }

    #[inline(always)]
    pub fn b(ev: u64) -> u32 {
        (ev >> 35) as u32
    }
}

/// Largest frame count the packed event representation can carry.
const MAX_FRAMES: u64 = 1 << 28;

/// One pending event of the sorted ring (descending by `at`; position
/// among equal timestamps encodes scheduling order).
#[derive(Clone, Copy)]
struct QEntry {
    at: u64,
    ev: u64,
}

/// A pending intra-segment package transfer.
#[derive(Clone, Copy)]
struct LocalReq {
    flow: FlowId,
    frame: u32,
}

/// An inter-segment transfer in flight (`path` indexes the plan's route
/// table).
#[derive(Clone, Copy)]
struct InterTransfer {
    flow: FlowId,
    frame: u32,
    path: u32,
}

/// Every mutable array of a fast-core run, kept allocated between runs
/// (the reuse contract of [`crate::Engine`]). Producer and
/// process state is stored as parallel columns indexed by the plan's
/// dense ids; the `*_ps` tables are the precomputed per-flow/per-segment
/// picosecond slices described in the module docs.
#[derive(Default)]
pub(crate) struct FastScratch {
    queue: Vec<QEntry>,
    /// Outstanding deliveries per wave instance (`frame * waves + wave`).
    instance_remaining: Vec<u64>,
    /// (flow, packages remaining, frame) per producer, armed wave order.
    prod_pending: Vec<Vec<(FlowId, u64, u32)>>,
    /// Round-robin cursor over `prod_pending`.
    prod_rr: Vec<usize>,
    prod_busy: Vec<bool>,
    remaining_out: Vec<u64>,
    remaining_inp: Vec<u64>,
    bus_free: Vec<Picos>,
    reserved: Vec<bool>,
    sa_queue: Vec<VecDeque<LocalReq>>,
    served: Vec<u64>,
    /// Timestamp of the single outstanding dispatch retry/chain per
    /// segment (`u64::MAX` when none) — the dedup marker.
    retry_at: Vec<u64>,
    /// Timestamp of the outstanding CA dispatch scan (`u64::MAX` if none).
    ca_disp_at: u64,
    ca_queue: VecDeque<u32>,
    transfers: Vec<InterTransfer>,
    sas: Vec<SaCounters>,
    ca: CaCounters,
    bus_ctr: Vec<BuCounters>,
    fus: Vec<FuTimes>,
    makespan: Picos,
    /// Compute duration of one package of each flow, in picoseconds of
    /// the producer's segment clock (`flow_compute × period`).
    flow_compute_ps: Vec<u64>,
    /// Bus occupancy of one package transaction per segment
    /// (`bus_transaction_ticks × period`).
    seg_bus_ps: Vec<u64>,
    /// BU sampling + synchroniser wait per segment
    /// (`(wp_sample + bu_sync) × period`).
    seg_hop_wait_ps: Vec<u64>,
    /// CA request registration latency (`ca_request_ticks × CA period`).
    ca_req_ps: u64,
    // -- traced-only side tables (empty when `TRACED` is false) ----------
    /// Frame-global package index of each producer's in-flight compute.
    cur_pkg: Vec<u64>,
    /// Package indices paralleling `sa_queue`, same push/remove order.
    sa_pkg: Vec<VecDeque<u64>>,
    /// Package indices of each segment's outstanding `IntraDone`s, FIFO.
    /// Usually one deep, but a follow-up serve can be granted at the
    /// exact end instant of the previous one — a same-timestamp
    /// `ComputeDone` with an older sequence number pops before the
    /// pending `IntraDone` — so two can overlap at a time boundary.
    /// Serve ends are strictly increasing per segment, so pops are FIFO.
    intra_pkg: Vec<VecDeque<u64>>,
    /// Package indices paralleling `transfers` (push-only, same index).
    tr_pkg: Vec<u64>,
}

/// Clear and re-dimension a vector, keeping its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

impl FastScratch {
    fn reset(
        &mut self,
        plan: &EnginePlan,
        frames: u64,
        cfg: &EmulatorConfig,
        bus_ticks: u64,
        traced: bool,
    ) {
        self.queue.clear();

        if traced {
            refill(&mut self.cur_pkg, plan.nproc, 0);
            for tab in [&mut self.sa_pkg, &mut self.intra_pkg] {
                tab.resize_with(plan.nseg, VecDeque::new);
                tab.truncate(plan.nseg);
                for q in tab.iter_mut() {
                    q.clear();
                }
            }
            self.tr_pkg.clear();
        }

        // Per-instance bookkeeping: the per-wave delivery counts are
        // identical in every frame, so compute them once and repeat.
        self.instance_remaining.clear();
        for flows in &plan.waves {
            self.instance_remaining
                .push(flows.iter().map(|f| plan.flow_pkgs[f.index()]).sum::<u64>());
        }
        let per_frame = self.instance_remaining.len();
        for _ in 1..frames {
            for i in 0..per_frame {
                let v = self.instance_remaining[i];
                self.instance_remaining.push(v);
            }
        }

        self.prod_pending.resize_with(plan.nproc, Vec::new);
        self.prod_pending.truncate(plan.nproc);
        for p in &mut self.prod_pending {
            p.clear();
        }
        refill(&mut self.prod_rr, plan.nproc, 0);
        refill(&mut self.prod_busy, plan.nproc, false);

        refill(&mut self.remaining_out, plan.nproc, 0);
        refill(&mut self.remaining_inp, plan.nproc, 0);
        for i in 0..plan.flow_src.len() {
            self.remaining_out[plan.flow_src[i].index()] += plan.flow_pkgs[i] * frames;
            self.remaining_inp[plan.flow_dst[i].index()] += plan.flow_pkgs[i] * frames;
        }

        refill(&mut self.bus_free, plan.nseg, Picos::ZERO);
        refill(&mut self.reserved, plan.nseg, false);
        self.sa_queue.resize_with(plan.nseg, VecDeque::new);
        self.sa_queue.truncate(plan.nseg);
        for q in &mut self.sa_queue {
            q.clear();
        }
        refill(&mut self.served, plan.nproc, 0);
        refill(&mut self.retry_at, plan.nseg, u64::MAX);
        self.ca_disp_at = u64::MAX;
        self.ca_queue.clear();
        self.transfers.clear();

        refill(&mut self.sas, plan.nseg, SaCounters::default());
        self.ca = CaCounters::default();
        refill(&mut self.bus_ctr, plan.n_bu, BuCounters::default());
        refill(&mut self.fus, plan.nproc, FuTimes::default());
        for (i, fu) in self.fus.iter_mut().enumerate() {
            if self.remaining_out[i] == 0 && self.remaining_inp[i] == 0 {
                fu.flag = true;
            }
        }
        self.makespan = Picos::ZERO;

        // Precomputed schedule slices: every run-invariant ticks × period
        // product, evaluated once per run instead of once per event.
        self.flow_compute_ps.clear();
        for i in 0..plan.flow_src.len() {
            let seg = plan.proc_seg[plan.flow_src[i].index()];
            let period = plan.fast_seg[seg.index()].period.d;
            self.flow_compute_ps.push(plan.flow_compute[i] * period);
        }
        self.seg_bus_ps.clear();
        self.seg_hop_wait_ps.clear();
        let hop_wait_ticks = cfg.timing.wp_sample_ticks + cfg.timing.bu_sync_ticks;
        for clk in &plan.fast_seg {
            self.seg_bus_ps.push(bus_ticks * clk.period.d);
            self.seg_hop_wait_ps.push(hop_wait_ticks * clk.period.d);
        }
        self.ca_req_ps = cfg.timing.ca_request_ticks * plan.fast_ca.period.d;
    }
}

// ---------------------------------------------------------------------------
// entry point

/// Execute `plan` on the fast core, streaming every trace event into
/// `sink` when there is one. Picks the traced or untraced instantiations
/// once and dispatches over the arbitration × release matrix to the
/// matching monomorphised loop; the report is bit-identical to
/// [`crate::ReferenceEmulator`]'s whether or not a sink is given.
/// `out.trace` stays `None` — the events went to the sink.
///
/// # Panics
/// Panics if `frames` is zero.
pub(crate) fn run_fast(
    plan: &EnginePlan,
    sc: &mut FastScratch,
    cfg: &EmulatorConfig,
    frames: u64,
    sink: Option<&mut dyn TraceSink>,
    out: &mut EmulationReport,
) {
    assert!(frames > 0, "at least one frame");
    assert!(
        frames <= MAX_FRAMES,
        "frame count exceeds the packed-event range"
    );
    match sink {
        Some(sink) => run_policy::<true>(plan, sc, cfg, frames, Some(sink), out),
        None => run_policy::<false>(plan, sc, cfg, frames, None, out),
    }
}

fn run_policy<'r, const TRACED: bool>(
    plan: &'r EnginePlan,
    sc: &'r mut FastScratch,
    cfg: &EmulatorConfig,
    frames: u64,
    sink: Option<&'r mut dyn TraceSink>,
    out: &mut EmulationReport,
) {
    use ArbitrationPolicy as A;
    use ProducerRelease as R;
    match (cfg.arbitration, cfg.producer_release) {
        (A::Fifo, R::AfterDelivery) => {
            run_mono::<FifoArb, RelDelivery, TRACED>(plan, sc, cfg, frames, sink, out)
        }
        (A::Fifo, R::AfterLocalPhase) => {
            run_mono::<FifoArb, RelLocal, TRACED>(plan, sc, cfg, frames, sink, out)
        }
        (A::FixedPriority, R::AfterDelivery) => {
            run_mono::<PriorityArb, RelDelivery, TRACED>(plan, sc, cfg, frames, sink, out)
        }
        (A::FixedPriority, R::AfterLocalPhase) => {
            run_mono::<PriorityArb, RelLocal, TRACED>(plan, sc, cfg, frames, sink, out)
        }
        (A::FairRoundRobin, R::AfterDelivery) => {
            run_mono::<FairArb, RelDelivery, TRACED>(plan, sc, cfg, frames, sink, out)
        }
        (A::FairRoundRobin, R::AfterLocalPhase) => {
            run_mono::<FairArb, RelLocal, TRACED>(plan, sc, cfg, frames, sink, out)
        }
    }
}

fn run_mono<'r, A: Arbitration, R: Release, const TRACED: bool>(
    plan: &'r EnginePlan,
    sc: &'r mut FastScratch,
    cfg: &EmulatorConfig,
    frames: u64,
    sink: Option<&'r mut dyn TraceSink>,
    out: &mut EmulationReport,
) {
    let bus_ticks = cfg.timing.bus_transaction_ticks(plan.s);
    sc.reset(plan, frames, cfg, bus_ticks, TRACED);
    FastRun::<A, R, TRACED> {
        plan,
        sc,
        frames,
        bus_ticks,
        ca_request_ticks: cfg.timing.ca_request_ticks,
        ca_grant_ticks: cfg.timing.ca_grant_ticks,
        ca_release_ticks: cfg.timing.ca_release_ticks,
        sink,
        _policy: PhantomData,
    }
    .execute_into(out)
}

// ---------------------------------------------------------------------------
// one monomorphised run

struct FastRun<'r, 'a, A, R, const TRACED: bool> {
    plan: &'r EnginePlan<'a>,
    sc: &'r mut FastScratch,
    frames: u64,
    bus_ticks: u64,
    ca_request_ticks: u64,
    ca_grant_ticks: u64,
    ca_release_ticks: u64,
    /// `Some` exactly when `TRACED`; the untraced instantiations never
    /// read it and the branch in [`Self::trace`] folds away.
    sink: Option<&'r mut dyn TraceSink>,
    _policy: PhantomData<(A, R)>,
}

impl<A: Arbitration, R: Release, const TRACED: bool> FastRun<'_, '_, A, R, TRACED> {
    /// Emit a trace event; a no-op compiled out entirely when `!TRACED`.
    #[inline(always)]
    fn trace(&mut self, e: TraceEvent) {
        if TRACED {
            if let Some(s) = &mut self.sink {
                s.emit(&e);
            }
        }
    }

    // -- queue ------------------------------------------------------------

    /// Insert at the leftmost slot among equal timestamps: among
    /// simultaneous events the earliest-scheduled sits rightmost and
    /// [`Self::pop`] takes it first, which reproduces the plain schedule's
    /// `(time, seq)` order without materialising sequence numbers.
    #[inline(always)]
    fn schedule(&mut self, at: Picos, ev: u64) {
        let q = &mut self.sc.queue;
        let i = q.partition_point(|e| e.at > at.0);
        q.insert(i, QEntry { at: at.0, ev });
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<QEntry> {
        self.sc.queue.pop()
    }

    /// Schedule a local dispatch at `at` unless one is already
    /// outstanding there (see the dedup argument in the module docs).
    #[inline(always)]
    fn request_dispatch(&mut self, seg: SegmentId, at: Picos) {
        let slot = &mut self.sc.retry_at[seg.index()];
        if *slot == at.0 {
            return;
        }
        *slot = at.0;
        self.schedule(at, ev::pack(ev::SA_DISPATCH, seg.0 as u32, 0));
    }

    /// Schedule a CA first-fit scan at `at` unless one is already
    /// outstanding there. All state a scan reads is written only by
    /// events that pop *before* any same-time scan (arrivals and
    /// releases are scheduled from strictly earlier instants), so
    /// back-to-back scans at one timestamp are no-ops after the first.
    #[inline(always)]
    fn request_ca_dispatch(&mut self, at: Picos) {
        if self.sc.ca_disp_at == at.0 {
            return;
        }
        self.sc.ca_disp_at = at.0;
        self.schedule(at, ev::pack(ev::CA_DISPATCH, 0, 0));
    }

    #[inline(always)]
    fn touch_sa(&mut self, si: usize, at: Picos) {
        let c = &mut self.sc.sas[si];
        c.last_activity = c.last_activity.max(at);
    }

    // -- wave / producer control ------------------------------------------

    /// Arm the producers of wave instance `g` at global time `t`.
    fn start_instance(&mut self, g: usize, t: Picos) {
        let plan = self.plan;
        let w = g % plan.waves.len();
        let frame = (g / plan.waves.len()) as u32;
        let flows = &plan.waves[w];
        // `Application::waves` builds one wave per order that is present.
        debug_assert!(!flows.is_empty(), "empty wave");
        for f in flows {
            let src = plan.flow_src[f.index()];
            self.sc.prod_pending[src.index()].push((*f, plan.flow_pkgs[f.index()], frame));
        }
        for p in 0..plan.nproc {
            if !self.sc.prod_busy[p] && !self.sc.prod_pending[p].is_empty() {
                self.start_next_package(ProcessId(p as u32), t);
            }
        }
    }

    fn complete_instance(&mut self, g: usize, now: Picos) {
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::WaveComplete,
            flow: None,
            package: None,
            process: None,
            segment: None,
        });
        let w = g % self.plan.waves.len();
        if w + 1 < self.plan.waves.len() {
            self.start_instance(g + 1, now);
        }
    }

    /// Round-robin pick of the producer's next package, with the
    /// reference's exact cursor updates, and account its compute
    /// ticks. Returns `None` when nothing is pending.
    #[inline]
    fn pick_package(&mut self, pi: usize) -> Option<(FlowId, u32)> {
        let pending = &mut self.sc.prod_pending[pi];
        if pending.is_empty() {
            return None;
        }
        let len = pending.len();
        let rr = self.sc.prod_rr[pi];
        let idx = if rr < len { rr } else { rr % len };
        let (flow, remaining, frame) = pending[idx];
        if TRACED {
            // Reconstruct the trace's frame-global package index
            // from the pre-decrement remaining count; one compute is in
            // flight per producer, so a single slot suffices.
            let pkgs = self.plan.flow_pkgs[flow.index()];
            self.sc.cur_pkg[pi] = frame as u64 * pkgs + (pkgs - remaining);
        }
        if remaining == 1 {
            pending.remove(idx);
            let len = pending.len();
            if len > 0 && self.sc.prod_rr[pi] >= len {
                self.sc.prod_rr[pi] %= len;
            }
        } else {
            pending[idx].1 -= 1;
            let len = pending.len();
            let rr = &mut self.sc.prod_rr[pi];
            *rr += 1;
            if *rr >= len {
                *rr %= len.max(1);
            }
        }
        self.sc.fus[pi].compute_ticks += self.plan.flow_compute[flow.index()];
        Some((flow, frame))
    }

    fn start_next_package(&mut self, p: ProcessId, t: Picos) {
        let pi = p.index();
        let Some((flow, frame)) = self.pick_package(pi) else {
            self.sc.prod_busy[pi] = false;
            return;
        };
        self.sc.prod_busy[pi] = true;

        let seg = self.plan.proc_seg[pi];
        let start = self.plan.fast_seg[seg.index()].next_edge(t);
        let end = start + Picos(self.sc.flow_compute_ps[flow.index()]);
        if self.sc.fus[pi].start.is_none() {
            self.sc.fus[pi].start = Some(start);
        }
        self.trace(TraceEvent {
            at: start,
            kind: TraceKind::ComputeStart,
            flow: Some(flow),
            package: Some(if TRACED { self.sc.cur_pkg[pi] } else { 0 }),
            process: Some(p),
            segment: Some(seg),
        });
        self.schedule(end, ev::pack(ev::COMPUTE_DONE, flow.0, frame));
    }

    // -- event handlers ----------------------------------------------------

    fn on_compute_done(&mut self, now: Picos, flow: FlowId, frame: u32) {
        let plan = self.plan;
        let src = plan.flow_src[flow.index()];
        let src_seg = plan.proc_seg[src.index()];
        let si = src_seg.index();
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::ComputeEnd,
            flow: Some(flow),
            package: Some(if TRACED {
                self.sc.cur_pkg[src.index()]
            } else {
                0
            }),
            process: Some(src),
            segment: Some(src_seg),
        });
        self.touch_sa(si, now);
        let path = plan.flow_path[flow.index()];
        if path == NO_PATH {
            self.sc.sas[si].intra_requests += 1;
            self.sc.sa_queue[si].push_back(LocalReq { flow, frame });
            if TRACED {
                let pkg = self.sc.cur_pkg[src.index()];
                self.sc.sa_pkg[si].push_back(pkg);
            }
            // Compute ends on an edge of the producer's own segment
            // clock, so the dispatch edge `next_edge(now)` is `now` and
            // the FIFO inline-dispatch condition always holds.
            debug_assert_eq!(plan.fast_seg[si].next_edge(now), now);
            if A::FIFO {
                self.on_sa_dispatch(now, src_seg);
            } else {
                self.request_dispatch(src_seg, now);
            }
        } else {
            self.sc.sas[si].inter_requests += 1;
            let req = self.sc.transfers.len() as u32;
            self.sc.transfers.push(InterTransfer { flow, frame, path });
            if TRACED {
                let pkg = self.sc.cur_pkg[src.index()];
                self.sc.tr_pkg.push(pkg);
            }
            let at = plan.fast_ca.next_edge(now) + Picos(self.sc.ca_req_ps);
            self.schedule(at, ev::pack(ev::CA_ARRIVE, req, 0));
        }
    }

    fn on_sa_dispatch(&mut self, now: Picos, seg: SegmentId) {
        let plan = self.plan;
        let si = seg.index();
        if self.sc.sa_queue[si].is_empty() {
            return;
        }
        if self.sc.reserved[si] {
            // Reserved into an inter-segment circuit; PhaseDone re-kicks.
            return;
        }
        if self.sc.bus_free[si] > now {
            let at = self.sc.bus_free[si];
            self.request_dispatch(seg, at);
            return;
        }
        let pick = A::pick(&self.sc.sa_queue[si], &plan.flow_src, &self.sc.served);
        let req = self.sc.sa_queue[si].remove(pick).expect("index in range");
        let pkg = if TRACED {
            self.sc.sa_pkg[si].remove(pick).expect("index in range")
        } else {
            0
        };
        self.sc.served[plan.flow_src[req.flow.index()].index()] += 1;
        // Dispatches run on edges of this segment's clock (see module
        // docs), so the serve starts at `now` exactly.
        debug_assert_eq!(plan.fast_seg[si].next_edge(now), now);
        let end = now + Picos(self.sc.seg_bus_ps[si]);
        self.sc.bus_free[si] = end;
        self.sc.sas[si].busy_ticks += self.bus_ticks;
        self.touch_sa(si, end);
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::BusStart,
            flow: Some(req.flow),
            package: Some(pkg),
            process: None,
            segment: Some(seg),
        });
        self.trace(TraceEvent {
            at: end,
            kind: TraceKind::BusEnd,
            flow: Some(req.flow),
            package: Some(pkg),
            process: None,
            segment: Some(seg),
        });
        let chain = !self.sc.sa_queue[si].is_empty();
        if self.sc.queue.last().is_none_or(|x| x.at > end.0) {
            // Every queued event lies strictly after `end`, so the
            // IntraDone we are about to schedule would be the unique
            // minimum and pop next; running it synchronously is
            // order-identical and skips the queue round-trip. (A dedup
            // marker equal to `end` cannot exist: markers always back a
            // queued event at their timestamp.)
            self.sc.makespan = end;
            self.on_intra_done(end, req.flow, req.frame, chain, pkg);
            return;
        }
        if TRACED {
            self.sc.intra_pkg[si].push_back(pkg);
        }
        if chain {
            // The fused follow-up dispatch doubles as the outstanding
            // retry at `end` — later busy attempts dedup against it.
            self.sc.retry_at[si] = end.0;
        }
        self.schedule(
            end,
            ev::pack(ev::INTRA_DONE, req.flow.0, req.frame << 1 | chain as u32),
        );
    }

    fn on_ca_arrive(&mut self, now: Picos, req: u32) {
        self.sc.ca.inter_requests += 1;
        self.sc.ca.busy_ticks += self.ca_request_ticks;
        self.sc.ca_queue.push_back(req);
        self.request_ca_dispatch(now);
    }

    fn on_ca_dispatch(&mut self, now: Picos) {
        // First-fit scan over the queued inter-segment requests.
        let plan = self.plan;
        let mut i = 0;
        while i < self.sc.ca_queue.len() {
            let req = self.sc.ca_queue[i];
            let tr = self.sc.transfers[req as usize];
            let available = plan.paths[tr.path as usize]
                .segs
                .iter()
                .all(|m| !self.sc.reserved[m.index()]);
            if available {
                self.sc.ca_queue.remove(i);
                self.grant(now, req);
            } else {
                i += 1;
            }
        }
    }

    /// Reserve the whole path and pre-schedule every hop.
    fn grant(&mut self, now: Picos, req: u32) {
        let plan = self.plan;
        let tr = self.sc.transfers[req as usize];
        let pkg = if TRACED {
            self.sc.tr_pkg[req as usize]
        } else {
            0
        };
        self.sc.ca.grants += 1;
        self.sc.ca.busy_ticks += self.ca_grant_ticks;
        let path = &plan.paths[tr.path as usize];

        let mut prev_end = Picos::ZERO;
        for (hop, &m) in path.segs.iter().enumerate() {
            let mi = m.index();
            let clk = plan.fast_seg[mi];
            self.sc.reserved[mi] = true;
            // `bus_free` is a past serve/hop end — already on this
            // segment's clock edge, so draining needs no re-snap.
            let drain = self.sc.bus_free[mi];
            debug_assert_eq!(clk.next_edge(drain), drain);
            let start = if hop == 0 {
                clk.next_edge(now).max(drain)
            } else {
                let base = clk.next_edge(prev_end);
                let start = (base + Picos(self.sc.seg_hop_wait_ps[mi])).max(drain);
                let wp = clk.ticks_at(start - prev_end);
                let b = &mut self.sc.bus_ctr[path.bu[hop - 1] as usize];
                b.waiting_ticks += wp;
                b.tct += 2 * plan.s as u64 + wp;
                start
            };
            let end = start + Picos(self.sc.seg_bus_ps[mi]);
            self.sc.bus_free[mi] = end;
            self.sc.sas[mi].busy_ticks += self.bus_ticks;
            self.touch_sa(mi, end);
            self.trace(TraceEvent {
                at: start,
                kind: TraceKind::BusStart,
                flow: Some(tr.flow),
                package: Some(pkg),
                process: None,
                segment: Some(m),
            });
            self.trace(TraceEvent {
                at: end,
                kind: TraceKind::BusEnd,
                flow: Some(tr.flow),
                package: Some(pkg),
                process: None,
                segment: Some(m),
            });
            if hop + 1 < path.segs.len() {
                let b = &mut self.sc.bus_ctr[path.bu[hop] as usize];
                if path.load_left[hop] {
                    b.received_from_left += 1;
                } else {
                    b.received_from_right += 1;
                }
                self.trace(TraceEvent {
                    at: end,
                    kind: TraceKind::BuLoaded,
                    flow: Some(tr.flow),
                    package: Some(pkg),
                    process: None,
                    segment: Some(m),
                });
            }
            if hop > 0 {
                let b = &mut self.sc.bus_ctr[path.bu[hop - 1] as usize];
                if path.unload_right[hop - 1] {
                    b.transferred_to_right += 1;
                } else {
                    b.transferred_to_left += 1;
                }
                self.sc.sas[mi].intra_requests += 1;
                self.trace(TraceEvent {
                    at: start,
                    kind: TraceKind::BuUnloaded,
                    flow: Some(tr.flow),
                    package: Some(pkg),
                    process: None,
                    segment: Some(m),
                });
            }
            self.schedule(end, ev::pack(ev::PHASE_DONE, req, hop as u32));
            prev_end = end;
        }
        let src = path.segs[0];
        if path.load_left[0] {
            self.sc.sas[src.index()].packets_to_right += 1;
        } else {
            self.sc.sas[src.index()].packets_to_left += 1;
        }
    }

    fn on_intra_done(&mut self, now: Picos, flow: FlowId, frame: u32, chain: bool, pkg: u64) {
        let src = self.plan.flow_src[flow.index()];
        self.deliver(now, flow, frame, pkg);
        self.producer_transfer_done(now, src);
        if !self.sc.ca_queue.is_empty() {
            self.request_ca_dispatch(self.plan.fast_ca.next_edge(now));
        }
        if chain {
            // The fused serve chain: in the plain schedule this is a
            // dispatch event with the sequence number right after this
            // IntraDone's, so nothing can pop in between and running it
            // here is order-identical.
            let seg = self.plan.proc_seg[src.index()];
            if self.sc.retry_at[seg.index()] == now.0 {
                self.sc.retry_at[seg.index()] = u64::MAX;
            }
            self.on_sa_dispatch(now, seg);
        }
    }

    fn on_phase_done(&mut self, now: Picos, req: u32, hop: u8) {
        let plan = self.plan;
        let tr = self.sc.transfers[req as usize];
        let path = &plan.paths[tr.path as usize];
        let seg = path.segs[hop as usize];
        self.sc.reserved[seg.index()] = false;
        self.sc.ca.releases += 1;
        self.sc.ca.busy_ticks += self.ca_release_ticks;
        let src = plan.flow_src[tr.flow.index()];
        let last = hop as usize == path.segs.len() - 1;
        if R::AFTER_LOCAL_PHASE {
            if hop == 0 {
                self.producer_transfer_done(now, src);
            }
        } else if last {
            self.producer_transfer_done(now, src);
        }
        if last {
            let pkg = if TRACED {
                self.sc.tr_pkg[req as usize]
            } else {
                0
            };
            self.deliver(now, tr.flow, tr.frame, pkg);
        }
        if !self.sc.sa_queue[seg.index()].is_empty() {
            self.request_dispatch(seg, now);
        }
        if !self.sc.ca_queue.is_empty() {
            self.request_ca_dispatch(plan.fast_ca.next_edge(now));
        }
    }

    fn producer_transfer_done(&mut self, now: Picos, p: ProcessId) {
        let pi = p.index();
        self.sc.fus[pi].packages_sent += 1;
        self.sc.fus[pi].end = Some(now);
        self.sc.remaining_out[pi] -= 1;
        self.maybe_raise_flag(now, p);
        self.start_next_package(p, now);
    }

    fn deliver(&mut self, now: Picos, flow: FlowId, frame: u32, pkg: u64) {
        let plan = self.plan;
        let dst = plan.flow_dst[flow.index()];
        let di = dst.index();
        let fu = &mut self.sc.fus[di];
        fu.packages_received += 1;
        fu.last_received = Some(now);
        self.sc.remaining_inp[di] -= 1;
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::Delivered,
            flow: Some(flow),
            package: Some(pkg),
            process: Some(dst),
            segment: Some(plan.proc_seg[di]),
        });
        self.maybe_raise_flag(now, dst);
        // The frame travelled with the package (module docs), so no
        // package-index division is needed here.
        let g = frame as usize * plan.waves.len() + plan.flow_wave[flow.index()];
        self.sc.instance_remaining[g] -= 1;
        if self.sc.instance_remaining[g] == 0 {
            self.complete_instance(g, now);
        }
    }

    #[inline(always)]
    fn maybe_raise_flag(&mut self, now: Picos, p: ProcessId) {
        let i = p.index();
        if !self.sc.fus[i].flag && self.sc.remaining_out[i] == 0 && self.sc.remaining_inp[i] == 0 {
            self.sc.fus[i].flag = true;
            self.trace(TraceEvent {
                at: now,
                kind: TraceKind::FlagRaised,
                flow: None,
                package: None,
                process: Some(p),
                segment: None,
            });
        }
    }

    // -- main loop ---------------------------------------------------------

    fn execute_into(mut self, out: &mut EmulationReport) {
        let plan = self.plan;
        if !plan.waves.is_empty() {
            // Arm wave 0 of every frame at `t = 0`, in frame order.
            for frame in 0..self.frames {
                self.start_instance(frame as usize * plan.waves.len(), Picos::ZERO);
            }
        }
        while let Some(e) = self.pop() {
            let at = Picos(e.at);
            debug_assert!(at >= self.sc.makespan, "time ran backwards");
            // Pops are nondecreasing in time, so the makespan is simply
            // the last popped timestamp.
            self.sc.makespan = at;
            match ev::tag(e.ev) {
                ev::COMPUTE_DONE => self.on_compute_done(at, FlowId(ev::a(e.ev)), ev::b(e.ev)),
                ev::SA_DISPATCH => {
                    let seg = SegmentId(ev::a(e.ev) as u16);
                    if self.sc.retry_at[seg.index()] == at.0 {
                        self.sc.retry_at[seg.index()] = u64::MAX;
                    }
                    self.on_sa_dispatch(at, seg);
                }
                ev::CA_ARRIVE => self.on_ca_arrive(at, ev::a(e.ev)),
                ev::CA_DISPATCH => {
                    if self.sc.ca_disp_at == at.0 {
                        self.sc.ca_disp_at = u64::MAX;
                    }
                    self.on_ca_dispatch(at);
                }
                ev::INTRA_DONE => {
                    let fc = ev::b(e.ev);
                    let flow = FlowId(ev::a(e.ev));
                    let pkg = if TRACED {
                        // Serve ends are strictly increasing per segment,
                        // so outstanding IntraDones pop in push order.
                        let si = plan.proc_seg[plan.flow_src[flow.index()].index()].index();
                        self.sc.intra_pkg[si].pop_front().expect("pending serve")
                    } else {
                        0
                    };
                    self.on_intra_done(at, flow, fc >> 1, fc & 1 != 0, pkg);
                }
                _ => {
                    debug_assert_eq!(ev::tag(e.ev), ev::PHASE_DONE);
                    self.on_phase_done(at, ev::a(e.ev), ev::b(e.ev) as u8);
                }
            }
        }
        debug_assert!(
            self.sc.fus.iter().all(|f| f.flag),
            "emulation drained with unraised flags — schedule deadlock"
        );
        for (i, sa) in self.sc.sas.iter_mut().enumerate() {
            sa.tct = plan.seg_clock[i].ticks_covering(sa.last_activity);
        }
        self.sc.ca.tct = plan.ca_clock.ticks_covering(self.sc.makespan);
        // clone_from reuses the output report's allocations; the result
        // is bit-identical to a freshly assembled report.
        out.sas.clone_from(&self.sc.sas);
        out.ca = self.sc.ca;
        out.bus.clone_from(&self.sc.bus_ctr);
        out.bu_refs.clear();
        out.bu_refs.extend(plan.psm.platform().border_units());
        out.fus.clone_from(&self.sc.fus);
        out.segment_clocks.clone_from(&plan.seg_clock);
        out.ca_clock = plan.ca_clock;
        out.package_size = plan.s;
        out.makespan = self.sc.makespan;
        out.trace = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::trace::TraceLog;
    use crate::ReferenceEmulator;
    use segbus_model::mapping::{Allocation, Psm};
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;

    fn assert_same_report(a: &EmulationReport, b: &EmulationReport, label: &str) {
        assert_eq!(a.makespan, b.makespan, "{label}: makespan");
        assert_eq!(a.sas, b.sas, "{label}: sas");
        assert_eq!(a.ca, b.ca, "{label}: ca");
        assert_eq!(a.bus, b.bus, "{label}: bus");
        assert_eq!(a.fus, b.fus, "{label}: fus");
        assert_eq!(a.bu_refs, b.bu_refs, "{label}: bu_refs");
        assert_eq!(a.segment_clocks, b.segment_clocks, "{label}: clocks");
    }

    fn assert_identical(psm: &Psm, frames: u64, cfg: EmulatorConfig, label: &str) {
        let a = ReferenceEmulator::new(cfg).run_frames(psm, frames);
        let b = Engine::new(cfg).run_frames(psm, frames);
        assert_same_report(&a, &b, label);
    }

    /// Traced runs: the fast core's report equals the reference's, and
    /// both traces hold the same events (compared in canonical order —
    /// the emission order is pinned by golden digests instead). Returns
    /// the fast core's trace.
    fn assert_same_trace(psm: &Psm, frames: u64, cfg: EmulatorConfig, label: &str) -> TraceLog {
        let a = ReferenceEmulator::new(cfg).run_frames(psm, frames);
        let b = Engine::new(cfg).run_frames(psm, frames);
        assert_same_report(&a, &b, label);
        let mut ta = a.trace.expect("reference trace").events().to_vec();
        let tb = b.trace.expect("fast trace");
        let mut sorted = tb.events().to_vec();
        ta.sort();
        sorted.sort();
        assert_eq!(ta.len(), sorted.len(), "{label}: event count");
        for (i, (x, y)) in ta.iter().zip(&sorted).enumerate() {
            assert_eq!(x, y, "{label}: event {i} in canonical order");
        }
        tb
    }

    /// Mixed-shape PSM zoo: local + inter-segment + multi-wave +
    /// contention + ring wrap-around.
    fn shapes() -> Vec<Psm> {
        let uniform = |nseg: usize| {
            Platform::builder("t")
                .package_size(36)
                .ca_clock(ClockDomain::from_mhz(111.0))
                .uniform_segments(nseg, ClockDomain::from_mhz(97.0))
                .build()
                .unwrap()
        };

        let mut out = Vec::new();

        // Local pair.
        let mut app = Application::new("pair");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 5 * 36, 1, 100)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        out.push(Psm::new(uniform(1), app, alloc).unwrap());

        // Remote pair over two hops.
        let mut app = Application::new("remote");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 7 * 36, 1, 60)).unwrap();
        let mut alloc = Allocation::new(3);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(2));
        out.push(Psm::new(uniform(3), app, alloc).unwrap());

        // Contention: three producers flood one sink.
        let mut app = Application::new("flood");
        let ps: Vec<ProcessId> = (0..3)
            .map(|i| app.add_process(Process::initial(format!("A{i}"))))
            .collect();
        let sink = app.add_process(Process::final_("S"));
        for &p in &ps {
            app.add_flow(Flow::new(p, sink, 6 * 36, 1, 5)).unwrap();
        }
        let mut alloc = Allocation::new(1);
        for p in ps.iter().chain(std::iter::once(&sink)) {
            alloc.assign(*p, SegmentId(0));
        }
        out.push(Psm::new(uniform(1), app, alloc).unwrap());

        // Two waves crossing segments + a ring wrap.
        let mut app = Application::new("waves");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 4 * 36, 1, 40)).unwrap();
        app.add_flow(Flow::new(b, c, 3 * 36, 2, 30)).unwrap();
        let mut alloc = Allocation::new(3);
        alloc.assign(a, SegmentId(2));
        alloc.assign(b, SegmentId(0));
        alloc.assign(c, SegmentId(1));
        let ring = Platform::builder("ring")
            .package_size(36)
            .topology(segbus_model::platform::Topology::Ring)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(3, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        out.push(Psm::new(ring, app, alloc).unwrap());

        // The full MP3 decoder mapping.
        out.push(segbus_apps::mp3::three_segment_psm());

        out
    }

    /// The heart of the tentpole: every arbitration × release pair, every
    /// shape, single- and multi-frame, bit-identical reports.
    #[test]
    fn fast_core_is_bit_identical_across_policy_matrix() {
        let arbs = [
            ArbitrationPolicy::Fifo,
            ArbitrationPolicy::FixedPriority,
            ArbitrationPolicy::FairRoundRobin,
        ];
        let rels = [
            ProducerRelease::AfterDelivery,
            ProducerRelease::AfterLocalPhase,
        ];
        for psm in shapes() {
            for &arbitration in &arbs {
                for &producer_release in &rels {
                    let cfg = EmulatorConfig {
                        arbitration,
                        producer_release,
                        ..EmulatorConfig::default()
                    };
                    for frames in [1, 3] {
                        let label = format!("{arbitration:?}/{producer_release:?}/f{frames}");
                        assert_identical(&psm, frames, cfg, &label);
                    }
                }
            }
        }
    }

    /// Detailed timing exercises the BU synchroniser arithmetic.
    #[test]
    fn fast_core_matches_under_detailed_timing() {
        for psm in shapes() {
            assert_identical(&psm, 2, EmulatorConfig::detailed(), "detailed");
        }
    }

    /// A reused engine cycling through shapes must not leak state.
    #[test]
    fn fast_scratch_reuse_is_bit_identical() {
        let mut engine = Engine::new(EmulatorConfig::default());
        for psm in shapes().iter().chain(shapes().iter().rev()) {
            let fresh = ReferenceEmulator::new(EmulatorConfig::default()).run(psm);
            assert_same_report(&fresh, &engine.run(psm), "reused engine");
        }
    }

    /// The traced fast instantiations record the reference's events —
    /// same kinds, timestamps and flow/package/process/segment payloads —
    /// across every shape, the full policy matrix and multi-frame runs,
    /// with bit-identical reports at the same time.
    #[test]
    fn traced_fast_core_matches_reference_events() {
        let arbs = [
            ArbitrationPolicy::Fifo,
            ArbitrationPolicy::FixedPriority,
            ArbitrationPolicy::FairRoundRobin,
        ];
        let rels = [
            ProducerRelease::AfterDelivery,
            ProducerRelease::AfterLocalPhase,
        ];
        for psm in shapes() {
            for &arbitration in &arbs {
                for &producer_release in &rels {
                    let cfg = EmulatorConfig {
                        arbitration,
                        producer_release,
                        ..EmulatorConfig::traced()
                    };
                    for frames in [1, 3] {
                        let label = format!("{arbitration:?}/{producer_release:?}/f{frames}");
                        assert_same_trace(&psm, frames, cfg, &label);
                    }
                }
            }
        }
    }

    /// Traced detailed timing exercises the BU synchroniser trace sites.
    /// The emission order is pinned by golden digests of the event
    /// stream ([`TraceLog::digest`]), one `(application, events, digest)`
    /// row per shape.
    #[test]
    fn traced_fast_core_matches_under_detailed_timing() {
        const GOLDEN: [(&str, usize, u64); 5] = [
            ("pair", 54, 0x618d_c4b4_e35b_07f9),
            ("remote", 186, 0xeb25_1982_4b21_e5c1),
            ("flood", 186, 0xa8ea_c2cc_0599_2e4c),
            ("waves", 133, 0xe9ba_3b7c_c2f6_4085),
            ("mp3-decoder", 2543, 0x1c0e_aef9_0e5e_352f),
        ];
        let cfg = EmulatorConfig {
            trace: true,
            ..EmulatorConfig::detailed()
        };
        let shapes = shapes();
        assert_eq!(shapes.len(), GOLDEN.len(), "every shape has a golden row");
        for (psm, (name, events, digest)) in shapes.iter().zip(GOLDEN) {
            assert_eq!(psm.application().name(), name);
            let trace = assert_same_trace(psm, 2, cfg, name);
            assert_eq!(trace.len(), events, "{name}: event count");
            assert_eq!(trace.digest(), digest, "{name}: emission order");
        }
    }

    /// Streaming a fast-core trace through an `.sbt` round-trip loses
    /// nothing: the file's decoded events equal the in-memory log.
    #[test]
    fn traced_fast_core_streams_to_sbt() {
        use crate::sbt::{read_trace, SbtWriter};
        let psm = segbus_apps::mp3::three_segment_psm();
        let in_memory = Engine::new(EmulatorConfig::traced()).run_frames(&psm, 2);
        let dir = std::env::temp_dir().join(format!("fast-sbt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mp3.sbt");
        let mut sink = SbtWriter::create(&path, 3, 10).unwrap();
        let plan = EnginePlan::new(&psm);
        let streamed = {
            let mut engine = Engine::new(EmulatorConfig::traced());
            engine.run_plan_with_sink(&plan, 2, &mut sink)
        };
        sink.finish().unwrap();
        assert!(streamed.trace.is_none(), "events went to the sink");
        assert_eq!(streamed.makespan, in_memory.makespan);
        let t = read_trace(&path).unwrap();
        assert!(!t.truncated);
        assert_eq!(t.log.events(), in_memory.trace.as_ref().unwrap().events());
    }

    /// Deep frame pipelining: every frame arms at `t = 0`.
    #[test]
    fn deep_frame_pipelining_matches_reference() {
        let psm = segbus_apps::mp3::three_segment_psm();
        for frames in [1, 2, 7, 16] {
            assert_identical(&psm, frames, EmulatorConfig::default(), "frames");
        }
    }

    /// The packed event must stay within one 16-byte queue entry, and
    /// the bit fields must round-trip.
    #[test]
    fn event_packing_round_trips() {
        assert_eq!(std::mem::size_of::<QEntry>(), 16);
        let e = ev::pack(ev::INTRA_DONE, u32::MAX, (1 << 29) - 1);
        assert_eq!(ev::tag(e), ev::INTRA_DONE);
        assert_eq!(ev::a(e), u32::MAX);
        assert_eq!(ev::b(e), (1 << 29) - 1);
    }
}
