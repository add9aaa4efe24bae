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
//! * **One inline rule** — a handler whose last action schedules an
//!   event runs that event's handler inline instead, skipping the queue
//!   round-trip, exactly when every queued event lies strictly after it
//!   (`pops_next`). The event is then the handler's tail and the unique
//!   queue minimum, and no dispatch dedup marker (below) can stand at its
//!   instant, because a marker always backs a queued event; so the plain
//!   schedule would pop it next. Two handlers end this way under every
//!   policy: a local compute end, whose dispatch attempt lands on the
//!   compute end itself (computation ends on a segment-clock edge), and
//!   a serve, whose `IntraDone` lands at the transaction end.
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
//! * **CA path bitsets and path heads** — the plan compiles each route's
//!   segment set into `u64` words (`PathInfo::mask`, one word per 64
//!   segments) and the CA keeps its reservations in the same layout, so
//!   checking a path is one `AND` per word, whatever the segment count.
//!   The CA queue is kept per path: every request on a path has the same
//!   mask, so when first-fit reaches a path's oldest request, every later
//!   request on that path fails too — the oldest was either granted, and
//!   reserved the path, or blocked, and a scan only adds reservations. A
//!   scan therefore walks only the oldest request of each path
//!   (`ca_heads`, in arrival order) and grants what a walk of the whole
//!   queue would, in the same order. On the grid scenarios this cut the
//!   requests walked per scan from 13.3 to 2.6.
//! * **CA scan elision** — a scan grants something only if some head's
//!   path is free, and `ca_dirty` records exactly that: it is set by an
//!   arrival that becomes a head with a free path, or by a release that
//!   frees some head's path, and cleared by a scan. Nothing else changes
//!   what a scan reads: grants happen only inside scans, and a completed
//!   scan leaves every head blocked, because its grants only add
//!   reservations. A scan that finds the flag clear returns at once
//!   (debug builds re-check that a walk of the whole queue would grant
//!   nothing, and that every scan that does walk grants), and
//!   `request_ca_dispatch` drops a scan that is sure to find it clear.
//!   Dropping is sound only while no arrival or release is queued for the
//!   scan's CA edge: such a scan pops before the events that arrival or
//!   release schedules at that instant, so it must stay (its docs give
//!   the argument; the `scan-edge` shape in the tests pins it).
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
//! same events in the same order. Every surviving event is scheduled in
//! the same program order (so tie-breaks coincide), every elided event
//! is one whose handler could not have changed state, and every
//! timestamp is computed by the same strength-reduced arithmetic
//! (`engine::FastClock`).
//! The tests below, `tests/trace_differential.rs` and the fuzz harness in
//! `tests/fuzz_differential.rs` enforce the contract across all
//! arbitration × release modes, traces compared in emission order;
//! committed golden digests pin the oracle's order over time.

use std::collections::VecDeque;
use std::marker::PhantomData;

use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::time::Picos;

use crate::config::{
    bus_transaction_ticks, ArbitrationPolicy, EmulatorConfig, ProducerRelease, CA_GRANT_TICKS,
    CA_RELEASE_TICKS, CA_REQUEST_TICKS, WP_SAMPLE_TICKS,
};
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
    /// Index of the request to serve next (queue is non-empty).
    fn pick(queue: &VecDeque<LocalReq>, flow_src: &[ProcessId], served: &[u64]) -> usize;
}

struct FifoArb;
impl Arbitration for FifoArb {
    #[inline(always)]
    fn pick(_q: &VecDeque<LocalReq>, _src: &[ProcessId], _served: &[u64]) -> usize {
        0
    }
}

struct PriorityArb;
impl Arbitration for PriorityArb {
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

/// Bit `i` of a segment bitset laid out like `PathInfo::mask`.
#[inline(always)]
fn has_seg(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

/// `true` when two segment bitsets share no segment.
#[inline(always)]
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
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
    /// While the request waits at the CA: the next request queued on the
    /// same path, or [`NO_REQ`].
    next: u32,
}

/// "No request" in `InterTransfer::next` and `FastScratch::ca_tail`.
const NO_REQ: u32 = u32::MAX;

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
    /// The CA's segment reservations, a bitset laid out like
    /// `PathInfo::mask`.
    reserved: Vec<u64>,
    sa_queue: Vec<VecDeque<LocalReq>>,
    served: Vec<u64>,
    /// Timestamp of the single outstanding dispatch retry/chain per
    /// segment (`u64::MAX` when none) — the dedup marker.
    retry_at: Vec<u64>,
    /// Timestamp of the outstanding CA dispatch scan (`u64::MAX` if none).
    ca_disp_at: u64,
    /// The newest queued request of each path (indexed like the plan's
    /// route table), or [`NO_REQ`]. A path's queued requests form a list
    /// from its head through `InterTransfer::next`, in arrival order.
    ca_tail: Vec<u32>,
    /// The oldest queued request of each path that has one, in arrival
    /// order: the only requests a first-fit scan can grant.
    ca_heads: Vec<u32>,
    /// Set when an arrival or a release leaves some head's path free,
    /// cleared by a first-fit scan: while it is clear, a scan would grant
    /// nothing.
    ca_dirty: bool,
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
    /// BU sampling wait per segment (`WP_SAMPLE_TICKS × period`).
    seg_hop_wait_ps: Vec<u64>,
    /// CA request registration latency (`CA_REQUEST_TICKS × CA period`).
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
    fn reset(&mut self, plan: &EnginePlan, frames: u64, bus_ticks: u64, traced: bool) {
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
        refill(&mut self.reserved, plan.nseg.div_ceil(64), 0);
        self.sa_queue.resize_with(plan.nseg, VecDeque::new);
        self.sa_queue.truncate(plan.nseg);
        for q in &mut self.sa_queue {
            q.clear();
        }
        refill(&mut self.served, plan.nproc, 0);
        refill(&mut self.retry_at, plan.nseg, u64::MAX);
        self.ca_disp_at = u64::MAX;
        refill(&mut self.ca_tail, plan.paths.len(), NO_REQ);
        self.ca_heads.clear();
        self.ca_dirty = false;
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
        for clk in &plan.fast_seg {
            self.seg_bus_ps.push(bus_ticks * clk.period.d);
            self.seg_hop_wait_ps.push(WP_SAMPLE_TICKS * clk.period.d);
        }
        self.ca_req_ps = CA_REQUEST_TICKS * plan.fast_ca.period.d;
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
            run_mono::<FifoArb, RelDelivery, TRACED>(plan, sc, frames, sink, out)
        }
        (A::Fifo, R::AfterLocalPhase) => {
            run_mono::<FifoArb, RelLocal, TRACED>(plan, sc, frames, sink, out)
        }
        (A::FixedPriority, R::AfterDelivery) => {
            run_mono::<PriorityArb, RelDelivery, TRACED>(plan, sc, frames, sink, out)
        }
        (A::FixedPriority, R::AfterLocalPhase) => {
            run_mono::<PriorityArb, RelLocal, TRACED>(plan, sc, frames, sink, out)
        }
        (A::FairRoundRobin, R::AfterDelivery) => {
            run_mono::<FairArb, RelDelivery, TRACED>(plan, sc, frames, sink, out)
        }
        (A::FairRoundRobin, R::AfterLocalPhase) => {
            run_mono::<FairArb, RelLocal, TRACED>(plan, sc, frames, sink, out)
        }
    }
}

fn run_mono<'r, A: Arbitration, R: Release, const TRACED: bool>(
    plan: &'r EnginePlan,
    sc: &'r mut FastScratch,
    frames: u64,
    sink: Option<&'r mut dyn TraceSink>,
    out: &mut EmulationReport,
) {
    let bus_ticks = bus_transaction_ticks(plan.s);
    sc.reset(plan, frames, bus_ticks, TRACED);
    FastRun::<A, R, TRACED> {
        plan,
        sc,
        frames,
        bus_ticks,
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

    /// `true` when an event scheduled now at `at` would pop next: every
    /// queued event lies strictly after it. A handler whose last action
    /// schedules such an event may run its handler inline instead ("One
    /// inline rule" in the module docs).
    #[inline(always)]
    fn pops_next(&self, at: Picos) -> bool {
        self.sc.queue.last().is_none_or(|e| e.at > at.0)
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

    /// Schedule a CA first-fit scan at `at` (a CA clock edge) unless one
    /// is already outstanding there, or the scan is sure to grant nothing.
    ///
    /// *Dedup.* All state a scan reads is written only by events that pop
    /// before any same-time scan: an arrival at `at` was scheduled at or
    /// before the previous CA edge (it lands `CA_REQUEST_TICKS ≥ 1` CA
    /// periods after an edge), and a release at `at` by a grant at an
    /// earlier CA edge, while a scan at `at` is requested after that edge.
    /// So back-to-back scans at one timestamp are no-ops after the first.
    ///
    /// *Drop.* With `ca_dirty` clear and no arrival or release queued at
    /// or before `at`, nothing can set the flag before the scan would pop:
    /// an arrival scheduled from now on lands after `at`, and releases are
    /// scheduled only by grants, which need the flag. The scan would find
    /// the flag clear and return, so it is a no-op event, and dropping it
    /// keeps the order of every other event. Every request for `at` made
    /// before it would pop meets the same condition and is dropped too.
    #[inline(always)]
    fn request_ca_dispatch(&mut self, at: Picos) {
        if self.sc.ca_disp_at == at.0 || !(self.sc.ca_dirty || self.ca_change_pending(at)) {
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
            // clock, so the dispatch edge `next_edge(now)` is `now`.
            debug_assert_eq!(plan.fast_seg[si].next_edge(now), now);
            if self.pops_next(now) {
                self.on_sa_dispatch(now, src_seg);
            } else {
                self.request_dispatch(src_seg, now);
            }
        } else {
            self.sc.sas[si].inter_requests += 1;
            let req = self.sc.transfers.len() as u32;
            self.sc.transfers.push(InterTransfer {
                flow,
                frame,
                path,
                next: NO_REQ,
            });
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
        if has_seg(&self.sc.reserved, si) {
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
        if self.pops_next(end) {
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
        self.sc.ca.busy_ticks += CA_REQUEST_TICKS;
        // Arrivals pop in request-id order: ids are handed out in compute
        // order, and an arrival lands a fixed CA latency after the next
        // CA edge, so a later compute never arrives first.
        debug_assert!(self.sc.ca_tail.iter().all(|&t| t == NO_REQ || t < req));
        let path = self.sc.transfers[req as usize].path as usize;
        let tail = std::mem::replace(&mut self.sc.ca_tail[path], req);
        if tail == NO_REQ {
            self.sc.ca_heads.push(req);
            self.sc.ca_dirty |= disjoint(&self.plan.paths[path].mask, &self.sc.reserved);
        } else {
            // Queued behind an older request on the same path: a scan
            // reaches it only once that one is granted.
            self.sc.transfers[tail as usize].next = req;
        }
        self.request_ca_dispatch(now);
    }

    /// First-fit scan: grant, in queue order, every request whose path
    /// is disjoint from the reservations, each grant reserving its path
    /// before the next check. Only each path's oldest request is walked
    /// ("CA path bitsets and path heads" in the module docs), and the scan
    /// returns at once when no head's path is free ("CA scan elision").
    fn on_ca_dispatch(&mut self, now: Picos) {
        if !self.sc.ca_dirty {
            // Nothing freed a head's path since the last scan, which left
            // every head blocked. Debug builds re-check that a walk of
            // the whole queue, segment by segment, would grant nothing.
            #[cfg(debug_assertions)]
            for &head in &self.sc.ca_heads {
                let mut req = head;
                while req != NO_REQ {
                    let tr = self.sc.transfers[req as usize];
                    assert!(
                        self.plan.paths[tr.path as usize]
                            .segs
                            .iter()
                            .any(|m| has_seg(&self.sc.reserved, m.index())),
                        "elided CA scan would have granted request {req}"
                    );
                    req = tr.next;
                }
            }
            return;
        }
        self.sc.ca_dirty = false;
        let grants = self.sc.ca.grants;
        let mut i = 0;
        while i < self.sc.ca_heads.len() {
            let req = self.sc.ca_heads[i];
            let tr = self.sc.transfers[req as usize];
            if !disjoint(&self.plan.paths[tr.path as usize].mask, &self.sc.reserved) {
                i += 1;
                continue;
            }
            self.sc.ca_heads.remove(i);
            self.grant(now, req);
            if tr.next == NO_REQ {
                self.sc.ca_tail[tr.path as usize] = NO_REQ;
            } else {
                // The path's next request becomes its head, placed by
                // arrival (= id) order. The grant reserved its path, so it
                // stays blocked for the rest of this scan.
                let j = self.sc.ca_heads.partition_point(|&h| h < tr.next);
                self.sc.ca_heads.insert(j, tr.next);
            }
        }
        debug_assert!(
            self.sc.ca.grants > grants,
            "a CA scan ran with no free path"
        );
    }

    /// `true` when some queued request's path is free.
    fn ca_grantable(&self) -> bool {
        self.sc.ca_heads.iter().any(|&h| {
            let path = self.sc.transfers[h as usize].path as usize;
            disjoint(&self.plan.paths[path].mask, &self.sc.reserved)
        })
    }

    /// `true` when a CA arrival or a segment release is queued at or
    /// before `at`: an event that can set `ca_dirty` before a scan at
    /// `at` pops.
    fn ca_change_pending(&self, at: Picos) -> bool {
        self.sc
            .queue
            .iter()
            .rev()
            .take_while(|e| e.at <= at.0)
            .any(|e| matches!(ev::tag(e.ev), ev::CA_ARRIVE | ev::PHASE_DONE))
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
        self.sc.ca.busy_ticks += CA_GRANT_TICKS;
        let path = &plan.paths[tr.path as usize];
        for (r, m) in self.sc.reserved.iter_mut().zip(&path.mask) {
            debug_assert_eq!(*r & m, 0, "granted path overlaps a reservation");
            *r |= m;
        }

        let mut prev_end = Picos::ZERO;
        for (hop, &m) in path.segs.iter().enumerate() {
            let mi = m.index();
            let clk = plan.fast_seg[mi];
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
        if !self.sc.ca_heads.is_empty() {
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
        self.sc.reserved[seg.index() / 64] &= !(1 << (seg.index() % 64));
        if !self.sc.ca_dirty {
            self.sc.ca_dirty = self.ca_grantable();
        }
        self.sc.ca.releases += 1;
        self.sc.ca.busy_ticks += CA_RELEASE_TICKS;
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
        if !self.sc.ca_heads.is_empty() {
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
    use crate::test_support::{estimate, reference, run_plan};
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
        let a = reference(cfg, psm, frames);
        let b = estimate(cfg, psm, frames);
        assert_same_report(&a, &b, label);
    }

    /// Traced runs: the fast core's report equals the reference's, and
    /// both traces hold the same events in the same emission order.
    fn assert_same_trace(psm: &Psm, frames: u64, cfg: EmulatorConfig, label: &str) {
        let a = reference(cfg, psm, frames);
        let b = estimate(cfg, psm, frames);
        assert_same_report(&a, &b, label);
        let ta = a.trace.expect("reference trace");
        let tb = b.trace.expect("fast trace");
        assert_eq!(ta.len(), tb.len(), "{label}: event count");
        for (i, (x, y)) in ta.events().iter().zip(tb.events()).enumerate() {
            assert_eq!(x, y, "{label}: event {i}");
        }
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

        // A CA scan that must not be dropped. On a 3-segment ring with
        // every clock at 100 MHz, R (S1 -> S2) and H (S1 -> S3, over the
        // wrap) arrive at tick 101; the scan grants R, and H waits for S1.
        // At tick 141 a local serve on S3 ends first, then R's hop-0
        // release frees S1, and L has waited on S1 since tick 110. The
        // serve end asks for a scan while that release is still queued at
        // the same CA edge: kept, the scan pops before the dispatch the
        // release schedules, so H gets S1 before L; dropped, L goes first.
        let mut app = Application::new("scan-edge");
        let mut alloc = Allocation::new(3);
        for (name, src, dst, ticks) in [
            ("R", 0, 1, 100),
            ("H", 0, 2, 100),
            ("Q", 2, 2, 101),
            ("L", 0, 0, 110),
        ] {
            let a = app.add_process(Process::initial(format!("{name}0")));
            let b = app.add_process(Process::final_(format!("{name}1")));
            app.add_flow(Flow::new(a, b, 36, 1, ticks)).unwrap();
            alloc.assign(a, SegmentId(src));
            alloc.assign(b, SegmentId(dst));
        }
        let ring = Platform::builder("ring")
            .package_size(36)
            .topology(segbus_model::platform::Topology::Ring)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(3, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        out.push(Psm::new(ring, app, alloc).unwrap());

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

    /// A reused engine cycling through shapes must not leak state.
    #[test]
    fn fast_scratch_reuse_is_bit_identical() {
        let mut engine = Engine::new(EmulatorConfig::default());
        for psm in shapes().iter().chain(shapes().iter().rev()) {
            let fresh = reference(EmulatorConfig::default(), psm, 1);
            let reused = engine.try_run(psm).unwrap();
            assert_same_report(&fresh, &reused, "reused engine");
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

    /// Streaming a fast-core trace through an `.sbt` round-trip loses
    /// nothing: the file's decoded events equal the in-memory log.
    #[test]
    fn traced_fast_core_streams_to_sbt() {
        use crate::sbt::{read_trace, SbtWriter};
        let psm = segbus_apps::mp3::three_segment_psm();
        let in_memory = estimate(EmulatorConfig::traced(), &psm, 2);
        let dir = std::env::temp_dir().join(format!("fast-sbt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mp3.sbt");
        let mut sink = SbtWriter::create(&path, 3, 10).unwrap();
        let streamed = Engine::new(EmulatorConfig::traced())
            .try_run_frames_with_sink(&psm, 2, &mut sink)
            .unwrap();
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

    /// A 130-segment platform, so path bitsets span three words, with
    /// flows whose paths cross the 63/64 and 127/128 word boundaries (one
    /// of them leftward, contending with another), and a flow from the
    /// first segment to the last: over the whole line, or one hop over
    /// the wrap of a ring. The last flow's sink sits on `last_sink`.
    fn wide(topology: segbus_model::platform::Topology, last_sink: u16) -> Psm {
        let mut app = Application::new("wide");
        let mut alloc = Allocation::new(130);
        for (src, dst) in [(60, 66), (65, 62), (126, 129), (0, last_sink)] {
            let a = app.add_process(Process::initial(format!("A{src}")));
            let b = app.add_process(Process::final_(format!("B{src}")));
            app.add_flow(Flow::new(a, b, 4 * 36, 1, 30)).unwrap();
            alloc.assign(a, SegmentId(src));
            alloc.assign(b, SegmentId(dst));
        }
        let platform = Platform::builder("wide")
            .package_size(36)
            .topology(topology)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(130, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        Psm::new(platform, app, alloc).unwrap()
    }

    /// More than 64 segments, linear and ring: the multi-word bitsets
    /// reproduce the reference under every policy, over 1 and 3 frames.
    #[test]
    fn multi_word_paths_match_reference() {
        use segbus_model::platform::Topology;
        for topology in [Topology::Linear, Topology::Ring] {
            let psm = wide(topology, 129);
            for arbitration in [
                ArbitrationPolicy::Fifo,
                ArbitrationPolicy::FixedPriority,
                ArbitrationPolicy::FairRoundRobin,
            ] {
                for producer_release in [
                    ProducerRelease::AfterDelivery,
                    ProducerRelease::AfterLocalPhase,
                ] {
                    let cfg = EmulatorConfig {
                        arbitration,
                        producer_release,
                        ..EmulatorConfig::default()
                    };
                    for frames in [1, 3] {
                        let label =
                            format!("{topology:?} {arbitration:?}/{producer_release:?}/f{frames}");
                        assert_identical(&psm, frames, cfg, &label);
                    }
                }
            }
        }
    }

    /// A remap that needs a route the plan has not compiled yet (segment
    /// 0 to 100) extends the route table with the right bitset: the
    /// patched plan routes every flow like a fresh plan of the moved
    /// model, and runs to the same report.
    #[test]
    fn remapped_route_bitsets_equal_a_fresh_plan() {
        use segbus_model::platform::Topology;
        let psm = wide(Topology::Linear, 129);
        let mut patched = EnginePlan::try_new(&psm).unwrap();
        let routes = patched.paths.len();
        let sink = ProcessId(7);
        assert_eq!(patched.segment_of(sink), SegmentId(129));
        patched.try_remap(sink, SegmentId(100)).unwrap();
        assert_eq!(patched.paths.len(), routes + 1, "one new route");
        let moved = wide(Topology::Linear, 100);
        let fresh = EnginePlan::try_new(&moved).unwrap();
        for f in 0..fresh.flow_path.len() {
            let a = &patched.paths[patched.flow_path[f] as usize];
            let b = &fresh.paths[fresh.flow_path[f] as usize];
            assert_eq!(a.segs, b.segs, "flow {f}: segments");
            assert_eq!(a.mask, b.mask, "flow {f}: bitset");
            assert_eq!(a.mask.len(), 3, "flow {f}: three words");
        }
        let mut engine = Engine::new(EmulatorConfig::default());
        let a = run_plan(&mut engine, &patched, 2);
        let b = run_plan(&mut engine, &fresh, 2);
        assert_same_report(&a, &b, "patched vs fresh plan");
        let r = reference(EmulatorConfig::default(), &moved, 2);
        assert_same_report(&a, &r, "patched plan vs reference");
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
