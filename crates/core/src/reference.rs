//! The original estimation engine, kept verbatim as the oracle.
//!
//! This is the first implementation of the emulator (fresh state per run,
//! `BinaryHeap` event queue, owned path vectors in every transfer). The
//! specialised core in [`crate::fast`] replaced it on the hot path, and
//! this copy is the only other implementation in the repo, with two jobs:
//!
//! * **oracle** — the differential tests (`fast.rs`, the core crate's
//!   `tests/differential.rs`, and the workspace's `trace_differential`
//!   and `fuzz_differential` suites) assert that the fast core reproduces
//!   its reports, rejection codes and trace events exactly. Trace
//!   *emission order* may differ under FIFO arbitration (see "Inline
//!   FIFO dispatch" in [`crate::fast`]), so committed golden digests pin
//!   the fast core's order instead;
//! * **performance baseline** — the `exp_perf` harness times it to anchor
//!   the speedup figure in `BENCH_engine.json`.
//!
//! Apart from the type rename (`Emulator` → [`ReferenceEmulator`]), this
//! header and the additive `try_run`/`try_run_frames` wrappers (which run
//! the shared pre-flight validation and then call the verbatim engine),
//! the code is untouched; keep it that way so the baseline stays
//! meaningful.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::time::{ClockDomain, Picos};
use segbus_model::SegbusError;

use crate::config::{ArbitrationPolicy, EmulatorConfig, ProducerRelease};
use crate::counters::{BuCounters, CaCounters, FuTimes, SaCounters};
use crate::report::EmulationReport;
use crate::trace::{TraceEvent, TraceKind, TraceLog};

/// The performance-estimation emulator.
///
/// Construct once with a configuration, then [`ReferenceEmulator::run`] any number
/// of PSMs (runs are independent).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceEmulator {
    config: EmulatorConfig,
}

impl ReferenceEmulator {
    /// Create an emulator with the given configuration.
    pub fn new(config: EmulatorConfig) -> ReferenceEmulator {
        ReferenceEmulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EmulatorConfig {
        &self.config
    }

    /// Execute the PSM to completion and return the report.
    pub fn run(&self, psm: &Psm) -> EmulationReport {
        Sim::new(psm, self.config, 1).run()
    }

    /// Execute `frames` back-to-back iterations of the application — the
    /// streaming case the single-shot paper experiment abstracts away.
    ///
    /// Successive frames *pipeline* through the wave schedule: frame
    /// `k`'s wave `w` becomes eligible as soon as frame `k`'s wave `w−1`
    /// has delivered, independent of frame `k−1`'s later waves; each
    /// functional unit still produces its own packages strictly in frame
    /// order. `run_frames(psm, 1)` is identical to [`ReferenceEmulator::run`].
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn run_frames(&self, psm: &Psm, frames: u64) -> EmulationReport {
        assert!(frames > 0, "at least one frame");
        Sim::new(psm, self.config, frames).run()
    }

    /// Like [`ReferenceEmulator::run`], but runs the strict pre-flight
    /// validation first and returns a typed error instead of panicking —
    /// mirrors [`crate::engine::Emulator::try_run`], so the differential
    /// harness can feed both engines un-prechecked inputs.
    pub fn try_run(&self, psm: &Psm) -> Result<EmulationReport, SegbusError> {
        self.try_run_frames(psm, 1)
    }

    /// Fallible counterpart of [`ReferenceEmulator::run_frames`]; see
    /// [`ReferenceEmulator::try_run`].
    pub fn try_run_frames(&self, psm: &Psm, frames: u64) -> Result<EmulationReport, SegbusError> {
        crate::precheck::strict_validate(psm, frames, &self.config)?;
        Ok(Sim::new(psm, self.config, frames).run())
    }
}

// ---------------------------------------------------------------------------
// events

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ev {
    /// A producer finished computing a package of `flow`.
    ComputeDone { flow: FlowId, pkg: u64 },
    /// Try to dispatch the local request queue of `seg`.
    SaDispatch { seg: SegmentId },
    /// An inter-segment request reaches the CA.
    CaArrive { req: u32 },
    /// Try to grant queued inter-segment requests.
    CaDispatch,
    /// An intra-segment transfer completed.
    IntraDone { flow: FlowId, pkg: u64 },
    /// Hop `hop` of inter-segment transfer `req` completed.
    PhaseDone { req: u32, hop: u8 },
}

struct QEntry {
    at: Picos,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    // Reversed: BinaryHeap is a max-heap, we need the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// ---------------------------------------------------------------------------
// simulation state

/// A pending intra-segment package transfer.
#[derive(Clone, Copy, Debug)]
struct LocalReq {
    flow: FlowId,
    pkg: u64,
}

/// An inter-segment transfer in flight.
#[derive(Clone, Debug)]
struct InterTransfer {
    flow: FlowId,
    pkg: u64,
    /// Segments on the path, source first, destination last.
    path: Vec<SegmentId>,
    /// Granted yet?
    granted: bool,
}

#[derive(Clone, Debug, Default)]
struct ProducerState {
    /// (flow, packages remaining, frame) for the armed wave instances.
    pending: Vec<(FlowId, u64, u64)>,
    /// Round-robin cursor over `pending`.
    rr: usize,
    /// Currently computing or transferring a package.
    busy: bool,
}

struct Sim<'a> {
    psm: &'a Psm,
    cfg: EmulatorConfig,
    s: u32,
    // static tables
    flow_pkgs: Vec<u64>,
    flow_compute: Vec<u64>,
    seg_clock: Vec<ClockDomain>,
    ca_clock: ClockDomain,
    waves: Vec<Vec<FlowId>>,
    // event queue
    queue: BinaryHeap<QEntry>,
    seq: u64,
    // schedule state
    frames: u64,
    /// Wave index of each flow (parallel to the flow table).
    flow_wave: Vec<usize>,
    /// Outstanding deliveries per wave instance (`frame * waves + wave`).
    instance_remaining: Vec<u64>,
    producers: Vec<ProducerState>,
    outputs_remaining: Vec<u64>,
    inputs_remaining: Vec<u64>,
    // platform state
    bus_free: Vec<Picos>,
    /// Segment locked into a granted inter-segment circuit.
    reserved: Vec<bool>,
    sa_queue: Vec<VecDeque<LocalReq>>,
    /// Per-process local-bus service counts (fair round-robin arbitration).
    served: Vec<u64>,
    ca_queue: VecDeque<u32>,
    transfers: Vec<InterTransfer>,
    // counters
    sas: Vec<SaCounters>,
    ca: CaCounters,
    bus_ctr: Vec<BuCounters>,
    fus: Vec<FuTimes>,
    makespan: Picos,
    trace: Option<TraceLog>,
}

impl<'a> Sim<'a> {
    fn new(psm: &'a Psm, cfg: EmulatorConfig, frames: u64) -> Sim<'a> {
        let app = psm.application();
        let platform = psm.platform();
        let s = platform.package_size();
        let nseg = platform.segment_count();
        let nproc = app.process_count();

        let flow_pkgs: Vec<u64> = app.flows().iter().map(|f| f.packages(s)).collect();
        let flow_compute: Vec<u64> = (0..app.flows().len())
            .map(|i| app.ticks_per_package(FlowId(i as u32), s))
            .collect();
        let waves: Vec<Vec<FlowId>> = app.waves().into_iter().map(|w| w.flows).collect();
        let mut flow_wave = vec![0usize; app.flows().len()];
        for (w, flows) in waves.iter().enumerate() {
            for f in flows {
                flow_wave[f.index()] = w;
            }
        }
        let instance_remaining: Vec<u64> = (0..frames)
            .flat_map(|_| {
                waves
                    .iter()
                    .map(|flows| flows.iter().map(|f| flow_pkgs[f.index()]).sum::<u64>())
            })
            .collect();

        let mut outputs_remaining = vec![0u64; nproc];
        let mut inputs_remaining = vec![0u64; nproc];
        for (i, f) in app.flows().iter().enumerate() {
            outputs_remaining[f.src.index()] += flow_pkgs[i] * frames;
            inputs_remaining[f.dst.index()] += flow_pkgs[i] * frames;
        }

        let mut fus = vec![FuTimes::default(); nproc];
        // Processes with no flows at all raise their flag immediately.
        for (i, fu) in fus.iter_mut().enumerate() {
            if outputs_remaining[i] == 0 && inputs_remaining[i] == 0 {
                fu.flag = true;
            }
        }

        Sim {
            psm,
            cfg,
            s,
            flow_pkgs,
            flow_compute,
            seg_clock: platform.segments().iter().map(|sg| sg.clock).collect(),
            ca_clock: platform.ca_clock(),
            waves,
            queue: BinaryHeap::new(),
            seq: 0,
            frames,
            flow_wave,
            instance_remaining,
            producers: vec![ProducerState::default(); nproc],
            outputs_remaining,
            inputs_remaining,
            bus_free: vec![Picos::ZERO; nseg],
            reserved: vec![false; nseg],
            sa_queue: vec![VecDeque::new(); nseg],
            served: vec![0; nproc],
            ca_queue: VecDeque::new(),
            transfers: Vec::new(),
            sas: vec![SaCounters::default(); nseg],
            ca: CaCounters::default(),
            bus_ctr: vec![BuCounters::default(); platform.border_unit_count()],
            fus,
            makespan: Picos::ZERO,
            trace: cfg.trace.then(TraceLog::new),
        }
    }

    // -- helpers ----------------------------------------------------------

    fn schedule(&mut self, at: Picos, ev: Ev) {
        self.seq += 1;
        self.queue.push(QEntry {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn trace(&mut self, e: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(e);
        }
    }

    fn seg_of(&self, p: ProcessId) -> SegmentId {
        self.psm.segment_of(p)
    }

    fn touch_sa(&mut self, seg: SegmentId, at: Picos) {
        let c = &mut self.sas[seg.index()];
        c.last_activity = c.last_activity.max(at);
    }

    // -- wave / producer control ------------------------------------------

    /// Arm the producers of wave instance `g` (= frame × waves + wave) at
    /// global time `t`. Empty wave instances complete immediately.
    fn start_instance(&mut self, g: usize, t: Picos) {
        let w = g % self.waves.len();
        let frame = (g / self.waves.len()) as u64;
        let flows = self.waves[w].clone();
        if flows.is_empty() {
            self.complete_instance(g, t);
            return;
        }
        for f in &flows {
            let src = self.psm.application().flow(*f).src;
            self.producers[src.index()]
                .pending
                .push((*f, self.flow_pkgs[f.index()], frame));
        }
        // Kick every producer that has work and is idle.
        let nproc = self.producers.len();
        for p in 0..nproc {
            let pid = ProcessId(p as u32);
            if !self.producers[p].busy && !self.producers[p].pending.is_empty() {
                self.start_next_package(pid, t);
            }
        }
    }

    /// A wave instance fully delivered: open its successor within the frame.
    fn complete_instance(&mut self, g: usize, now: Picos) {
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::WaveComplete,
            flow: None,
            package: None,
            process: None,
            segment: None,
        });
        let w = g % self.waves.len();
        if w + 1 < self.waves.len() {
            self.start_instance(g + 1, now);
        }
    }

    /// Pick the producer's next package (round-robin over its same-wave
    /// flows) and schedule its computation.
    fn start_next_package(&mut self, p: ProcessId, t: Picos) {
        let st = &mut self.producers[p.index()];
        if st.pending.is_empty() {
            st.busy = false;
            return;
        }
        let idx = st.rr % st.pending.len();
        let (flow, remaining, frame) = st.pending[idx];
        // Frame-global package index, so every event stays unambiguous
        // without carrying the frame separately.
        let pkg = frame * self.flow_pkgs[flow.index()] + (self.flow_pkgs[flow.index()] - remaining);
        if remaining == 1 {
            st.pending.remove(idx);
            // keep rr pointing at the element after the removed one
            if !st.pending.is_empty() {
                st.rr %= st.pending.len();
            }
        } else {
            st.pending[idx].1 -= 1;
            st.rr = (st.rr + 1) % st.pending.len().max(1);
        }
        st.busy = true;

        let seg = self.seg_of(p);
        let clk = self.seg_clock[seg.index()];
        let start = clk.next_edge(t);
        let compute = self.flow_compute[flow.index()];
        let dur = clk.ticks_to_picos(compute);
        let end = start + dur;
        self.fus[p.index()].compute_ticks += compute;
        if self.fus[p.index()].start.is_none() {
            self.fus[p.index()].start = Some(start);
        }
        self.trace(TraceEvent {
            at: start,
            kind: TraceKind::ComputeStart,
            flow: Some(flow),
            package: Some(pkg),
            process: Some(p),
            segment: Some(seg),
        });
        self.schedule(end, Ev::ComputeDone { flow, pkg });
    }

    // -- event handlers ----------------------------------------------------

    fn on_compute_done(&mut self, now: Picos, flow: FlowId, pkg: u64) {
        let f = *self.psm.application().flow(flow);
        let src_seg = self.seg_of(f.src);
        let dst_seg = self.seg_of(f.dst);
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::ComputeEnd,
            flow: Some(flow),
            package: Some(pkg),
            process: Some(f.src),
            segment: Some(src_seg),
        });
        self.touch_sa(src_seg, now);
        if src_seg == dst_seg {
            self.sas[src_seg.index()].intra_requests += 1;
            self.sa_queue[src_seg.index()].push_back(LocalReq { flow, pkg });
            let at = self.seg_clock[src_seg.index()].next_edge(now);
            self.schedule(at, Ev::SaDispatch { seg: src_seg });
        } else {
            self.sas[src_seg.index()].inter_requests += 1;
            let path = self.psm.platform().path_segments(src_seg, dst_seg);
            let req = self.transfers.len() as u32;
            self.transfers.push(InterTransfer {
                flow,
                pkg,
                path,
                granted: false,
            });
            let at = self.ca_clock.next_edge(now)
                + self
                    .ca_clock
                    .ticks_to_picos(self.cfg.timing.ca_request_ticks);
            self.schedule(at, Ev::CaArrive { req });
        }
    }

    fn on_sa_dispatch(&mut self, now: Picos, seg: SegmentId) {
        let si = seg.index();
        if self.sa_queue[si].is_empty() {
            return;
        }
        if self.reserved[si] {
            // The CA connected this segment into an inter-segment circuit;
            // local traffic resumes at the cascade release (PhaseDone
            // re-triggers dispatch).
            return;
        }
        if self.bus_free[si] > now {
            // Bus busy; retry when it frees.
            let at = self.bus_free[si];
            self.schedule(at, Ev::SaDispatch { seg });
            return;
        }
        let pick = match self.cfg.arbitration {
            ArbitrationPolicy::Fifo => 0,
            ArbitrationPolicy::FixedPriority => self.sa_queue[si]
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (self.psm.application().flow(r.flow).src, *i))
                .map(|(i, _)| i)
                .expect("checked non-empty"),
            ArbitrationPolicy::FairRoundRobin => self.sa_queue[si]
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| {
                    let src = self.psm.application().flow(r.flow).src;
                    (self.served[src.index()], *i)
                })
                .map(|(i, _)| i)
                .expect("checked non-empty"),
        };
        let req = self.sa_queue[si].remove(pick).expect("index in range");
        self.served[self.psm.application().flow(req.flow).src.index()] += 1;
        let clk = self.seg_clock[si];
        let start = clk.next_edge(now);
        let ticks = self.cfg.timing.bus_transaction_ticks(self.s);
        let end = start + clk.ticks_to_picos(ticks);
        self.bus_free[si] = end;
        self.sas[si].busy_ticks += ticks;
        self.touch_sa(seg, end);
        self.trace(TraceEvent {
            at: start,
            kind: TraceKind::BusStart,
            flow: Some(req.flow),
            package: Some(req.pkg),
            process: None,
            segment: Some(seg),
        });
        self.trace(TraceEvent {
            at: end,
            kind: TraceKind::BusEnd,
            flow: Some(req.flow),
            package: Some(req.pkg),
            process: None,
            segment: Some(seg),
        });
        self.schedule(
            end,
            Ev::IntraDone {
                flow: req.flow,
                pkg: req.pkg,
            },
        );
        // More work queued? Try again when the bus frees.
        if !self.sa_queue[si].is_empty() {
            self.schedule(end, Ev::SaDispatch { seg });
        }
    }

    fn on_ca_arrive(&mut self, now: Picos, req: u32) {
        let _ = now;
        self.ca.inter_requests += 1;
        self.ca.busy_ticks += self.cfg.timing.ca_request_ticks;
        self.ca_queue.push_back(req);
        self.schedule(now, Ev::CaDispatch);
    }

    fn on_ca_dispatch(&mut self, now: Picos) {
        // First-fit scan: reserve every queued request whose full path is
        // not already part of another circuit (the CA may run disjoint
        // same-order global flows simultaneously, §3.1). Segments still
        // draining a local transaction are reserved immediately; the
        // circuit's phases start once each bus frees.
        let mut i = 0;
        while i < self.ca_queue.len() {
            let req = self.ca_queue[i];
            let available = self.transfers[req as usize]
                .path
                .iter()
                .all(|m| !self.reserved[m.index()]);
            if available {
                self.ca_queue.remove(i);
                self.grant(now, req);
            } else {
                i += 1;
            }
        }
    }

    /// Reserve the whole path and pre-schedule every hop (circuit-switched
    /// transfer with cascaded release, paper Fig. 2).
    fn grant(&mut self, now: Picos, req: u32) {
        let tr = self.transfers[req as usize].clone();
        debug_assert!(!tr.granted);
        self.transfers[req as usize].granted = true;
        self.ca.grants += 1;
        self.ca.busy_ticks += self.cfg.timing.ca_grant_ticks;
        let timing = self.cfg.timing;
        let ticks = timing.bus_transaction_ticks(self.s);

        let mut prev_end = Picos::ZERO;
        for (hop, &m) in tr.path.iter().enumerate() {
            let mi = m.index();
            let clk = self.seg_clock[mi];
            self.reserved[mi] = true;
            // A reserved segment first drains its in-flight local
            // transaction; the circuit's phase starts on the later of the
            // protocol time and that drain point.
            let drain = clk.next_edge(self.bus_free[mi]);
            let start = if hop == 0 {
                clk.next_edge(now).max(drain)
            } else {
                // The downstream SA samples the loaded BU, plus (in
                // detailed timing) the clock-domain synchroniser.
                let base = clk.next_edge(prev_end);
                let wait = clk.ticks_to_picos(timing.wp_sample_ticks + timing.bu_sync_ticks);
                let start = (base + wait).max(drain);
                // Record the waiting period at the BU we are unloading.
                let bu = self
                    .psm
                    .platform()
                    .bu_between(tr.path[hop - 1], m)
                    .expect("path hops are adjacent");
                let wp = clk.ticks_at(start - prev_end);
                let b = &mut self.bus_ctr[bu.index()];
                b.waiting_ticks += wp;
                b.tct += 2 * self.s as u64 + wp;
                start
            };
            let end = start + clk.ticks_to_picos(ticks);
            self.bus_free[mi] = end;
            self.sas[mi].busy_ticks += ticks;
            self.touch_sa(m, end);
            self.trace(TraceEvent {
                at: start,
                kind: TraceKind::BusStart,
                flow: Some(tr.flow),
                package: Some(tr.pkg),
                process: None,
                segment: Some(m),
            });
            self.trace(TraceEvent {
                at: end,
                kind: TraceKind::BusEnd,
                flow: Some(tr.flow),
                package: Some(tr.pkg),
                process: None,
                segment: Some(m),
            });
            // Package movement bookkeeping at the end of this hop. The BU
            // side is the loading segment's position on that unit (which
            // also covers a ring's wrap-around BU).
            if hop + 1 < tr.path.len() {
                let next = tr.path[hop + 1];
                let bu = self.psm.platform().bu_between(m, next).expect("adjacent");
                let b = &mut self.bus_ctr[bu.index()];
                if m == bu.left {
                    b.received_from_left += 1;
                } else {
                    b.received_from_right += 1;
                }
                self.trace(TraceEvent {
                    at: end,
                    kind: TraceKind::BuLoaded,
                    flow: Some(tr.flow),
                    package: Some(tr.pkg),
                    process: None,
                    segment: Some(m),
                });
            }
            if hop > 0 {
                // This hop unloaded the BU behind it.
                let bu = self
                    .psm
                    .platform()
                    .bu_between(tr.path[hop - 1], m)
                    .expect("adjacent");
                let b = &mut self.bus_ctr[bu.index()];
                if m == bu.right {
                    b.transferred_to_right += 1;
                } else {
                    b.transferred_to_left += 1;
                }
                // Routing a BU delivery is an intra-segment job for this SA.
                self.sas[mi].intra_requests += 1;
                self.trace(TraceEvent {
                    at: start,
                    kind: TraceKind::BuUnloaded,
                    flow: Some(tr.flow),
                    package: Some(tr.pkg),
                    process: None,
                    segment: Some(m),
                });
            }
            self.schedule(
                end,
                Ev::PhaseDone {
                    req,
                    hop: hop as u8,
                },
            );
            prev_end = end;
        }
        // The source segment pushed one package toward the destination
        // (side = the source's position on its first-hop BU).
        let src = tr.path[0];
        let first_bu = self
            .psm
            .platform()
            .bu_between(src, tr.path[1])
            .expect("adjacent");
        if src == first_bu.left {
            self.sas[src.index()].packets_to_right += 1;
        } else {
            self.sas[src.index()].packets_to_left += 1;
        }
    }

    fn on_intra_done(&mut self, now: Picos, flow: FlowId, pkg: u64) {
        let f = *self.psm.application().flow(flow);
        self.deliver(now, flow, pkg);
        self.producer_transfer_done(now, f.src);
        // A freed bus may unblock a queued CA request.
        if !self.ca_queue.is_empty() {
            self.schedule(self.ca_clock.next_edge(now), Ev::CaDispatch);
        }
    }

    fn on_phase_done(&mut self, now: Picos, req: u32, hop: u8) {
        let tr = self.transfers[req as usize].clone();
        let seg = tr.path[hop as usize];
        // Cascade release: the CA resets this segment's grant.
        self.reserved[seg.index()] = false;
        self.ca.releases += 1;
        self.ca.busy_ticks += self.cfg.timing.ca_release_ticks;
        let f = *self.psm.application().flow(tr.flow);
        let last = hop as usize == tr.path.len() - 1;
        match self.cfg.producer_release {
            ProducerRelease::AfterLocalPhase if hop == 0 => {
                // Fire-and-forget: the producer handed the package to the
                // first BU and may compute its next package now.
                self.producer_transfer_done(now, f.src);
            }
            ProducerRelease::AfterDelivery if last => {
                // Flow control: the producer resumes only once the package
                // reached its destination.
                self.producer_transfer_done(now, f.src);
            }
            _ => {}
        }
        if last {
            self.deliver(now, tr.flow, tr.pkg);
        }
        // The freed segment may serve local or queued CA work.
        if !self.sa_queue[seg.index()].is_empty() {
            self.schedule(now, Ev::SaDispatch { seg });
        }
        if !self.ca_queue.is_empty() {
            self.schedule(self.ca_clock.next_edge(now), Ev::CaDispatch);
        }
    }

    /// Producer-side completion of one package's local transfer phase.
    fn producer_transfer_done(&mut self, now: Picos, p: ProcessId) {
        self.fus[p.index()].packages_sent += 1;
        self.fus[p.index()].end = Some(now);
        self.outputs_remaining[p.index()] -= 1;
        self.maybe_raise_flag(now, p);
        self.start_next_package(p, now);
    }

    /// Final delivery of a package at its destination process.
    fn deliver(&mut self, now: Picos, flow: FlowId, pkg: u64) {
        let f = *self.psm.application().flow(flow);
        let fu = &mut self.fus[f.dst.index()];
        fu.packages_received += 1;
        fu.last_received = Some(now);
        self.inputs_remaining[f.dst.index()] -= 1;
        self.trace(TraceEvent {
            at: now,
            kind: TraceKind::Delivered,
            flow: Some(flow),
            package: Some(pkg),
            process: Some(f.dst),
            segment: Some(self.seg_of(f.dst)),
        });
        self.maybe_raise_flag(now, f.dst);
        // Wave-instance bookkeeping: the frame is recovered from the
        // frame-global package index.
        let frame = pkg / self.flow_pkgs[flow.index()];
        let g = frame as usize * self.waves.len() + self.flow_wave[flow.index()];
        self.instance_remaining[g] -= 1;
        if self.instance_remaining[g] == 0 {
            self.complete_instance(g, now);
        }
    }

    fn maybe_raise_flag(&mut self, now: Picos, p: ProcessId) {
        let i = p.index();
        if !self.fus[i].flag && self.outputs_remaining[i] == 0 && self.inputs_remaining[i] == 0 {
            self.fus[i].flag = true;
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

    fn run(mut self) -> EmulationReport {
        if !self.waves.is_empty() {
            // Wave 0 of every frame is input-ready immediately (streaming
            // with a full input buffer); later waves open as their
            // predecessors deliver, so frames pipeline.
            for frame in 0..self.frames {
                self.start_instance(frame as usize * self.waves.len(), Picos::ZERO);
            }
        }
        while let Some(QEntry { at, ev, .. }) = self.queue.pop() {
            self.makespan = self.makespan.max(at);
            match ev {
                Ev::ComputeDone { flow, pkg } => self.on_compute_done(at, flow, pkg),
                Ev::SaDispatch { seg } => self.on_sa_dispatch(at, seg),
                Ev::CaArrive { req } => self.on_ca_arrive(at, req),
                Ev::CaDispatch => self.on_ca_dispatch(at),
                Ev::IntraDone { flow, pkg } => self.on_intra_done(at, flow, pkg),
                Ev::PhaseDone { req, hop } => self.on_phase_done(at, req, hop),
            }
        }
        debug_assert!(
            self.fus.iter().all(|f| f.flag),
            "emulation drained with unraised flags — schedule deadlock"
        );
        // Final counters: each SA's TCT runs to its last activity, the CA
        // polls until global quiescence.
        for (i, sa) in self.sas.iter_mut().enumerate() {
            sa.tct = self.seg_clock[i].ticks_covering(sa.last_activity);
        }
        self.ca.tct = self.ca_clock.ticks_covering(self.makespan);
        EmulationReport {
            sas: self.sas,
            ca: self.ca,
            bus: self.bus_ctr,
            bu_refs: self.psm.platform().border_units().collect(),
            fus: self.fus,
            segment_clocks: self.seg_clock,
            ca_clock: self.ca_clock,
            package_size: self.s,
            makespan: self.makespan,
            trace: self.trace,
        }
    }
}
