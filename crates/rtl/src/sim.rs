//! The tick-stepped reference simulator.
//!
//! Every clock domain (one per segment, one for the CA) advances edge by
//! edge; on each edge the domain's components execute one step of their
//! finite-state machines. Cross-domain communication goes exclusively
//! through timestamped messages and synchronised flags whose visibility is
//! **strictly later** than their emission (at least one synchroniser tick),
//! so domains that share an edge instant never observe each other's
//! same-instant effects and the order in which they are stepped does not
//! matter.
//!
//! State is split accordingly:
//!
//! * `Ctx` — immutable: the PSM, the configuration, precomputed tables;
//! * `DomainState` — owned by one segment's clock domain (its SA FSM, its
//!   FUs, its counters);
//! * `CaState` — owned by the CA domain;
//! * `Shared` — cross-domain mailboxes (CA inbox, per-SA reserve inbox,
//!   per-FU delivery acks), border-unit registers, the transfer arena and
//!   the wave scoreboard.

use segbus_core::counters::{BuCounters, CaCounters, FuTimes, SaCounters};
use segbus_core::report::EmulationReport;
use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::time::{ClockDomain, Picos};

use crate::config::RtlConfig;

/// Failure modes of a reference run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtlError {
    /// The simulation exceeded the configured tick budget without reaching
    /// quiescence — a protocol deadlock or an unschedulable model.
    Deadlock {
        /// Simulated time at the abort.
        at: Picos,
        /// Human-readable summary of the stuck state.
        detail: String,
    },
    /// A latency that a protocol state must spend at least one tick in
    /// is configured as zero.
    InvalidConfig {
        /// The offending [`RtlConfig`] field.
        field: &'static str,
    },
    /// The run was asked for zero frames.
    NoFrames,
}

impl std::fmt::Display for RtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtlError::Deadlock { at, detail } => {
                write!(f, "reference simulation deadlocked at {at}: {detail}")
            }
            RtlError::InvalidConfig { field } => {
                write!(
                    f,
                    "invalid reference-simulator configuration: {field} must be at least 1"
                )
            }
            RtlError::NoFrames => write!(f, "frame count must be non-zero"),
        }
    }
}

impl std::error::Error for RtlError {}

/// The reference ("real platform") simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtlSimulator {
    config: RtlConfig,
}

impl RtlSimulator {
    /// Create a simulator with explicit latencies.
    pub fn new(config: RtlConfig) -> RtlSimulator {
        RtlSimulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RtlConfig {
        &self.config
    }

    /// Simulate the PSM to quiescence.
    pub fn run(&self, psm: &Psm) -> Result<EmulationReport, RtlError> {
        self.run_frames(psm, 1)
    }

    /// Simulate `frames` pipelined iterations of the application (the
    /// streaming counterpart of [`segbus_core::Engine::try_run_frames`]).
    ///
    /// Returns [`RtlError::NoFrames`] if `frames` is zero, and
    /// [`RtlError::InvalidConfig`] if `sa_grant_ticks`,
    /// `master_response_ticks`, `detect_ticks` or `grant_reset_ticks` is
    /// zero: each is the length of an SA protocol state, which lasts at
    /// least one tick. The same holds for `sync_ticks`: without a
    /// synchroniser stage a cross-domain message would become visible in
    /// the instant it is sent.
    pub fn run_frames(&self, psm: &Psm, frames: u64) -> Result<EmulationReport, RtlError> {
        if frames == 0 {
            return Err(RtlError::NoFrames);
        }
        let cfg = &self.config;
        for (field, ticks) in [
            ("sa_grant_ticks", cfg.sa_grant_ticks),
            ("master_response_ticks", cfg.master_response_ticks),
            ("detect_ticks", cfg.detect_ticks),
            ("grant_reset_ticks", cfg.grant_reset_ticks),
            ("sync_ticks", cfg.sync_ticks),
        ] {
            if ticks == 0 {
                return Err(RtlError::InvalidConfig { field });
            }
        }
        let mut world = World::new(psm, self.config, frames);
        world.run()?;
        Ok(world.into_report())
    }
}

// ---------------------------------------------------------------------------
// identifiers & messages

/// Transfer id: an index into [`Shared::transfers`].
type Tid = usize;

/// Message to the central arbiter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CaMsg {
    /// An SA forwards an inter-segment request.
    Request(Tid),
    /// A segment finished its part of a transfer (cascade release).
    SegmentDone(SegmentId),
}

/// A timestamped message with a deterministic order key
/// `(visible_at, sender, sender_seq)`.
#[derive(Clone, Copy, Debug)]
struct Stamped<T> {
    visible_at: Picos,
    sender: u16,
    seq: u64,
    payload: T,
}

/// Mailbox with a drain order independent of insertion interleaving.
#[derive(Debug)]
struct Mailbox<T>(Vec<Stamped<T>>);

impl<T: Copy> Mailbox<T> {
    fn post(&mut self, visible_at: Picos, sender: u16, seq: u64, payload: T) {
        self.0.push(Stamped {
            visible_at,
            sender,
            seq,
            payload,
        });
    }

    /// Remove and return every message visible at `now`, ordered by
    /// `(visible_at, sender, seq)`.
    fn drain_due(&mut self, now: Picos) -> Vec<Stamped<T>> {
        let mut due: Vec<Stamped<T>> = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            if self.0[i].visible_at <= now {
                due.push(self.0.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|m| (m.visible_at, m.sender, m.seq));
        due
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

// ---------------------------------------------------------------------------
// shared state

/// One in-flight inter-segment transfer.
#[derive(Debug)]
struct Transfer {
    flow: FlowId,
    pkg: u64,
    path: Vec<SegmentId>,
    /// Next hop index to execute (0 = source fill).
    hop: usize,
}

/// Border-unit registers (single-package FIFO plus synchronised full flag).
#[derive(Debug, Default)]
struct BuShared {
    /// The package inside: `(transfer, visible_at, loaded_at)`.
    full: Option<(Tid, Picos, Picos)>,
    counters: BuCounters,
}

impl BuShared {
    /// Load transfer `t` from segment `from`; `bu_left` is the unit's
    /// left-hand segment.
    fn load(&mut self, bu_left: SegmentId, from: SegmentId, t: Tid, visible: Picos, now: Picos) {
        debug_assert!(self.full.is_none(), "BU overwritten");
        self.full = Some((t, visible, now));
        if from == bu_left {
            self.counters.received_from_left += 1;
        } else {
            self.counters.received_from_right += 1;
        }
    }
}

struct Shared {
    ca_inbox: Mailbox<CaMsg>,
    /// Per segment: path reservations arriving from the CA.
    sa_inbox: Vec<Mailbox<Tid>>,
    /// Per process: delivery acknowledgements (flow-control release).
    fu_ack: Vec<Mailbox<()>>,
    bus: Vec<BuShared>,
    /// Every inter-segment transfer of the run, in allocation order.
    transfers: Vec<Transfer>,
    // wave scoreboard (instances = frame × waves + wave)
    /// Outstanding deliveries per wave instance.
    instance_remaining: Vec<u64>,
    /// Opening instant of each instance (`u64::MAX` = not open yet;
    /// wave-0 instances open at 0). Producers act strictly after the
    /// opening instant (time 0 exempt).
    instance_open_at: Vec<u64>,
    /// Deliveries still outstanding over the whole run.
    total_remaining: u64,
    makespan: Picos,
}

impl Shared {
    fn note_activity(&mut self, at: Picos) {
        self.makespan = self.makespan.max(at);
    }

    fn mail_quiescent(&self) -> bool {
        self.ca_inbox.is_empty()
            && self.sa_inbox.iter().all(Mailbox::is_empty)
            && self.fu_ack.iter().all(Mailbox::is_empty)
            && self.bus.iter().all(|b| b.full.is_none())
    }

    /// `true` once instance `g` is open for producers at instant `now`.
    fn instance_openable(&self, g: usize, now: Picos) -> bool {
        let at = self.instance_open_at[g];
        at != u64::MAX && (now.0 > at || at == 0)
    }
}

// ---------------------------------------------------------------------------
// immutable context

/// Everything read-only during a run.
struct Ctx<'a> {
    psm: &'a Psm,
    cfg: RtlConfig,
    s: u32,
    flow_pkgs: Vec<u64>,
    flow_compute: Vec<u64>,
    /// flows grouped by wave.
    waves: Vec<Vec<FlowId>>,
    /// Wave index of each flow (parallel to the flow table).
    flow_wave: Vec<usize>,

    /// Number of pipelined frames.
    frames: u64,
    ca_clock: ClockDomain,
}

// ---------------------------------------------------------------------------
// per-domain state

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FuState {
    Idle,
    Computing {
        left: u64,
        flow: FlowId,
        pkg: u64,
    },
    Requesting {
        flow: FlowId,
        pkg: u64,
        forwarded: bool,
    },
    InTransaction {
        flow: FlowId,
        pkg: u64,
    },
    WaitDelivery,
}

#[derive(Clone, Debug)]
struct Fu {
    id: ProcessId,
    /// `(flow, packages remaining, frame)` for the armed wave instances.
    pending: Vec<(FlowId, u64, u64)>,
    rr: usize,
    /// The waves this FU produces in, with its flows per wave (built
    /// once, so the per-tick arming scan touches only relevant waves).
    my_waves: Vec<(usize, Vec<FlowId>)>,
    /// Per entry of `my_waves`: next frame not yet pulled into `pending`.
    armed_frame: Vec<u64>,
    state: FuState,
    times: FuTimes,
    outputs_remaining: u64,
    inputs_remaining: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Driver {
    /// A local master drives the bus.
    Fu {
        fu: usize,
        flow: FlowId,
        pkg: u64,
        inter: Option<Tid>,
    },
    /// The SA unloads a border unit (hop > 0 of a transfer).
    Bu { t: Tid },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SaState {
    Idle,
    GrantSet { left: u64 },
    Response { left: u64 },
    Transfer { beats_left: u64 },
    Detect { left: u64 },
    GrantReset { left: u64 },
}

/// Everything owned by one segment's clock domain.
struct DomainState {
    seg: SegmentId,
    clock: ClockDomain,
    fus: Vec<Fu>,
    sa_state: SaState,
    driver: Option<Driver>,
    /// Path reservations accepted from the CA, in arrival order.
    reservations: Vec<Tid>,
    sa_rr: usize,
    transfer_started: Picos,
    counters: SaCounters,
    /// Per-sender message sequence (deterministic mailbox ordering).
    seq: u64,
}

impl DomainState {
    /// `true` when this domain has nothing in flight and nothing pending.
    fn idle(&self) -> bool {
        self.sa_state == SaState::Idle
            && self.reservations.is_empty()
            && self
                .fus
                .iter()
                .all(|f| f.state == FuState::Idle && f.pending.is_empty())
    }
}

/// State owned by the CA domain.
struct CaState {
    clock: ClockDomain,
    queue: Vec<Tid>,
    reserved: Vec<Option<Tid>>,
    busy_left: u64,
    counters: CaCounters,
    seq: u64,
}

impl CaState {
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.busy_left == 0 && self.reserved.iter().all(Option::is_none)
    }
}

// ---------------------------------------------------------------------------
// step functions

/// One clock edge of a segment domain: functional units first, then the SA.
fn step_segment(ctx: &Ctx<'_>, shared: &mut Shared, d: &mut DomainState, now: Picos) {
    step_fus(ctx, shared, d, now);
    step_sa(ctx, shared, d, now);
}

fn step_fus(ctx: &Ctx<'_>, shared: &mut Shared, d: &mut DomainState, now: Picos) {
    let n_waves = ctx.waves.len();
    for fu in &mut d.fus {
        if fu.state == FuState::WaitDelivery {
            let acks = shared.fu_ack[fu.id.index()].drain_due(now);
            debug_assert!(acks.len() <= 1, "one outstanding package per producer");
            if !acks.is_empty() {
                // Producer-side completion happens at acknowledge receipt,
                // inside the producer's own domain.
                fu.state = FuState::Idle;
                fu.times.packages_sent += 1;
                fu.times.end = Some(now);
                fu.outputs_remaining -= 1;
                if fu.outputs_remaining == 0 && fu.inputs_remaining == 0 {
                    fu.times.flag = true;
                }
                shared.note_activity(now);
            }
        }
        match fu.state {
            FuState::Idle => {
                // Lazily pull newly opened wave instances into the local
                // queue. Per wave, instances open in frame order (each
                // producer emits its frames in order and per-flow delivery
                // order follows production order), so a per-wave frame
                // pointer arms deterministically. Producers act strictly
                // after the opening instant (time zero exempt).
                for k in 0..fu.my_waves.len() {
                    let w = fu.my_waves[k].0;
                    while fu.armed_frame[k] < ctx.frames
                        && shared.instance_openable(fu.armed_frame[k] as usize * n_waves + w, now)
                    {
                        let frame = fu.armed_frame[k];
                        for fi in 0..fu.my_waves[k].1.len() {
                            let f = fu.my_waves[k].1[fi];
                            fu.pending.push((f, ctx.flow_pkgs[f.index()], frame));
                        }
                        fu.armed_frame[k] += 1;
                    }
                }
                if let Some((flow, pkg)) = pick_next(fu, &ctx.flow_pkgs) {
                    let left = ctx.flow_compute[flow.index()];
                    fu.times.compute_ticks += left;
                    fu.state = FuState::Computing { left, flow, pkg };
                    if fu.times.start.is_none() {
                        fu.times.start = Some(now);
                    }
                }
            }
            FuState::Computing { left, flow, pkg } => {
                fu.state = if left <= 1 {
                    FuState::Requesting {
                        flow,
                        pkg,
                        forwarded: false,
                    }
                } else {
                    FuState::Computing {
                        left: left - 1,
                        flow,
                        pkg,
                    }
                };
            }
            // Requesting / InTransaction / WaitDelivery are driven by the
            // SA FSM and the ack path.
            _ => {}
        }
    }
}

fn step_sa(ctx: &Ctx<'_>, shared: &mut Shared, d: &mut DomainState, now: Picos) {
    let si = d.seg.index();
    // Accept path reservations from the CA.
    for m in shared.sa_inbox[si].drain_due(now) {
        d.reservations.push(m.payload);
    }

    // Forward fresh inter-segment requests to the CA (request lines are
    // sampled in parallel with the data-path FSM).
    for fi in 0..d.fus.len() {
        if let FuState::Requesting {
            flow,
            pkg,
            forwarded: false,
        } = d.fus[fi].state
        {
            let f = *ctx.psm.application().flow(flow);
            let dst_seg = ctx.psm.segment_of(f.dst);
            if dst_seg != d.seg {
                let path = ctx.psm.platform().path_segments(d.seg, dst_seg);
                let t = shared.transfers.len();
                shared.transfers.push(Transfer {
                    flow,
                    pkg,
                    path,
                    hop: 0,
                });
                let visible = now + Picos(ctx.cfg.sync_ticks * ctx.ca_clock.period_ps());
                let seq = d.seq;
                d.seq += 1;
                shared
                    .ca_inbox
                    .post(visible, si as u16, seq, CaMsg::Request(t));
                d.counters.inter_requests += 1;
                d.counters.last_activity = d.counters.last_activity.max(now);
                d.fus[fi].state = FuState::Requesting {
                    flow,
                    pkg,
                    forwarded: true,
                };
            }
        }
    }

    // The data-path FSM.
    match d.sa_state {
        SaState::Idle => sa_pick(ctx, shared, d, now),
        SaState::GrantSet { left } => {
            sa_busy(d, now);
            if left <= 1 {
                let resp = match d.driver {
                    Some(Driver::Fu { .. }) => ctx.cfg.master_response_ticks,
                    Some(Driver::Bu { .. }) => 1,
                    None => unreachable!("grant without driver"),
                };
                d.sa_state = SaState::Response { left: resp };
            } else {
                d.sa_state = SaState::GrantSet { left: left - 1 };
            }
        }
        SaState::Response { left } => {
            sa_busy(d, now);
            if left <= 1 {
                d.transfer_started = now;
                d.sa_state = SaState::Transfer {
                    beats_left: ctx.cfg.header_beats + ctx.s as u64,
                };
            } else {
                d.sa_state = SaState::Response { left: left - 1 };
            }
        }
        SaState::Transfer { beats_left } => {
            sa_busy(d, now);
            if beats_left <= 1 {
                d.sa_state = SaState::Detect {
                    left: ctx.cfg.detect_ticks,
                };
            } else {
                d.sa_state = SaState::Transfer {
                    beats_left: beats_left - 1,
                };
            }
        }
        SaState::Detect { left } => {
            sa_busy(d, now);
            if left <= 1 {
                complete_transaction(ctx, shared, d, now);
                d.sa_state = SaState::GrantReset {
                    left: ctx.cfg.grant_reset_ticks,
                };
            } else {
                d.sa_state = SaState::Detect { left: left - 1 };
            }
        }
        SaState::GrantReset { left } => {
            sa_busy(d, now);
            if left <= 1 {
                d.sa_state = SaState::Idle;
                d.driver = None;
            } else {
                d.sa_state = SaState::GrantReset { left: left - 1 };
            }
        }
    }
}

fn sa_busy(d: &mut DomainState, now: Picos) {
    d.counters.busy_ticks += 1;
    d.counters.last_activity = d.counters.last_activity.max(now);
}

/// Idle SA: pick the next bus transaction — path reservations (circuit
/// priority) first, then local intra-segment requests round-robin.
fn sa_pick(ctx: &Ctx<'_>, shared: &Shared, d: &mut DomainState, now: Picos) {
    // 1. A ready reservation?
    let mut pick: Option<(usize, Driver)> = None;
    for (ri, &t) in d.reservations.iter().enumerate() {
        let tr = &shared.transfers[t];
        if tr.path[tr.hop] != d.seg {
            continue; // not this segment's turn yet
        }
        if tr.hop == 0 {
            // Source fill: the requesting FU drives the bus.
            let src = ctx.psm.application().flow(tr.flow).src;
            let fi = d
                .fus
                .iter()
                .position(|f| f.id == src)
                .expect("source FU on source segment");
            if matches!(
                d.fus[fi].state,
                FuState::Requesting {
                    forwarded: true,
                    ..
                }
            ) {
                pick = Some((
                    ri,
                    Driver::Fu {
                        fu: fi,
                        flow: tr.flow,
                        pkg: tr.pkg,
                        inter: Some(t),
                    },
                ));
                break;
            }
        } else {
            // Downstream hop: the BU behind us must be visibly full.
            let prev = tr.path[tr.hop - 1];
            let bu = ctx
                .psm
                .platform()
                .bu_between(prev, d.seg)
                .expect("path hops adjacent");
            let ready = shared.bus[bu.index()]
                .full
                .is_some_and(|(ft, visible_at, _)| ft == t && visible_at <= now);
            if ready {
                pick = Some((ri, Driver::Bu { t }));
                break;
            }
        }
    }
    if let Some((ri, driver)) = pick {
        d.reservations.remove(ri);
        if let Driver::Fu { fu, flow, pkg, .. } = driver {
            d.fus[fu].state = FuState::InTransaction { flow, pkg };
        }
        if matches!(driver, Driver::Bu { .. }) {
            // Routing a BU delivery is intra-segment work for this SA.
            d.counters.intra_requests += 1;
        }
        d.driver = Some(driver);
        d.sa_state = SaState::GrantSet {
            left: ctx.cfg.sa_grant_ticks,
        };
        sa_busy(d, now);
        return;
    }

    // 2. A local intra-segment request, round-robin — but only when no
    // path reservation is pending: once the CA has dynamically connected
    // this segment into an inter-segment path, the segment is locked for
    // that circuit (paper §2.1) even while the package is still upstream.
    if !d.reservations.is_empty() {
        return;
    }
    let nfus = d.fus.len();
    for k in 0..nfus {
        let fi = (d.sa_rr + k) % nfus;
        if let FuState::Requesting { flow, pkg, .. } = d.fus[fi].state {
            let f = *ctx.psm.application().flow(flow);
            if ctx.psm.segment_of(f.dst) != d.seg {
                continue; // inter-segment: waits for its CA reservation
            }
            d.sa_rr = (fi + 1) % nfus;
            d.counters.intra_requests += 1;
            d.fus[fi].state = FuState::InTransaction { flow, pkg };
            d.driver = Some(Driver::Fu {
                fu: fi,
                flow,
                pkg,
                inter: None,
            });
            d.sa_state = SaState::GrantSet {
                left: ctx.cfg.sa_grant_ticks,
            };
            sa_busy(d, now);
            return;
        }
    }
}

/// Effects of a finished bus transaction on this segment.
fn complete_transaction(ctx: &Ctx<'_>, shared: &mut Shared, d: &mut DomainState, now: Picos) {
    let driver = d.driver.expect("transaction has a driver");
    match driver {
        Driver::Fu {
            fu,
            flow,
            pkg,
            inter: None,
        } => {
            // Local delivery: producer done, consumer receives.
            d.fus[fu].state = FuState::Idle;
            d.fus[fu].times.packages_sent += 1;
            d.fus[fu].times.end = Some(now);
            d.fus[fu].outputs_remaining -= 1;
            if d.fus[fu].outputs_remaining == 0 && d.fus[fu].inputs_remaining == 0 {
                d.fus[fu].times.flag = true;
            }
            deliver(ctx, shared, d, flow, pkg, now);
        }
        Driver::Fu {
            fu,
            flow: _,
            pkg: _,
            inter: Some(t),
        } => {
            // Source fill completed: the package sits in the first BU.
            let next = shared.transfers[t].path[1];
            let bu = ctx
                .psm
                .platform()
                .bu_between(d.seg, next)
                .expect("adjacent");
            let next_clock = ctx.psm.platform().segment_clock(next);
            let visible = now + Picos(ctx.cfg.sync_ticks * next_clock.period_ps());
            shared.bus[bu.index()].load(bu.left, d.seg, t, visible, now);
            // Side = the source's position on its first-hop BU (covers a
            // ring's wrap-around unit).
            if d.seg == bu.left {
                d.counters.packets_to_right += 1;
            } else {
                d.counters.packets_to_left += 1;
            }
            shared.transfers[t].hop += 1;
            d.fus[fu].state = FuState::WaitDelivery;
            segment_done_to_ca(ctx, shared, d, now);
        }
        Driver::Bu { t } => {
            let tr = &shared.transfers[t];
            let (flow, pkg, hop, last) = (tr.flow, tr.pkg, tr.hop, tr.path.len() - 1);
            let prev = tr.path[hop - 1];
            let next = (hop < last).then(|| tr.path[hop + 1]);
            let bu_in = ctx
                .psm
                .platform()
                .bu_between(prev, d.seg)
                .expect("adjacent");
            // Unload accounting: WP runs from the load instant to the
            // moment this unload transfer started driving beats.
            let started = d.transfer_started;
            let b = &mut shared.bus[bu_in.index()];
            let (ft, _, loaded_at) = b.full.take().expect("BU was full");
            debug_assert_eq!(ft, t);
            let wp = d.clock.ticks_at(started.saturating_sub(loaded_at));
            b.counters.waiting_ticks += wp;
            b.counters.tct += 2 * ctx.s as u64 + wp;
            if d.seg == bu_in.right {
                b.counters.transferred_to_right += 1;
            } else {
                b.counters.transferred_to_left += 1;
            }
            match next {
                None => {
                    // Final hop: deliver, then acknowledge the producer
                    // (producer-side bookkeeping happens at ack receipt in
                    // the producer's own domain — see step_fus).
                    deliver(ctx, shared, d, flow, pkg, now);
                    let src = ctx.psm.application().flow(flow).src;
                    let src_clock = ctx.psm.platform().segment_clock(ctx.psm.segment_of(src));
                    let ack_at = now
                        + Picos(
                            ctx.cfg.sync_ticks * (ctx.ca_clock.period_ps() + src_clock.period_ps()),
                        );
                    let seq = d.seq;
                    d.seq += 1;
                    shared.fu_ack[src.index()].post(ack_at, d.seg.0, seq, ());
                }
                Some(next) => {
                    // Load the next BU.
                    let bu_out = ctx
                        .psm
                        .platform()
                        .bu_between(d.seg, next)
                        .expect("adjacent");
                    let next_clock = ctx.psm.platform().segment_clock(next);
                    let visible = now + Picos(ctx.cfg.sync_ticks * next_clock.period_ps());
                    shared.bus[bu_out.index()].load(bu_out.left, d.seg, t, visible, now);
                    shared.transfers[t].hop += 1;
                }
            }
            segment_done_to_ca(ctx, shared, d, now);
        }
    }
}

fn segment_done_to_ca(ctx: &Ctx<'_>, shared: &mut Shared, d: &mut DomainState, now: Picos) {
    let visible = now + Picos(ctx.cfg.sync_ticks * ctx.ca_clock.period_ps());
    let seq = d.seq;
    d.seq += 1;
    shared
        .ca_inbox
        .post(visible, d.seg.0, seq, CaMsg::SegmentDone(d.seg));
}

/// Final delivery of a package at its destination process (which always
/// lives on the segment executing the final hop, i.e. in this domain).
fn deliver(
    ctx: &Ctx<'_>,
    shared: &mut Shared,
    d: &mut DomainState,
    flow: FlowId,
    pkg: u64,
    now: Picos,
) {
    let dst = ctx.psm.application().flow(flow).dst;
    debug_assert_eq!(
        ctx.psm.segment_of(dst),
        d.seg,
        "delivery in the wrong domain"
    );
    let fu = d
        .fus
        .iter_mut()
        .find(|f| f.id == dst)
        .expect("destination on this segment");
    fu.times.packages_received += 1;
    fu.times.last_received = Some(now);
    fu.inputs_remaining -= 1;
    if fu.outputs_remaining == 0 && fu.inputs_remaining == 0 {
        fu.times.flag = true;
    }
    shared.note_activity(now);
    // Wave-instance scoreboard: the frame is recovered from the
    // frame-global package index.
    let n_waves = ctx.waves.len();
    let frame = pkg / ctx.flow_pkgs[flow.index()];
    let w = ctx.flow_wave[flow.index()];
    let g = frame as usize * n_waves + w;
    shared.instance_remaining[g] -= 1;
    if shared.instance_remaining[g] == 0 && w + 1 < n_waves {
        // Open the next wave of this frame; visibility strictly after.
        shared.instance_open_at[g + 1] = now.0;
    }
    shared.total_remaining -= 1;
}

/// One clock edge of the CA domain.
fn step_ca(ctx: &Ctx<'_>, shared: &mut Shared, ca: &mut CaState, now: Picos) {
    for m in shared.ca_inbox.drain_due(now) {
        match m.payload {
            CaMsg::Request(t) => {
                ca.counters.inter_requests += 1;
                ca.busy_left += 1; // registering the request
                ca.queue.push(t);
            }
            CaMsg::SegmentDone(seg) => {
                ca.counters.releases += 1;
                ca.busy_left += ctx.cfg.ca_release_ticks;
                ca.reserved[seg.index()] = None;
            }
        }
        shared.note_activity(now);
    }
    if ca.busy_left > 0 {
        ca.busy_left -= 1;
        ca.counters.busy_ticks += 1;
        return;
    }
    // First-fit grant scan, one grant per polling round.
    let free = |t: Tid| {
        shared.transfers[t]
            .path
            .iter()
            .all(|m| ca.reserved[m.index()].is_none())
    };
    let Some(i) = ca.queue.iter().position(|&t| free(t)) else {
        return;
    };
    let t = ca.queue.remove(i);
    for m in &shared.transfers[t].path {
        ca.reserved[m.index()] = Some(t);
        let clock = ctx.psm.platform().segment_clock(*m);
        let visible = now + Picos(ctx.cfg.sync_ticks * clock.period_ps());
        let seq = ca.seq;
        ca.seq += 1;
        shared.sa_inbox[m.index()].post(visible, u16::MAX, seq, t);
    }
    ca.counters.grants += 1;
    ca.busy_left += ctx.cfg.ca_grant_ticks;
    shared.note_activity(now);
}

/// Round-robin selection of the producer's next `(flow, package)`; the
/// package index is frame-global (`frame × packages + within-frame`).
fn pick_next(fu: &mut Fu, flow_pkgs: &[u64]) -> Option<(FlowId, u64)> {
    if fu.pending.is_empty() {
        return None;
    }
    let idx = fu.rr % fu.pending.len();
    let (flow, remaining, frame) = fu.pending[idx];
    let pkg = frame * flow_pkgs[flow.index()] + (flow_pkgs[flow.index()] - remaining);
    if remaining == 1 {
        fu.pending.remove(idx);
        if !fu.pending.is_empty() {
            fu.rr %= fu.pending.len();
        }
    } else {
        fu.pending[idx].1 -= 1;
        fu.rr = (fu.rr + 1) % fu.pending.len().max(1);
    }
    Some((flow, pkg))
}

// ---------------------------------------------------------------------------
// the driver

struct World<'a> {
    ctx: Ctx<'a>,
    shared: Shared,
    domains: Vec<DomainState>,
    ca: CaState,
    /// Next edge instant per domain: segments first, the CA last.
    next_edge: Vec<Picos>,
}

impl<'a> World<'a> {
    fn new(psm: &'a Psm, cfg: RtlConfig, frames: u64) -> World<'a> {
        let app = psm.application();
        let platform = psm.platform();
        let s = platform.package_size();
        let nseg = platform.segment_count();
        let nproc = app.process_count();

        let flow_pkgs: Vec<u64> = app.flows().iter().map(|f| f.packages(s)).collect();
        let flow_compute: Vec<u64> = (0..app.flows().len())
            .map(|i| app.ticks_per_package(FlowId(i as u32), s) + cfg.fu_setup_ticks)
            .collect();
        let waves: Vec<Vec<FlowId>> = app.waves().into_iter().map(|w| w.flows).collect();
        let mut flow_wave = vec![0usize; app.flows().len()];
        for (w, flows) in waves.iter().enumerate() {
            for f in flows {
                flow_wave[f.index()] = w;
            }
        }
        let wave_sources: Vec<Vec<(ProcessId, FlowId)>> = waves
            .iter()
            .map(|w| w.iter().map(|&f| (app.flow(f).src, f)).collect())
            .collect();

        let mut outputs = vec![0u64; nproc];
        let mut inputs = vec![0u64; nproc];
        for (i, f) in app.flows().iter().enumerate() {
            outputs[f.src.index()] += flow_pkgs[i] * frames;
            inputs[f.dst.index()] += flow_pkgs[i] * frames;
        }

        let mut domains: Vec<DomainState> = (0..nseg)
            .map(|si| DomainState {
                seg: SegmentId(si as u16),
                clock: platform.segment_clock(SegmentId(si as u16)),
                fus: Vec::new(),
                sa_state: SaState::Idle,
                driver: None,
                reservations: Vec::new(),
                sa_rr: 0,
                transfer_started: Picos::ZERO,
                counters: SaCounters::default(),
                seq: 0,
            })
            .collect();
        for p in 0..nproc {
            let pid = ProcessId(p as u32);
            let seg = psm.segment_of(pid);
            let my_waves: Vec<(usize, Vec<FlowId>)> = wave_sources
                .iter()
                .enumerate()
                .filter_map(|(w, srcs)| {
                    let flows: Vec<FlowId> = srcs
                        .iter()
                        .filter(|(src, _)| *src == pid)
                        .map(|(_, f)| *f)
                        .collect();
                    (!flows.is_empty()).then_some((w, flows))
                })
                .collect();
            let armed_frame = vec![0; my_waves.len()];
            let mut fu = Fu {
                id: pid,
                pending: Vec::new(),
                rr: 0,
                my_waves,
                armed_frame,
                state: FuState::Idle,
                times: FuTimes::default(),
                outputs_remaining: outputs[p],
                inputs_remaining: inputs[p],
            };
            if fu.outputs_remaining == 0 && fu.inputs_remaining == 0 {
                fu.times.flag = true;
            }
            domains[seg.index()].fus.push(fu);
        }

        let per_wave: Vec<u64> = waves
            .iter()
            .map(|w| w.iter().map(|f| flow_pkgs[f.index()]).sum())
            .collect();
        let instance_remaining: Vec<u64> = (0..frames).flat_map(|_| per_wave.clone()).collect();
        let total_remaining: u64 = per_wave.iter().sum::<u64>() * frames;
        // Wave-0 instances of every frame open at time zero (streaming with
        // a full input buffer); the rest open as predecessors complete.
        let instance_open_at: Vec<u64> = (0..frames)
            .flat_map(|_| (0..waves.len()).map(|w| if w == 0 { 0 } else { u64::MAX }))
            .collect();

        let shared = Shared {
            ca_inbox: Mailbox(Vec::new()),
            sa_inbox: (0..nseg).map(|_| Mailbox(Vec::new())).collect(),
            fu_ack: (0..nproc).map(|_| Mailbox(Vec::new())).collect(),
            bus: (0..platform.border_unit_count())
                .map(|_| BuShared::default())
                .collect(),
            transfers: Vec::new(),
            instance_remaining,
            instance_open_at,
            total_remaining,
            makespan: Picos::ZERO,
        };

        let ca = CaState {
            clock: platform.ca_clock(),
            queue: Vec::new(),
            reserved: vec![None; nseg],
            busy_left: 0,
            counters: CaCounters::default(),
            seq: 0,
        };

        World {
            ctx: Ctx {
                psm,
                cfg,
                s,
                flow_pkgs,
                flow_compute,
                waves,
                flow_wave,
                frames,
                ca_clock: platform.ca_clock(),
            },
            shared,
            domains,
            ca,
            next_edge: vec![Picos::ZERO; nseg + 1],
        }
    }

    fn quiescent(&self) -> bool {
        self.shared.total_remaining == 0
            && self.domains.iter().all(DomainState::idle)
            && self.ca.idle()
            && self.shared.mail_quiescent()
    }

    fn stuck_summary(&self) -> String {
        let mut out = String::new();
        for d in &self.domains {
            out.push_str(&format!(
                "{}: sa={:?} reservations={:?}; ",
                d.seg, d.sa_state, d.reservations
            ));
            for fu in &d.fus {
                if fu.state != FuState::Idle {
                    out.push_str(&format!("{}={:?}; ", fu.id, fu.state));
                }
            }
        }
        out.push_str(&format!(
            "ca queue={:?} reserved={:?}; deliveries remaining {}",
            self.ca.queue, self.ca.reserved, self.shared.total_remaining,
        ));
        out
    }

    /// Step every domain edge by edge until quiescence or the tick cap.
    fn run(&mut self) -> Result<(), RtlError> {
        let fastest = self
            .domains
            .iter()
            .map(|d| d.clock.period_ps())
            .chain(std::iter::once(self.ca.clock.period_ps()))
            .min()
            .expect("at least one domain");
        let cap = Picos(self.ctx.cfg.max_ticks.saturating_mul(fastest));
        let nseg = self.domains.len();
        loop {
            let t = *self.next_edge.iter().min().expect("domains exist");
            if t > cap {
                return Err(RtlError::Deadlock {
                    at: t,
                    detail: self.stuck_summary(),
                });
            }
            for si in 0..nseg {
                if self.next_edge[si] == t {
                    step_segment(&self.ctx, &mut self.shared, &mut self.domains[si], t);
                    self.next_edge[si] = t + Picos(self.domains[si].clock.period_ps());
                }
            }
            if self.next_edge[nseg] == t {
                step_ca(&self.ctx, &mut self.shared, &mut self.ca, t);
                self.next_edge[nseg] = t + Picos(self.ca.clock.period_ps());
            }
            if self.quiescent() {
                return Ok(());
            }
        }
    }

    /// Assemble the final report from the drained world.
    fn into_report(self) -> EmulationReport {
        let mut makespan = self.shared.makespan;
        for d in &self.domains {
            makespan = makespan.max(d.counters.last_activity);
        }
        let nproc = self.ctx.psm.application().process_count();
        let mut fus = vec![FuTimes::default(); nproc];
        let mut sas = Vec::with_capacity(self.domains.len());
        let mut clocks = Vec::with_capacity(self.domains.len());
        for d in &self.domains {
            for fu in &d.fus {
                fus[fu.id.index()] = fu.times;
            }
            let mut c = d.counters;
            c.tct = d.clock.ticks_covering(c.last_activity);
            sas.push(c);
            clocks.push(d.clock);
        }
        let mut cac = self.ca.counters;
        cac.tct = self.ca.clock.ticks_covering(makespan);
        EmulationReport {
            sas,
            ca: cac,
            bus: self.shared.bus.iter().map(|b| b.counters).collect(),
            bu_refs: self.ctx.psm.platform().border_units().collect(),
            fus,
            segment_clocks: clocks,
            ca_clock: self.ca.clock,
            package_size: self.ctx.s,
            makespan,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};

    fn uniform(nseg: usize, s: u32) -> Platform {
        Platform::builder("t")
            .package_size(s)
            .ca_clock(ClockDomain::from_mhz(100.0))
            .uniform_segments(nseg, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

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

    fn remote_pair(items: u64, nseg: usize, src: u16, dst: u16) -> Psm {
        let mut app = Application::new("remote");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, items, 1, 100)).unwrap();
        let mut alloc = Allocation::new(nseg);
        alloc.assign(a, SegmentId(src));
        alloc.assign(b, SegmentId(dst));
        Psm::new(uniform(nseg, 36), app, alloc).unwrap()
    }

    #[test]
    fn local_pair_completes_with_exact_counts() {
        let r = RtlSimulator::default().run(&local_pair()).unwrap();
        assert!(r.all_flags_raised());
        assert_eq!(r.fus[0].packages_sent, 2);
        assert_eq!(r.fus[1].packages_received, 2);
        assert_eq!(r.sas[0].intra_requests, 2);
        assert_eq!(r.ca.inter_requests, 0);
        assert!(r.makespan > Picos::ZERO);
    }

    #[test]
    fn rtl_is_slower_than_estimator_locally() {
        let psm = local_pair();
        let est = segbus_core::Engine::default().try_run(&psm).unwrap();
        let rtl = RtlSimulator::default().run(&psm).unwrap();
        assert!(
            rtl.execution_time() > est.execution_time(),
            "detailed timing must cost more: rtl {:?} vs est {:?}",
            rtl.execution_time(),
            est.execution_time()
        );
        // ... but within a sane factor.
        assert!(rtl.execution_time().0 < est.execution_time().0 * 2);
    }

    #[test]
    fn remote_pair_structure_matches_estimator() {
        let psm = remote_pair(5 * 36, 2, 0, 1);
        let est = segbus_core::Engine::default().try_run(&psm).unwrap();
        let rtl = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(rtl.bus[0].received_from_left, est.bus[0].received_from_left);
        assert_eq!(
            rtl.bus[0].transferred_to_right,
            est.bus[0].transferred_to_right
        );
        assert_eq!(rtl.sas[0].inter_requests, est.sas[0].inter_requests);
        assert_eq!(rtl.sas[0].packets_to_right, est.sas[0].packets_to_right);
        assert_eq!(rtl.ca.grants, est.ca.grants);
        assert_eq!(rtl.ca.releases, est.ca.releases);
        assert!(rtl.execution_time() > est.execution_time());
    }

    #[test]
    fn two_hop_transfer_cascades() {
        let psm = remote_pair(36, 3, 0, 2);
        let r = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(r.bus[0].received_from_left, 1);
        assert_eq!(r.bus[0].transferred_to_right, 1);
        assert_eq!(r.bus[1].received_from_left, 1);
        assert_eq!(r.bus[1].transferred_to_right, 1);
        assert_eq!(r.ca.releases, 3);
        assert_eq!(r.sas[0].packets_to_right, 1);
        assert_eq!(r.sas[1].packets_to_right, 0);
        // The middle SA routed one BU delivery.
        assert_eq!(r.sas[1].intra_requests, 1);
        assert!(r.all_flags_raised());
    }

    #[test]
    fn leftward_transfer_mirrors() {
        let psm = remote_pair(36, 2, 1, 0);
        let r = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(r.bus[0].received_from_right, 1);
        assert_eq!(r.bus[0].transferred_to_left, 1);
        assert_eq!(r.sas[1].packets_to_left, 1);
    }

    #[test]
    fn waiting_period_includes_synchronisers() {
        let psm = remote_pair(36, 2, 0, 1);
        let r = RtlSimulator::default().run(&psm).unwrap();
        // WP ≥ sync depth (2) and bounded by one bus transaction.
        let wp = r.bus[0].avg_waiting_period();
        assert!(wp >= 2.0, "wp {wp}");
        assert!(wp <= (36 + 12) as f64, "wp {wp}");
        assert_eq!(
            r.bus[0].tct,
            r.bus[0].useful_period(36) + r.bus[0].waiting_ticks
        );
    }

    #[test]
    fn determinism() {
        let psm = remote_pair(10 * 36, 3, 0, 2);
        let a = RtlSimulator::default().run(&psm).unwrap();
        let b = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sas, b.sas);
        assert_eq!(a.ca, b.ca);
        assert_eq!(a.bus, b.bus);
    }

    #[test]
    fn deadlock_guard_fires_on_tiny_budget() {
        let cfg = RtlConfig {
            max_ticks: 10,
            ..RtlConfig::default()
        };
        let err = RtlSimulator::new(cfg).run(&local_pair()).unwrap_err();
        assert!(matches!(err, RtlError::Deadlock { .. }));
        assert!(err.to_string().contains("deadlocked"));
    }

    #[test]
    fn zero_state_latencies_are_rejected() {
        type Zero = fn(&mut RtlConfig);
        let zeroed: [(&str, Zero); 5] = [
            ("sa_grant_ticks", |c| c.sa_grant_ticks = 0),
            ("master_response_ticks", |c| c.master_response_ticks = 0),
            ("detect_ticks", |c| c.detect_ticks = 0),
            ("grant_reset_ticks", |c| c.grant_reset_ticks = 0),
            ("sync_ticks", |c| c.sync_ticks = 0),
        ];
        for (field, zero) in zeroed {
            let mut cfg = RtlConfig::default();
            zero(&mut cfg);
            let err = RtlSimulator::new(cfg).run(&local_pair()).unwrap_err();
            assert_eq!(err, RtlError::InvalidConfig { field });
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn zero_frames_is_a_typed_error() {
        let err = RtlSimulator::default()
            .run_frames(&local_pair(), 0)
            .unwrap_err();
        assert_eq!(err, RtlError::NoFrames);
        assert_eq!(err.to_string(), "frame count must be non-zero");
    }

    #[test]
    fn empty_application_is_immediately_quiescent() {
        let mut app = Application::new("empty");
        let a = app.add_process(Process::new("A"));
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        let psm = Psm::new(uniform(1, 36), app, alloc).unwrap();
        let r = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(r.makespan, Picos::ZERO);
        assert!(r.all_flags_raised());
    }

    /// Ring topology: the reference simulator routes over the wrap unit
    /// and matches the estimator structurally.
    #[test]
    fn ring_wrap_matches_estimator_structure() {
        let mut app = Application::new("ring");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 3 * 36, 1, 100)).unwrap();
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
        let psm = Psm::new(ring, app, alloc).unwrap();
        let est = segbus_core::Engine::default().try_run(&psm).unwrap();
        let act = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(act.bus[2].received_from_left, 3);
        assert_eq!(act.bus[2].transferred_to_right, 3);
        assert_eq!(act.bus[2].received_from_left, est.bus[2].received_from_left);
        assert_eq!(act.sas[2].packets_to_right, est.sas[2].packets_to_right);
        assert_eq!(act.ca.grants, est.ca.grants);
        assert_eq!(act.ca.releases, est.ca.releases);
        assert!(act.execution_time() > est.execution_time());
    }

    #[test]
    fn contention_on_one_bus_serializes() {
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
        let r = RtlSimulator::default().run(&psm).unwrap();
        assert_eq!(r.fus[2].packages_received, 2);
        // Two full transactions cannot overlap on one bus; the makespan is
        // at least compute + two transactions long.
        let min_ticks = 10 + 2 * (36 + 2);
        assert!(r.makespan.0 >= min_ticks * 10_000);
    }
}
