//! Package-level trace of an emulation run.
//!
//! When [`crate::EmulatorConfig::trace`] is on, the engine records one
//! [`TraceEvent`] per package phase. The report binaries turn the log into
//! the Fig. 10 per-process timeline and the Fig. 11 activity series.

use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::time::Picos;
use segbus_model::Fnv64;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A producer started computing a package.
    ComputeStart,
    /// A producer finished computing a package (transfer request follows).
    ComputeEnd,
    /// A package transfer started occupying a segment bus.
    BusStart,
    /// A package finished its bus transaction on a segment.
    BusEnd,
    /// A package was loaded into a border unit.
    BuLoaded,
    /// A package left a border unit into the next segment.
    BuUnloaded,
    /// A package reached its destination process.
    Delivered,
    /// A process raised its status flag (all its flows fully emitted).
    FlagRaised,
    /// A wave barrier was crossed (all flows of a wave fully delivered).
    WaveComplete,
}

/// One trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Global time of the event.
    pub at: Picos,
    /// Event kind.
    pub kind: TraceKind,
    /// The flow involved (if any).
    pub flow: Option<FlowId>,
    /// Zero-based package index within the flow (if any).
    pub package: Option<u64>,
    /// The process involved (producer, consumer or flag owner).
    pub process: Option<ProcessId>,
    /// The segment involved (bus events).
    pub segment: Option<SegmentId>,
}

/// A destination for trace events as the engine emits them.
///
/// The engines don't commit to an in-memory [`TraceLog`]: a sink may
/// buffer events ([`TraceLog`] itself), stream them to disk
/// ([`crate::sbt::SbtWriter`]) or fold them into counters on the fly.
/// Events arrive in *emission* order — the engine's deterministic handler
/// order — which is not globally sorted by timestamp (`BusEnd` is emitted
/// at schedule time carrying a future timestamp).
pub trait TraceSink {
    /// Record one event.
    fn emit(&mut self, e: &TraceEvent);
}

impl TraceSink for TraceLog {
    fn emit(&mut self, e: &TraceEvent) {
        self.push(*e);
    }
}

/// An append-only event log, ordered by emission time.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// All events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-64 of the events in emission order: each event's timestamp,
    /// kind index and payload fields, an absent field hashed as a `0` tag
    /// byte and a present one as `1` plus its value. Golden tests pin
    /// trace order with it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for e in &self.events {
            h.write_u64(e.at.0);
            h.write_u8(e.kind as u8);
            h.write_u8(e.flow.is_some() as u8);
            if let Some(f) = e.flow {
                h.write_u32(f.0);
            }
            h.write_u8(e.package.is_some() as u8);
            if let Some(p) = e.package {
                h.write_u64(p);
            }
            h.write_u8(e.process.is_some() as u8);
            if let Some(p) = e.process {
                h.write_u32(p.0);
            }
            h.write_u8(e.segment.is_some() as u8);
            if let Some(s) = e.segment {
                h.write_u32(u32::from(s.0));
            }
        }
        h.finish()
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Busy intervals `[start, end)` of one segment's bus, in emission
    /// order (pairs of `BusStart`/`BusEnd`).
    pub fn bus_intervals(&self, seg: SegmentId) -> Vec<(Picos, Picos)> {
        // Keyed on the full (flow, package) identity: a packed-integer key
        // would conflate distinct packages once a flow exceeds the packing
        // width, and flow=None with large flow ids.
        type BusKey = (Option<FlowId>, Option<u64>);
        let mut out = Vec::new();
        let mut open: Vec<(BusKey, Picos)> = Vec::new();
        for e in &self.events {
            if e.segment != Some(seg) {
                continue;
            }
            let key = (e.flow, e.package);
            match e.kind {
                TraceKind::BusStart => open.push((key, e.at)),
                TraceKind::BusEnd => {
                    if let Some(pos) = open.iter().position(|(k, _)| *k == key) {
                        let (_, start) = open.swap_remove(pos);
                        out.push((start, e.at));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Picos(at),
            kind,
            flow: Some(FlowId(0)),
            package: Some(0),
            process: Some(ProcessId(1)),
            segment: Some(SegmentId(0)),
        }
    }

    #[test]
    fn push_and_filter() {
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        log.push(ev(10, TraceKind::ComputeStart));
        log.push(ev(20, TraceKind::ComputeEnd));
        log.push(ev(30, TraceKind::Delivered));
        assert_eq!(log.len(), 3);
        assert_eq!(log.of_kind(TraceKind::Delivered).count(), 1);
    }

    #[test]
    fn bus_intervals_pair_up() {
        let mut log = TraceLog::new();
        log.push(ev(100, TraceKind::BusStart));
        log.push(ev(140, TraceKind::BusEnd));
        let mut other = ev(200, TraceKind::BusStart);
        other.package = Some(1);
        log.push(other);
        let mut other_end = ev(240, TraceKind::BusEnd);
        other_end.package = Some(1);
        log.push(other_end);
        let iv = log.bus_intervals(SegmentId(0));
        assert_eq!(iv, vec![(Picos(100), Picos(140)), (Picos(200), Picos(240))]);
        assert!(log.bus_intervals(SegmentId(1)).is_empty());
    }

    #[test]
    fn bus_intervals_do_not_conflate_distant_packages() {
        // Packages 2^20 apart within one flow used to collide under the
        // old `flow << 20 | package` packing.
        let mut log = TraceLog::new();
        let mut a = ev(100, TraceKind::BusStart);
        a.package = Some(0);
        let mut b = ev(150, TraceKind::BusStart);
        b.package = Some(1 << 20);
        let mut b_end = ev(180, TraceKind::BusEnd);
        b_end.package = Some(1 << 20);
        let mut a_end = ev(200, TraceKind::BusEnd);
        a_end.package = Some(0);
        log.push(a);
        log.push(b);
        log.push(b_end);
        log.push(a_end);
        let iv = log.bus_intervals(SegmentId(0));
        assert_eq!(iv, vec![(Picos(150), Picos(180)), (Picos(100), Picos(200))]);
    }

    #[test]
    fn bus_intervals_do_not_conflate_flowless_events_with_flows() {
        // flow=None used to pack to the same key as certain large flow ids.
        let mut log = TraceLog::new();
        let mut anon = ev(100, TraceKind::BusStart);
        anon.flow = None;
        anon.package = None;
        let mut flowed = ev(150, TraceKind::BusStart);
        flowed.flow = Some(FlowId(u32::MAX));
        flowed.package = None;
        let mut flowed_end = ev(170, TraceKind::BusEnd);
        flowed_end.flow = Some(FlowId(u32::MAX));
        flowed_end.package = None;
        let mut anon_end = ev(190, TraceKind::BusEnd);
        anon_end.flow = None;
        anon_end.package = None;
        log.push(anon);
        log.push(flowed);
        log.push(flowed_end);
        log.push(anon_end);
        let iv = log.bus_intervals(SegmentId(0));
        assert_eq!(iv, vec![(Picos(150), Picos(170)), (Picos(100), Picos(190))]);
    }
}
