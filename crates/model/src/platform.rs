//! Platform instances: segments, border units and the central arbiter.
//!
//! A SegBus platform (paper §2.1) is a collection of bus *segments*
//! interconnected by FIFO-like *border units* (BU). Each segment hosts a
//! local *segment arbiter* (SA) plus the functional units mapped onto it;
//! a single *central arbiter* (CA) orchestrates inter-segment transfers.
//!
//! Every segment and the CA run in independent clock domains.

use std::fmt;

use crate::error::ModelError;
use crate::ids::SegmentId;
use crate::time::ClockDomain;

/// Physical arrangement of segments.
///
/// The paper's experiments use a linear topology exclusively; the ring
/// variant (discussed in the wider SegBus literature) closes the line with
/// one extra border unit between the last and the first segment, and
/// packages travel the shorter way around.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// Segments in a line; segment `i` borders `i-1` and `i+1`.
    #[default]
    Linear,
    /// Segments in a closed ring; requires at least three segments.
    Ring,
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Topology::Linear => "linear",
            Topology::Ring => "ring",
        })
    }
}

/// One bus segment: a name and a clock domain. The SA is implicit (exactly
/// one per segment, a structural invariant of the platform).
#[derive(Clone, PartialEq, Debug)]
pub struct Segment {
    /// Human-readable name (`"Segment 1"` style names come from
    /// [`SegmentId`]'s `Display`; this is the model-level identifier).
    pub name: String,
    /// The segment's clock domain.
    pub clock: ClockDomain,
}

/// Reference to the border unit between two adjacent segments.
///
/// The paper names the unit between segments *x* and *y* `BUxy` with 1-based
/// segment numbers (`BU12`, `BU23`, …). In a linear topology `left` is the
/// lower-numbered neighbour; a ring's wrap-around unit has
/// `left = n-1, right = 0` (printed e.g. `BU41` on four segments).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BorderUnitRef {
    /// The `left.0`-indexed neighbour (lower-numbered except on the wrap
    /// unit of a ring).
    pub left: SegmentId,
    /// The other neighbour (`left + 1`, or segment 0 on the wrap unit).
    pub right: SegmentId,
}

impl BorderUnitRef {
    /// The border unit on the right side of `left` in a linear topology.
    pub fn right_of(left: SegmentId) -> BorderUnitRef {
        BorderUnitRef {
            left,
            right: SegmentId(left.0 + 1),
        }
    }

    /// The ring's wrap-around unit between the last segment and segment 0.
    pub fn wrap(last: SegmentId) -> BorderUnitRef {
        BorderUnitRef {
            left: last,
            right: SegmentId(0),
        }
    }

    /// Higher-numbered adjacent segment (segment 0 for the wrap unit).
    #[inline]
    pub fn right(&self) -> SegmentId {
        self.right
    }

    /// Dense index of this BU (equals `left.0`): BU `i` sits between
    /// segments `i` and `i+1` (the wrap unit of an `n`-ring has index
    /// `n-1`).
    #[inline]
    pub fn index(&self) -> usize {
        self.left.index()
    }
}

impl fmt::Display for BorderUnitRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper naming: BU12 between Segment 1 and Segment 2.
        write!(f, "BU{}{}", self.left.0 + 1, self.right.0 + 1)
    }
}

/// A complete platform configuration (the structural half of the PSM).
#[derive(Clone, PartialEq, Debug)]
pub struct Platform {
    name: String,
    topology: Topology,
    segments: Vec<Segment>,
    ca_clock: ClockDomain,
    package_size: u32,
}

impl Platform {
    /// Start building a platform.
    pub fn builder(name: impl Into<String>) -> PlatformBuilder {
        PlatformBuilder {
            name: name.into(),
            topology: Topology::Linear,
            segments: Vec::new(),
            ca_clock: None,
            package_size: 36,
        }
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The physical topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// All segments, indexable by [`SegmentId`].
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Look up a segment.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// Clock domain of a segment.
    pub fn segment_clock(&self, id: SegmentId) -> ClockDomain {
        self.segments[id.index()].clock
    }

    /// The central arbiter's clock domain.
    pub fn ca_clock(&self) -> ClockDomain {
        self.ca_clock
    }

    /// Package size in data items (`s` in the paper).
    pub fn package_size(&self) -> u32 {
        self.package_size
    }

    /// Return a copy with a different package size (the paper's 18-vs-36
    /// experiment keeps everything else fixed).
    pub fn with_package_size(&self, s: u32) -> Result<Platform, ModelError> {
        self.clone().into_package_size(s)
    }

    /// [`Platform::with_package_size`] taking the platform by value, so
    /// nothing is copied.
    pub(crate) fn into_package_size(mut self, s: u32) -> Result<Platform, ModelError> {
        if s == 0 {
            return Err(ModelError::ZeroPackageSize);
        }
        self.package_size = s;
        Ok(self)
    }

    /// Border units in index order: `BU12`, `BU23`, … (`n − 1` units in a
    /// linear topology, `n` in a ring whose last unit wraps back to
    /// segment 1).
    pub fn border_units(&self) -> impl Iterator<Item = BorderUnitRef> + '_ {
        let n = self.segments.len();
        (0..self.border_unit_count() as u16).map(move |i| {
            if (i as usize) == n - 1 {
                BorderUnitRef::wrap(SegmentId(i))
            } else {
                BorderUnitRef::right_of(SegmentId(i))
            }
        })
    }

    /// Number of border units.
    pub fn border_unit_count(&self) -> usize {
        match self.topology {
            Topology::Linear => self.segments.len().saturating_sub(1),
            Topology::Ring => self.segments.len(),
        }
    }

    /// Hop distance between two segments under this topology.
    pub fn hops(&self, a: SegmentId, b: SegmentId) -> u16 {
        let d = a.hops_to(b);
        match self.topology {
            Topology::Linear => d,
            Topology::Ring => d.min(self.segments.len() as u16 - d),
        }
    }

    /// The border unit between two *adjacent* segments, if they are adjacent.
    pub fn bu_between(&self, a: SegmentId, b: SegmentId) -> Option<BorderUnitRef> {
        let n = self.segments.len() as u16;
        if a.hops_to(b) == 1 {
            return Some(BorderUnitRef::right_of(SegmentId(a.0.min(b.0))));
        }
        if self.topology == Topology::Ring && a.hops_to(b) == n - 1 && (a.0 == 0 || b.0 == 0) {
            return Some(BorderUnitRef::wrap(SegmentId(n - 1)));
        }
        None
    }

    /// The segments a package occupies travelling from `from` to `to`,
    /// inclusive of both endpoints, in travel order. Rings take the shorter
    /// way around (clockwise — ascending indices — on a tie).
    pub fn path_segments(&self, from: SegmentId, to: SegmentId) -> Vec<SegmentId> {
        match self.topology {
            Topology::Linear => {
                if from.0 <= to.0 {
                    (from.0..=to.0).map(SegmentId).collect()
                } else {
                    (to.0..=from.0).rev().map(SegmentId).collect()
                }
            }
            Topology::Ring => {
                let n = self.segments.len() as u16;
                if from == to {
                    return vec![from];
                }
                let cw = (to.0 + n - from.0) % n; // hops going clockwise
                let ccw = n - cw;
                let mut out = Vec::with_capacity(self.hops(from, to) as usize + 1);
                let mut cur = from.0;
                if cw <= ccw {
                    for _ in 0..=cw {
                        out.push(SegmentId(cur));
                        cur = (cur + 1) % n;
                    }
                } else {
                    for _ in 0..=ccw {
                        out.push(SegmentId(cur));
                        cur = (cur + n - 1) % n;
                    }
                }
                out
            }
        }
    }

    /// `true` if `id` is a valid segment of this platform.
    pub fn contains(&self, id: SegmentId) -> bool {
        id.index() < self.segments.len()
    }
}

/// Builder for [`Platform`]; see [`Platform::builder`].
#[derive(Clone, Debug)]
pub struct PlatformBuilder {
    name: String,
    topology: Topology,
    segments: Vec<Segment>,
    ca_clock: Option<ClockDomain>,
    package_size: u32,
}

impl PlatformBuilder {
    /// Set the topology (default: [`Topology::Linear`]).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Append a segment with the given clock.
    pub fn segment(mut self, name: impl Into<String>, clock: ClockDomain) -> Self {
        self.segments.push(Segment {
            name: name.into(),
            clock,
        });
        self
    }

    /// Append `n` segments sharing one clock, named `S1 … Sn` continuing
    /// from any already-added segments.
    pub fn uniform_segments(mut self, n: usize, clock: ClockDomain) -> Self {
        for _ in 0..n {
            let name = format!("S{}", self.segments.len() + 1);
            self.segments.push(Segment { name, clock });
        }
        self
    }

    /// Set the central arbiter's clock (defaults to the first segment's
    /// clock if unset).
    pub fn ca_clock(mut self, clock: ClockDomain) -> Self {
        self.ca_clock = Some(clock);
        self
    }

    /// Set the package size in data items (default 36, the paper's value).
    pub fn package_size(mut self, s: u32) -> Self {
        self.package_size = s;
        self
    }

    /// Finish, validating the structural invariants.
    pub fn build(self) -> Result<Platform, ModelError> {
        if self.segments.is_empty() {
            return Err(ModelError::NoSegments);
        }
        if self.topology == Topology::Ring && self.segments.len() < 3 {
            // A two-segment "ring" would need two parallel BUs between the
            // same pair; the platform does not support that.
            return Err(ModelError::RingTooSmall(self.segments.len()));
        }
        if self.package_size == 0 {
            return Err(ModelError::ZeroPackageSize);
        }
        let ca_clock = self.ca_clock.unwrap_or(self.segments[0].clock);
        Ok(Platform {
            name: self.name,
            topology: self.topology,
            segments: self.segments,
            ca_clock,
            package_size: self.package_size,
        })
    }
}

/// The paper's 3-segment experimental platform: clocks 91 / 98 / 89 MHz,
/// CA at 111 MHz, 36-item packages, linear topology.
pub fn paper_three_segment_platform() -> Platform {
    Platform::builder("SBP-3seg")
        .package_size(36)
        .ca_clock(ClockDomain::from_mhz(111.0))
        .segment("Segment1", ClockDomain::from_mhz(91.0))
        .segment("Segment2", ClockDomain::from_mhz(98.0))
        .segment("Segment3", ClockDomain::from_mhz(89.0))
        .build()
        .expect("paper platform is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plat(n: usize) -> Platform {
        Platform::builder("t")
            .uniform_segments(n, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            Platform::builder("e").build().unwrap_err(),
            ModelError::NoSegments
        );
        assert_eq!(
            Platform::builder("e")
                .uniform_segments(1, ClockDomain::from_mhz(100.0))
                .package_size(0)
                .build()
                .unwrap_err(),
            ModelError::ZeroPackageSize
        );
    }

    #[test]
    fn ca_clock_defaults_to_first_segment() {
        let p = plat(2);
        assert_eq!(p.ca_clock(), p.segment_clock(SegmentId(0)));
    }

    #[test]
    fn border_units_linear() {
        let p = plat(3);
        let bus: Vec<_> = p.border_units().collect();
        assert_eq!(bus.len(), 2);
        assert_eq!(bus[0].to_string(), "BU12");
        assert_eq!(bus[1].to_string(), "BU23");
        assert_eq!(bus[0].left, SegmentId(0));
        assert_eq!(bus[0].right(), SegmentId(1));
        assert_eq!(plat(1).border_unit_count(), 0);
    }

    #[test]
    fn bu_between_adjacent_only() {
        let p = plat(3);
        assert_eq!(
            p.bu_between(SegmentId(0), SegmentId(1)),
            Some(BorderUnitRef::right_of(SegmentId(0)))
        );
        assert_eq!(
            p.bu_between(SegmentId(1), SegmentId(0)),
            Some(BorderUnitRef::right_of(SegmentId(0)))
        );
        assert_eq!(p.bu_between(SegmentId(0), SegmentId(2)), None);
        assert_eq!(p.bu_between(SegmentId(1), SegmentId(1)), None);
    }

    #[test]
    fn paths_both_directions() {
        let p = plat(4);
        assert_eq!(
            p.path_segments(SegmentId(0), SegmentId(3)),
            vec![SegmentId(0), SegmentId(1), SegmentId(2), SegmentId(3)]
        );
        assert_eq!(
            p.path_segments(SegmentId(2), SegmentId(0)),
            vec![SegmentId(2), SegmentId(1), SegmentId(0)]
        );
        assert_eq!(
            p.path_segments(SegmentId(1), SegmentId(1)),
            vec![SegmentId(1)]
        );
    }

    #[test]
    fn with_package_size() {
        let p = plat(2);
        assert_eq!(p.with_package_size(18).unwrap().package_size(), 18);
        assert!(p.with_package_size(0).is_err());
        assert_eq!(p.package_size(), 36, "original untouched");
    }

    fn ring(n: usize) -> Platform {
        Platform::builder("r")
            .topology(Topology::Ring)
            .uniform_segments(n, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

    #[test]
    fn ring_needs_three_segments() {
        let err = Platform::builder("r")
            .topology(Topology::Ring)
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::RingTooSmall(2));
        assert!(ring(3).border_unit_count() == 3);
    }

    #[test]
    fn ring_border_units_include_wrap() {
        let p = ring(4);
        let names: Vec<String> = p.border_units().map(|b| b.to_string()).collect();
        assert_eq!(names, ["BU12", "BU23", "BU34", "BU41"]);
        let wrap = p.border_units().last().unwrap();
        assert_eq!(wrap.left, SegmentId(3));
        assert_eq!(wrap.right(), SegmentId(0));
        assert_eq!(wrap.index(), 3);
    }

    #[test]
    fn ring_adjacency_wraps() {
        let p = ring(4);
        assert_eq!(
            p.bu_between(SegmentId(3), SegmentId(0)),
            Some(BorderUnitRef::wrap(SegmentId(3)))
        );
        assert_eq!(
            p.bu_between(SegmentId(0), SegmentId(3)),
            Some(BorderUnitRef::wrap(SegmentId(3)))
        );
        assert_eq!(p.bu_between(SegmentId(1), SegmentId(3)), None);
        // A linear platform never wraps.
        assert_eq!(plat(4).bu_between(SegmentId(3), SegmentId(0)), None);
    }

    #[test]
    fn ring_paths_take_the_short_way() {
        let p = ring(5);
        // 0 -> 4 wraps backwards: one hop.
        assert_eq!(
            p.path_segments(SegmentId(0), SegmentId(4)),
            vec![SegmentId(0), SegmentId(4)]
        );
        // 4 -> 1 wraps forwards: two hops.
        assert_eq!(
            p.path_segments(SegmentId(4), SegmentId(1)),
            vec![SegmentId(4), SegmentId(0), SegmentId(1)]
        );
        // Tie on an even ring goes clockwise.
        let p4 = ring(4);
        assert_eq!(
            p4.path_segments(SegmentId(0), SegmentId(2)),
            vec![SegmentId(0), SegmentId(1), SegmentId(2)]
        );
        assert_eq!(
            p.path_segments(SegmentId(2), SegmentId(2)),
            vec![SegmentId(2)]
        );
    }

    #[test]
    fn ring_hops_are_shorter() {
        let p = ring(6);
        assert_eq!(p.hops(SegmentId(0), SegmentId(5)), 1);
        assert_eq!(p.hops(SegmentId(0), SegmentId(3)), 3);
        assert_eq!(p.hops(SegmentId(1), SegmentId(4)), 3);
        assert_eq!(p.hops(SegmentId(0), SegmentId(4)), 2);
        // Linear distances are unchanged.
        assert_eq!(plat(6).hops(SegmentId(0), SegmentId(5)), 5);
    }

    #[test]
    fn paper_platform_shape() {
        let p = paper_three_segment_platform();
        assert_eq!(p.segment_count(), 3);
        assert_eq!(p.package_size(), 36);
        assert_eq!(p.ca_clock().period_ps(), 9009);
        assert_eq!(p.segment_clock(SegmentId(0)).period_ps(), 10989);
        assert_eq!(p.segment_clock(SegmentId(1)).period_ps(), 10204);
        assert_eq!(p.segment_clock(SegmentId(2)).period_ps(), 11236);
    }
}
