//! Content-addressed hashing of models.
//!
//! The sweep service caches completed [`crate::mapping::Psm`] emulation
//! reports keyed on *what the engine would compute*, not on where the
//! model came from. [`Psm::digest`] therefore hashes a canonical encoding
//! of every semantic field — topology, package size, clock periods, cost
//! model, process kinds, flows and the allocation — and deliberately
//! excludes presentation-only data (application, platform, segment and
//! process *names*): two models that differ only in naming produce
//! bit-identical reports, so they may share a cache entry.
//!
//! The hash is 64-bit FNV-1a over a tagged, length-prefixed byte stream.
//! Every variable-length sequence is preceded by its length and every
//! section by a distinct tag byte, so no two different field layouts can
//! serialise to the same stream (the classic `("ab","c")` vs `("a","bc")`
//! ambiguity). FNV-1a is not cryptographic; the cache tolerates the
//! ~`n²/2⁶⁵` accidental-collision probability, which is negligible for
//! any realistic number of distinct models.
//!
//! The encoding is part of the service's cache contract (DESIGN.md §10):
//! changing it invalidates persisted digests, so extend it only by adding
//! new tagged sections.

use crate::mapping::Psm;
use crate::psdf::{CostModel, Flow, FlowValues, ProcessKind};

/// Incremental 64-bit FNV-1a hasher.
///
/// Shared by [`Psm::digest`] and the emulator-configuration digest in
/// `segbus-core`, so both halves of a cache key use the same function.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorb a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, v: u16) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a byte slice *without* a length prefix (callers prefix
    /// lengths themselves where ambiguity is possible).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

// Section tags of the canonical PSM encoding. Distinct per section so a
// stream can never be re-parsed under a different field layout.
const TAG_PLATFORM: u8 = 0x01;
const TAG_COST: u8 = 0x02;
const TAG_PROCESSES: u8 = 0x03;
const TAG_FLOWS: u8 = 0x04;
const TAG_ALLOCATION: u8 = 0x05;

impl Psm {
    /// Stable 64-bit content digest of the model's semantics.
    ///
    /// Two PSMs with equal digests are (up to hash collision) guaranteed
    /// to produce bit-identical [`EmulationReport`]s under equal emulator
    /// configurations; any change to a semantic field — topology, package
    /// size, a clock period, the cost model, a process kind, any flow
    /// field, or any placement — changes the digest. Names are excluded
    /// (see the module docs).
    ///
    /// [`EmulationReport`]: https://docs.rs/segbus-core
    pub fn digest(&self) -> u64 {
        let mut h = self.digest_prefix();
        self.absorb_allocation(&mut h);
        h.finish()
    }

    /// The hasher state after the platform, cost-model and process
    /// sections: everything [`Psm::digest`] covers except the flows and
    /// the allocation. A stochastic sample shares it with its base model,
    /// so a Monte-Carlo batch hashes it once and finishes each sample with
    /// [`Psm::digest_with_flow_values`].
    pub fn digest_head(&self) -> Fnv64 {
        let mut h = Fnv64::new();
        let platform = self.platform();
        let app = self.application();

        h.write_u8(TAG_PLATFORM);
        h.write_u8(match platform.topology() {
            crate::platform::Topology::Linear => 0,
            crate::platform::Topology::Ring => 1,
        });
        h.write_u32(platform.package_size());
        h.write_u64(platform.ca_clock().period_ps());
        h.write_u64(platform.segment_count() as u64);
        for seg in platform.segments() {
            h.write_u64(seg.clock.period_ps());
        }

        h.write_u8(TAG_COST);
        match app.cost_model() {
            CostModel::PerItem {
                reference_package_size,
            } => {
                h.write_u8(0);
                h.write_u32(reference_package_size.get());
            }
            CostModel::PerPackage => h.write_u8(1),
            CostModel::Affine {
                base_ticks,
                reference_package_size,
            } => {
                h.write_u8(2);
                h.write_u64(base_ticks);
                h.write_u32(reference_package_size.get());
            }
        }

        h.write_u8(TAG_PROCESSES);
        h.write_u64(app.process_count() as u64);
        for p in app.processes() {
            h.write_u8(match p.kind {
                ProcessKind::Initial => 0,
                ProcessKind::Internal => 1,
                ProcessKind::Final => 2,
            });
        }
        h
    }

    /// The allocation-independent prefix of [`Psm::digest`]: the hasher
    /// state after the platform, cost-model, process and flow sections,
    /// *before* the trailing allocation section.
    ///
    /// The allocation is deliberately the final section of the canonical
    /// encoding so that placement search — which evaluates thousands of
    /// allocations of one fixed platform + application — can hash the
    /// invariant part once and finish each candidate with
    /// [`digest_with_slots`] in O(processes) instead of re-encoding the
    /// whole model per candidate.
    pub fn digest_prefix(&self) -> Fnv64 {
        let mut h = self.digest_head();
        let flows = self.application().flows();
        absorb_flows(&mut h, flows, flows.iter().map(Flow::values));
        h
    }

    /// The [`Psm::digest`] this model would have with flow `i`'s items and
    /// ticks replaced by `values[i]`, finishing a [`Psm::digest_head`] of
    /// it. For a stochastic model and `values` drawn by
    /// [`crate::stochastic::sample_flow_values`] this equals
    /// `sample_psm(..).digest()` byte for byte, without building the
    /// sampled model.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly one entry per flow.
    pub fn digest_with_flow_values(&self, head: Fnv64, values: &[FlowValues]) -> u64 {
        let flows = self.application().flows();
        assert_eq!(values.len(), flows.len(), "one value pair per flow");
        let mut h = head;
        absorb_flows(&mut h, flows, values.iter().copied());
        self.absorb_allocation(&mut h);
        h.finish()
    }

    fn absorb_allocation(&self, h: &mut Fnv64) {
        h.write_u8(TAG_ALLOCATION);
        let n = self.application().process_count();
        h.write_u64(n as u64);
        for i in 0..n {
            h.write_u16(self.segment_of(crate::ids::ProcessId(i as u32)).0);
        }
    }
}

/// The flow section: each flow's structure from `flows`, its items and
/// ticks from `values`.
fn absorb_flows(h: &mut Fnv64, flows: &[Flow], values: impl Iterator<Item = FlowValues>) {
    h.write_u8(TAG_FLOWS);
    h.write_u64(flows.len() as u64);
    for (f, v) in flows.iter().zip(values) {
        h.write_u32(f.src.0);
        h.write_u32(f.dst.0);
        h.write_u64(v.items);
        h.write_u32(f.order);
        h.write_u64(v.ticks);
    }
}

/// Complete an allocation-independent [`Psm::digest_prefix`] into the full
/// model digest for the placement described by `slots` (`slots[p]` is the
/// segment index process `p` is assigned to).
///
/// For any complete allocation this equals [`Psm::digest`] of the same
/// platform + application re-validated under that allocation; the digest
/// tests pin the equivalence.
pub fn digest_with_slots(prefix: Fnv64, slots: &[u16]) -> u64 {
    let mut h = prefix;
    h.write_u8(TAG_ALLOCATION);
    h.write_u64(slots.len() as u64);
    for &s in slots {
        h.write_u16(s);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessId, SegmentId};
    use crate::mapping::Allocation;
    use crate::platform::Platform;
    use crate::psdf::{Application, Flow, Process};
    use crate::time::ClockDomain;

    fn psm(items: u64, size: u32, mhz: f64) -> Psm {
        let platform = Platform::builder("t")
            .package_size(size)
            .uniform_segments(2, ClockDomain::from_mhz(mhz))
            .build()
            .unwrap();
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::initial("P0"));
        let p1 = app.add_process(Process::final_("P1"));
        app.add_flow(Flow::new(p0, p1, items, 1, 10)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(1));
        Psm::new(platform, app, alloc).unwrap()
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325, "offset basis");
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c, "fnv1a(\"a\")");
        let mut h = Fnv64::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8, "fnv1a(\"foobar\")");
    }

    #[test]
    fn digest_is_deterministic_and_name_blind() {
        let a = psm(72, 36, 100.0);
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // Same structure under different names: same digest by design.
        let platform = Platform::builder("other-name")
            .package_size(36)
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let mut app = Application::new("renamed");
        let p0 = app.add_process(Process::initial("X"));
        let p1 = app.add_process(Process::final_("Y"));
        app.add_flow(Flow::new(p0, p1, 72, 1, 10)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(1));
        let b = Psm::new(platform, app, alloc).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn every_semantic_mutation_changes_the_digest() {
        let base = psm(72, 36, 100.0);
        let d = base.digest();
        // Items.
        assert_ne!(d, psm(73, 36, 100.0).digest());
        // Package size.
        assert_ne!(d, base.with_package_size(18).unwrap().digest());
        // Clock period.
        assert_ne!(d, psm(72, 36, 98.0).digest());
        // Placement.
        assert_ne!(
            d,
            base.with_process_moved(ProcessId(1), SegmentId(0))
                .unwrap()
                .digest()
        );
        // Cost model.
        let mut app = base.application().clone();
        app.set_cost_model(CostModel::affine(5, 36).unwrap());
        let cm = Psm::new(base.platform().clone(), app, base.allocation().clone()).unwrap();
        assert_ne!(d, cm.digest());
    }

    #[test]
    fn prefix_plus_slots_equals_full_digest() {
        let base = psm(72, 36, 100.0);
        let prefix = base.digest_prefix();
        assert_eq!(digest_with_slots(prefix, &[0, 1]), base.digest());
        // Same prefix finishes any other placement of the same model.
        let moved = base.with_process_moved(ProcessId(1), SegmentId(0)).unwrap();
        assert_eq!(digest_with_slots(prefix, &[0, 0]), moved.digest());
        assert_ne!(digest_with_slots(prefix, &[0, 0]), base.digest());
    }

    #[test]
    fn head_plus_own_flow_values_equals_full_digest() {
        let base = psm(72, 36, 100.0);
        let own: Vec<FlowValues> = base
            .application()
            .flows()
            .iter()
            .map(Flow::values)
            .collect();
        let head = base.digest_head();
        assert_eq!(base.digest_with_flow_values(head, &own), base.digest());
        let more = [FlowValues {
            items: 73,
            ticks: 10,
        }];
        assert_eq!(
            base.digest_with_flow_values(head, &more),
            psm(73, 36, 100.0).digest()
        );
    }

    #[test]
    fn flow_order_and_ticks_are_semantic() {
        let mk = |order: u32, ticks: u64| {
            let platform = Platform::builder("t")
                .uniform_segments(1, ClockDomain::from_mhz(100.0))
                .build()
                .unwrap();
            let mut app = Application::new("a");
            let p0 = app.add_process(Process::initial("P0"));
            let p1 = app.add_process(Process::final_("P1"));
            app.add_flow(Flow::new(p0, p1, 36, order, ticks)).unwrap();
            let mut alloc = Allocation::new(1);
            alloc.assign(p0, SegmentId(0));
            alloc.assign(p1, SegmentId(0));
            Psm::new(platform, app, alloc).unwrap()
        };
        assert_ne!(mk(1, 10).digest(), mk(2, 10).digest());
        assert_ne!(mk(1, 10).digest(), mk(1, 11).digest());
    }
}
