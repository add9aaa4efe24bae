//! Strict pre-flight validation of a PSM against the engine's own
//! execution invariants.
//!
//! [`segbus_model::validate`] checks the paper's OCL-style *structural*
//! constraints (`V0xx`), and every [`Psm`] constructor runs them. This
//! module checks, immediately before emulation, the engine invariants a
//! valid `Psm` does not already guarantee — with stable `C0xx` codes:
//!
//! * `C001` — the frame count must be non-zero;
//! * `C002` — every process must be placed on a segment the platform has.
//!   A `Psm` guarantees it (V003/V004); [`EnginePlan::try_new`] still
//!   checks it, and [`EnginePlan::try_remap`] raises it for a move to a
//!   segment or of a process that does not exist;
//! * `C003` — every flow endpoint must reference a defined process. A
//!   `Psm` guarantees it (`Application::add_flow`);
//!   [`EnginePlan::try_set_flow_values`] still raises it for a value list
//!   of the wrong length;
//! * `C004` — retired: the package size and every clock period must be
//!   non-zero. V002 and `Platform::with_package_size` reject a zero
//!   package size and `ClockDomain` cannot represent a zero period;
//! * `C005` — the topology must provide a border unit between every pair
//!   of adjacent segments an inter-segment flow crosses;
//! * `C006` — retired: the wave ordering must be acyclic and respect data
//!   dependencies, which V010 and V006 reject at construction;
//! * `C007` — retired: the cost model's reference package size is a
//!   divisor and used to be checked for zero here; it is now stored as a
//!   [`std::num::NonZeroU32`], so the invariant holds by construction and
//!   the front ends reject zero at parse/import time (`P003` / value
//!   errors);
//! * `C008` — the run must fit the engine's 64-bit picosecond timeline
//!   and its scratch tables (a conservative horizon/resource bound), and
//!   every per-package compute tick count must fit `u64`.
//!
//! So a valid model the engine still cannot run — zero frames, a route
//! without border units, a run too large for the timeline — fails here
//! with a typed [`SegbusError`] instead of a panic, an overflow or an
//! out-of-memory abort deep inside the event loop, whether it came from
//! the DSL, an XML import or programmatic construction.
//!
//! [`EnginePlan::try_new`]: crate::EnginePlan::try_new
//! [`EnginePlan::try_remap`]: crate::EnginePlan::try_remap
//! [`EnginePlan::try_set_flow_values`]: crate::EnginePlan::try_set_flow_values

use segbus_model::diag::SegbusError;
use segbus_model::mapping::Psm;
use segbus_model::psdf::{CostModel, Flow, FlowValues};

use crate::config::{
    EmulatorConfig, CA_GRANT_TICKS, CA_RELEASE_TICKS, CA_REQUEST_TICKS, HEADER_TICKS,
    RELEASE_TICKS, REQUEST_TICKS, WP_SAMPLE_TICKS,
};

/// Upper bound on the conservative worst-case makespan, in picoseconds.
/// `2^62` leaves two bits of headroom below `u64::MAX` for every addition
/// the event loop performs on the global timeline.
const HORIZON_MAX_PS: u128 = 1 << 62;

/// Upper bound on `frames × waves` and `frames × total packages`: bounds
/// the per-run scratch allocations (`instance_remaining` et al.) and every
/// package counter.
const INSTANCE_MAX: u128 = 1 << 24;

fn err(code: &'static str, message: String) -> SegbusError {
    SegbusError::new(code, message)
}

/// Validate `psm` against the engine invariants for a `frames`-frame run.
///
/// Returns the first violated invariant as a [`SegbusError`] with a `C0xx`
/// code (see the module docs). A `Ok(())` guarantees the emulation cannot
/// panic, overflow the picosecond timeline, or allocate unboundedly.
/// No invariant depends on the run's configuration: the protocol tick
/// costs are constants, and arbitration, release and tracing change no
/// bound, so `_cfg` is accepted and not read.
pub fn strict_validate(psm: &Psm, frames: u64, _cfg: &EmulatorConfig) -> Result<(), SegbusError> {
    let app = psm.application();
    let platform = psm.platform();

    // C001 — frames.
    if frames == 0 {
        return Err(err("C001", "frame count must be non-zero".into()));
    }

    // C005 — topology / border-unit consistency: every hop of every route
    // an inter-segment flow takes must have a border unit.
    for f in app.flows() {
        let a = psm.segment_of(f.src);
        let b = psm.segment_of(f.dst);
        if a == b {
            continue;
        }
        let segs = platform.path_segments(a, b);
        if segs.len() < 2 || segs.first() != Some(&a) || segs.last() != Some(&b) {
            return Err(err(
                "C005",
                format!("no route from segment {a} to segment {b}"),
            ));
        }
        for w in segs.windows(2) {
            if platform.bu_between(w[0], w[1]).is_none() {
                return Err(err(
                    "C005",
                    format!(
                        "no border unit between adjacent segments {} and {} on the {:?} topology",
                        w[0],
                        w[1],
                        platform.topology()
                    ),
                ));
            }
        }
    }

    // C008 — horizon and resource bounds over the model's own values.
    check_flow_values(
        psm,
        app.waves().len(),
        app.flows().iter().map(Flow::values),
        frames,
    )
}

/// `C008` over explicit per-flow values: the run must fit the engine's
/// 64-bit picosecond timeline and its scratch tables when the flows carry
/// `values` (in flow order), with `psm` supplying everything else
/// (platform, cost model) and `waves` its wave count.
///
/// [`strict_validate`] calls it with the model's own values; a
/// Monte-Carlo estimation calls it through [`EnginePlan::try_set_flow_values`]
/// with each sample's values, so a sampled run is bounded by exactly the
/// check `strict_validate` would apply to the sampled model.
///
/// The bound is conservative and computed in `u128`, so the check itself
/// cannot overflow: it assumes every package is computed and then
/// serialised over every segment of the platform with full protocol
/// overhead, all end to end.
///
/// [`EnginePlan::try_set_flow_values`]: crate::EnginePlan::try_set_flow_values
pub(crate) fn check_flow_values(
    psm: &Psm,
    waves: usize,
    values: impl Iterator<Item = FlowValues>,
    frames: u64,
) -> Result<(), SegbusError> {
    let platform = psm.platform();
    let s = platform.package_size();
    let cost_model = psm.application().cost_model();
    let nseg = platform.segment_count();
    let overhead_ticks = (REQUEST_TICKS
        + HEADER_TICKS
        + RELEASE_TICKS
        + CA_REQUEST_TICKS
        + CA_GRANT_TICKS
        + CA_RELEASE_TICKS
        + WP_SAMPLE_TICKS) as u128
        + s as u128;
    let transit = overhead_ticks.saturating_mul(nseg as u128 + 1);
    let mut total_pkgs = 0u128;
    let mut per_pkg_ticks = 0u128;
    let mut ticks_fit = Ok(());
    for (i, v) in values.enumerate() {
        let pkgs = v.items.div_ceil(s as u64) as u128;
        // The engine's `u64` ticks where they exist (the same value), the
        // exact `u128` ones where the engine would overflow.
        let compute = match compute_ticks(cost_model, i, v.ticks, s) {
            Ok(ticks) => ticks as u128,
            Err(e) => {
                ticks_fit = ticks_fit.and(Err(e));
                compute_ticks_u128(cost_model, v.ticks, s)
            }
        };
        total_pkgs += pkgs;
        per_pkg_ticks =
            per_pkg_ticks.saturating_add(pkgs.saturating_mul(compute.saturating_add(transit)));
    }

    let waves = waves as u128;
    let instances = (frames as u128).saturating_mul(waves.max(1));
    let pkg_instances = (frames as u128).saturating_mul(total_pkgs);
    if instances > INSTANCE_MAX || pkg_instances > INSTANCE_MAX {
        return Err(err(
            "C008",
            format!(
                "run is too large: {frames} frame(s) x {waves} wave(s) / \
                 {total_pkgs} package(s) exceed the {INSTANCE_MAX} instance budget"
            ),
        ));
    }

    let max_period = platform
        .segments()
        .iter()
        .map(|sg| sg.clock.period_ps())
        .chain(std::iter::once(platform.ca_clock().period_ps()))
        .max()
        .unwrap_or(1) as u128;
    let horizon_ps = (frames as u128)
        .saturating_mul(per_pkg_ticks)
        .saturating_mul(max_period);
    if horizon_ps > HORIZON_MAX_PS {
        return Err(err(
            "C008",
            format!(
                "worst-case horizon {horizon_ps}ps exceeds the engine's \
                 {HORIZON_MAX_PS}ps timeline budget"
            ),
        ));
    }

    // Last, so that every run the bounds above reject keeps their message:
    // the engine derives compute ticks in `u64`, which a huge cost can
    // overflow even under the horizon budget.
    ticks_fit
}

/// Per-package compute ticks of flow `i` (annotated with `ticks`) at
/// package size `s`, or `C008` when the cost model's `u64` arithmetic
/// overflows. Plan compilation and patching derive their ticks through
/// it, so neither can panic or wrap.
pub(crate) fn compute_ticks(
    cost_model: CostModel,
    i: usize,
    ticks: u64,
    s: u32,
) -> Result<u64, SegbusError> {
    cost_model
        .checked_ticks_per_package(ticks, s)
        .ok_or_else(|| compute_overflow(i, ticks))
}

/// The `C008` of [`compute_ticks`], kept out of line: every caller runs
/// on the hot path of a plan compile or patch and never expects it.
#[cold]
#[inline(never)]
fn compute_overflow(i: usize, ticks: u64) -> SegbusError {
    err(
        "C008",
        format!("flow #{i}: {ticks} tick(s) per package overflow the 64-bit compute time"),
    )
}

/// [`CostModel::ticks_per_package`] re-derived in `u128`: the model crate
/// computes in `u64`, which can overflow for hostile inputs before this
/// pass has bounded them.
fn compute_ticks_u128(cm: CostModel, c: u64, package_size: u32) -> u128 {
    let c = c as u128;
    let s = package_size as u128;
    match cm {
        CostModel::PerItem {
            reference_package_size,
        } => {
            let r = reference_package_size.get() as u128;
            (c * s + r / 2) / r
        }
        CostModel::PerPackage => c,
        CostModel::Affine {
            base_ticks,
            reference_package_size,
        } => {
            let r = reference_package_size.get() as u128;
            let base = base_ticks as u128;
            base + ((c.saturating_sub(base)) * s + r / 2) / r
        }
    }
}

/// `true` if `psm` passes [`strict_validate`] for a single-frame run under
/// the default configuration — the common "is this emulable at all?" probe.
pub fn is_emulable(psm: &Psm) -> bool {
    strict_validate(psm, 1, &EmulatorConfig::default()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;
    use segbus_model::Platform;

    fn small_psm() -> Psm {
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::initial("P0"));
        let p1 = app.add_process(Process::final_("P1"));
        app.add_flow(Flow::new(p0, p1, 72, 1, 10)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(1));
        Psm::new(platform, app, alloc).unwrap()
    }

    #[test]
    fn valid_psm_passes() {
        let psm = small_psm();
        assert!(strict_validate(&psm, 1, &EmulatorConfig::default()).is_ok());
        assert!(is_emulable(&psm));
    }

    #[test]
    fn zero_frames_is_c001() {
        let psm = small_psm();
        let e = strict_validate(&psm, 0, &EmulatorConfig::default()).unwrap_err();
        assert_eq!(e.code, "C001");
    }

    #[test]
    fn absurd_frame_counts_are_c008() {
        let psm = small_psm();
        let e = strict_validate(&psm, u64::MAX, &EmulatorConfig::default()).unwrap_err();
        assert_eq!(e.code, "C008");
    }

    #[test]
    fn overflowing_workload_is_c008() {
        // A flow whose item count produces an astronomically long run:
        // accepted by the structural validator (warnings only), rejected
        // by the horizon bound before it can overflow the engine.
        let platform = Platform::builder("t")
            .uniform_segments(1, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::initial("P0"));
        let p1 = app.add_process(Process::final_("P1"));
        app.add_flow(Flow::new(p0, p1, u64::MAX, 1, u64::MAX))
            .unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(0));
        let psm = Psm::new(platform, app, alloc).unwrap();
        let e = strict_validate(&psm, 1, &EmulatorConfig::default()).unwrap_err();
        assert_eq!(e.code, "C008");
    }
}
