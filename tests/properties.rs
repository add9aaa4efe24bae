//! Property-based tests over randomly generated applications, platforms
//! and mappings. Cases are drawn from a seeded [`SmallRng`] stream
//! (the workspace builds offline and cannot depend on `proptest`), so
//! every failure reproduces exactly; the failing `SystemSpec` is printed
//! in the panic message.

use segbus::apps::generators::{
    block_allocation, random_layered, ring_platform, round_robin_allocation, uniform_platform,
    GeneratorConfig,
};
use segbus::dsl;
use segbus::emu::EmulatorConfig;
use segbus::model::prelude::*;
use segbus::model::SmallRng;
use segbus::rtl::RtlSimulator;
use segbus::xml::{import, m2t, parse};

mod common;
use common::{estimate, run};

/// A random but always-valid PSM, described by a handful of scalars so a
/// failure report stays meaningful.
#[derive(Clone, Debug)]
struct SystemSpec {
    layers: usize,
    width: usize,
    seed: u64,
    segments: usize,
    package_size: u32,
    block: bool,
    ring: bool,
    items_per_flow: u64,
    ticks: u64,
}

fn arb_system(rng: &mut SmallRng) -> SystemSpec {
    let layers = rng.range_usize(2, 4);
    let width = rng.range_usize(1, 3);
    let seed = rng.below(1000);
    let segments = rng.range_usize(1, 3).min(layers * width);
    let package_size = [9u32, 12, 18, 36][rng.range_usize(0, 3)];
    let items_per_flow = [36u64, 72, 144, 360][rng.range_usize(0, 3)];
    SystemSpec {
        layers,
        width,
        seed,
        segments,
        package_size,
        block: rng.gen_bool(0.5),
        // Rings need at least three segments.
        ring: rng.gen_bool(0.5) && segments >= 3,
        items_per_flow,
        ticks: rng.range_u64(1, 300),
    }
}

fn build(spec: &SystemSpec) -> Psm {
    let cfg = GeneratorConfig {
        items_per_flow: spec.items_per_flow,
        ticks_per_package: spec.ticks,
    };
    let app = random_layered(spec.layers, spec.width, spec.seed, cfg);
    let alloc = if spec.block {
        block_allocation(&app, spec.segments)
    } else {
        round_robin_allocation(&app, spec.segments)
    };
    let platform = if spec.ring {
        ring_platform(spec.segments, spec.package_size)
    } else {
        uniform_platform(spec.segments, spec.package_size)
    };
    Psm::new(platform, app, alloc).expect("generated systems validate")
}

/// Run `cases` generated systems through `check`, labelling any panic
/// with the offending spec.
fn for_each_system(test_seed: u64, cases: usize, check: impl Fn(&SystemSpec, &Psm)) {
    let mut rng = SmallRng::seed_from_u64(test_seed);
    for case in 0..cases {
        let spec = arb_system(&mut rng);
        let psm = build(&spec);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&spec, &psm)));
        if let Err(e) = result {
            eprintln!("failing case {case}: {spec:?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Every run terminates with all status flags raised, and packages are
/// conserved end to end (sent = received = total; BU in = BU out).
#[test]
fn conservation_and_flags() {
    for_each_system(0xC0_0001, 48, |_, psm| {
        let r = run(psm);
        assert!(r.all_flags_raised());
        let s = psm.platform().package_size();
        let total: u64 = psm
            .application()
            .flows()
            .iter()
            .map(|f| f.packages(s))
            .sum();
        let sent: u64 = r.fus.iter().map(|f| f.packages_sent).sum();
        let recv: u64 = r.fus.iter().map(|f| f.packages_received).sum();
        assert_eq!(sent, total);
        assert_eq!(recv, total);
        for b in &r.bus {
            assert_eq!(b.total_in(), b.total_out());
            assert_eq!(b.tct, b.useful_period(s) + b.waiting_ticks);
        }
    });
}

/// The emulator is deterministic.
#[test]
fn estimator_determinism() {
    for_each_system(0xC0_0002, 48, |_, psm| {
        let a = run(psm);
        let b = run(psm);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sas, b.sas);
        assert_eq!(a.ca, b.ca);
        assert_eq!(a.bus, b.bus);
    });
}

/// The makespan respects the schedule's compute lower bound:
/// waves are barriers, producers serialise their own packages.
#[test]
fn makespan_lower_bound() {
    for_each_system(0xC0_0003, 48, |_, psm| {
        let app = psm.application();
        let s = psm.platform().package_size();
        let mut bound = 0u64; // picoseconds
        for wave in app.waves() {
            let mut per_producer: std::collections::BTreeMap<ProcessId, u64> =
                std::collections::BTreeMap::new();
            for f in &wave.flows {
                let flow = app.flow(*f);
                let seg = psm.segment_of(flow.src);
                let period = psm.platform().segment_clock(seg).period_ps();
                let ticks = app.ticks_per_package(*f, s) * flow.packages(s);
                *per_producer.entry(flow.src).or_default() += ticks * period;
            }
            bound += per_producer.values().copied().max().unwrap_or(0);
        }
        let r = run(psm);
        assert!(
            r.makespan.0 >= bound,
            "makespan {} below compute bound {}",
            r.makespan.0,
            bound
        );
    });
}

/// The detailed reference simulation always completes and is never
/// faster than the estimator (it pays for every signal the estimator
/// skips), while staying within a sane factor.
#[test]
fn estimator_underestimates_reference() {
    for_each_system(0xC0_0004, 48, |_, psm| {
        let est = run(psm).execution_time();
        let act = RtlSimulator::default()
            .run(psm)
            .expect("reference simulation completes")
            .execution_time();
        // Allow a 5 % scheduling-luck reversal (differing arbitration
        // orders); the MP3 accuracy tests assert strict underestimation.
        assert!(
            act.0 * 100 >= est.0 * 95,
            "reference {act:?} much faster than estimate {est:?}"
        );
        assert!(
            act.0 <= est.0.saturating_mul(3),
            "gap too large: {act:?} vs {est:?}"
        );
    });
}

/// XML round trip: `import(export(app)) == app` for arbitrary apps.
#[test]
fn xml_psdf_round_trip() {
    for_each_system(0xC0_0005, 48, |_, psm| {
        let app = psm.application();
        let text = m2t::export_psdf(app).to_xml_string();
        let doc = parse(&text).expect("exported scheme parses");
        let back = import::import_psdf(&doc).expect("exported scheme imports");
        assert_eq!(&back, app);
    });
}

/// Full-system XML round trip preserves the emulation result exactly.
#[test]
fn xml_system_round_trip_preserves_results() {
    for_each_system(0xC0_0006, 48, |_, psm| {
        let psdf =
            parse(&m2t::export_psdf(psm.application()).to_xml_string()).expect("psdf parses");
        let psm_doc = parse(&m2t::export_psm(psm).to_xml_string()).expect("psm parses");
        let back = import::import_system(&psdf, &psm_doc).expect("system imports");
        let a = run(psm);
        let b = run(&back);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sas, b.sas);
    });
}

/// DSL round trip: `parse(print(psm))` reproduces the exact model.
#[test]
fn dsl_round_trip() {
    for_each_system(0xC0_0007, 48, |_, psm| {
        let text = dsl::printer::to_dsl(psm);
        let back = dsl::parse_system(&text).expect("printed DSL parses");
        assert_eq!(back.application(), psm.application());
        assert_eq!(back.platform(), psm.platform());
        assert_eq!(back.allocation(), psm.allocation());
    });
}

/// Tracing must not perturb timing: traced and untraced runs agree.
#[test]
fn tracing_is_observation_only() {
    for_each_system(0xC0_0008, 48, |_, psm| {
        let plain = run(psm);
        let traced = estimate(EmulatorConfig::traced(), psm, 1);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.sas, traced.sas);
        assert_eq!(plain.ca, traced.ca);
        assert!(traced.trace.is_some());
    });
}

/// Streaming: `run_frames` conserves packages frame-for-frame, and the
/// pipelined makespan is bounded by the serial repetition while never
/// undercutting a single frame.
#[test]
fn streaming_conservation_and_bounds() {
    let mut frame_rng = SmallRng::seed_from_u64(0xC0_0009);
    let frames_of: Vec<u64> = (0..24).map(|_| frame_rng.range_u64(1, 3)).collect();
    let case = std::cell::Cell::new(0usize);
    for_each_system(0xC0_000A, 24, |_, psm| {
        let frames = frames_of[case.get()];
        case.set(case.get() + 1);
        let single = run(psm).makespan;
        let r = estimate(EmulatorConfig::default(), psm, frames);
        assert!(r.all_flags_raised());
        let s = psm.platform().package_size();
        let per_frame: u64 = psm
            .application()
            .flows()
            .iter()
            .map(|f| f.packages(s))
            .sum();
        let sent: u64 = r.fus.iter().map(|f| f.packages_sent).sum();
        assert_eq!(sent, per_frame * frames);
        for b in &r.bus {
            assert_eq!(b.total_in(), b.total_out());
        }
        assert!(r.makespan >= single, "pipelining cannot beat one frame");
        // Frame interleaving is subject to classic scheduling anomalies
        // (a FIFO arbiter can delay the critical chain), so serial
        // repetition is not a hard upper bound — but a run far beyond it
        // would be a pipelining bug. Sanity: within 25 %.
        let bound = frames * single.0 + frames * single.0 / 4;
        assert!(
            r.makespan.0 <= bound,
            "pipelining far exceeds serial repetition: {} > {}",
            r.makespan.0,
            bound
        );
    });
}
