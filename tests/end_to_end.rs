//! Cross-crate integration tests: the complete design flow of the paper's
//! Fig. 3 (DSL → validation → M2T → XML import → emulation → estimation)
//! exercised through the public facade.

use segbus::apps::{generators, mp3};
use segbus::dsl;
use segbus::emu::EmulatorConfig;
use segbus::model::prelude::*;
use segbus::place::{Objective, PlaceTool};
use segbus::rtl::RtlSimulator;
use segbus::xml::{import, m2t, parse};

mod common;
use common::{estimate, run};

/// DSL text → PSM → XML schemes → import → identical emulation results.
#[test]
fn dsl_to_xml_to_emulation_is_consistent() {
    let psm = mp3::three_segment_psm();

    // Through the DSL.
    let text = dsl::printer::to_dsl(&psm);
    let from_dsl = dsl::parse_system(&text).expect("round trip parses");

    // Through the XML schemes.
    let psdf = parse(&m2t::export_psdf(psm.application()).to_xml_string()).unwrap();
    let psm_doc = parse(&m2t::export_psm(&psm).to_xml_string()).unwrap();
    let from_xml = import::import_system(&psdf, &psm_doc).expect("schemes import");

    let direct = run(&psm);
    let via_dsl = run(&from_dsl);
    let via_xml = run(&from_xml);
    assert_eq!(direct.makespan, via_dsl.makespan);
    assert_eq!(direct.makespan, via_xml.makespan);
    assert_eq!(direct.sas, via_xml.sas);
    assert_eq!(direct.bus, via_dsl.bus);
}

/// The estimator and the reference simulator agree on every structural
/// counter for a variety of applications (they differ only in timing).
#[test]
fn engines_agree_structurally_across_apps() {
    let cfg = generators::GeneratorConfig {
        items_per_flow: 3 * 36,
        ticks_per_package: 80,
    };
    let apps = vec![
        generators::chain(5, cfg),
        generators::diamond(3, cfg),
        generators::butterfly(2, cfg),
        generators::random_layered(4, 3, 99, cfg),
    ];
    for app in apps {
        for segments in [1usize, 2, 3] {
            let alloc = generators::block_allocation(&app, segments);
            let platform = generators::uniform_platform(segments, 36);
            let psm = Psm::new(platform, app.clone(), alloc).expect("valid");
            let est = run(&psm);
            let act = RtlSimulator::default()
                .run(&psm)
                .unwrap_or_else(|e| panic!("{} on {} segs: {e}", app.name(), segments));
            for i in 0..est.bus.len() {
                assert_eq!(
                    est.bus[i].total_in(),
                    act.bus[i].total_in(),
                    "{}",
                    app.name()
                );
                assert_eq!(est.bus[i].total_out(), act.bus[i].total_out());
            }
            assert_eq!(est.ca.grants, act.ca.grants);
            assert_eq!(est.ca.inter_requests, act.ca.inter_requests);
            for i in 0..est.sas.len() {
                assert_eq!(est.sas[i].inter_requests, act.sas[i].inter_requests);
                assert_eq!(est.sas[i].packets_to_left, act.sas[i].packets_to_left);
                assert_eq!(est.sas[i].packets_to_right, act.sas[i].packets_to_right);
            }
            // The reference pays for every signal, so it is slower —
            // up to scheduling luck: its round-robin arbiter can pack
            // contended work slightly better than the estimator's FIFO,
            // so allow a 5 % reversal margin on synthetic graphs (the
            // MP3 accuracy tests assert strict underestimation).
            assert!(
                act.execution_time().0 * 100 >= est.execution_time().0 * 95,
                "{} on {segments} segs: reference much faster than estimator",
                app.name()
            );
        }
    }
}

/// PlaceTool allocations always validate and never lose to the naive
/// round-robin mapping when emulated.
#[test]
fn placetool_output_emulates_no_worse_than_round_robin() {
    let cfg = generators::GeneratorConfig::default();
    for seed in [1u64, 2, 3] {
        let app = generators::random_layered(5, 3, seed, cfg);
        let tool = PlaceTool::new(&app, 3).with_objective(Objective::Packages(36));
        let best = tool.best(seed);
        let platform = generators::uniform_platform(3, 36);
        let psm_best = Psm::new(platform.clone(), app.clone(), best.allocation).expect("valid");
        let psm_rr = Psm::new(
            platform,
            app.clone(),
            generators::round_robin_allocation(&app, 3),
        )
        .expect("valid");
        let t_best = run(&psm_best).execution_time();
        let t_rr = run(&psm_rr).execution_time();
        assert!(
            t_best.0 <= t_rr.0 + t_rr.0 / 10,
            "seed {seed}: best {t_best:?} much worse than round-robin {t_rr:?}"
        );
    }
}

/// Process status flags: the monitor's end condition holds in every report.
#[test]
fn all_runs_end_with_flags_raised_and_conservation() {
    for (_, psm) in [
        ("1seg", mp3::one_segment_psm()),
        ("2seg", mp3::two_segment_psm()),
        ("3seg", mp3::three_segment_psm()),
    ] {
        let r = estimate(EmulatorConfig::traced(), &psm, 1);
        assert!(r.all_flags_raised());
        let total: u64 = psm
            .application()
            .flows()
            .iter()
            .map(|f| f.packages(psm.platform().package_size()))
            .sum();
        let sent: u64 = r.fus.iter().map(|f| f.packages_sent).sum();
        let recv: u64 = r.fus.iter().map(|f| f.packages_received).sum();
        assert_eq!(sent, total);
        assert_eq!(recv, total);
        for b in &r.bus {
            assert_eq!(b.total_in(), b.total_out(), "no package stuck in a BU");
        }
    }
}

/// The facade re-exports compose: a user can drive the whole flow through
/// `segbus::*` only.
#[test]
fn facade_paths_compose() {
    let app = segbus::apps::chain(4, generators::GeneratorConfig::default());
    let alloc = generators::block_allocation(&app, 2);
    let platform = generators::uniform_platform(2, 36);
    let psm = segbus::model::Psm::new(platform, app, alloc).unwrap();
    let report = segbus::emu::Engine::default().try_run(&psm).unwrap();
    assert!(report.execution_time() > segbus::model::Picos::ZERO);
    let table = segbus::report::fig8_matrix();
    assert_eq!(table.len(), 15);
}

/// Ring platforms survive the full DSL and XML round trips and emulate
/// identically afterwards.
#[test]
fn ring_round_trips_through_dsl_and_xml() {
    let app = generators::diamond(3, generators::GeneratorConfig::default());
    let alloc = generators::round_robin_allocation(&app, 4);
    let ring = generators::ring_platform(4, 36);
    let psm = Psm::new(ring, app, alloc).expect("valid ring PSM");

    // DSL.
    let text = dsl::printer::to_dsl(&psm);
    assert!(text.contains("topology ring;"), "{text}");
    let from_dsl = dsl::parse_system(&text).expect("ring DSL parses");
    assert_eq!(from_dsl.platform(), psm.platform());

    // XML.
    let psm_doc = parse(&m2t::export_psm(&psm).to_xml_string()).unwrap();
    let (platform, alloc2) = import::import_psm(&psm_doc, psm.application()).unwrap();
    assert_eq!(&platform, psm.platform());
    assert_eq!(&alloc2, psm.allocation());
    assert_eq!(platform.border_unit_count(), 4, "wrap unit survives");

    // Both restored systems emulate identically.
    let direct = run(&psm);
    let via_dsl = run(&from_dsl);
    assert_eq!(direct.makespan, via_dsl.makespan);
    assert_eq!(direct.bus, via_dsl.bus);
}
