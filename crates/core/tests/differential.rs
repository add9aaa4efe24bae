//! Differential tests of the engine against its oracle: the fast core
//! must reproduce the vendored pre-optimisation [`ReferenceEmulator`]
//! exactly on full system runs — the paper's E2 MP3 configuration, a
//! spread of generated graph shapes and the committed corpus — under
//! every arbitration and flow-control policy (which gate the fast core's
//! internal shortcuts), for single- and multi-frame runs, and whatever
//! the sweep pool's thread count.

use segbus_apps::generators::{
    block_allocation, chain, diamond, random_layered, round_robin_allocation, uniform_platform,
    GeneratorConfig,
};
use segbus_apps::mp3;
use segbus_core::{
    ArbitrationPolicy, EmulationReport, EmulatorConfig, ProducerRelease, ReferenceEmulator,
    SweepPool,
};
use segbus_model::mapping::Psm;

mod common;
use common::corpus;

/// Every arbitration × release policy pair.
fn policies() -> Vec<EmulatorConfig> {
    let mut out = Vec::new();
    for arbitration in [
        ArbitrationPolicy::Fifo,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::FairRoundRobin,
    ] {
        for producer_release in [
            ProducerRelease::AfterDelivery,
            ProducerRelease::AfterLocalPhase,
        ] {
            out.push(EmulatorConfig {
                arbitration,
                producer_release,
                ..EmulatorConfig::default()
            });
        }
    }
    out
}

/// Every observable of the run must agree, not just the makespan.
fn assert_same(a: &EmulationReport, r: &EmulationReport, label: &str) {
    assert_eq!(a.makespan, r.makespan, "{label}: makespan");
    assert_eq!(a.sas, r.sas, "{label}: SA stats");
    assert_eq!(a.ca, r.ca, "{label}: CA stats");
    assert_eq!(a.bus, r.bus, "{label}: bus counters");
    assert_eq!(a.fus, r.fus, "{label}: FU counters");
}

/// Run `psms` on sweep pools of 1, 2 and 4 workers under every policy
/// and frame count, and compare each report with the reference's.
fn assert_matches_reference(psms: &[(String, Psm)], frame_counts: &[u64]) {
    for cfg in policies() {
        let expected: Vec<Vec<EmulationReport>> = psms
            .iter()
            .map(|(_, psm)| {
                frame_counts
                    .iter()
                    .map(|&f| ReferenceEmulator::new(cfg).run_frames(psm, f))
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = SweepPool::with_threads(cfg, threads);
            let got = pool.sweep_with(psms, |engine, (_, psm)| {
                frame_counts
                    .iter()
                    .map(|&f| engine.run_frames(psm, f))
                    .collect::<Vec<_>>()
            });
            for (((name, _), want), got) in psms.iter().zip(&expected).zip(&got) {
                for ((frames, r), a) in frame_counts.iter().zip(want).zip(got) {
                    let label = format!(
                        "{name} {:?}/{:?} f{frames} on {threads} threads",
                        cfg.arbitration, cfg.producer_release
                    );
                    assert_same(a, r, &label);
                }
            }
        }
    }
}

/// The paper's MP3 systems, including the experiment-2 mapping.
#[test]
fn mp3_systems_match_the_reference() {
    let psms = vec![
        ("mp3 E2".to_string(), mp3::three_segment_psm()),
        ("mp3 two-segment".to_string(), mp3::two_segment_psm()),
        (
            "mp3 P9 moved".to_string(),
            mp3::three_segment_p9_moved_psm(),
        ),
    ];
    assert_matches_reference(&psms, &[1, 2]);
}

/// Chains stress sequential dependencies; diamonds (fork-join) stress
/// simultaneous arbitration, where tie-breaking order is most fragile.
#[test]
fn generated_graphs_match_the_reference() {
    let cfg = GeneratorConfig::default();
    let mut psms = Vec::new();
    for segments in [2usize, 3] {
        let app = chain(8, cfg);
        let alloc = block_allocation(&app, segments);
        psms.push((
            format!("chain/{segments}"),
            Psm::new(uniform_platform(segments, 36), app, alloc).unwrap(),
        ));
        let app = diamond(4, cfg);
        let alloc = round_robin_allocation(&app, segments);
        psms.push((
            format!("diamond/{segments}"),
            Psm::new(uniform_platform(segments, 36), app, alloc).unwrap(),
        ));
    }
    for seed in 0..6u64 {
        let app = random_layered(3, 3, seed, cfg);
        let alloc = round_robin_allocation(&app, 3);
        psms.push((
            format!("layered/{seed}"),
            Psm::new(uniform_platform(3, 36), app, alloc).unwrap(),
        ));
    }
    assert_matches_reference(&psms, &[1, 2]);
}

/// Every corpus scenario at a small and a large package size: the
/// families differ in how often a producer runs alone on its segment
/// and in how much traffic crosses segments, which is where the
/// untraced event loop and the reference's plain schedule could part.
#[test]
fn corpus_scenarios_match_the_reference() {
    let mut psms = Vec::new();
    for (name, psm) in corpus() {
        for s in [9u32, 72] {
            let sized = psm.with_package_size(s).expect("corpus package size");
            psms.push((format!("{name} s{s}"), sized));
        }
    }
    assert_matches_reference(&psms, &[1, 3]);
}

/// Deeper streaming runs exercise frame pipelining.
#[test]
fn streaming_runs_match_the_reference() {
    let psms = vec![("mp3 E2".to_string(), mp3::three_segment_psm())];
    assert_matches_reference(&psms, &[2, 5]);
}

/// The pool computes, the thread count only schedules: sweeping the same
/// jobs on 1, 4 and 16 workers yields byte-for-byte equal reports.
#[test]
fn sweep_pool_is_thread_count_invariant_on_mp3_sweeps() {
    let cfg = GeneratorConfig::default();
    let mut psms = vec![
        mp3::one_segment_psm(),
        mp3::two_segment_psm(),
        mp3::three_segment_psm(),
        mp3::three_segment_p9_moved_psm(),
    ];
    for seed in 0..8u64 {
        let app = random_layered(3, 2, seed, cfg);
        psms.push(
            Psm::new(
                uniform_platform(2, 36),
                app.clone(),
                block_allocation(&app, 2),
            )
            .unwrap(),
        );
    }
    let reference = SweepPool::with_threads(EmulatorConfig::default(), 1).sweep(&psms);
    for threads in [4usize, 16] {
        let out = SweepPool::with_threads(EmulatorConfig::default(), threads).sweep(&psms);
        for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(a.makespan, b.makespan, "job {i} on {threads} threads");
            assert_eq!(a.sas, b.sas, "job {i} on {threads} threads");
            assert_eq!(a.ca, b.ca, "job {i} on {threads} threads");
            assert_eq!(a.bus, b.bus, "job {i} on {threads} threads");
            assert_eq!(a.fus, b.fus, "job {i} on {threads} threads");
        }
    }
}
