//! Monte-Carlo estimation pinned end to end over the committed corpus.
//!
//! `crates/core/tests/golden/mc_digests.txt` holds one FNV-64 digest of a
//! whole estimation per corpus scenario x seed x frame count: every
//! `McReport` field (floats as bits) plus the pool's hit, miss and
//! eviction counters. Any change to sampling, cache keys, dedupe, the
//! cache tiers or the statistics moves a row. The other tests pin the
//! disk tier, the first-failing-sample error, the sample digests and the
//! plan patch each sample runs on.

use segbus_core::{
    run_monte_carlo, CachedPool, EmulatorConfig, Engine, EnginePlan, McOptions, McReport, SweepPool,
};
use segbus_model::digest::Fnv64;
use segbus_model::ids::SegmentId;
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, Flow, FlowValues, Process};
use segbus_model::stochastic::{mix_seed, sample_flow_values, sample_psm, Dist, FlowNoise};

mod common;
use common::{corpus, run_plan};
use segbus_model::time::ClockDomain;

/// Samples per pinned estimation.
const SAMPLES: u64 = 64;
/// Report-cache capacity of the pinned pools: below `SAMPLES`, so the
/// eviction counter is exercised too.
const CAPACITY: usize = 48;

fn pool(threads: usize, capacity: usize) -> CachedPool {
    CachedPool::with_pool(
        SweepPool::with_threads(EmulatorConfig::default(), threads),
        capacity,
    )
}

/// FNV-64 over an estimation and the cache counters it left behind.
fn mc_digest(report: &McReport, pool: &CachedPool) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(report.samples);
    h.write_u64(report.distinct);
    h.write_u64(report.makespans.len() as u64);
    for &m in &report.makespans {
        h.write_u64(m);
    }
    let s = &report.makespan;
    for v in [s.min, s.max, s.p50, s.p95, s.p99] {
        h.write_u64(v);
    }
    for v in [s.mean, s.ci95.0, s.ci95.1] {
        h.write_u64(v.to_bits());
    }
    h.write_u64(report.utilisation.len() as u64);
    for u in &report.utilisation {
        for v in [u.min, u.mean, u.max] {
            h.write_u64(v.to_bits());
        }
    }
    let c = pool.stats();
    for v in [c.hits, c.misses, c.evictions] {
        h.write_u64(v);
    }
    h.finish()
}

/// The golden table: `scenario seed frames` → digest.
fn golden() -> std::collections::HashMap<String, u64> {
    include_str!("golden/mc_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 4, "malformed golden row {l:?}");
            let digest = u64::from_str_radix(cols[3], 16).expect("hex digest");
            (cols[..3].join(" "), digest)
        })
        .collect()
}

/// Every row of the golden table, for every thread count. On a mismatch
/// the test prints the table it computed, so a deliberate change can
/// regenerate the file from the failure output.
#[test]
fn mc_reports_match_golden_digests() {
    let golden = golden();
    let config = EmulatorConfig::default();
    let corpus = corpus();
    for threads in [1, 2, 8] {
        let mut rows = Vec::new();
        let mut bad = Vec::new();
        for (scenario, psm) in &corpus {
            for seed in [0u64, 7] {
                for frames in [1u64, 2] {
                    let mut pool = pool(threads, CAPACITY);
                    let opts = McOptions {
                        samples: SAMPLES,
                        seed,
                        frames,
                        ..Default::default()
                    };
                    let report = run_monte_carlo(&mut pool, psm, config, &opts)
                        .unwrap_or_else(|e| panic!("{scenario}: {e}"));
                    let key = format!("{scenario} {seed} {frames}");
                    let digest = mc_digest(&report, &pool);
                    if golden.get(&key) != Some(&digest) {
                        bad.push(key.clone());
                    }
                    rows.push(format!("{key} {digest:016x}"));
                }
            }
        }
        assert!(
            bad.is_empty() && rows.len() == golden.len(),
            "{threads} thread(s): {} row(s) differ ({bad:?}); computed table:\n{}",
            bad.len(),
            rows.join("\n")
        );
    }
}

/// A second estimation on a fresh pool over the same `DiskStore`
/// directory emulates nothing: every sample is a hit.
#[test]
fn disk_backed_estimation_warm_starts_a_fresh_pool() {
    let dir = std::env::temp_dir().join(format!("segbus-mc-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EmulatorConfig::default();
    let (_, psm) = &corpus()[0];
    let opts = McOptions {
        samples: 32,
        seed: 3,
        ..Default::default()
    };
    let cold = {
        let mut pool = pool(2, 1024);
        pool.attach_disk(&dir).unwrap();
        let report = run_monte_carlo(&mut pool, psm, config, &opts).unwrap();
        assert_eq!(pool.stats().misses, report.distinct);
        report
    };
    let mut pool = pool(2, 1024);
    pool.attach_disk(&dir).unwrap();
    let warm = run_monte_carlo(&mut pool, psm, config, &opts).unwrap();
    let s = pool.stats();
    assert_eq!(s.misses, 0, "a warm directory answers every sample");
    assert_eq!(s.hits, opts.samples);
    assert_eq!(s.disk_hits, cold.distinct);
    assert_eq!(warm.makespans, cold.makespans);
    assert_eq!(warm.makespan, cold.makespan);
    assert_eq!(warm.utilisation, cold.utilisation);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-flow model whose first flow's volume is usually small but, with
/// low probability, exceeds the engine's instance budget: sample 0 runs,
/// a later sample fails the per-sample `C008` bound.
fn rarely_oversized_psm() -> Psm {
    let mut app = Application::new("rare");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::new("B"));
    let c = app.add_process(Process::final_("C"));
    let f0 = app.add_flow(Flow::new(a, b, 360, 1, 100)).unwrap();
    app.add_flow(Flow::new(b, c, 180, 2, 50)).unwrap();
    app.set_flow_noise(
        f0,
        FlowNoise {
            items: Some(Dist::Choice(vec![(360, 7), (36 << 25, 1)])),
            ..Default::default()
        },
    )
    .unwrap();
    let mut alloc = Allocation::new(2);
    alloc.assign(a, SegmentId(0));
    alloc.assign(b, SegmentId(0));
    alloc.assign(c, SegmentId(1));
    let platform = Platform::builder("t")
        .uniform_segments(2, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    Psm::new(platform, app, alloc).unwrap()
}

/// The first failing sample's typed error is the estimation's error,
/// code and message as the per-sample pre-flight words it.
#[test]
fn later_sample_failing_c008_is_the_estimation_error() {
    let psm = rarely_oversized_psm();
    let config = EmulatorConfig::default();
    let opts = McOptions {
        samples: 32,
        seed: 1,
        ..Default::default()
    };
    let first = sample_psm(&psm, mix_seed(opts.seed, 0)).unwrap();
    assert_eq!(first.application().flows()[0].items, 360, "sample 0 runs");
    for threads in [1, 2] {
        let mut pool = pool(threads, 1024);
        let e = run_monte_carlo(&mut pool, &psm, config, &opts).unwrap_err();
        assert_eq!(e.code, "C008");
        assert_eq!(
            e.message,
            "run is too large: 1 frame(s) x 2 wave(s) / 33554437 package(s) exceed the \
             16777216 instance budget"
        );
    }
}

/// A sample's flow values are those of the model `sample_psm` builds,
/// and its cache key, from the base model plus those values, equals that
/// model's digest, so cache keys (and every `--cache-dir` store) are
/// unchanged.
#[test]
fn flow_value_digest_equals_sampled_model_digest_on_corpus() {
    let mut values = Vec::new();
    for (scenario, psm) in corpus() {
        let head = psm.digest_head();
        for seed in 0..100 {
            sample_flow_values(psm.application(), seed, &mut values);
            let sampled = sample_psm(&psm, seed).unwrap();
            let want: Vec<FlowValues> = sampled
                .application()
                .flows()
                .iter()
                .map(Flow::values)
                .collect();
            assert_eq!(values, want, "{scenario} seed {seed}");
            assert_eq!(
                psm.digest_with_flow_values(head, &values),
                sampled.digest(),
                "{scenario} seed {seed}"
            );
        }
    }
}

/// A patched plan runs exactly like a plan compiled for the sampled
/// model, and a patch the `C008` bound rejects leaves the plan as it was.
#[test]
fn patched_plan_matches_fresh_plan_and_rejected_patch_changes_nothing() {
    let config = EmulatorConfig::default();
    let mut engine = Engine::new(config);
    let mut values = Vec::new();
    for (scenario, psm) in corpus() {
        let mut plan = EnginePlan::try_new(&psm).unwrap();
        for seed in 0..4 {
            sample_flow_values(psm.application(), seed, &mut values);
            plan.try_set_flow_values(&values, 1).unwrap();
            let sampled = sample_psm(&psm, seed).unwrap();
            let fresh = engine.try_run_frames(&sampled, 1).unwrap();
            let patched = run_plan(&mut engine, &plan, 1);
            assert_eq!(patched.makespan, fresh.makespan, "{scenario} seed {seed}");
            assert_eq!(patched.sas, fresh.sas, "{scenario} seed {seed}");
            assert_eq!(patched.fus, fresh.fus, "{scenario} seed {seed}");
        }
        let before = run_plan(&mut engine, &plan, 1);
        let mut huge = values.clone();
        huge[0].items = u64::MAX;
        let e = plan.try_set_flow_values(&huge, 1).unwrap_err();
        assert_eq!(e.code, "C008", "{scenario}");
        let e = plan.try_set_flow_values(&values[1..], 1).unwrap_err();
        assert_eq!(e.code, "C003", "{scenario}");
        let after = run_plan(&mut engine, &plan, 1);
        assert_eq!(after.makespan, before.makespan, "{scenario}");
        assert_eq!(after.fus, before.fus, "{scenario}");
    }
}
