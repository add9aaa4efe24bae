//! The benchmark's own tests: seeded inputs, the order statistics, span
//! arithmetic, `compare`'s verdicts, agreement with `BENCHMARK.json`, and
//! a smoke run of every workload through the library.

use std::path::PathBuf;

use segbench::compare::{judge, MetricSpec, Verdict};
use segbench::trace::{self_times, Span};
use segbench::{request_stream, run, stats, Config, Workload, END_TO_END, PER_LAYER};
use segbus_serve::json::{self, Json};

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    for w in Workload::ALL {
        let a = request_stream(w, 1, 300, 15);
        assert_eq!(a.len(), 300, "{w:?}");
        assert_eq!(
            a.concat().as_bytes(),
            request_stream(w, 1, 300, 15).concat().as_bytes()
        );
        assert_ne!(a, request_stream(w, 2, 300, 15), "{w:?}");
    }
}

#[test]
fn nearest_rank_agrees_with_the_core_percentile() {
    let mut rng = segbench::rng::Rng::new(3);
    for n in 1..80 {
        let mut xs: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        xs.sort_unstable();
        for p in [0.5, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                stats::nearest_rank(&xs, p),
                segbus_core::montecarlo::percentile(&xs, p),
                "n {n}, p {p}"
            );
        }
    }
}

#[test]
fn quartiles_and_median_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&xs), [2.75, 5.5, 8.25]);
    // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(stats::quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_each_covered_nanosecond_once() {
    let spans = [
        span("op", 0, 100, None),
        // Two children overlapping each other: together they cover 10..60.
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        // A child running past its parent's end covers only 90..100.
        span("c", 90, 120, Some(0)),
        // A grandchild is subtracted from its own parent only.
        span("d", 12, 20, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![40, 22, 30, 30, 8]);
}

#[test]
fn compare_applies_the_gain_regression_and_spread_rules() {
    let spec = MetricSpec {
        name: "latency_p50_us".into(),
        lower_is_better: true,
        bound: 0.1,
    };
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
        .collect();
    assert_eq!(judge(&spec, &parent, &faster), Verdict::Gain);
    assert_eq!(judge(&spec, &parent, &slower), Verdict::Regression);
    assert_eq!(judge(&spec, &parent, &parent), Verdict::Same);
    assert_eq!(judge(&spec, &parent, &noisy), Verdict::Unresolved);
    assert_eq!(judge(&spec, &[91.0; 5], &[91.0; 5]), Verdict::Identical);
    assert_eq!(judge(&spec, &[91.0; 5], &[92.0; 5]), Verdict::Changed);
}

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name)
}

#[test]
fn benchmark_json_lists_exactly_what_the_runs_print() {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = json::parse(&text).expect("valid JSON");
    let list = |key: &str| match v.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("{key} is not a list"),
    };
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, printed, "{key}");
    }
}

/// The settings of a manifest's `[profile.release]` table, comments and
/// blank lines dropped, in sorted order.
fn release_profile(manifest: PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let mut settings: Vec<String> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|&l| l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    settings.sort();
    settings
}

/// The benchmark is a workspace of its own, so Cargo builds the code under
/// test with this package's release profile, not the repository's: the
/// two must say the same.
#[test]
fn release_profile_matches_the_repository_root() {
    let ours = release_profile(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, release_profile(repo_file("Cargo.toml")));
}

/// Every workload, untraced and traced, at two scenarios and a few
/// milliseconds: every metric is printed and every check passes.
#[test]
fn every_workload_runs_small_and_checks_out() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("segbench-smoke");
    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload: w,
                seed: 7,
                seconds: 0.01,
                trace,
                scenarios: 2,
                work_dir: dir.clone(),
                spans_path: trace.then(|| dir.join(format!("spans-{}.json", w.name()))),
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{w:?} trace {trace}: {e}"));
            assert!(out.correct(), "{w:?} trace {trace}: {:?}", out.mismatches);
            assert!(out.attempted >= 1);
            assert_eq!(out.failed, 0, "{w:?} trace {trace}");
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{w:?} trace {trace}");
            let line = json::parse(&out.to_json()).expect("the result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            if trace {
                let spans = std::fs::read_to_string(cfg.spans_path.unwrap()).expect("span file");
                assert!(json::parse(&spans).is_ok(), "{w:?}: the span file is JSON");
                let coverage = out.metrics[0].value;
                assert!(
                    coverage > 0.5 && coverage <= 1.0,
                    "{w:?}: coverage {coverage}"
                );
            } else {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{w:?}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}
