//! Seeded Monte-Carlo performance estimation over stochastic PSMs.
//!
//! A stochastic model (flows annotated with distributions — see
//! `segbus_model::stochastic`) describes a *family* of concrete systems.
//! [`run_monte_carlo`] draws `samples` deterministic members of that
//! family ([`sample_psm`] with per-sample seeds derived via [`mix_seed`]),
//! runs them through the [`CachedPool`] → [`SweepPool`] tier and
//! summarises the makespan distribution: mean, p50/p95/p99, min/max, a
//! bootstrap 95% confidence interval on the mean, and the per-segment
//! bus-utilisation spread.
//!
//! A draw changes only flow items and ticks, so model-level work is paid
//! once per estimation: sample 0 is built, validated and compiled into an
//! [`EnginePlan`]. Every sample is then drawn as flow values alone and
//! keyed on the pool's workers; the calling thread only dedupes the keys
//! and consults the cache; each distinct miss runs on a worker's own copy
//! of the plan, patched with its values, and its report is moved into the
//! cache once its makespan and utilisation have been read.
//!
//! Three properties fall out of the architecture rather than being
//! re-implemented here:
//!
//! * **Thread-count invariance** — draws are pure functions of
//!   `(model, seed, index)`, the cached pool's keyed batch runner returns
//!   results in input order bit-identically for any worker count, and
//!   every statistic is computed from that ordered vector (the bootstrap
//!   uses its own seeded stream). `segbus mc --samples N --seed S
//!   --threads T` is therefore byte-identical for every `T`.
//! * **Free duplicates** — each sample is keyed by the content digest of
//!   the concrete model it stands for (the same `job_digest` a
//!   [`BatchJob`] of `sample_psm`'s output has), so repeated draws (a
//!   `constant` distribution, a narrow `choice`, overlapping seeds, a warm
//!   `--cache-dir`) are cache hits, not re-emulations.
//! * **NaN-freedom** — inputs are integer picosecond makespans and the
//!   clamped sampler never produces NaN, so every statistic is finite.
//!
//! [`SweepPool`]: crate::parallel::SweepPool
//! [`BatchJob`]: crate::cache::BatchJob

use std::collections::HashSet;
use std::ops::Range;

use segbus_model::diag::SegbusError;
use segbus_model::mapping::Psm;
use segbus_model::psdf::FlowValues;
use segbus_model::rng::SmallRng;
use segbus_model::stochastic::{mix_seed, sample_flow_values, sample_psm};

use crate::cache::{job_digest_from, CachedPool};
use crate::config::EmulatorConfig;
use crate::engine::{Engine, EnginePlan};
use crate::precheck::strict_validate;
use crate::report::EmulationReport;

/// Samples one pool job draws and keys.
const DRAW_CHUNK: usize = 16;

/// Parameters of one Monte-Carlo estimation.
#[derive(Clone, Copy, Debug)]
pub struct McOptions {
    /// Number of samples to draw (clamped to at least 1).
    pub samples: u64,
    /// Master seed; sample `i` uses `mix_seed(seed, i)`.
    pub seed: u64,
    /// Pipelined frames per run (`1` = the paper's single-shot run).
    pub frames: u64,
    /// Bootstrap resamples for the confidence interval (clamped ≥ 1).
    pub bootstrap: u32,
}

impl Default for McOptions {
    fn default() -> McOptions {
        McOptions {
            samples: 100,
            seed: 0,
            frames: 1,
            bootstrap: 200,
        }
    }
}

/// Summary statistics of one sampled metric (picoseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McStats {
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Bootstrap 95% confidence interval on the mean `(lo, hi)`.
    pub ci95: (f64, f64),
}

/// Per-segment bus-utilisation spread across the samples (fractions of
/// the makespan the segment bus was occupied).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilisationSpread {
    /// Smallest observed fraction.
    pub min: f64,
    /// Mean fraction.
    pub mean: f64,
    /// Largest observed fraction.
    pub max: f64,
}

/// The result of a Monte-Carlo estimation.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Samples drawn.
    pub samples: u64,
    /// Distinct sample digests (what actually had to be emulated on a
    /// cold cache — the rest were duplicates).
    pub distinct: u64,
    /// Per-sample makespans in sample order (picoseconds).
    pub makespans: Vec<u64>,
    /// Makespan summary statistics.
    pub makespan: McStats,
    /// Per-segment utilisation spread, indexed by segment.
    pub utilisation: Vec<UtilisationSpread>,
}

/// Arithmetic mean of integer observations (0 for an empty slice).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending-sorted
/// slice: the smallest element with at least `p%` of the sample at or
/// below it. Exact on small `N` — `percentile(&[x], p)` is `x` for any
/// `p`, and no interpolation ever fabricates an unobserved value.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Seeded bootstrap 95% confidence interval on the mean: `resamples`
/// with-replacement resamples of `xs`, interval at the 2.5th/97.5th
/// percentile of the resampled means. Deterministic in `(xs, resamples,
/// seed)`; degenerate inputs (singleton or all-equal samples) collapse to
/// `(mean, mean)` rather than producing NaN.
pub fn bootstrap_ci(xs: &[u64], resamples: u32, seed: u64) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    if xs.len() == 1 || xs.iter().all(|&x| x == xs[0]) {
        let m = xs[0] as f64;
        return (m, m);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let fs: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    let n = fs.len() as u64;
    let mut means: Vec<f64> = (0..resamples.max(1))
        .map(|_| {
            let sum: f64 = (0..n).map(|_| fs[rng.below(n) as usize]).sum();
            sum / n as f64
        })
        .collect();
    // Resampled means of finite integers are finite: total_cmp is exact.
    means.sort_by(|a, b| a.total_cmp(b));
    let pick = |p: f64| {
        let rank = ((p / 100.0) * means.len() as f64).ceil() as usize;
        means[rank.clamp(1, means.len()) - 1]
    };
    (pick(2.5), pick(97.5))
}

/// Summarise a vector of integer observations.
fn summarise(xs: &[u64], bootstrap: u32, seed: u64) -> McStats {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    McStats {
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: mean(xs),
        p50: percentile(&sorted, 50.0),
        p95: percentile(&sorted, 95.0),
        p99: percentile(&sorted, 99.0),
        ci95: bootstrap_ci(xs, bootstrap, seed),
    }
}

/// Per-segment bus-occupancy fraction of one run: the SA's busy ticks
/// (kept by every engine without tracing) scaled to its clock period,
/// over the run's makespan.
fn utilisation_fractions(report: &EmulationReport) -> Vec<f64> {
    let span = report.makespan.0;
    report
        .sas
        .iter()
        .zip(&report.segment_clocks)
        .map(|(sa, clk)| {
            if span == 0 {
                0.0
            } else {
                (sa.busy_ticks as f64 * clk.period_ps() as f64) / span as f64
            }
        })
        .collect()
}

/// Run a seeded Monte-Carlo estimation of `psm` on `pool`.
///
/// Sample `i` is `sample_psm(psm, mix_seed(opts.seed, i))`, emulated under
/// `config` with `opts.frames` frames. A deterministic model (no
/// annotations) collapses to one distinct job answered `samples` times
/// from the cache. The first failing sample aborts the estimation with
/// its typed error.
///
/// Only sample 0 is built as a model: it goes through [`sample_psm`],
/// [`strict_validate`] and [`EnginePlan::try_new`], so every structural
/// error surfaces exactly as for a lone run, and its plan is the one the
/// estimation patches. Every sample (0 included) is drawn as flow values
/// only ([`sample_flow_values`]) and keyed by the digest those values give
/// the base model, which equals `job_digest` of the sampled model. Each
/// cache miss patches a worker's copy of the plan
/// ([`EnginePlan::try_set_flow_values`], which applies the per-sample
/// `C008` bound) and runs it.
pub fn run_monte_carlo(
    pool: &mut CachedPool,
    psm: &Psm,
    config: EmulatorConfig,
    opts: &McOptions,
) -> Result<McReport, SegbusError> {
    let samples = opts.samples.max(1);
    let frames = opts.frames;
    let first = sample_psm(psm, mix_seed(opts.seed, 0)).map_err(SegbusError::from)?;
    strict_validate(&first, frames, &config)?;
    let plan = EnginePlan::try_new(&first)?;

    // Draw and key every sample on the pool, a chunk of samples per job.
    let app = psm.application();
    let nflow = app.flows().len();
    let head = psm.digest_head();
    let chunks: Vec<Range<usize>> = (0..samples as usize)
        .step_by(DRAW_CHUNK)
        .map(|lo| lo..(lo + DRAW_CHUNK).min(samples as usize))
        .collect();
    let drawn = pool.pool().sweep_with(&chunks, |_, range| {
        let mut keys = Vec::with_capacity(range.len());
        let mut values = Vec::with_capacity(range.len() * nflow);
        let mut draw = Vec::with_capacity(nflow);
        for i in range.clone() {
            sample_flow_values(app, mix_seed(opts.seed, i as u64), &mut draw);
            let digest = psm.digest_with_flow_values(head, &draw);
            keys.push(job_digest_from(digest, &config, frames));
            values.extend_from_slice(&draw);
        }
        (keys, values)
    });
    let keys: Vec<u64> = drawn.iter().flat_map(|(k, _)| k).copied().collect();
    let values: Vec<FlowValues> = drawn.into_iter().flat_map(|(_, v)| v).collect();
    let distinct = keys.iter().collect::<HashSet<_>>().len();

    let results = pool.run_keyed(
        &keys,
        || (plan.clone(), None),
        |engine, (plan, own_engine), i| {
            plan.try_set_flow_values(&values[i * nflow..(i + 1) * nflow], frames)?;
            // A config other than the pool's gets one engine per worker.
            let engine = if *engine.config() == config {
                engine
            } else {
                own_engine.get_or_insert_with(|| Engine::new(config))
            };
            let mut report = EmulationReport::empty();
            engine.run_plan_into(plan, frames, &mut report);
            Ok(report)
        },
        |hit| {
            let report = hit.report();
            (report.makespan.0, utilisation_fractions(report))
        },
    );

    let mut makespans = Vec::with_capacity(results.len());
    let segments = psm.platform().segment_count();
    let mut util: Vec<Vec<f64>> = vec![Vec::with_capacity(results.len()); segments];
    for result in results {
        let (makespan, fractions) = result?;
        makespans.push(makespan);
        for (seg, f) in fractions.into_iter().enumerate() {
            util[seg].push(f);
        }
    }

    let makespan = summarise(&makespans, opts.bootstrap, mix_seed(opts.seed, u64::MAX));
    let utilisation = util
        .into_iter()
        .map(|fs| {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut sum = 0.0;
            for &f in &fs {
                min = min.min(f);
                max = max.max(f);
                sum += f;
            }
            UtilisationSpread {
                min,
                mean: sum / fs.len() as f64,
                max,
            }
        })
        .collect();

    Ok(McReport {
        samples,
        distinct: distinct as u64,
        makespans,
        makespan,
        utilisation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::stochastic::{Dist, FlowNoise};
    use segbus_model::time::ClockDomain;

    fn stochastic_psm() -> Psm {
        let mut app = Application::new("mc");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        let f0 = app.add_flow(Flow::new(a, b, 360, 1, 100)).unwrap();
        app.add_flow(Flow::new(b, c, 180, 2, 50)).unwrap();
        app.set_flow_noise(
            f0,
            FlowNoise {
                items: Some(Dist::Uniform { lo: 300, hi: 400 }),
                ticks: Some(Dist::Normal {
                    mean: 100,
                    std: 15,
                    lo: 60,
                    hi: 140,
                }),
                jitter: Some(Dist::Choice(vec![(0, 3), (20, 1)])),
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

    #[test]
    fn percentile_nearest_rank_small_n() {
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2], 50.0), 1);
        assert_eq!(percentile(&[1, 2], 95.0), 2);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
    }

    #[test]
    fn mean_and_ci_on_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[5]), 5.0);
        assert_eq!(bootstrap_ci(&[], 100, 1), (0.0, 0.0));
        assert_eq!(bootstrap_ci(&[9], 100, 1), (9.0, 9.0));
        // All-equal samples: the interval collapses, never NaN.
        assert_eq!(bootstrap_ci(&[4, 4, 4, 4], 100, 1), (4.0, 4.0));
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean_and_is_seeded() {
        let xs: Vec<u64> = (0..50).map(|i| 100 + (i * 7) % 40).collect();
        let m = mean(&xs);
        let (lo, hi) = bootstrap_ci(&xs, 300, 42);
        assert!(lo <= m && m <= hi, "{lo} <= {m} <= {hi}");
        assert!(lo.is_finite() && hi.is_finite());
        assert!(hi > lo, "spread data gives a non-degenerate interval");
        assert_eq!(bootstrap_ci(&xs, 300, 42), (lo, hi), "seeded: reproducible");
        assert_ne!(bootstrap_ci(&xs, 300, 43), (lo, hi));
    }

    #[test]
    fn monte_carlo_is_thread_count_invariant() {
        use crate::parallel::SweepPool;
        let psm = stochastic_psm();
        let opts = McOptions {
            samples: 40,
            seed: 7,
            ..Default::default()
        };
        let config = EmulatorConfig::default();
        let run = |threads| {
            let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, threads), 1024);
            run_monte_carlo(&mut pool, &psm, config, &opts).unwrap()
        };
        let reference = run(1);
        assert!(reference.makespan.min < reference.makespan.max, "spread");
        for threads in [2, 8] {
            let out = run(threads);
            assert_eq!(out.makespans, reference.makespans);
            assert_eq!(out.makespan, reference.makespan);
            assert_eq!(out.utilisation, reference.utilisation);
        }
    }

    #[test]
    fn deterministic_model_collapses_to_one_distinct_job() {
        let psm = {
            let mut p = stochastic_psm();
            // Same structure, no annotations.
            let mut app = p.application().clone();
            app.clear_noise();
            p = Psm::new(p.platform().clone(), app, p.allocation().clone()).unwrap();
            p
        };
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::new(config, 64);
        let opts = McOptions {
            samples: 25,
            seed: 3,
            ..Default::default()
        };
        let report = run_monte_carlo(&mut pool, &psm, config, &opts).unwrap();
        assert_eq!(report.distinct, 1);
        assert_eq!(report.makespan.min, report.makespan.max);
        assert_eq!(report.makespan.ci95.0, report.makespan.ci95.1);
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "one emulation, 24 in-batch hits");
        assert_eq!(stats.hits, 24);
    }

    #[test]
    fn repeated_estimation_is_fully_cached() {
        let psm = stochastic_psm();
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::new(config, 1024);
        let opts = McOptions {
            samples: 20,
            seed: 11,
            ..Default::default()
        };
        let first = run_monte_carlo(&mut pool, &psm, config, &opts).unwrap();
        let cold = pool.stats();
        let second = run_monte_carlo(&mut pool, &psm, config, &opts).unwrap();
        let warm = pool.stats();
        assert_eq!(first.makespans, second.makespans);
        assert_eq!(warm.misses, cold.misses, "warm rerun emulates nothing");
        assert!(warm.hits > cold.hits);
    }

    #[test]
    fn utilisation_spread_is_sane() {
        let psm = stochastic_psm();
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::new(config, 1024);
        let report = run_monte_carlo(
            &mut pool,
            &psm,
            config,
            &McOptions {
                samples: 30,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.utilisation.len(), 2);
        for u in &report.utilisation {
            assert!(u.min.is_finite() && u.mean.is_finite() && u.max.is_finite());
            assert!(0.0 <= u.min && u.min <= u.mean && u.mean <= u.max);
            assert!(u.max <= 1.0 + 1e-9, "occupancy cannot exceed the makespan");
        }
        // The segment hosting the producer chain sees real traffic.
        assert!(report.utilisation[0].max > 0.0);
    }
}
