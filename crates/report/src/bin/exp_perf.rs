//! P1 — engine throughput: a 256-run package-size × clock sweep on the
//! MP3 decoder, timing the engine against its reference.
//!
//! * **baseline** — exactly the pre-optimisation sweep shape: every row
//!   builds its platform/PSM from scratch and runs the vendored
//!   [`ReferenceEmulator`] (the seed engine, binary-heap queue, all
//!   lookup tables rebuilt per run), sequentially.
//! * **fast** — the engine (`segbus_core::fast`): one [`EnginePlan`]
//!   compiled per distinct configuration and reused across the
//!   repetitions by a pool worker's persistent engine (scratch state
//!   reset between runs), fanned out on [`SweepPool`], with the
//!   monomorphised arbitration/release loop, SoA scratch and precomputed
//!   schedule slices.
//!
//! The two legs are interleaved in rounds so machine-speed drift hits
//! both equally, the whole sweep is repeated for a handful of passes and
//! the median pass is recorded (one pass is only a few ms per leg —
//! short enough for a scheduler hiccup to swing the ratio), and every
//! pair of reports is asserted identical — the harness doubles as a
//! coarse differential test. The result lands in `BENCH_engine.json` next
//! to a human-readable summary on stdout; `fast_runs_per_sec` is gated by
//! `scripts/bench_gate.sh`.

use std::time::{Duration, Instant};

use segbus_apps::mp3;
use segbus_core::{EmulatorConfig, EnginePlan, ReferenceEmulator, SweepPool};
use segbus_model::mapping::Psm;
use segbus_model::time::ClockDomain;

const SIZES: [u32; 4] = [9, 18, 36, 72];
const FACTORS: [f64; 8] = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5];
const REPS: usize = 8;
/// Distinct configurations interleaved per timing round.
const ROUND: usize = 4;
/// Full-sweep measurement passes; the median pass is recorded.
const PASSES: usize = 5;

fn build_psm(size: u32, factor: f64) -> Psm {
    let platform = segbus_model::platform::Platform::builder("scaled")
        .package_size(size)
        .ca_clock(ClockDomain::from_mhz(111.0))
        .segment("S1", ClockDomain::from_mhz(91.0 * factor))
        .segment("S2", ClockDomain::from_mhz(98.0 * factor))
        .segment("S3", ClockDomain::from_mhz(89.0 * factor))
        .build()
        .expect("valid platform");
    Psm::new(
        platform,
        mp3::mp3_decoder(),
        mp3::three_segment_allocation(),
    )
    .expect("valid system")
}

fn main() {
    let grid: Vec<(u32, f64)> = SIZES
        .iter()
        .flat_map(|&s| FACTORS.iter().map(move |&f| (s, f)))
        .collect();
    let runs = grid.len() * REPS;

    let config = EmulatorConfig::default();
    let fast_pool = SweepPool::new(config);

    // Warm-up pass so no leg pays first-touch costs.
    {
        let psm = build_psm(SIZES[0], FACTORS[0]);
        let _ = ReferenceEmulator::new(config).run(&psm);
        let _ = fast_pool.sweep(std::slice::from_ref(&psm));
    }

    let mut timings = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let mut baseline = Vec::with_capacity(runs);
        let mut fast = Vec::with_capacity(runs);
        let mut baseline_time = Duration::ZERO;
        let mut fast_time = Duration::ZERO;

        for round in grid.chunks(ROUND) {
            // Baseline leg: the pre-change harness rebuilt the PSM for
            // every row and ran a fresh emulator on it.
            let t = Instant::now();
            for &(s, f) in round {
                for _ in 0..REPS {
                    let psm = build_psm(s, f);
                    baseline.push(ReferenceEmulator::new(config).run(&psm));
                }
            }
            baseline_time += t.elapsed();

            // Fast leg: each pool job compiles one plan and reuses it
            // (and the worker's engine scratch) for all repetitions.
            let t = Instant::now();
            let reports = fast_pool.sweep_with(round, |engine, &(s, f)| {
                let psm = build_psm(s, f);
                let plan = EnginePlan::new(&psm);
                (0..REPS)
                    .map(|_| engine.run_plan(&plan, 1))
                    .collect::<Vec<_>>()
            });
            fast_time += t.elapsed();
            fast.extend(reports.into_iter().flatten());
        }

        assert_eq!(baseline.len(), runs);
        assert_eq!(fast.len(), runs);
        for (i, (a, b)) in baseline.iter().zip(&fast).enumerate() {
            assert_eq!(a.makespan, b.makespan, "run {i} diverged");
            assert_eq!(a.sas, b.sas, "run {i} diverged");
            assert_eq!(a.ca, b.ca, "run {i} diverged");
            assert_eq!(a.bus, b.bus, "run {i} diverged");
            assert_eq!(a.fus, b.fus, "run {i} diverged");
        }

        let ratio = baseline_time.as_secs_f64() / fast_time.as_secs_f64();
        println!("  pass {pass}: fast {ratio:.2}x over baseline");
        timings.push((baseline_time, fast_time));
    }

    // Median pass by fast-over-baseline ratio — robust to a scheduler
    // hiccup landing in either leg of a single pass.
    timings.sort_by(|a, b| {
        let ra = a.0.as_secs_f64() / a.1.as_secs_f64();
        let rb = b.0.as_secs_f64() / b.1.as_secs_f64();
        ra.partial_cmp(&rb).unwrap()
    });
    let (baseline_time, fast_time) = timings[PASSES / 2];

    let baseline_ms = baseline_time.as_secs_f64() * 1e3;
    let fast_ms = fast_time.as_secs_f64() * 1e3;
    let baseline_rps = runs as f64 / (baseline_ms / 1e3);
    let fast_rps = runs as f64 / (fast_ms / 1e3);
    let speedup = fast_rps / baseline_rps;

    println!("P1 — engine throughput ({} workers)\n", fast_pool.threads());
    println!("  baseline (per-row PSM build, reference engine, heap queue):");
    println!("      {runs} runs in {baseline_ms:.1} ms = {baseline_rps:.0} runs/s");
    println!("  fast     (plan reuse, monomorphised core, SoA scratch, sweep pool):");
    println!("      {runs} runs in {fast_ms:.1} ms = {fast_rps:.0} runs/s");
    println!("  fast over baseline: {speedup:.2}x");

    let json = format!(
        "{{\n  \"runs\": {runs},\n  \"fast_total_ms\": {fast_ms:.3},\n  \"fast_runs_per_sec\": {fast_rps:.1},\n  \"baseline_total_ms\": {baseline_ms:.3},\n  \"baseline_runs_per_sec\": {baseline_rps:.1},\n  \"speedup\": {speedup:.2},\n  \"threads\": {}\n}}\n",
        fast_pool.threads()
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");
}
