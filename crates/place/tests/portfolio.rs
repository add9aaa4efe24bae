//! Determinism and equivalence properties of the portfolio search: the
//! result is bit-identical for any thread count, never worse than its
//! own one-round fan-out, a zero wall-clock budget degenerates to
//! exactly that fan-out, and models without a valid base plan fall back
//! to per-candidate rebuilds without panicking.

use std::time::Duration;

use segbus_apps::generators::{random_layered, GeneratorConfig};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, Flow, Process};
use segbus_model::time::ClockDomain;
use segbus_place::{Objective, PlaceTool};

fn uniform_platform(segments: usize) -> Platform {
    Platform::builder("portfolio-test")
        .uniform_segments(segments, ClockDomain::from_mhz(100.0))
        .build()
        .expect("valid platform")
}

#[test]
fn portfolio_is_thread_count_invariant_on_hop_objectives() {
    // Large enough that the exhaustive fast path never triggers.
    let app = random_layered(4, 4, 11, GeneratorConfig::default());
    let run = |threads: usize| {
        PlaceTool::new(&app, 3)
            .with_objective(Objective::Packages(12))
            .portfolio(threads)
            .with_restarts(3)
            .with_rounds(3)
            .best(7)
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "{threads} threads diverged");
    }
}

#[test]
fn portfolio_is_thread_count_invariant_on_makespan() {
    let app = random_layered(3, 3, 5, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let run = |threads: usize| {
        PlaceTool::new(&app, 2)
            .with_makespan(&platform)
            .portfolio(threads)
            .with_restarts(2)
            .with_rounds(3)
            .best(42)
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "{threads} threads diverged");
    }
}

/// Later rounds only replace round-0 results that improve on them.
#[test]
fn portfolio_never_worse_than_the_parallel_fanout() {
    let app = random_layered(3, 3, 5, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let fanout = PlaceTool::new(&app, 2)
        .with_makespan(&platform)
        .portfolio(2)
        .with_restarts(3)
        .with_rounds(1)
        .best(7);
    let portfolio = PlaceTool::new(&app, 2)
        .with_makespan(&platform)
        .portfolio(2)
        .with_restarts(3)
        .with_rounds(3)
        .best(7);
    assert!(portfolio.cost <= fanout.cost);
}

/// The wall-clock budget is consulted only at round boundaries: an
/// already-expired budget still runs round 0 and returns exactly the
/// one-round fan-out result.
#[test]
fn zero_time_budget_still_runs_round_zero() {
    let app = random_layered(3, 3, 5, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let port = PlaceTool::new(&app, 2)
        .with_makespan(&platform)
        .portfolio(1)
        .with_restarts(2)
        .with_rounds(5)
        .with_time_budget(Duration::ZERO);
    let result = port.best(7);
    assert_eq!(port.stats().rounds, 1);
    let fanout = PlaceTool::new(&app, 2)
        .with_makespan(&platform)
        .portfolio(1)
        .with_restarts(2)
        .with_rounds(1)
        .best(7);
    assert_eq!(result, fanout);
}

/// A model whose greedy base fails the engine pre-flight has no base
/// plan: every candidate goes through the per-candidate model rebuild.
/// Here the compute times overflow the engine's timeline (C008), so
/// every candidate costs `u64::MAX` — the search must still return,
/// agree with `PlaceTool::cost`, and be thread-count invariant.
#[test]
fn makespan_search_without_a_base_plan_falls_back_to_rebuilds() {
    let mut app = Application::new("overflow");
    let p: Vec<ProcessId> = (0..4)
        .map(|i| match i {
            0 => app.add_process(Process::initial("P0")),
            3 => app.add_process(Process::final_("P3")),
            _ => app.add_process(Process::new(format!("P{i}"))),
        })
        .collect();
    for (order, w) in p.windows(2).enumerate() {
        app.add_flow(Flow::new(w[0], w[1], 1 << 20, order as u32 + 1, u64::MAX))
            .unwrap();
    }
    let platform = uniform_platform(2);
    // The model itself is structurally valid; only the pre-flight fails.
    let mut alloc = Allocation::new(2);
    for (i, &pid) in p.iter().enumerate() {
        alloc.assign(pid, SegmentId((i / 2) as u16));
    }
    let psm = Psm::new(platform.clone(), app.clone(), alloc).expect("structurally valid");
    let err = segbus_core::strict_validate(&psm, 1, &Default::default()).unwrap_err();
    assert_eq!(err.code, "C008");

    let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
    let run = |threads: usize| {
        let portfolio = tool.portfolio(threads).with_restarts(2);
        let placement = portfolio.best(5);
        (placement, portfolio.stats().search)
    };
    let (reference, stats) = run(1);
    assert!(tool.feasible(&reference.allocation));
    assert_eq!(reference.cost, tool.cost(&reference.allocation));
    assert!(stats.emulations > 0, "the rebuild path must be exercised");
    assert_eq!(stats.plan_patches, 0, "no base plan to patch");
    assert_eq!(run(2).0, reference);
}
