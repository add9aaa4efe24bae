//! Determinism and no-duplicate-work properties of the one-round
//! portfolio fan-out: for any thread count the search must return the
//! identical `(cost, allocation)`, ties must go to the lexicographically
//! smallest optimum, and the shared allocation-digest memo must keep any
//! candidate from being emulated twice.

use segbus_apps::generators::{chain, random_layered, GeneratorConfig};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::Allocation;
use segbus_model::platform::{Platform, Topology};
use segbus_model::psdf::{Application, Flow, Process};
use segbus_model::rng::SmallRng;
use segbus_model::time::ClockDomain;
use segbus_place::{allocation_digest, Objective, PlaceTool, Placement};

const THREADS: [usize; 3] = [1, 2, 8];

fn uniform_platform(segments: usize) -> Platform {
    Platform::builder("t")
        .uniform_segments(segments, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap()
}

/// The one-round portfolio is thread-count invariant on the hop
/// objectives, across a handful of seeded random PSDF apps.
#[test]
fn best_is_thread_count_invariant_on_hop_objectives() {
    let mut rng = SmallRng::seed_from_u64(0xA_0001);
    for case in 0..12 {
        let layers = rng.range_usize(2, 4);
        let width = rng.range_usize(1, 3);
        let seed = rng.below(500);
        let segments = rng.range_usize(2, 3).min(layers * width);
        let app = random_layered(layers, width, seed, GeneratorConfig::default());
        let mut tool = PlaceTool::new(&app, segments);
        if rng.gen_bool(0.5) {
            tool = tool.with_objective(Objective::Packages(36));
        }
        let reference = tool.portfolio(1).with_rounds(1).best(seed);
        assert!(tool.feasible(&reference.allocation));
        for threads in THREADS {
            let got = tool.portfolio(threads).with_rounds(1).best(seed);
            assert_eq!(
                got, reference,
                "case {case}: threads {threads} diverged from the 1-thread result"
            );
        }
    }
}

/// The one-round portfolio with emulation in the loop is thread-count
/// invariant, and `PlaceTool::best` is exactly its one-thread instance.
#[test]
fn best_is_thread_count_invariant_on_makespan() {
    for (n, segments, seed) in [(5, 2, 3u64), (6, 2, 7), (6, 3, 11)] {
        let app = chain(n, GeneratorConfig::default());
        let platform = uniform_platform(segments);
        let tool = PlaceTool::new(&app, segments).with_makespan(&platform);
        let reference = tool.portfolio(1).with_rounds(1).best(seed);
        assert!(tool.feasible(&reference.allocation));
        assert_eq!(reference.cost, tool.cost(&reference.allocation));
        assert_eq!(tool.best(seed), reference);
        for threads in THREADS {
            assert_eq!(
                tool.portfolio(threads).with_rounds(1).best(seed),
                reference,
                "n {n} segments {segments}: threads {threads} diverged"
            );
        }
    }
}

/// The sharded exhaustive search (the portfolio's path on instances this
/// small) returns exactly the sequential oracle's placement for every
/// thread count: the canonical tie-break makes the allocation itself
/// independent of how the odometer is split.
#[test]
fn parallel_exhaustive_matches_sequential_optimum() {
    let mut rng = SmallRng::seed_from_u64(0xA_0002);
    for _ in 0..8 {
        let layers = rng.range_usize(2, 3);
        let width = rng.range_usize(1, 2);
        let seed = rng.below(500);
        let segments = rng.range_usize(2, 3).min(layers * width);
        let app = random_layered(layers, width, seed, GeneratorConfig::default());
        let tool = PlaceTool::new(&app, segments);
        let sequential = tool.exhaustive().unwrap();
        for threads in THREADS {
            assert_eq!(
                tool.portfolio(threads).with_rounds(1).best(seed),
                sequential
            );
        }
    }
}

/// Brute force: the lexicographically smallest segment vector among all
/// feasible allocations of minimal cost, and how many optima tie.
fn smallest_optimum(tool: &PlaceTool, n: usize, k: usize) -> (Placement, usize) {
    let mut all: Vec<(u64, Vec<u16>)> = Vec::new();
    let mut slots = vec![0u16; n];
    loop {
        let alloc = allocation_of(&slots, k);
        if tool.feasible(&alloc) {
            all.push((tool.cost(&alloc), slots.clone()));
        }
        // Next vector in lexicographic order, last position fastest.
        let Some(i) = (0..n).rev().find(|&i| (slots[i] as usize) + 1 < k) else {
            break;
        };
        slots[i] += 1;
        slots[i + 1..].iter_mut().for_each(|s| *s = 0);
    }
    let min = all
        .iter()
        .map(|(c, _)| *c)
        .min()
        .expect("a feasible allocation");
    let optima: Vec<&Vec<u16>> = all
        .iter()
        .filter(|(c, _)| *c == min)
        .map(|(_, s)| s)
        .collect();
    let smallest = optima.iter().min().expect("an optimum");
    let placement = Placement {
        allocation: allocation_of(smallest, k),
        cost: min,
    };
    (placement, optima.len())
}

fn allocation_of(slots: &[u16], k: usize) -> Allocation {
    let mut alloc = Allocation::new(k);
    for (p, &s) in slots.iter().enumerate() {
        alloc.assign(ProcessId(p as u32), SegmentId(s));
    }
    alloc
}

/// Two mirrored pairs joined by a light link: on two segments the optima
/// are the cut between the pairs, in either orientation.
fn mirrored_pairs() -> Application {
    let mut app = Application::new("mirrored");
    let p: Vec<ProcessId> = (0..4)
        .map(|i| app.add_process(Process::new(format!("P{i}"))))
        .collect();
    app.add_flow(Flow::new(p[0], p[1], 500, 1, 1)).unwrap();
    app.add_flow(Flow::new(p[2], p[3], 500, 1, 1)).unwrap();
    app.add_flow(Flow::new(p[1], p[2], 40, 2, 1)).unwrap();
    app
}

/// A symmetric star: every leaf weighs the same, so any leaf can seed
/// the second segment.
fn star(leaves: usize) -> Application {
    let mut app = Application::new("star");
    let hub = app.add_process(Process::new("HUB"));
    for i in 0..leaves {
        let leaf = app.add_process(Process::new(format!("L{i}")));
        app.add_flow(Flow::new(hub, leaf, 100, 1, 1)).unwrap();
    }
    app
}

/// No traffic at all: every feasible allocation is optimal.
fn silent(n: usize) -> Application {
    let mut app = Application::new("silent");
    for i in 0..n {
        app.add_process(Process::new(format!("P{i}")));
    }
    app
}

/// The one tie rule: among equal-cost optima, every solver returns the
/// lexicographically smallest segment vector.
#[test]
fn ties_go_to_the_lexicographically_smallest_optimum() {
    let apps = [mirrored_pairs(), star(4), silent(5)];
    for app in &apps {
        let n = app.process_count();
        for (segments, ring) in [(2, false), (3, false), (3, true)] {
            let mut tool = PlaceTool::new(app, segments);
            if ring {
                tool = tool.with_topology(Topology::Ring);
            }
            let (expected, ties) = smallest_optimum(&tool, n, segments);
            assert!(
                ties > 1,
                "{} on {segments}: the instance must tie",
                app.name()
            );
            let label = format!("{} on {segments} segment(s), ring {ring}", app.name());
            assert_eq!(tool.exhaustive().unwrap(), expected, "{label}: exhaustive");
            assert_eq!(tool.best(1), expected, "{label}: best");
            for threads in THREADS {
                assert_eq!(
                    tool.portfolio(threads).best(1),
                    expected,
                    "{label}: portfolio({threads})"
                );
            }
        }
    }
}

/// The shared memo's central guarantee: across all workers of a full
/// `best` run, no candidate allocation is ever emulated twice.
#[test]
fn shared_memo_records_zero_duplicate_emulations() {
    let app = chain(6, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
    for threads in THREADS {
        let search = tool.portfolio(threads).with_rounds(1);
        let _ = search.best(42);
        let stats = search.stats().search;
        assert!(stats.emulations > 0, "the search must emulate something");
        assert_eq!(
            stats.duplicate_emulations, 0,
            "threads {threads}: a candidate was emulated twice"
        );
        // Every evaluation is accounted exactly once: answered by the
        // memo or recorded as a new entry.
        assert_eq!(stats.memo_len as u64, stats.evaluations - stats.memo_hits);
    }
}

/// A reused search answers a repeated run entirely from the shared memo.
#[test]
fn repeated_search_is_answered_by_the_memo() {
    let app = chain(6, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let tool = PlaceTool::new(&app, 2).with_makespan(&platform);
    let search = tool.portfolio(4).with_rounds(1);
    let first = search.best(42);
    let emulated = search.stats().search.emulations;
    let second = search.best(42);
    assert_eq!(first, second);
    assert_eq!(
        search.stats().search.emulations,
        emulated,
        "the repeat run must not emulate anything new"
    );
}

/// A warm `--cache-dir` answers a fresh search from disk: the second
/// search (new memo, new in-memory cache) emulates nothing.
#[test]
fn warm_cache_dir_answers_a_fresh_search_from_disk() {
    let dir = tempdir("place-warm");
    let app = chain(6, GeneratorConfig::default());
    let platform = uniform_platform(2);
    let tool = PlaceTool::new(&app, 2).with_makespan(&platform);

    let cold = tool
        .portfolio(2)
        .with_rounds(1)
        .with_cache_dir(&dir)
        .unwrap();
    let first = cold.best(42);
    assert!(cold.stats().search.emulations > 0);
    drop(cold);

    let warm = tool
        .portfolio(2)
        .with_rounds(1)
        .with_cache_dir(&dir)
        .unwrap();
    let second = warm.best(42);
    let stats = warm.stats().search;
    assert_eq!(first, second);
    assert_eq!(stats.emulations, 0, "warm dir must answer every candidate");
    assert!(stats.cache.disk_hits > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The canonical allocation digest separates placements and ignores
/// everything but the dense segment vector.
#[test]
fn allocation_digest_is_injective_on_small_slots() {
    let a = allocation_digest(&[0, 0, 1, 1]);
    assert_eq!(a, allocation_digest(&[0, 0, 1, 1]));
    assert_ne!(a, allocation_digest(&[0, 1, 0, 1]));
    assert_ne!(a, allocation_digest(&[0, 0, 1]));
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "segbus-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
