//! Golden outcomes of the makespan placement search on the corpus.
//!
//! Every committed corpus scenario except the two grids is searched on
//! its own platform with [`PlaceTool::with_makespan`] at seed 42, once on
//! one worker and once on two, in two shapes:
//!
//! * a one-round portfolio (`tests/golden/place_outcomes.txt`);
//! * the default-rounds portfolio that segbench and `segbus place
//!   --rounds 3` run (`tests/golden/place_rounds_outcomes.txt`).
//!
//! A row records the scenario, the placement's cost, its segment slots in
//! process order, the candidates emulated and the evaluations the solvers
//! requested; a default-rounds row adds the rounds run and the
//! cross-pollinations. So the tables pin the search's work, not only its
//! answer. The two thread counts must agree on every row, and every
//! evaluation must be accounted exactly once by the memo counters.
//!
//! The grids take seconds per search even in a release build, so they
//! are pinned by an ignored test (`grid_outcomes_match_the_golden`, run
//! in release by `scripts/verify.sh`). Its rows leave out evaluations.
//!
//! On a mismatch a test writes the table it computed next to the build
//! output and names the first differing row; a deliberate search change
//! regenerates the golden from that file.

use segbus_model::ids::ProcessId;
use segbus_model::mapping::Psm;
use segbus_place::{PlaceTool, Portfolio};

/// The portfolio seed (`segbus place --seed` default).
const SEED: u64 = 42;

/// The corpus scenarios `corpus/<family>/<name>.sbd` whose family
/// directory `keep` accepts, as (name, model), sorted by path.
fn scenarios(keep: impl Fn(&str) -> bool) -> Vec<(String, Psm)> {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&corpus)
        .expect("corpus directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.is_dir() && keep(p.file_name()?.to_str()?)).then_some(p)
        })
        .flat_map(|d| {
            std::fs::read_dir(d)
                .expect("readable family directory")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd").then_some(p)
                })
        })
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            let psm = segbus_dsl::parse_system(&text).expect("corpus scenarios parse");
            let name = p.file_stem().expect("file name").to_string_lossy();
            (name.into_owned(), psm)
        })
        .collect()
}

/// Which portfolio a table runs, and which columns its rows carry.
#[derive(Clone, Copy)]
enum Shape {
    /// One round; cost, slots, emulations and evaluations.
    OneRound,
    /// [`Portfolio::DEFAULT_ROUNDS`]; adds rounds and cross-pollinations.
    DefaultRounds,
    /// Default rounds without the evaluations column (the grids).
    Grid,
}

/// One scenario's row, searched on `threads` workers.
fn row(name: &str, psm: &Psm, threads: usize, shape: Shape) -> String {
    let app = psm.application();
    let portfolio = PlaceTool::new(app, psm.platform().segment_count())
        .with_makespan(psm.platform())
        .portfolio(threads);
    let portfolio = match shape {
        Shape::OneRound => portfolio.with_rounds(1),
        Shape::DefaultRounds | Shape::Grid => portfolio.with_rounds(Portfolio::DEFAULT_ROUNDS),
    };
    let placement = portfolio.best(SEED);
    let stats = portfolio.stats();
    let st = stats.search;
    assert_eq!(
        st.memo_len as u64,
        st.evaluations - st.memo_hits,
        "{name}, {threads} thread(s): an evaluation was not accounted exactly once"
    );
    assert_eq!(
        st.duplicate_emulations, 0,
        "{name}, {threads} thread(s): a candidate was emulated twice"
    );
    let slots: Vec<String> = (0..app.process_count() as u32)
        .map(|p| {
            placement
                .allocation
                .segment_of_checked(ProcessId(p))
                .0
                .to_string()
        })
        .collect();
    let mut out = format!(
        "{name} cost={} slots={} emulations={}",
        placement.cost,
        slots.join(","),
        st.emulations
    );
    if !matches!(shape, Shape::Grid) {
        out.push_str(&format!(" evaluations={}", st.evaluations));
    }
    if !matches!(shape, Shape::OneRound) {
        out.push_str(&format!(
            " rounds={} cross={}",
            stats.rounds, stats.cross_pollinations
        ));
    }
    out.push('\n');
    out
}

/// The table over `scenarios`, checking that one and two threads agree.
fn table(scenarios: &[(String, Psm)], shape: Shape) -> String {
    let mut out = String::new();
    for (name, psm) in scenarios {
        let one = row(name, psm, 1, shape);
        let two = row(name, psm, 2, shape);
        assert_eq!(one, two, "{name}: one and two threads disagree");
        out.push_str(&one);
    }
    out
}

/// The 13 non-grid scenarios.
fn non_grid() -> Vec<(String, Psm)> {
    let scenarios = scenarios(|family| family != "grid");
    assert_eq!(scenarios.len(), 13, "the corpus has 13 non-grid scenarios");
    scenarios
}

/// Compare `got` with the golden `want`; on a mismatch write `got` to
/// `file` under the build's scratch directory and name the first
/// differing row.
fn check(file: &str, want: &str, got: &str) {
    if got == want {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, got).expect("write the computed table");
    let first = got
        .lines()
        .zip(want.lines())
        .find(|(g, w)| g != w)
        .map_or_else(
            || {
                format!(
                    "row counts differ: {} computed, {} golden",
                    got.lines().count(),
                    want.lines().count()
                )
            },
            |(g, w)| format!("computed {g:?}\n  golden {w:?}"),
        );
    panic!(
        "placement outcomes changed; the computed table is at {}\nfirst difference:\n  {first}",
        path.display()
    );
}

#[test]
fn place_outcomes_match_the_golden() {
    check(
        "place_outcomes.txt",
        include_str!("golden/place_outcomes.txt"),
        &table(&non_grid(), Shape::OneRound),
    );
}

#[test]
fn default_rounds_outcomes_match_the_golden() {
    check(
        "place_rounds_outcomes.txt",
        include_str!("golden/place_rounds_outcomes.txt"),
        &table(&non_grid(), Shape::DefaultRounds),
    );
}

/// The two grids under the default-rounds portfolio: over 90% of a
/// corpus search's evaluations. Seconds per search in release, minutes
/// in debug, so it is ignored by default.
#[test]
#[ignore = "release only: run with `cargo test --release -p segbus-place -- --ignored`"]
fn grid_outcomes_match_the_golden() {
    let grids = scenarios(|family| family == "grid");
    assert_eq!(grids.len(), 2, "the corpus has two grid scenarios");
    check(
        "grid_outcomes.txt",
        include_str!("golden/grid_outcomes.txt"),
        &table(&grids, Shape::Grid),
    );
}
