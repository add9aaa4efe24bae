//! Golden outcomes of the makespan placement search on the corpus.
//!
//! Every committed corpus scenario except the two grids is searched on
//! its own platform with [`PlaceTool::with_makespan`] and a one-round
//! portfolio at seed 42, once on one worker and once on two. A row
//! records the scenario, the placement's cost, its segment slots in
//! process order, and the number of evaluations the solvers requested.
//! The two thread counts must agree on all of it, and every evaluation
//! must be accounted exactly once by the memo counters.
//!
//! The grids are left out: one search there takes seconds even in a
//! release build, and segbench's `place` check already pins their best
//! makespan.
//!
//! The table is `tests/golden/place_outcomes.txt`. On a mismatch the test
//! writes the table it computed next to the build output and names the
//! first differing row; a deliberate search change regenerates the
//! golden from that file.

use segbus_model::ids::ProcessId;
use segbus_model::mapping::Psm;
use segbus_place::PlaceTool;

/// The portfolio seed (`segbus place --seed` default).
const SEED: u64 = 42;

/// The corpus scenarios searched: `corpus/<family>/<name>.sbd` for every
/// family but `grid`, as (name, model), sorted by path.
fn scenarios() -> Vec<(String, Psm)> {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&corpus)
        .expect("corpus directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.is_dir() && p.file_name()? != "grid").then_some(p)
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

/// One scenario's row, searched on `threads` workers.
fn row(name: &str, psm: &Psm, threads: usize) -> String {
    let app = psm.application();
    let portfolio = PlaceTool::new(app, psm.platform().segment_count())
        .with_makespan(psm.platform())
        .portfolio(threads)
        .with_rounds(1);
    let placement = portfolio.best(SEED);
    let st = portfolio.stats().search;
    assert_eq!(
        st.memo_len as u64,
        st.evaluations - st.memo_hits,
        "{name}, {threads} thread(s): an evaluation was not accounted exactly once"
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
    format!(
        "{name} cost={} slots={} evaluations={}\n",
        placement.cost,
        slots.join(","),
        st.evaluations
    )
}

fn table() -> String {
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), 13, "the corpus has 13 non-grid scenarios");
    let mut out = String::new();
    for (name, psm) in &scenarios {
        let one = row(name, psm, 1);
        let two = row(name, psm, 2);
        assert_eq!(one, two, "{name}: one and two threads disagree");
        out.push_str(&one);
    }
    out
}

#[test]
fn place_outcomes_match_the_golden() {
    let want = include_str!("golden/place_outcomes.txt");
    let got = table();
    if got == want {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("place_outcomes.txt");
    std::fs::write(&path, &got).expect("write the computed table");
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
