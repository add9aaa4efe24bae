//! Golden outcomes of the whole front end: DSL text → `Psm` → validation
//! → engine pre-flight.
//!
//! Every committed corpus scenario and every `models/*.sbd`, plus 40
//! seeded [`segbus_gen::mutate_dsl`] variants of each, goes through
//! [`segbus_dsl::parse_system`]. A rejection records its code, span and
//! message; an accepted model records its [`Psm::digest`], the digest at
//! package size 13, the full [`validate::validate`] list at its own
//! package size and at 13, and the [`strict_validate`] code at one frame.
//! Hand-built applications cover the rules no parsed source can reach
//! (V011 duplicates are a parse-time `P006`) or reaches only rarely
//! (V006 on several flows, V009, V010, V012).
//!
//! The table is `tests/golden/frontend_outcomes.txt`. A diagnostic list
//! is recorded as its codes in order, run-length encoded, plus an FNV-1a
//! digest of the rendered list (code, severity and message of every
//! entry, in order), so message text is pinned byte for byte while the
//! golden stays small. On a mismatch the test writes the table it
//! computed next to the build output and names the first differing row;
//! a deliberate front-end change regenerates the golden from that file.

use segbus_core::{strict_validate, EmulatorConfig};
use segbus_model::digest::Fnv64;
use segbus_model::ids::SegmentId;
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, Flow, Process};
use segbus_model::rng::SmallRng;
use segbus_model::time::ClockDomain;
use segbus_model::validate::{self, Diagnostic};

/// Mutated variants recorded per committed source.
const VARIANTS: u64 = 40;

/// The second package size every accepted model is validated at: it
/// divides none of the corpus item counts, so V007 fires.
const ODD_PACKAGE_SIZE: u32 = 13;

/// The `.sbd` files of `dir`'s immediate subdirectories (or of `dir`
/// itself when `nested` is false), as (`path relative to the repo`,
/// text), sorted by path. Names use `/` on every OS.
fn sources(dir: &str, nested: bool) -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let top = root.join(dir);
    let dirs: Vec<std::path::PathBuf> = if nested {
        std::fs::read_dir(&top)
            .expect("source directory")
            .filter_map(|e| {
                let p = e.ok()?.path();
                p.is_dir().then_some(p)
            })
            .collect()
    } else {
        vec![top]
    };
    let mut files: Vec<std::path::PathBuf> = dirs
        .iter()
        .flat_map(|d| {
            std::fs::read_dir(d)
                .expect("readable directory")
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
            let text = std::fs::read_to_string(&p).expect("readable source");
            let rel = p.strip_prefix(root).expect("path under the repo");
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (parts.join("/"), text)
        })
        .collect()
}

/// `[V005 V007x3] #<digest>`: codes in order (runs collapsed) and the
/// digest of every rendered diagnostic.
fn diag_list(diags: &[Diagnostic]) -> String {
    let mut h = Fnv64::new();
    let mut runs: Vec<(&str, usize)> = Vec::new();
    for d in diags {
        h.write_bytes(d.to_string().as_bytes());
        h.write_u8(b'\n');
        let code = d.constraint.code();
        match runs.last_mut() {
            Some((c, n)) if *c == code => *n += 1,
            _ => runs.push((code, 1)),
        }
    }
    let codes: Vec<String> = runs
        .iter()
        .map(|&(c, n)| {
            if n == 1 {
                c.to_string()
            } else {
                format!("{c}x{n}")
            }
        })
        .collect();
    format!("[{}] #{:016x}", codes.join(" "), h.finish())
}

/// The validation lists of one (platform, application, allocation)
/// triple at its own package size and at [`ODD_PACKAGE_SIZE`].
fn validations(platform: &Platform, app: &Application, alloc: &Allocation) -> String {
    let own = validate::validate(platform, app, alloc);
    let odd = platform
        .with_package_size(ODD_PACKAGE_SIZE)
        .expect("non-zero package size");
    let at_odd = validate::validate(&odd, app, alloc);
    format!(
        "own={} {ODD_PACKAGE_SIZE}={}",
        diag_list(&own),
        diag_list(&at_odd)
    )
}

/// One accepted model's row body.
fn accepted(psm: &Psm) -> String {
    let strict = match strict_validate(psm, 1, &EmulatorConfig::default()) {
        Ok(()) => "ok".to_string(),
        Err(e) => e.code.to_string(),
    };
    let odd = psm
        .with_package_size(ODD_PACKAGE_SIZE)
        .expect("an accepted model accepts a non-zero package size");
    format!(
        "ok digest={:016x} digest{ODD_PACKAGE_SIZE}={:016x} strict={strict} {}",
        psm.digest(),
        odd.digest(),
        validations(psm.platform(), psm.application(), psm.allocation())
    )
}

/// One DSL source's row body.
fn outcome(src: &str) -> String {
    match segbus_dsl::parse_system(src) {
        Ok(psm) => accepted(&psm),
        Err(e) => {
            let span = e
                .span
                .map_or_else(|| "-".to_string(), |s| format!("{}:{}", s.line, s.col));
            format!("err {} {span} {:?}", e.code, e.message)
        }
    }
}

fn platform(segments: usize) -> Platform {
    Platform::builder("hand")
        .uniform_segments(segments, ClockDomain::from_mhz(100.0))
        .build()
        .expect("valid platform")
}

/// An application from `(name, kind)` processes and
/// `(src, dst, items, order)` flows, every process on segment 0 of a
/// one-segment platform.
fn hand_built(
    name: &str,
    procs: &[(&str, char)],
    flows: &[(u32, u32, u64, u32)],
) -> (Platform, Application, Allocation) {
    let mut app = Application::new(name);
    let mut alloc = Allocation::new(1);
    for &(n, kind) in procs {
        let p = match kind {
            'i' => Process::initial(n),
            'f' => Process::final_(n),
            _ => Process::new(n),
        };
        let id = app.add_process(p);
        alloc.assign(id, SegmentId(0));
    }
    for &(s, d, items, order) in flows {
        app.add_flow(Flow::new(
            segbus_model::ids::ProcessId(s),
            segbus_model::ids::ProcessId(d),
            items,
            order,
            10,
        ))
        .expect("representable flow");
    }
    (platform(1), app, alloc)
}

/// Applications built through the model API, for rules a parsed source
/// cannot reach or reaches only rarely.
fn hand_built_cases() -> Vec<(&'static str, (Platform, Application, Allocation))> {
    vec![
        (
            "v006-several-flows",
            hand_built(
                "v006",
                &[("A", 'i'), ("B", 'p'), ("C", 'p'), ("D", 'p'), ("E", 'f')],
                &[
                    (0, 1, 36, 4),
                    (1, 2, 36, 3),
                    (0, 2, 36, 1),
                    (2, 3, 36, 2),
                    (3, 4, 72, 5),
                    (2, 4, 36, 1),
                ],
            ),
        ),
        (
            "v010-cycle-with-source",
            hand_built(
                "v010",
                &[("S", 'i'), ("A", 'p'), ("B", 'p'), ("C", 'p'), ("T", 'f')],
                &[
                    (0, 1, 36, 1),
                    (1, 2, 36, 2),
                    (2, 3, 36, 3),
                    (3, 1, 36, 4),
                    (3, 4, 36, 5),
                ],
            ),
        ),
        (
            "v010-cycle-without-source",
            hand_built(
                "v010b",
                &[("A", 'p'), ("B", 'p')],
                &[(0, 1, 36, 1), (1, 0, 36, 2)],
            ),
        ),
        (
            "v011-triple-duplicate",
            hand_built(
                "v011",
                &[("X", 'i'), ("Y", 'p'), ("X", 'p'), ("Y", 'p'), ("X", 'f')],
                &[(0, 1, 36, 1), (1, 2, 36, 2), (2, 3, 36, 3), (3, 4, 36, 4)],
            ),
        ),
        (
            "v009-kinds",
            hand_built(
                "v009",
                &[("A", 'f'), ("B", 'i'), ("C", 'i'), ("D", 'f')],
                &[(0, 1, 36, 1), (1, 2, 36, 2), (2, 3, 36, 3)],
            ),
        ),
        (
            "v012-isolated",
            hand_built(
                "v012",
                &[
                    ("L0", 'p'),
                    ("A", 'i'),
                    ("L1", 'p'),
                    ("B", 'f'),
                    ("L2", 'f'),
                ],
                &[(1, 3, 40, 1)],
            ),
        ),
        (
            "mixed-v006-v007-v009-v012",
            hand_built(
                "mixed",
                &[
                    ("A", 'i'),
                    ("B", 'i'),
                    ("C", 'p'),
                    ("D", 'f'),
                    ("E", 'p'),
                    ("F", 'p'),
                ],
                &[(0, 1, 37, 2), (1, 2, 36, 1), (2, 3, 50, 1), (3, 4, 36, 9)],
            ),
        ),
    ]
}

/// The whole table, one row per input.
fn table() -> String {
    let mut rows = Vec::new();
    let mut bases = sources("corpus", true);
    bases.extend(sources("models", false));
    assert_eq!(bases.len(), 19, "fifteen corpus scenarios and four models");
    for (b, (name, text)) in bases.iter().enumerate() {
        rows.push(format!("{name} {}", outcome(text)));
        for k in 0..VARIANTS {
            let mut rng = SmallRng::seed_from_u64(((b as u64) << 32) | k);
            let mutated = segbus_gen::mutate_dsl(text, &mut rng);
            rows.push(format!("{name}~{k} {}", outcome(&mutated)));
        }
    }
    for (name, (platform, app, alloc)) in hand_built_cases() {
        let built = match Psm::new(platform.clone(), app.clone(), alloc.clone()) {
            Ok(psm) => format!("psm={:016x}", psm.digest()),
            Err(e) => format!("err {} {:?}", e.code(), e.to_string()),
        };
        rows.push(format!(
            "hand/{name} {built} {}",
            validations(&platform, &app, &alloc)
        ));
    }
    let mut out =
        String::from("# Front-end outcomes: see tests/frontend_golden.rs for the row format.\n");
    for r in rows {
        out.push_str(&r);
        out.push('\n');
    }
    out
}

#[test]
fn front_end_outcomes_match_the_golden() {
    let want = include_str!("golden/frontend_outcomes.txt");
    let got = table();
    if got == want {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend_outcomes.txt");
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
        "front-end outcomes changed; the computed table is at {}\nfirst difference:\n  {first}",
        path.display()
    );
}
