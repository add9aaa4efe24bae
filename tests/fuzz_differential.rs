//! Differential fuzzing of the whole front end: generated and byte-mutated
//! `.sbd` / XML sources are pushed through parse → validate → emulate.
//!
//! Two properties are enforced on every input:
//!
//! 1. **No panics.** Every rejection must surface as a typed
//!    [`segbus_model::SegbusError`] — the lexer, parser, importer,
//!    validator and engine pre-flight must never unwind on hostile input.
//! 2. **Differential agreement.** For every *accepted* input, the engine
//!    and the vendored pre-optimisation [`ReferenceEmulator`] must
//!    produce bit-identical reports, single-shot and over two frames, and
//!    must reject the same inputs with the same typed codes.
//!
//! All randomness comes from the repo's own [`SmallRng`] (no external
//! fuzzing dependency), so every case is reproducible from its seed. The
//! default test runs a quick slice; the `#[ignore]`d smoke test runs the
//! full 10 000-input budget and is executed by `scripts/verify.sh`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use segbus_core::{EmulationReport, Emulator, EmulatorConfig, ReferenceEmulator};
use segbus_model::mapping::Psm;
use segbus_model::rng::SmallRng;
use segbus_xml::m2t;

// ---------------------------------------------------------------------------
// input generators

/// A structured-but-unreliable `.sbd` source: usually close to valid,
/// sometimes exactly valid, with targeted corruption of the spots the
/// diagnostics must cover (overflowing literals, zero frequencies,
/// duplicate names, unknown hosts, missing blocks).
fn gen_dsl(rng: &mut SmallRng) -> String {
    let np = rng.range_usize(2, 6);
    let nseg = rng.range_usize(1, 3);
    let mut out = String::from("application fz {\n");
    if rng.below(4) == 0 {
        out.push_str(&format!(
            "  cost per_item reference {};\n",
            [0u64, 1, 36, u64::MAX][rng.range_usize(0, 3)]
        ));
    }
    for i in 0..np {
        let kind = if i == 0 {
            " initial"
        } else if i == np - 1 {
            " final"
        } else {
            ""
        };
        // Occasionally duplicate a name (P006 / V011 territory).
        let name = if rng.below(16) == 0 { 0 } else { i };
        out.push_str(&format!("  process P{name}{kind};\n"));
    }
    for i in 0..np - 1 {
        let items = match rng.below(8) {
            0 => 0,              // EmptyFlow
            1 => rng.next_u64(), // overflow territory
            _ => 1 + rng.below(2_000),
        };
        let order = match rng.below(8) {
            0 => rng.next_u64(),   // out of u32 range (P003)
            1 => 1 + rng.below(2), // possible dependency breach
            _ => (i + 1) as u64,
        };
        let ticks = 1 + rng.below(10_000);
        // Occasionally point at a process that does not exist (P005).
        let dst = if rng.below(16) == 0 { np } else { i + 1 };
        out.push_str(&format!(
            "  flow P{i} -> P{dst} {{ items {items}; order {order}; ticks {ticks}; }}\n"
        ));
    }
    out.push_str("}\n");
    if rng.below(12) == 0 {
        return out; // missing platform block (P004)
    }
    out.push_str("platform fzp {\n");
    let pkg = match rng.below(8) {
        0 => 0,
        1 => rng.next_u64(),
        _ => [9u64, 18, 36, 72][rng.range_usize(0, 3)],
    };
    out.push_str(&format!("  package_size {pkg};\n"));
    let ca_mhz = match rng.below(8) {
        0 => 0,
        _ => 50 + rng.below(200),
    };
    out.push_str(&format!("  ca {{ freq_mhz {ca_mhz}; }}\n"));
    for s in 0..nseg {
        let mhz = match rng.below(8) {
            0 => 0, // zero-frequency clock (P003)
            _ => 50 + rng.below(150),
        };
        let mut hosts = String::new();
        for p in 0..np {
            // Occasionally leave a process unhosted (V003) or host it twice.
            if p % nseg == s || rng.below(16) == 0 {
                hosts.push_str(&format!(" P{p}"));
            }
        }
        out.push_str(&format!(
            "  segment S{s} {{ freq_mhz {mhz}; hosts{hosts}; }}\n"
        ));
    }
    out.push_str("}\n");
    out
}

/// Byte-level mutation: flip, overwrite, insert, delete or truncate.
fn mutate(rng: &mut SmallRng, src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 8) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.range_usize(0, bytes.len() - 1);
        match rng.below(5) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes[at] = rng.below(256) as u8,
            2 => bytes.insert(at, rng.below(256) as u8),
            3 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at), // truncated input
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

// ---------------------------------------------------------------------------
// the pipeline under test

/// Parse → validate → pre-flight → emulate; every rejection must be a
/// typed error (a panic anywhere unwinds into the harness and fails).
fn drive_dsl(src: &str) -> Option<Psm> {
    match segbus_dsl::parse_system(src) {
        Ok(psm) => Some(psm),
        Err(e) => {
            assert!(!e.code.is_empty(), "rejection without a code for {src:?}");
            None
        }
    }
}

fn drive_xml(psdf: &str, psm: &str) -> Option<Psm> {
    let pd = match segbus_xml::parse(psdf) {
        Ok(d) => d,
        Err(e) => {
            assert!(!e.code.is_empty());
            return None;
        }
    };
    let pm = match segbus_xml::parse(psm) {
        Ok(d) => d,
        Err(e) => {
            assert!(!e.code.is_empty());
            return None;
        }
    };
    match segbus_xml::import::import_system(&pd, &pm) {
        Ok(psm) => Some(psm),
        Err(e) => {
            assert!(!e.code.is_empty());
            None
        }
    }
}

fn assert_same(a: &EmulationReport, r: &EmulationReport, label: &str) {
    assert_eq!(a.makespan, r.makespan, "{label}: makespan");
    assert_eq!(a.sas, r.sas, "{label}: SA stats");
    assert_eq!(a.ca, r.ca, "{label}: CA stats");
    assert_eq!(a.bus, r.bus, "{label}: bus counters");
    assert_eq!(a.fus, r.fus, "{label}: FU counters");
}

/// Run `frames` frames of `psm` on the engine and on the reference
/// through their un-prechecked `try_` surfaces: accept / reject decisions
/// and rejection codes must agree, and accepted runs must produce the
/// same report. Returns the engine's report when accepted.
fn compare_frames(psm: &Psm, frames: u64, label: &str) -> Option<EmulationReport> {
    let cfg = EmulatorConfig::default();
    let engine = Emulator::new(cfg).try_run_frames(psm, frames);
    let reference = ReferenceEmulator::new(cfg).try_run_frames(psm, frames);
    match (engine, reference) {
        (Ok(a), Ok(r)) => {
            assert_same(&a, &r, label);
            Some(a)
        }
        (Err(e), Err(r)) => {
            assert!(!e.code.is_empty(), "{label}: rejection without a code");
            assert_eq!(e.code, r.code, "{label}: rejection codes diverge");
            None
        }
        (Ok(_), Err(r)) => panic!("{label}: reference rejected an accepted input: {r}"),
        (Err(e), Ok(_)) => panic!("{label}: reference accepted what the engine rejected: {e}"),
    }
}

/// Emulate an accepted PSM through the fallible entry point and compare
/// it with the reference, single-shot and — the streaming path exercises
/// frame-boundary bookkeeping the single-shot run never touches — over
/// two frames.
fn emulate_and_compare(psm: &Psm, label: &str) {
    let Some(a) = compare_frames(psm, 1, label) else {
        return;
    };
    if let Some(a2) = compare_frames(psm, 2, &format!("{label} (frames 2)")) {
        assert!(
            a2.makespan >= a.makespan,
            "{label}: a second frame cannot finish earlier than the first"
        );
    }
}

/// The repo's model corpus, as (name, source) pairs: the hand-written
/// `models/` examples plus the committed stochastic scenarios under
/// `corpus/` (one family directory deep).
fn corpus() -> Vec<(String, String)> {
    let mut dirs = vec![std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/models"
    ))];
    let corpus_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    for entry in std::fs::read_dir(corpus_root).expect("corpus/ directory") {
        let p = entry.expect("corpus entry").path();
        if p.is_dir() {
            dirs.push(p);
        }
    }
    let mut out: Vec<(String, String)> = Vec::new();
    for dir in dirs {
        out.extend(
            std::fs::read_dir(&dir)
                .expect("corpus dir")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd")
                        .then(|| (p.display().to_string(), std::fs::read_to_string(&p).ok()))?
                        .1
                        .map(|text| (p.display().to_string(), text))
                }),
        );
    }
    out.sort();
    assert!(
        out.iter().any(|(name, _)| name.contains("corpus")),
        "the committed scenario corpus must seed the fuzzer"
    );
    out
}

/// One fuzz campaign of `budget` inputs, mixing generated DSL, byte- and
/// structure-mutated corpus DSL, and byte- and structure-mutated exported
/// XML.
fn campaign(seed: u64, budget: usize) {
    campaign_to(seed, budget, None);
}

/// Like [`campaign`], but a failing input is also written to
/// `artifacts/failing-case-<n>.txt` (for CI artifact upload) before the
/// harness panics.
fn campaign_to(seed: u64, budget: usize, artifacts: Option<&std::path::Path>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let corpus = corpus();
    // Exported XML pairs for the XML mutation arm, built from the models
    // that parse (all of them, by tier-1 guarantee).
    let xml_corpus: Vec<(String, String)> = corpus
        .iter()
        .filter_map(|(_, text)| {
            let psm = segbus_dsl::parse_system(text).ok()?;
            Some((
                m2t::export_psdf(psm.application()).to_xml_string(),
                m2t::export_psm(&psm).to_xml_string(),
            ))
        })
        .collect();
    assert!(!xml_corpus.is_empty());

    let mut accepted = 0usize;
    for case in 0..budget {
        let arm = rng.below(10);
        let result = if arm < 3 {
            // Arm A: structured generated DSL.
            let src = gen_dsl(&mut rng);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(psm) = drive_dsl(&src) {
                    emulate_and_compare(&psm, "generated dsl");
                    true
                } else {
                    false
                }
            }))
            .map_err(|_| src)
        } else if arm < 5 {
            // Arm B: byte-mutated corpus DSL.
            let (_, base) = &corpus[rng.range_usize(0, corpus.len() - 1)];
            let src = mutate(&mut rng, base);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(psm) = drive_dsl(&src) {
                    emulate_and_compare(&psm, "mutated dsl");
                    true
                } else {
                    false
                }
            }))
            .map_err(|_| src)
        } else if arm < 6 {
            // Arm D: structure-aware mutation (segbus-gen): grammar-level
            // edits of a canonicalised corpus model, biased to reach the
            // semantic checks (P00x/V0xx and the new distribution codes)
            // instead of bouncing off the tokenizer.
            let (_, base) = &corpus[rng.range_usize(0, corpus.len() - 1)];
            let src = segbus_gen::mutate_dsl(base, &mut rng);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(psm) = drive_dsl(&src) {
                    emulate_and_compare(&psm, "structure-mutated dsl");
                    true
                } else {
                    false
                }
            }))
            .map_err(|_| src)
        } else if arm < 8 {
            // Arm C: byte-mutated exported XML schemes. Mutate one of the
            // two documents, keep the other intact.
            let (psdf, psm_doc) = &xml_corpus[rng.range_usize(0, xml_corpus.len() - 1)];
            let (pd, pm) = if rng.below(2) == 0 {
                (mutate(&mut rng, psdf), psm_doc.clone())
            } else {
                (psdf.clone(), mutate(&mut rng, psm_doc))
            };
            let joined = format!("{pd}\n----\n{pm}");
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(psm) = drive_xml(&pd, &pm) {
                    emulate_and_compare(&psm, "mutated xml");
                    true
                } else {
                    false
                }
            }))
            .map_err(|_| joined)
        } else {
            // Arm E: structure-aware XML mutation (segbus-gen): line-level
            // edits plus distribution-attribute injection/corruption, so
            // the campaign reaches the XML semantic checks (X0xx and the
            // distribution validators) instead of only the tokenizer.
            let (psdf, psm_doc) = &xml_corpus[rng.range_usize(0, xml_corpus.len() - 1)];
            let (pd, pm) = if rng.below(2) == 0 {
                (segbus_gen::mutate_xml(psdf, &mut rng), psm_doc.clone())
            } else {
                (psdf.clone(), segbus_gen::mutate_xml(psm_doc, &mut rng))
            };
            let joined = format!("{pd}\n----\n{pm}");
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(psm) = drive_xml(&pd, &pm) {
                    emulate_and_compare(&psm, "structure-mutated xml");
                    true
                } else {
                    false
                }
            }))
            .map_err(|_| joined)
        };
        match result {
            Ok(true) => accepted += 1,
            Ok(false) => {}
            Err(src) => {
                if let Some(dir) = artifacts {
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(
                        dir.join(format!("failing-case-{case}.txt")),
                        format!("seed: {seed}\ncase: {case}\n----\n{src}"),
                    );
                }
                panic!("seed {seed} case {case} panicked on input:\n{src}");
            }
        }
    }
    // The campaign must exercise the accept path, not just bounce inputs.
    assert!(
        accepted > budget / 50,
        "campaign accepted only {accepted}/{budget} inputs — generators degenerated"
    );
}

// ---------------------------------------------------------------------------
// tests

/// Quick slice for the default `cargo test` run.
#[test]
fn fuzz_differential_quick() {
    campaign(0xF0221, 1_500);
}

/// The full 10 000-input budget (ISSUE acceptance). Run by
/// `scripts/verify.sh` via `cargo test -- --ignored`.
#[test]
#[ignore = "10k-input smoke run; executed by scripts/verify.sh"]
fn fuzz_differential_smoke_10k() {
    campaign(0xF0222, 10_000);
}

/// The nightly campaign (CI `nightly.yml`): budget comes from
/// `SEGBUS_FUZZ_BUDGET` (default 100 000); failing inputs are written to
/// `SEGBUS_FUZZ_ARTIFACT_DIR` (default `target/fuzz-artifacts`) so the
/// workflow can upload them.
#[test]
#[ignore = "nightly 100k-input campaign; run via .github/workflows/nightly.yml"]
fn fuzz_differential_nightly() {
    let budget = std::env::var("SEGBUS_FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000usize);
    let artifacts = std::env::var("SEGBUS_FUZZ_ARTIFACT_DIR")
        .unwrap_or_else(|_| "target/fuzz-artifacts".to_string());
    campaign_to(0xF0223, budget, Some(std::path::Path::new(&artifacts)));
}

/// Valid corpus models must stay accepted end to end: parse, pre-flight,
/// emulate, and agree with the reference engine.
#[test]
fn corpus_models_accepted_and_match_the_reference() {
    for (name, text) in corpus() {
        let psm = segbus_dsl::parse_system(&text)
            .unwrap_or_else(|e| panic!("{name} must stay valid: {e}"));
        emulate_and_compare(&psm, &name);
    }
}

/// Digest collision sanity over the fuzz generator's accepted output:
/// whenever two accepted models share a digest, they must also share
/// their canonical M2T export (i.e. they really are the same system).
/// A few thousand structurally varied models give decent birthday-bound
/// confidence that the FNV canonicalisation does not collapse distinct
/// systems.
#[test]
fn digest_collisions_only_for_identical_systems() {
    use std::collections::HashMap;

    let mut rng = SmallRng::seed_from_u64(0xD16E57);
    let mut by_digest: HashMap<u64, String> = HashMap::new();
    let mut accepted = 0usize;
    for _ in 0..4_000 {
        let Some(psm) = segbus_dsl::parse_system(&gen_dsl(&mut rng)).ok() else {
            continue;
        };
        accepted += 1;
        let digest = psm.digest();
        // The generator names deterministically (P0.., S0..), so the XML
        // export is a faithful structural fingerprint.
        let canon = format!(
            "{}\n{}",
            m2t::export_psdf(psm.application()).to_xml_string(),
            m2t::export_psm(&psm).to_xml_string()
        );
        match by_digest.entry(digest) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(canon);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                assert_eq!(
                    o.get(),
                    &canon,
                    "digest {digest:#018x} collided across distinct systems"
                );
            }
        }
    }
    assert!(
        accepted > 300,
        "generator degenerated: only {accepted} accepted"
    );
    assert!(
        by_digest.len() > 100,
        "generator produced too few distinct systems: {}",
        by_digest.len()
    );
}
