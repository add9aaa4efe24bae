//! # segbus-gen
//!
//! Seeded scenario generator for the committed corpus (`corpus/` at the
//! repository root) and for fuzzing.
//!
//! A *scenario* is a complete stochastic PSM — application with
//! distribution annotations (`segbus_model::stochastic`), platform and
//! allocation — rendered to the canonical DSL. Scenarios come in
//! [`Family`] shapes modelled on the paper's workloads and on common
//! SegBus deployments:
//!
//! * `mp3` — the paper's 15-process MP3 decoder on its three-segment
//!   platform, with seeded per-flow cost/volume noise;
//! * `video` — the fork-join video encoder (capture → macroblock split →
//!   parallel DCT+quantise → entropy coding);
//! * `telecom` — DSP shapes: an FFT-style butterfly or the GSM encoder
//!   chain, alternating by seed;
//! * `ring` — a random layered DAG mapped round-robin onto a closed ring
//!   platform, exercising the wrap-around border unit;
//! * `star` — a hub fanning configuration data out to workers that return
//!   results to a collector (asymmetric volumes);
//! * `grid` — a large toroidal 2D mesh (100+ processes, small volumes,
//!   light compute): communication-dominated placement stress for the
//!   portfolio search and its ≥100-process benchmark leg.
//!
//! Everything is a pure function of `(family, seed)` through the
//! workspace's own [`SmallRng`]; regenerating the corpus from the
//! committed manifest must reproduce it byte for byte (`segbus corpus gen
//! --check`, enforced in CI).

#![warn(missing_docs)]

use std::fmt;

use segbus_apps::generators::{
    block_allocation, butterfly, grid, random_layered, ring_platform, round_robin_allocation,
    uniform_platform, GeneratorConfig,
};
use segbus_apps::mp3::{self, Mp3Config};
use segbus_model::ids::FlowId;
use segbus_model::mapping::Psm;
use segbus_model::prelude::*;
use segbus_model::rng::SmallRng;
use segbus_model::stochastic::{mix_seed, noise_digest, Dist, FlowNoise};

/// A scenario family: one recognisable workload shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Family {
    /// The paper's MP3 decoder case study with seeded noise.
    Mp3,
    /// Fork-join video encoder pipeline.
    Video,
    /// Telecom/DSP shapes: FFT butterfly or GSM encoder chain.
    Telecom,
    /// Random layered DAG on a closed ring platform.
    Ring,
    /// Hub-and-spokes fan-out/fan-in with asymmetric volumes.
    Star,
    /// Large toroidal 2D mesh, communication-dominated (100+ processes).
    Grid,
}

impl Family {
    /// Every family, in manifest order. `Grid` was appended last so the
    /// seed streams of the pre-existing families are unchanged.
    pub const ALL: [Family; 6] = [
        Family::Mp3,
        Family::Video,
        Family::Telecom,
        Family::Ring,
        Family::Star,
        Family::Grid,
    ];

    /// The manifest/directory name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Mp3 => "mp3",
            Family::Video => "video",
            Family::Telecom => "telecom",
            Family::Ring => "ring",
            Family::Star => "star",
            Family::Grid => "grid",
        }
    }

    /// Parse a manifest name.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Generate the scenario for `seed`: a valid, possibly stochastic PSM.
    /// Fully deterministic; families draw from disjoint seed streams.
    pub fn generate(self, seed: u64) -> Psm {
        // Stream-split per family so `mp3 1` and `video 1` are unrelated.
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, self as u64 + 1));
        match self {
            Family::Mp3 => gen_mp3(&mut rng),
            Family::Video => gen_video(&mut rng),
            Family::Telecom => gen_telecom(seed, &mut rng),
            Family::Ring => gen_ring(&mut rng),
            Family::Star => gen_star(&mut rng),
            Family::Grid => gen_grid(&mut rng),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// family generators

/// Attach seeded noise to roughly `density`-fraction of the flows: a
/// cost (`ticks`) or volume (`items`) distribution derived from the base
/// value, sometimes with arrival jitter on top. Guarantees at least one
/// annotation so every scenario really is stochastic.
fn sprinkle_noise(app: &mut Application, rng: &mut SmallRng, density: f64) {
    let flows: Vec<(FlowId, u64, u64)> = app
        .flows()
        .iter()
        .enumerate()
        .map(|(i, f)| (FlowId(i as u32), f.items, f.ticks))
        .collect();
    for &(id, items, ticks) in &flows {
        if !rng.gen_bool(density) {
            continue;
        }
        let mut noise = FlowNoise::default();
        match rng.below(3) {
            0 => {
                noise.ticks = Some(Dist::Normal {
                    mean: ticks,
                    std: (ticks / 6).max(1),
                    lo: (ticks / 2).max(1),
                    hi: ticks + ticks / 2,
                });
            }
            1 => {
                noise.ticks = Some(Dist::Uniform {
                    lo: (ticks * 3 / 4).max(1),
                    hi: ticks + ticks / 4,
                });
            }
            _ => {
                noise.items = Some(Dist::Uniform {
                    lo: (items / 2).max(1),
                    hi: items + items / 2,
                });
            }
        }
        if rng.gen_bool(0.4) {
            noise.jitter = Some(Dist::Choice(vec![(0, 7), (ticks / 5 + 1, 1)]));
        }
        app.set_flow_noise(id, noise)
            .expect("generated noise is valid");
    }
    if !app.is_stochastic() {
        let (id, _, ticks) = flows[0];
        app.set_flow_noise(
            id,
            FlowNoise {
                ticks: Some(Dist::Uniform {
                    lo: (ticks * 3 / 4).max(1),
                    hi: ticks + ticks / 4,
                }),
                ..FlowNoise::default()
            },
        )
        .expect("fallback noise is valid");
    }
}

fn gen_mp3(rng: &mut SmallRng) -> Psm {
    let cfg = Mp3Config {
        ticks_per_package: rng.range_u64(200, 300),
    };
    let mut app = mp3::mp3_decoder_with(cfg);
    sprinkle_noise(&mut app, rng, 0.35);
    Psm::new(
        segbus_model::platform::paper_three_segment_platform(),
        app,
        mp3::three_segment_allocation(),
    )
    .expect("mp3 scenario validates")
}

fn gen_video(rng: &mut SmallRng) -> Psm {
    let mut app = segbus_apps::video_encoder();
    sprinkle_noise(&mut app, rng, 0.4);
    let segments = rng.range_usize(2, 3);
    segbus_apps::on_paper_platform(app, segments)
}

fn gen_telecom(seed: u64, rng: &mut SmallRng) -> Psm {
    let mut app = if seed % 2 == 0 {
        butterfly(
            2,
            GeneratorConfig {
                items_per_flow: 36 * rng.range_u64(4, 12),
                ticks_per_package: rng.range_u64(120, 400),
            },
        )
    } else {
        segbus_apps::gsm_encoder()
    };
    sprinkle_noise(&mut app, rng, 0.45);
    let segments = rng.range_usize(2, 3);
    let alloc = block_allocation(&app, segments);
    let platform = uniform_platform(segments, 36);
    Psm::new(platform, app, alloc).expect("telecom scenario validates")
}

fn gen_ring(rng: &mut SmallRng) -> Psm {
    let layers = rng.range_usize(3, 5);
    let width = rng.range_usize(2, 3);
    let mut app = random_layered(
        layers,
        width,
        rng.next_u64(),
        GeneratorConfig {
            items_per_flow: 36 * rng.range_u64(4, 10),
            ticks_per_package: rng.range_u64(150, 350),
        },
    );
    sprinkle_noise(&mut app, rng, 0.4);
    let segments = rng.range_usize(3, 4.min(layers * width));
    let alloc = round_robin_allocation(&app, segments);
    let platform = ring_platform(segments, 36);
    Psm::new(platform, app, alloc).expect("ring scenario validates")
}

fn gen_star(rng: &mut SmallRng) -> Psm {
    let spokes = rng.range_usize(3, 6);
    let mut app = Application::new(format!("star-{spokes}"))
        .with_cost_model(CostModel::affine(40, 36).expect("valid cost model"));
    let hub = app.add_process(Process::initial("HUB"));
    let workers: Vec<ProcessId> = (0..spokes)
        .map(|i| app.add_process(Process::new(format!("W{i}"))))
        .collect();
    let sink = app.add_process(Process::final_("SINK"));
    for &w in &workers {
        // Small configuration payload out, large result back.
        app.add_flow(Flow::new(
            hub,
            w,
            36 * rng.range_u64(1, 3),
            1,
            rng.range_u64(80, 200),
        ))
        .expect("star fan-out is valid");
        app.add_flow(Flow::new(
            w,
            sink,
            36 * rng.range_u64(6, 16),
            2,
            rng.range_u64(200, 450),
        ))
        .expect("star fan-in is valid");
    }
    sprinkle_noise(&mut app, rng, 0.4);
    let segments = rng.range_usize(2, 3);
    let alloc = round_robin_allocation(&app, segments);
    let platform = uniform_platform(segments, 36);
    Psm::new(platform, app, alloc).expect("star scenario validates")
}

fn gen_grid(rng: &mut SmallRng) -> Psm {
    // 100–156 processes. One or two packages per flow and light compute
    // keep the scenario cheap to emulate while making it communication-
    // dominated — the regime where the placement search's plan patching
    // pays off.
    let width = rng.range_usize(10, 13);
    let height = rng.range_usize(10, 12);
    let mut app = grid(
        width,
        height,
        GeneratorConfig {
            items_per_flow: 36 * rng.range_u64(1, 2),
            ticks_per_package: rng.range_u64(20, 60),
        },
    );
    sprinkle_noise(&mut app, rng, 0.1);
    let segments = rng.range_usize(4, 6);
    let alloc = block_allocation(&app, segments);
    let platform = uniform_platform(segments, 36);
    Psm::new(platform, app, alloc).expect("grid scenario validates")
}

// ---------------------------------------------------------------------------
// corpus manifest and emission

/// The default seed manifest: what `segbus corpus gen` writes when the
/// corpus directory holds no `MANIFEST.txt` yet. The committed manifest is
/// the single source of truth afterwards — edit it, not this constant.
pub const DEFAULT_MANIFEST: &str = "\
# segbus corpus manifest — one `<family> <seed>` per line.
# `segbus corpus gen` renders each entry to corpus/<family>/<family>-s<seed>.sbd;
# `segbus corpus gen --check` re-renders and verifies byte-identity (CI).
mp3 1
mp3 2
mp3 3
video 1
video 2
video 3
telecom 1
telecom 2
telecom 4
ring 1
ring 2
star 1
star 2
grid 1
grid 2
";

/// Parse a manifest: `#` comments and blank lines are skipped, every other
/// line is `<family> <seed>`. Errors carry the 1-based line number.
pub fn parse_manifest(text: &str) -> Result<Vec<(Family, u64)>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(fam), Some(seed), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `<family> <seed>`", no + 1));
        };
        let family =
            Family::parse(fam).ok_or_else(|| format!("line {}: unknown family {fam:?}", no + 1))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("line {}: {seed:?} is not a seed", no + 1))?;
        out.push((family, seed));
    }
    if out.is_empty() {
        return Err("manifest holds no entries".into());
    }
    Ok(out)
}

/// Relative path of one scenario inside the corpus tree.
pub fn scenario_path(family: Family, seed: u64) -> String {
    format!("{family}/{family}-s{seed}.sbd")
}

/// Render one scenario to its committed form: a provenance header plus the
/// canonical DSL. Newlines are `\n` on every platform (the corpus tree is
/// committed with `eol=lf`).
pub fn scenario_dsl(family: Family, seed: u64) -> String {
    format!(
        "// segbus corpus scenario — family {family}, seed {seed}.\n\
         // Generated by `segbus corpus gen`; edit corpus/MANIFEST.txt and\n\
         // regenerate instead of editing this file.\n\n{}",
        segbus_dsl::printer::to_dsl(&family.generate(seed))
    )
}

/// Render a whole manifest to `(relative path, contents)` pairs, in
/// manifest order.
pub fn generate_corpus(entries: &[(Family, u64)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|&(f, s)| (scenario_path(f, s), scenario_dsl(f, s)))
        .collect()
}

/// Structural fingerprint of a scenario: the base model digest plus the
/// digest of its stochastic annotations. Two corpus files with equal
/// fingerprints describe the same system and the same noise — true
/// duplicates a minimisation pass may drop.
pub fn model_fingerprint(psm: &Psm) -> (u64, u64) {
    (psm.digest(), noise_digest(psm.application()))
}

// ---------------------------------------------------------------------------
// structure-aware mutation (fuzzing)

/// Structure-aware mutation of a `.sbd` source for the fuzz harness.
///
/// The input is first canonicalised through parse → print when it parses
/// (so line shapes are the printer's), then 1–3 grammar-level edits are
/// applied: numeric-literal perturbation, statement duplication /
/// deletion / swap, distribution injection (valid and deliberately
/// invalid) and distribution-keyword corruption. Unlike byte mutation the
/// result usually still lexes, steering the campaign at the parser's and
/// validator's semantic checks (P00x/V0xx/M0xx) instead of the tokenizer.
pub fn mutate_dsl(src: &str, rng: &mut SmallRng) -> String {
    let canon = match segbus_dsl::parse_system(src) {
        Ok(psm) => segbus_dsl::printer::to_dsl(&psm),
        Err(_) => src.to_string(),
    };
    let mut lines: Vec<String> = canon.lines().map(String::from).collect();
    if lines.is_empty() {
        return canon;
    }
    for _ in 0..rng.range_usize(1, 3) {
        let at = rng.range_usize(0, lines.len() - 1);
        match rng.below(6) {
            0 => perturb_number(&mut lines[at], rng),
            1 => {
                let dup = lines[at].clone();
                lines.insert(at, dup);
            }
            2 => {
                if lines.len() > 1 {
                    lines.remove(at);
                }
            }
            3 => {
                let other = rng.range_usize(0, lines.len() - 1);
                lines.swap(at, other);
            }
            4 => inject_dist(&mut lines, at, rng),
            _ => corrupt_dist(&mut lines[at], rng),
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Structure-aware mutation of an exported scheme document (`psdf.xml`
/// / `psm.xml`) for the fuzz harness.
///
/// The writer emits one element per line, so the same line-level edits
/// as [`mutate_dsl`] apply: numeric perturbation (which also reaches the
/// counts encoded in flow element names like `P1_576_1_250`),
/// duplication / deletion / swap, and injection or corruption of
/// distribution *attributes* (`itemsDist="uniform:300:400"`-style,
/// valid and deliberately invalid). Unlike byte mutation the result
/// usually stays well-formed XML, steering the campaign at the
/// importer's semantic checks (X00x) instead of the tag scanner.
pub fn mutate_xml(src: &str, rng: &mut SmallRng) -> String {
    let mut lines: Vec<String> = src.lines().map(String::from).collect();
    if lines.is_empty() {
        return src.to_string();
    }
    for _ in 0..rng.range_usize(1, 3) {
        let at = rng.range_usize(0, lines.len() - 1);
        match rng.below(6) {
            0 => perturb_number(&mut lines[at], rng),
            1 => {
                let dup = lines[at].clone();
                lines.insert(at, dup);
            }
            2 => {
                if lines.len() > 1 {
                    lines.remove(at);
                }
            }
            3 => {
                let other = rng.range_usize(0, lines.len() - 1);
                lines.swap(at, other);
            }
            4 => inject_xml_dist(&mut lines, at, rng),
            _ => corrupt_xml_dist(&mut lines, at, rng),
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Attach a distribution attribute (sometimes deliberately invalid) to
/// the first flow element — an `xs:element` carrying a `seq` attribute —
/// at or after `at`.
fn inject_xml_dist(lines: &mut [String], at: usize, rng: &mut SmallRng) {
    let Some(line) = lines[at..].iter_mut().find(|l| l.contains("seq=\"")) else {
        return;
    };
    let dist = match rng.below(6) {
        0 => format!(
            "itemsDist=\"uniform:{}:{}\" ",
            36 * rng.range_u64(1, 4),
            36 * rng.range_u64(5, 12)
        ),
        1 => format!("ticksDist=\"constant:{}\" ", rng.range_u64(1, 500)),
        2 => format!("jitter=\"choice:0:7:{}:1\" ", rng.range_u64(1, 60)),
        3 => "itemsDist=\"uniform:9:3\" ".to_string(), // inverted (X004)
        4 => "ticksDist=\"poisson:4\" ".to_string(),   // unknown kind (X004)
        _ => "itemsDist=\"constant:0\" ".to_string(),  // zero volume (X004)
    };
    if let Some(pos) = line.find("seq=\"") {
        line.insert_str(pos, &dist);
    }
}

/// Corrupt a distribution attribute in place; falls back to a numeric
/// perturbation when the line carries none.
fn corrupt_xml_dist(lines: &mut [String], at: usize, rng: &mut SmallRng) {
    let line = &mut lines[at];
    for (from, to) in [
        ("uniform:", "normal:"),
        ("normal:", "uniform:"),
        ("choice:", "constant:"),
        ("itemsDist=", "jitter="),
    ] {
        if line.contains(from) {
            *line = line.replacen(from, to, 1);
            return;
        }
    }
    perturb_number(line, rng);
}

/// Replace one decimal literal on the line with a boundary-seeking value.
fn perturb_number(line: &mut String, rng: &mut SmallRng) {
    let runs: Vec<(usize, usize)> = digit_runs(line);
    if runs.is_empty() {
        return;
    }
    let (start, end) = runs[rng.range_usize(0, runs.len() - 1)];
    let old: u64 = line[start..end].parse().unwrap_or(u64::MAX);
    let new = match rng.below(5) {
        0 => old.saturating_mul(2),
        1 => old / 2,
        2 => old.saturating_add(1),
        3 => 0,
        _ => u64::MAX,
    };
    line.replace_range(start..end, &new.to_string());
}

/// Byte ranges of the maximal ASCII-digit runs in `s`.
fn digit_runs(s: &str) -> Vec<(usize, usize)> {
    let bytes = s.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Insert a distribution annotation (sometimes deliberately invalid) into
/// the first flow statement at or after `at`.
fn inject_dist(lines: &mut [String], at: usize, rng: &mut SmallRng) {
    let Some(line) = lines[at..]
        .iter_mut()
        .find(|l| l.contains("flow ") && l.trim_end().ends_with('}'))
    else {
        return;
    };
    let dist = match rng.below(6) {
        0 => format!(
            "items_dist uniform {} {}; ",
            36 * rng.range_u64(1, 4),
            36 * rng.range_u64(5, 12)
        ),
        1 => format!("ticks_dist constant {}; ", rng.range_u64(1, 500)),
        2 => format!("jitter choice 0 7 {} 1; ", rng.range_u64(1, 60)),
        3 => "items_dist uniform 9 3; ".to_string(), // inverted (P007)
        4 => "ticks_dist poisson 4; ".to_string(),   // unknown kind (P002)
        _ => "items_dist constant 0; ".to_string(),  // zero volume (P007)
    };
    if let Some(pos) = line.rfind('}') {
        line.insert_str(pos, &dist);
    }
}

/// Corrupt a distribution keyword in place; falls back to a numeric
/// perturbation when the line carries none.
fn corrupt_dist(line: &mut String, rng: &mut SmallRng) {
    for (from, to) in [
        ("uniform", "normal"),
        ("normal", "uniform"),
        ("choice", "constant"),
        ("items_dist", "jitter"),
    ] {
        if line.contains(from) {
            *line = line.replacen(from, to, 1);
            return;
        }
    }
    perturb_number(line, rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_valid_stochastic_scenarios() {
        for family in Family::ALL {
            for seed in 0..12 {
                let psm = family.generate(seed);
                assert!(
                    psm.application().is_stochastic(),
                    "{family} seed {seed} must carry noise"
                );
                // The committed form must parse back to the same system.
                let text = scenario_dsl(family, seed);
                let back = segbus_dsl::parse_system(&text)
                    .unwrap_or_else(|e| panic!("{family} seed {seed}: {e}"));
                assert_eq!(back.application(), psm.application());
                assert_eq!(back.platform(), psm.platform());
                assert_eq!(back.allocation(), psm.allocation());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for family in Family::ALL {
            assert_eq!(scenario_dsl(family, 5), scenario_dsl(family, 5));
            assert_ne!(
                model_fingerprint(&family.generate(5)),
                model_fingerprint(&family.generate(6)),
                "{family}: different seeds must differ"
            );
        }
        // Families draw from split streams: same seed, different systems.
        assert_ne!(
            model_fingerprint(&Family::Ring.generate(1)),
            model_fingerprint(&Family::Star.generate(1)),
        );
    }

    #[test]
    fn default_manifest_parses_and_renders() {
        let entries = parse_manifest(DEFAULT_MANIFEST).unwrap();
        assert_eq!(entries.len(), 15);
        assert_eq!(entries[0], (Family::Mp3, 1));
        let corpus = generate_corpus(&entries);
        assert_eq!(corpus.len(), entries.len());
        assert!(corpus[0].0.ends_with("mp3/mp3-s1.sbd"));
        // Paths are unique; contents parse.
        let mut paths: Vec<&str> = corpus.iter().map(|(p, _)| p.as_str()).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), corpus.len());
        for (path, text) in &corpus {
            segbus_dsl::parse_system(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }

    #[test]
    fn grid_family_is_large() {
        for seed in 0..4 {
            let psm = Family::Grid.generate(seed);
            assert!(
                psm.application().process_count() >= 100,
                "grid seed {seed}: only {} processes",
                psm.application().process_count()
            );
        }
    }

    #[test]
    fn manifest_rejects_malformed_lines() {
        assert!(parse_manifest("").is_err());
        assert!(parse_manifest("# only comments\n").is_err());
        assert!(parse_manifest("mp3\n").is_err());
        assert!(parse_manifest("mp3 1 extra\n").is_err());
        assert!(parse_manifest("jpeg 1\n").is_err());
        assert!(parse_manifest("mp3 notaseed\n").is_err());
        let ok = parse_manifest("# c\n\n  star 7  \n").unwrap();
        assert_eq!(ok, vec![(Family::Star, 7)]);
    }

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
        }
        assert_eq!(Family::parse("jpeg"), None);
    }

    #[test]
    fn mutations_are_deterministic_and_structure_preserving() {
        let base = scenario_dsl(Family::Star, 1);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        assert_eq!(mutate_dsl(&base, &mut a), mutate_dsl(&base, &mut b));
        // Over many draws the mutants must differ from the canonical form
        // and a healthy fraction must still parse (structure-aware, not
        // byte soup) while some get rejected (they probe the validators).
        let canon = segbus_dsl::printer::to_dsl(&segbus_dsl::parse_system(&base).unwrap());
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let (mut parsed, mut rejected, mut changed) = (0, 0, 0);
        for _ in 0..300 {
            let m = mutate_dsl(&base, &mut rng);
            if m != canon {
                changed += 1;
            }
            match segbus_dsl::parse_system(&m) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    assert!(!e.code.is_empty(), "typed rejection required");
                    rejected += 1;
                }
            }
        }
        assert!(changed > 250, "mutator degenerated: {changed} changed");
        assert!(parsed > 30, "only {parsed}/300 mutants parsed");
        assert!(rejected > 30, "only {rejected}/300 mutants rejected");
    }

    #[test]
    fn xml_mutations_are_deterministic_and_structure_preserving() {
        let psm = segbus_dsl::parse_system(&scenario_dsl(Family::Star, 1)).unwrap();
        let base = segbus_xml::m2t::export_psdf(psm.application()).to_xml_string();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        assert_eq!(mutate_xml(&base, &mut a), mutate_xml(&base, &mut b));
        // Mutants must mostly stay well-formed XML (structure-aware, not
        // byte soup) while a healthy fraction trips the importer's
        // semantic checks with typed X0xx/M0xx rejections.
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let (mut well_formed, mut rejected, mut changed) = (0, 0, 0);
        for _ in 0..300 {
            let m = mutate_xml(&base, &mut rng);
            if m != base {
                changed += 1;
            }
            match segbus_xml::parse(&m) {
                Ok(_) => well_formed += 1,
                Err(e) => {
                    assert!(!e.code.is_empty(), "typed rejection required");
                    rejected += 1;
                }
            }
        }
        assert!(changed > 250, "mutator degenerated: {changed} changed");
        // Line deletion/swap can break tag nesting, so well-formedness is
        // lower than the DSL mutator's parse rate — but a healthy share
        // of both outcomes keeps the campaign probing both layers.
        assert!(
            well_formed > 75,
            "only {well_formed}/300 stayed well-formed"
        );
        assert!(rejected > 75, "only {rejected}/300 were rejected");
    }

    #[test]
    fn xml_dist_injection_lands_on_flow_elements() {
        let psm = segbus_dsl::parse_system(&scenario_dsl(Family::Mp3, 0)).unwrap();
        let base = segbus_xml::m2t::export_psdf(psm.application()).to_xml_string();
        // Drive the mutator until an injected distribution shows up.
        let mut seen = false;
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = mutate_xml(&base, &mut rng);
            // The deliberately-invalid injected shapes are unmistakable:
            // the generator never emits them on its own.
            if m.contains("poisson:4") || m.contains("uniform:9:3") || m.contains("constant:0") {
                seen = true;
                break;
            }
        }
        assert!(seen, "injection never produced a dist attribute");
    }

    #[test]
    fn mutator_survives_unparseable_input() {
        let mut rng = SmallRng::seed_from_u64(4);
        let out = mutate_dsl("application broken {", &mut rng);
        assert!(!out.is_empty());
        let out = mutate_dsl("", &mut rng);
        assert!(out.is_empty() || out == "\n");
    }
}
