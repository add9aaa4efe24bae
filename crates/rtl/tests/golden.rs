//! Golden digests of the reference simulator over the committed corpus.
//!
//! One FNV-64 digest per reference report, covering every corpus
//! scenario × package size {9, 18, 36, 72} × frames {1, 2}. The digest
//! covers every counter of the report (`sas`, `ca`, `bus`, `fus`,
//! `makespan`), so any change to the simulator's timing or accounting
//! shows up here. A deliberate timing change regenerates the table: the
//! failure message prints the complete new one.

use segbus_model::digest::Fnv64;
use segbus_rtl::RtlSimulator;

const PACKAGE_SIZES: [u32; 4] = [9, 18, 36, 72];
const FRAMES: [u64; 2] = [1, 2];

/// The corpus scenarios listed in `corpus/MANIFEST.txt`, as
/// `family/family-s<seed>.sbd` names.
fn corpus_scenarios() -> Vec<String> {
    let manifest = include_str!("../../../corpus/MANIFEST.txt");
    manifest
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (family, seed) = l.split_once(' ').expect("`<family> <seed>` row");
            format!("{family}/{family}-s{}.sbd", seed.trim())
        })
        .collect()
}

fn report_digest(r: &segbus_core::report::EmulationReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(format!("{:?}", (&r.sas, &r.ca, &r.bus, &r.fus, r.makespan)).as_bytes());
    h.finish()
}

#[test]
fn reference_reports_match_the_golden_digests() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut table = String::new();
    for scenario in corpus_scenarios() {
        let text = std::fs::read_to_string(format!("{root}/{scenario}")).expect("corpus scenario");
        let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
        for s in PACKAGE_SIZES {
            let psm = psm.with_package_size(s).expect("valid package size");
            for frames in FRAMES {
                let r = RtlSimulator::default()
                    .run_frames(&psm, frames)
                    .unwrap_or_else(|e| panic!("{scenario} s={s} frames={frames}: {e}"));
                table.push_str(&format!(
                    "{scenario} {s} {frames} {} {:016x}\n",
                    r.makespan.0,
                    report_digest(&r)
                ));
            }
        }
    }
    let golden: String = include_str!("golden/rtl_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        table == golden,
        "reference reports differ from tests/golden/rtl_digests.txt; \
         the current table is:\n{table}"
    );
}
