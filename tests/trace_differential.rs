//! Trace-level differential testing over the committed scenario corpus.
//!
//! The fast core's traced instantiations promise the oracle's trace
//! events — and the `.sbt` binary format promises a lossless round trip.
//! This suite drives both promises end to end on every committed
//! `corpus/` scenario under every arbitration × release policy: the fast
//! core streams its trace to an `.sbt` file, the file is decoded, and
//! both the events (as a canonically sorted list) and every analytics
//! counter derived from them (utilisation, waits, gaps, BU occupancy,
//! latencies) must equal what [`ReferenceEmulator`]'s in-memory
//! `TraceLog` yields. The reference may emit same-instant events in a
//! different order, so the fast core's emission order is checked against
//! the committed golden digests in `tests/golden/trace_digests.txt`.

use segbus_core::{
    analyze_trace, read_trace, trace_latency_stats, trace_package_latencies, ArbitrationPolicy,
    EmulatorConfig, Engine, ProducerRelease, ReferenceEmulator, SbtWriter, TraceLog,
};
use segbus_model::mapping::Psm;

/// The committed stochastic scenarios under `corpus/`, one family
/// directory deep, as (`family/file.sbd`, parsed PSM) pairs. The name is
/// joined with `/` on every OS so it matches the golden rows.
fn corpus_psms() -> Vec<(String, Psm)> {
    let corpus_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(corpus_root)
        .expect("corpus/ directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            p.is_dir().then_some(p)
        })
        .flat_map(|dir| {
            std::fs::read_dir(dir)
                .expect("corpus family dir")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd").then_some(p)
                })
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must contain scenarios");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
            let rel = p.strip_prefix(corpus_root).expect("corpus path");
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (parts.join("/"), psm)
        })
        .collect()
}

/// The golden table: `(scenario, arbitration, release, frames)` →
/// `(event count, emission-order digest)`.
fn golden() -> std::collections::HashMap<String, (usize, u64)> {
    let text = include_str!("golden/trace_digests.txt");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 6, "malformed golden row {l:?}");
            let events = cols[4].parse().expect("event count");
            let digest = u64::from_str_radix(cols[5], 16).expect("hex digest");
            (cols[..4].join(" "), (events, digest))
        })
        .collect()
}

fn assert_same_analytics(name: &str, fast: &TraceLog, reference: &TraceLog, nseg: usize) {
    let a = analyze_trace(fast, nseg);
    let b = analyze_trace(reference, nseg);
    assert_eq!(a.makespan, b.makespan, "{name}: analysis makespan");
    for (x, y) in a.segments.iter().zip(b.segments.iter()) {
        assert_eq!(x.busy, y.busy, "{name}: {} busy", x.segment);
        assert_eq!(x.serves, y.serves, "{name}: {} serves", x.segment);
        assert_eq!(x.total_wait, y.total_wait, "{name}: {} wait", x.segment);
        assert_eq!(
            x.wait.count(),
            y.wait.count(),
            "{name}: {} waits",
            x.segment
        );
        assert_eq!(
            x.wait.nonzero_buckets(),
            y.wait.nonzero_buckets(),
            "{name}: {} wait histogram",
            x.segment
        );
        assert_eq!(x.gaps, y.gaps, "{name}: {} gaps", x.segment);
        assert_eq!(x.gap_total, y.gap_total, "{name}: {} gap total", x.segment);
        assert_eq!(x.gap_max, y.gap_max, "{name}: {} gap max", x.segment);
    }
    assert_eq!(a.bus_units, b.bus_units, "{name}: BU occupancy");
    assert_eq!(
        trace_package_latencies(fast),
        trace_package_latencies(reference),
        "{name}: package latencies"
    );
    assert_eq!(
        trace_latency_stats(fast),
        trace_latency_stats(reference),
        "{name}: latency stats"
    );
}

#[test]
fn fast_core_sbt_traces_match_reference_counters_on_corpus() {
    let golden = golden();
    let dir = std::env::temp_dir().join(format!("segbus-trace-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.sbt");
    let mut checked = 0;
    for (scenario, psm) in corpus_psms() {
        let nseg = psm.platform().segment_count();
        for (arb_name, arbitration) in [
            ("fifo", ArbitrationPolicy::Fifo),
            ("priority", ArbitrationPolicy::FixedPriority),
            ("fair", ArbitrationPolicy::FairRoundRobin),
        ] {
            for (rel_name, producer_release) in [
                ("delivery", ProducerRelease::AfterDelivery),
                ("local", ProducerRelease::AfterLocalPhase),
            ] {
                let cfg = EmulatorConfig {
                    arbitration,
                    producer_release,
                    ..EmulatorConfig::traced()
                };
                for frames in [1u64, 2] {
                    let name = format!("{scenario} {arb_name} {rel_name} {frames}");
                    let reference = ReferenceEmulator::new(cfg)
                        .try_run_frames(&psm, frames)
                        .unwrap_or_else(|e| panic!("{name}: reference: {e}"));
                    let ref_log = reference.trace.as_ref().expect("reference trace");

                    // Stream the fast core's trace to disk and decode it back.
                    let mut writer = SbtWriter::create(
                        &path,
                        nseg as u32,
                        psm.application().process_count() as u32,
                    )
                    .unwrap();
                    let streamed = Engine::new(cfg)
                        .try_run_frames_with_sink(&psm, frames, &mut writer)
                        .unwrap_or_else(|e| panic!("{name}: fast: {e}"));
                    writer.finish().unwrap();
                    let decoded =
                        read_trace(&path).unwrap_or_else(|e| panic!("{name}: read_trace: {e}"));
                    assert!(!decoded.truncated, "{name}: fresh file must not truncate");

                    assert_eq!(streamed.makespan, reference.makespan, "{name}: makespan");
                    assert_eq!(streamed.sas, reference.sas, "{name}: SA stats");
                    assert_eq!(streamed.ca, reference.ca, "{name}: CA stats");
                    assert_eq!(streamed.bus, reference.bus, "{name}: bus counters");
                    assert_eq!(streamed.fus, reference.fus, "{name}: FU counters");

                    let mut got = decoded.log.events().to_vec();
                    let mut want = ref_log.events().to_vec();
                    got.sort();
                    want.sort();
                    assert!(
                        got == want,
                        "{name}: decoded events differ from the reference's"
                    );
                    assert_same_analytics(&name, &decoded.log, ref_log, nseg);

                    let (events, digest) = golden
                        .get(&name)
                        .unwrap_or_else(|| panic!("{name}: no golden row"));
                    assert_eq!(decoded.log.len(), *events, "{name}: event count");
                    assert_eq!(decoded.log.digest(), *digest, "{name}: emission order");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, golden.len(), "every golden row is exercised");
    let _ = std::fs::remove_dir_all(&dir);
}
