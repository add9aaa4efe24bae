//! Integration test: the paper's §4 three-segment MP3 experiment.
//!
//! Package and request counts on the inter-segment side are fully
//! determined by the Fig. 8 matrix and the Fig. 9 allocation and must match
//! the paper exactly. Absolute times depend on unpublished per-flow costs
//! (only `C = 250` for `P0 → P1` is printed), so execution time is checked
//! against a band around the paper's 489.79 µs.

use segbus_apps::mp3;
use segbus_core::EmulatorConfig;
use segbus_model::ids::{ProcessId, SegmentId};

mod common;
use common::{estimate, run};

#[test]
fn three_segment_run_matches_paper_structure() {
    let psm = mp3::three_segment_psm();
    let report = estimate(EmulatorConfig::traced(), &psm, 1);

    // --- exact structural counts from the paper's print-out -------------
    // BU12: 32 packages in, 32 out, all left-to-right.
    assert_eq!(report.bus[0].received_from_left, 32);
    assert_eq!(report.bus[0].transferred_to_right, 32);
    assert_eq!(report.bus[0].received_from_right, 0);
    assert_eq!(report.bus[0].transferred_to_left, 0);
    // BU23: 1 package each way.
    assert_eq!(report.bus[1].received_from_left, 1);
    assert_eq!(report.bus[1].transferred_to_right, 1);
    assert_eq!(report.bus[1].received_from_right, 1);
    assert_eq!(report.bus[1].transferred_to_left, 1);
    // Segment packet pushes: 32 right from segment 1, 1 left from segment 3.
    assert_eq!(report.sas[0].packets_to_right, 32);
    assert_eq!(report.sas[0].packets_to_left, 0);
    assert_eq!(report.sas[1].packets_to_right, 0);
    assert_eq!(report.sas[1].packets_to_left, 0);
    assert_eq!(report.sas[2].packets_to_left, 1);
    assert_eq!(report.sas[2].packets_to_right, 0);
    // Inter-segment requests: 32 from SA1, 0 from SA2, 1 from SA3.
    assert_eq!(report.sas[0].inter_requests, 32);
    assert_eq!(report.sas[1].inter_requests, 0);
    assert_eq!(report.sas[2].inter_requests, 1);
    assert_eq!(report.ca.inter_requests, 33);
    assert_eq!(report.ca.grants, 33);

    // --- BU bottleneck analysis (paper: UP12 = 2304, WP̄ ≈ 1) ------------
    assert_eq!(report.bus[0].useful_period(36), 2304);
    let wp12 = report.bus[0].avg_waiting_period();
    assert!(
        (0.5..=3.0).contains(&wp12),
        "average waiting period {wp12} out of the paper's band"
    );
    assert_eq!(
        report.bus[0].tct,
        report.bus[0].useful_period(36) + report.bus[0].waiting_ticks
    );

    // --- global outcome ---------------------------------------------------
    assert!(report.all_flags_raised());
    let t = report.execution_time().as_micros_f64();
    // Paper estimate: 489.79 µs. Unpublished per-flow costs put us in a
    // band rather than on the point; the shape tests below pin ordering.
    assert!(
        (300.0..=700.0).contains(&t),
        "execution time {t:.2} µs far from the paper's 489.79 µs"
    );

    // P14 is the sink and receives the last package close to the end.
    let p14 = report.fu(ProcessId(14));
    assert_eq!(p14.packages_received, 32);
    assert!(p14.last_received.is_some());

    // SA execution times are each below the total (max identity).
    for s in 0..3u16 {
        assert!(report.sa_execution_time(SegmentId(s)) <= report.execution_time());
    }

    eprintln!("--- three-segment MP3, s = 36 ---");
    eprintln!("{}", report.paper_style());
}

#[test]
fn package_size_18_is_slower() {
    // Paper: 489.79 µs at s = 36 vs 560.16 µs at s = 18 (~14 % slower).
    let r36 = run(&mp3::three_segment_psm());
    let r18 = run(&mp3::three_segment_psm().with_package_size(18).unwrap());
    let t36 = r36.execution_time().as_micros_f64();
    let t18 = r18.execution_time().as_micros_f64();
    assert!(
        t18 > t36,
        "s=18 ({t18:.2} µs) should be slower than s=36 ({t36:.2} µs)"
    );
    let ratio = t18 / t36;
    assert!(
        (1.01..=1.6).contains(&ratio),
        "slowdown ratio {ratio:.3} out of band (paper: ~1.14)"
    );
    eprintln!("s=36: {t36:.2} µs, s=18: {t18:.2} µs, ratio {ratio:.3}");
}

#[test]
fn moving_p9_to_segment_3_is_slower() {
    // Paper: 489.79 µs for Fig. 9 vs 540.4 µs with P9 on segment 3.
    let base = run(&mp3::three_segment_psm());
    let moved = run(&mp3::three_segment_p9_moved_psm());
    let t0 = base.execution_time().as_micros_f64();
    let t1 = moved.execution_time().as_micros_f64();
    assert!(
        t1 > t0,
        "moved P9 ({t1:.2} µs) should be slower than base ({t0:.2} µs)"
    );
    eprintln!(
        "base: {t0:.2} µs, P9 moved: {t1:.2} µs, ratio {:.3}",
        t1 / t0
    );
}

#[test]
fn fewer_segments_reduce_parallelism() {
    // The paper skips printing the 1- and 2-segment results but the point
    // of segmentation is parallel transactions: the 1-segment run must not
    // beat the 3-segment run.
    let r1 = run(&mp3::one_segment_psm());
    let r3 = run(&mp3::three_segment_psm());
    let t1 = r1.execution_time().as_micros_f64();
    let t3 = r3.execution_time().as_micros_f64();
    eprintln!("1 segment: {t1:.2} µs, 3 segments: {t3:.2} µs");
    assert!(t1 >= t3 * 0.95, "single segment unexpectedly much faster");
}
