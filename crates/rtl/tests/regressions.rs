//! Minimal models that once broke the reference simulator.

use segbus_core::Engine;
use segbus_rtl::RtlSimulator;

/// More than 2^20 inter-segment packages from one segment. Transfer ids
/// used to pack the source segment above a 20-bit per-segment index, so
/// package 2^20 decoded to the next segment's (empty) arena and the run
/// panicked with an index out of bounds. ~5 s in release.
#[test]
#[ignore = "slow: 1 048 600 inter-segment packages"]
fn more_than_two_to_the_twenty_inter_segment_packages() {
    let psm = segbus_dsl::parse_system(include_str!("models/tid_overflow.sbd"))
        .expect("regression model parses");
    let est = Engine::default().try_run(&psm).unwrap();
    let rtl = RtlSimulator::default()
        .run(&psm)
        .expect("reference run completes");
    assert_eq!(rtl.bus[0].received_from_left, 1_048_600);
    assert_eq!(rtl.bus[0].transferred_to_right, 1_048_600);
    assert!(
        rtl.makespan >= est.makespan,
        "reference {:?} < estimate {:?}",
        rtl.makespan,
        est.makespan
    );
}
