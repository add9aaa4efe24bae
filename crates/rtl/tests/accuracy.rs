//! Integration test: the paper's §4 accuracy analysis (experiment E5).
//!
//! The paper reports estimated vs actual execution times of
//! (489.79, 515.2) µs at s = 36, (560.16, 600.02) µs at s = 18 and
//! (540.4, 570.12) µs with P9 moved to segment 3 — estimation accuracies of
//! ~95 %, ~93 % and just below 95 %. Here the reference simulator plays the
//! role of the real platform; we assert the accuracy band and the paper's
//! key qualitative findings:
//!
//! * the estimator always under-predicts (it skips real costs);
//! * accuracy degrades with smaller packages ("the higher the data
//!   package, the less impact of these figures should be observed").

use segbus_apps::mp3;
use segbus_core::Engine;
use segbus_model::mapping::Psm;
use segbus_rtl::RtlSimulator;

fn accuracy(psm: &Psm) -> (f64, f64, f64) {
    let est = Engine::default().try_run(psm).unwrap().execution_time();
    let act = RtlSimulator::default()
        .run(psm)
        .expect("reference run completes")
        .execution_time();
    (
        est.as_micros_f64(),
        act.as_micros_f64(),
        est.0 as f64 / act.0 as f64,
    )
}

#[test]
fn three_segment_accuracy_band() {
    let (est, act, acc) = accuracy(&mp3::three_segment_psm());
    eprintln!(
        "s=36: estimated {est:.2} µs, actual {act:.2} µs, accuracy {:.1}%",
        acc * 100.0
    );
    assert!(acc < 1.0, "the estimator must under-predict");
    assert!(acc > 0.85, "accuracy {acc:.3} below the paper's band");
}

#[test]
fn package_18_accuracy_is_worse() {
    let (e36, a36, acc36) = accuracy(&mp3::three_segment_psm());
    let (e18, a18, acc18) = accuracy(&mp3::three_segment_psm().with_package_size(18).unwrap());
    eprintln!(
        "s=36: est {e36:.2} act {a36:.2} acc {:.1}% | s=18: est {e18:.2} act {a18:.2} acc {:.1}%",
        acc36 * 100.0,
        acc18 * 100.0
    );
    // Paper: 95 % at s = 36 vs ~93 % at s = 18.
    assert!(
        acc18 < acc36,
        "smaller packages must hurt accuracy: {acc18:.3} !< {acc36:.3}"
    );
    // And the actual platform is slower at s = 18 too (600.02 > 515.2).
    assert!(a18 > a36);
}

#[test]
fn p9_move_slows_both_engines() {
    let (e0, a0, acc0) = accuracy(&mp3::three_segment_psm());
    let (e1, a1, acc1) = accuracy(&mp3::three_segment_p9_moved_psm());
    eprintln!(
        "base: est {e0:.2} act {a0:.2} acc {:.1}% | P9→seg3: est {e1:.2} act {a1:.2} acc {:.1}%",
        acc0 * 100.0,
        acc1 * 100.0
    );
    // Paper: both estimated (540.4 > 489.79) and actual (570.12 > 515.2)
    // grow when P9 crosses two BUs each way.
    assert!(e1 > e0);
    assert!(a1 > a0);
    // Accuracy stays in the same band (paper: ~95 % vs just below 95 %).
    assert!(acc1 > 0.85 && acc1 < 1.0);
}

#[test]
fn reference_structure_matches_estimator_on_mp3() {
    // Same protocol-level package movement in both engines.
    let psm = mp3::three_segment_psm();
    let est = Engine::default().try_run(&psm).unwrap();
    let act = RtlSimulator::default().run(&psm).unwrap();
    assert_eq!(act.bus[0].received_from_left, 32);
    assert_eq!(act.bus[0].transferred_to_right, 32);
    assert_eq!(act.bus[1].received_from_left, 1);
    assert_eq!(act.bus[1].received_from_right, 1);
    assert_eq!(act.sas[0].inter_requests, est.sas[0].inter_requests);
    assert_eq!(act.sas[2].inter_requests, est.sas[2].inter_requests);
    assert_eq!(act.ca.grants, est.ca.grants);
    assert_eq!(act.ca.releases, est.ca.releases);
    assert!(act.all_flags_raised());
}

/// Streaming accuracy: the pipelined multi-frame run keeps the same
/// under-estimation band, and both engines agree on the per-frame
/// package movement.
#[test]
fn streaming_accuracy_band() {
    let psm = mp3::three_segment_psm();
    let frames = 4;
    let est = Engine::default().try_run_frames(&psm, frames).unwrap();
    let act = RtlSimulator::default()
        .run_frames(&psm, frames)
        .expect("reference streaming completes");
    // Structure: 32 BU12 packages per frame on both engines.
    assert_eq!(est.bus[0].total_in(), frames * 32);
    assert_eq!(act.bus[0].total_in(), frames * 32);
    assert_eq!(act.ca.grants, est.ca.grants);
    assert!(act.all_flags_raised());
    let acc = est.execution_time().0 as f64 / act.execution_time().0 as f64;
    eprintln!(
        "streaming x{frames}: est {:.2} us, act {:.2} us, accuracy {:.1}%",
        est.execution_time().as_micros_f64(),
        act.execution_time().as_micros_f64(),
        acc * 100.0
    );
    assert!(acc > 0.80 && acc < 1.05, "accuracy {acc}");
}
