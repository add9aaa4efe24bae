//! Pipelined multi-frame execution (`Engine::try_run_frames`): successive
//! frames of the application stream through the wave schedule.

use segbus_apps::mp3;
use segbus_core::{EmulatorConfig, Engine};
use segbus_model::ids::SegmentId;
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, Flow, Process};
use segbus_model::time::ClockDomain;

mod common;
use common::{estimate, run};

fn pipeline3() -> Psm {
    let mut app = Application::new("p3");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::new("B"));
    let c = app.add_process(Process::final_("C"));
    app.add_flow(Flow::new(a, b, 36, 1, 100)).unwrap();
    app.add_flow(Flow::new(b, c, 36, 2, 100)).unwrap();
    let mut alloc = Allocation::new(1);
    for p in [a, b, c] {
        alloc.assign(p, SegmentId(0));
    }
    let platform = Platform::builder("p")
        .package_size(36)
        .uniform_segments(1, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    Psm::new(platform, app, alloc).unwrap()
}

#[test]
fn one_frame_equals_plain_run() {
    for psm in [pipeline3(), mp3::three_segment_psm()] {
        let plain = Engine::default().try_run(&psm).unwrap();
        let framed = estimate(EmulatorConfig::default(), &psm, 1);
        assert_eq!(plain.makespan, framed.makespan);
        assert_eq!(plain.sas, framed.sas);
        assert_eq!(plain.ca, framed.ca);
        assert_eq!(plain.bus, framed.bus);
        assert_eq!(plain.fus, framed.fus);
    }
}

#[test]
fn frames_conserve_packages() {
    let psm = mp3::three_segment_psm();
    let frames = 4;
    let r = estimate(EmulatorConfig::default(), &psm, frames);
    assert!(r.all_flags_raised());
    let per_frame: u64 = psm
        .application()
        .flows()
        .iter()
        .map(|f| f.packages(36))
        .sum();
    let sent: u64 = r.fus.iter().map(|f| f.packages_sent).sum();
    let recv: u64 = r.fus.iter().map(|f| f.packages_received).sum();
    assert_eq!(sent, frames * per_frame);
    assert_eq!(recv, frames * per_frame);
    for b in &r.bus {
        assert_eq!(b.total_in(), b.total_out());
    }
    // BU12 carries 32 packages per frame.
    assert_eq!(r.bus[0].total_in(), frames * 32);
}

#[test]
fn pipelining_beats_serial_execution() {
    // N pipelined frames must finish well before N sequential single-frame
    // runs would (the pipeline overlaps stages of adjacent frames).
    let psm = pipeline3();
    let t1 = run(&psm).makespan.0;
    for frames in [2u64, 4, 8] {
        let tn = estimate(EmulatorConfig::default(), &psm, frames).makespan.0;
        assert!(tn < frames * t1, "frames={frames}: {tn} !< {}", frames * t1);
        // ... but cannot beat the bottleneck-stage bound.
        assert!(tn >= t1, "at least one full frame latency");
    }
    // Steady-state throughput: the increment per extra frame approaches
    // the bottleneck stage time (compute 100 + transfer 40 per package,
    // two stages sharing one bus => >= 140 ticks per frame).
    let t8 = estimate(EmulatorConfig::default(), &psm, 8).makespan.0;
    let t9 = estimate(EmulatorConfig::default(), &psm, 9).makespan.0;
    let inc = t9 - t8;
    assert!(inc >= 140 * 10_000, "increment {inc}");
    assert!(
        inc < t1,
        "steady-state increment must undercut frame latency"
    );
}

#[test]
fn mp3_streaming_throughput_improves_with_pipelining() {
    let psm = mp3::three_segment_psm();
    let t1 = run(&psm).makespan.0 as f64;
    let t8 = estimate(EmulatorConfig::default(), &psm, 8).makespan.0 as f64;
    let speedup = 8.0 * t1 / t8;
    // The MP3 graph has parallel channel chains; pipelining across frames
    // must buy a real speedup over back-to-back decoding.
    assert!(speedup > 1.2, "pipelining speedup {speedup:.2}");
    eprintln!("8-frame pipelining speedup: {speedup:.2}x");
}

#[test]
fn traced_streaming_counts_every_wave_instance() {
    let psm = pipeline3();
    let cfg = EmulatorConfig::traced();
    let r = estimate(cfg, &psm, 3);
    let waves = segbus_core::wave_boundaries(&r);
    assert_eq!(waves.len(), 3 * 2, "2 waves × 3 frames");
}

#[test]
fn zero_frames_rejected() {
    let e = Engine::default()
        .try_run_frames(&pipeline3(), 0)
        .unwrap_err();
    assert_eq!(e.code, "C001", "{e}");
}
