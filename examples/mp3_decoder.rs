//! The paper's case study end-to-end: the simplified stereo MP3 decoder on
//! one, two and three segments, with the estimation-accuracy check against
//! the reference simulator (paper §4).
//!
//! ```text
//! cargo run --release --example mp3_decoder
//! ```

use segbus::apps::mp3;
use segbus::emu::{EmulatorConfig, Engine};
use segbus::rtl::RtlSimulator;

fn main() {
    let mut engine = Engine::default();
    let reference = RtlSimulator::default();

    println!("=== MP3 decoder on the SegBus platform (paper section 4) ===\n");

    // The three Fig. 9 configurations.
    for (name, psm) in [
        ("one segment", mp3::one_segment_psm()),
        ("two segments", mp3::two_segment_psm()),
        ("three segments", mp3::three_segment_psm()),
    ] {
        let r = engine.try_run(&psm).expect("the MP3 models are valid");
        println!(
            "{name:>14}: estimated {:.2} us  ({} packages cross BUs, {} CA grants)",
            r.execution_time().as_micros_f64(),
            r.inter_segment_packages(),
            r.ca.grants
        );
    }

    // The paper's accuracy experiments: estimator vs the "real platform".
    println!("\n--- estimation accuracy (emulator vs reference simulator) ---");
    let experiments = [
        ("3 segments, s=36      ", mp3::three_segment_psm()),
        (
            "3 segments, s=18      ",
            mp3::three_segment_psm()
                .with_package_size(18)
                .expect("valid size"),
        ),
        ("3 segments, P9 on seg3", mp3::three_segment_p9_moved_psm()),
    ];
    for (name, psm) in experiments {
        let est = engine
            .try_run(&psm)
            .expect("the MP3 models are valid")
            .execution_time();
        let act = reference
            .run(&psm)
            .expect("reference run completes")
            .execution_time();
        println!(
            "{name}: estimated {:7.2} us, actual {:7.2} us, accuracy {:.1}%",
            est.as_micros_f64(),
            act.as_micros_f64(),
            100.0 * est.0 as f64 / act.0 as f64
        );
    }

    // The full paper-style print-out of the 3-segment run.
    println!("\n--- three-segment results, paper style ---");
    let report = Engine::new(EmulatorConfig::traced())
        .try_run(&mp3::three_segment_psm())
        .expect("the MP3 model is valid");
    print!("{}", report.paper_style());

    // The BU bottleneck analysis.
    println!("\n--- border-unit analysis (UP / TCT / mean WP) ---");
    for (bu, up, tct, wp) in report.bu_analysis() {
        println!("{bu}: UP = {up} ticks, TCT = {tct} ticks, mean WP = {wp:.2} ticks");
    }
}
