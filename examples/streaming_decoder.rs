//! Streaming decode: pipeline successive MP3 frames through the platform
//! and watch throughput converge to the bottleneck stage — the metric the
//! paper's single-frame experiment abstracts away.
//!
//! ```text
//! cargo run --release --example streaming_decoder
//! ```

use segbus::apps::mp3;
use segbus::emu::Engine;

fn main() {
    let psm = mp3::three_segment_psm();
    let mut engine = Engine::default();

    println!("streaming MP3 decode on the 3-segment platform (Fig. 9)\n");
    println!(
        "{:>7} {:>13} {:>14} {:>10} {:>12}",
        "frames", "makespan_us", "us_per_frame", "frames_ms", "speedup"
    );

    let mut run = |frames| {
        engine
            .try_run_frames(&psm, frames)
            .expect("the MP3 model is valid")
    };
    let t1 = run(1).makespan.0 as f64;
    let mut prev = 0.0f64;
    for frames in [1u64, 2, 4, 8, 16, 32] {
        let report = run(frames);
        assert!(report.all_flags_raised());
        let tn = report.makespan.0 as f64;
        let per_frame = tn / frames as f64;
        println!(
            "{frames:>7} {:>13.2} {:>14.2} {:>10.3} {:>11.2}x",
            tn / 1e6,
            per_frame / 1e6,
            1e9 / per_frame, // frames per millisecond
            frames as f64 * t1 / tn
        );
        prev = per_frame;
    }
    println!(
        "\nsteady-state frame period: {:.2} us (single-frame latency: {:.2} us)",
        prev / 1e6,
        t1 / 1e6
    );
    println!("the gap is the pipeline overlap between adjacent frames' waves");
}
