//! Package-size tuning with the parallel sweep runner: re-emulate the MP3
//! configuration at many package sizes at once and print the trade-off the
//! paper discusses (large packages amortise arbitration and clock-domain
//! synchronisation; tiny packages drown in per-package overhead).
//!
//! ```text
//! cargo run --release --example package_size_tuning
//! ```

use segbus::apps::mp3;
use segbus::emu::{EmulationReport, EmulatorConfig, SweepPool};
use segbus::model::mapping::Psm;

fn main() {
    let sizes: Vec<u32> = vec![4, 6, 9, 12, 18, 27, 36, 54, 72, 108, 144, 288];
    let psms: Vec<Psm> = sizes
        .iter()
        .map(|&s| {
            mp3::three_segment_psm()
                .with_package_size(s)
                .expect("valid package size")
        })
        .collect();

    // One emulation per package size, fanned out over worker threads.
    let reports: Vec<EmulationReport> = SweepPool::new(EmulatorConfig::default())
        .sweep(&psms)
        .into_iter()
        .map(|r| r.expect("every package size is valid"))
        .collect();

    println!("package-size sweep — MP3 decoder, 3 segments (Fig. 9 allocation)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10}",
        "size", "packages", "est_us", "bu12_wp_avg", "ca_grants"
    );
    let mut best = (0u32, f64::INFINITY);
    for (s, r) in sizes.iter().zip(&reports) {
        let t = r.execution_time().as_micros_f64();
        println!(
            "{s:>6} {:>10} {t:>10.2} {:>12.2} {:>10}",
            psms[0].application().total_packages(*s),
            r.bus[0].avg_waiting_period(),
            r.ca.grants
        );
        if t < best.1 {
            best = (*s, t);
        }
    }
    println!(
        "\nbest package size for this mapping: {} items ({:.2} us)",
        best.0, best.1
    );
}
