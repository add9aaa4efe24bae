//! Arbiter code generation — the paper's future-work feature realised:
//! derive the application schedule from the PSDF, verify it against the
//! emulator's counters, and print the generated VHDL/Rust arbiter tables
//! for the MP3 decoder's three-segment configuration.
//!
//! ```text
//! cargo run --example arbiter_codegen
//! ```

use segbus::apps::mp3;
use segbus::codegen::{rust_emit, vhdl, SystemSchedule};
use segbus::emu::Engine;

fn main() {
    let psm = mp3::three_segment_psm();
    let schedule = SystemSchedule::derive(&psm);

    // The schedule is the static counterpart of the emulation: it must
    // predict the emulator's counters exactly.
    let report = Engine::default()
        .try_run(&psm)
        .expect("the MP3 model is valid");
    println!("schedule cross-check against the emulator:");
    for i in 0..schedule.segment_count() {
        let seg = segbus::model::SegmentId(i as u16);
        println!(
            "  SA{}: schedule predicts {:>3} inter / {:>3} intra requests, emulator counted {:>3} / {:>3}",
            i + 1,
            schedule.predicted_inter_requests(seg),
            schedule.predicted_intra_requests(seg),
            report.sas[i].inter_requests,
            report.sas[i].intra_requests,
        );
        assert_eq!(
            schedule.predicted_inter_requests(seg),
            report.sas[i].inter_requests
        );
        assert_eq!(
            schedule.predicted_intra_requests(seg),
            report.sas[i].intra_requests
        );
    }
    println!(
        "  CA : schedule predicts {} grants / {} releases, emulator counted {} / {}",
        schedule.predicted_ca_grants(),
        schedule.predicted_ca_releases(),
        report.ca.grants,
        report.ca.releases
    );
    assert_eq!(schedule.predicted_ca_grants(), report.ca.grants);

    // Generated artifacts.
    let vhdl_src = vhdl::to_vhdl(&psm, &schedule);
    let rust_src = rust_emit::to_rust(&psm, &schedule);
    println!(
        "\ngenerated {} lines of VHDL and {} lines of Rust tables",
        vhdl_src.lines().count(),
        rust_src.lines().count()
    );
    println!("\n--- VHDL excerpt (SA1 schedule ROM) ---");
    let mut in_rom = false;
    for line in vhdl_src.lines() {
        if line.contains("entity sa2_scheduler") {
            break;
        }
        if line.contains("constant ROM") {
            in_rom = true;
        }
        if in_rom {
            println!("{line}");
        }
        if line.trim() == ");" {
            in_rom = false;
        }
    }
    println!("\n--- Rust excerpt ---");
    for line in rust_src
        .lines()
        .skip_while(|l| !l.contains("SA_SCHEDULE_1"))
        .take(8)
    {
        println!("{line}");
    }
}
