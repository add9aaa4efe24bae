//! The complete design flow of the paper's Fig. 3, in one program:
//!
//! 1. author the system in the (textual) DSL;
//! 2. validate it against the platform's structural constraints;
//! 3. run the Model-to-Text transformation to the PSDF and PSM XML schemes;
//! 4. parse the schemes back, the way the emulator's setup phase does;
//! 5. emulate and report.
//!
//! ```text
//! cargo run --example design_flow
//! ```

use segbus::dsl;
use segbus::emu::Engine;
use segbus::xml::{import, m2t, parse};

const SOURCE: &str = r#"
// A stereo effects box: split -> per-channel filter chain -> merge.
application effects {
    cost affine base 40 reference 36;
    process SPLIT initial;
    process EQ_L;
    process EQ_R;
    process REVERB_L;
    process REVERB_R;
    process MERGE final;
    flow SPLIT -> EQ_L     { items 720; order 1; ticks 180; }
    flow SPLIT -> EQ_R     { items 720; order 1; ticks 180; }
    flow EQ_L -> REVERB_L  { items 720; order 2; ticks 240; }
    flow EQ_R -> REVERB_R  { items 720; order 2; ticks 240; }
    flow REVERB_L -> MERGE { items 720; order 3; ticks 150; }
    flow REVERB_R -> MERGE { items 720; order 3; ticks 150; }
}

platform stereo_box {
    package_size 36;
    ca { freq_mhz 111; }
    segment Left  { freq_mhz 95; hosts SPLIT EQ_L REVERB_L; }
    segment Right { freq_mhz 95; hosts MERGE EQ_R REVERB_R; }
}
"#;

fn main() {
    // (1) + (2): parse and validate. A DSL or constraint error would
    // surface here with a line/column position.
    let psm = dsl::parse_system(SOURCE).expect("DSL parses and validates");
    println!(
        "parsed '{}' on '{}' ({} processes, {} flows, {} segments)\n",
        psm.application().name(),
        psm.platform().name(),
        psm.application().process_count(),
        psm.application().flows().len(),
        psm.platform().segment_count()
    );

    // (3) M2T: generate the XML schemes the paper's tool produces.
    let psdf_xml = m2t::export_psdf(psm.application()).to_xml_string();
    let psm_xml = m2t::export_psm(&psm).to_xml_string();
    println!("--- PSDF scheme (excerpt) ---");
    for line in psdf_xml.lines().take(8) {
        println!("{line}");
    }
    println!("...\n");

    // (4) Emulator setup: parse the schemes back into a validated system.
    let psdf_doc = parse(&psdf_xml).expect("generated XML parses");
    let psm_doc = parse(&psm_xml).expect("generated XML parses");
    let system = import::import_system(&psdf_doc, &psm_doc).expect("schemes import");
    assert_eq!(
        system.application(),
        psm.application(),
        "round trip is lossless"
    );

    // (5) Emulate.
    let report = Engine::default()
        .try_run(&system)
        .expect("the imported system is valid");
    println!("--- emulation of the imported system ---");
    println!(
        "estimated execution time: {:.2} us",
        report.execution_time().as_micros_f64()
    );
    println!(
        "inter-segment packages:   {}",
        report.inter_segment_packages()
    );
    println!("communication matrix:\n{}", system.matrix().to_table());
}
