//! The shipped `.sbd` model files under `models/` stay valid, emulable
//! and consistent with the programmatic builders they were generated from.

use segbus::cli;

fn run(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    cli::run(&owned).map_err(|e| e.message)
}

fn model(name: &str) -> String {
    format!("{}/models/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_shipped_model_validates_and_emulates() {
    for name in [
        "mp3_three_segments.sbd",
        "jpeg_encoder.sbd",
        "gsm_encoder.sbd",
        "ring_hub.sbd",
    ] {
        let path = model(name);
        let v = run(&["validate", &path]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(v.contains("OK"), "{name}: {v}");
        let e = run(&["emulate", &path]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(e.contains("Execution time"), "{name}");
    }
}

#[test]
fn shipped_mp3_matches_the_programmatic_model() {
    let text = std::fs::read_to_string(model("mp3_three_segments.sbd")).unwrap();
    let from_file = segbus::dsl::parse_system(&text).unwrap();
    let built = segbus::apps::mp3::three_segment_psm();
    assert_eq!(from_file.application(), built.application());
    assert_eq!(from_file.platform(), built.platform());
    assert_eq!(from_file.allocation(), built.allocation());
}

#[test]
fn ring_hub_uses_the_wrap_unit() {
    let text = std::fs::read_to_string(model("ring_hub.sbd")).unwrap();
    let psm = segbus::dsl::parse_system(&text).unwrap();
    assert_eq!(psm.platform().topology(), segbus::model::Topology::Ring);
    let report = segbus::emu::Engine::default().try_run(&psm).unwrap();
    // The wrap unit (BU41) carries worker W2's return traffic.
    let wrap = report.bu_refs.last().unwrap();
    assert_eq!(wrap.to_string(), "BU41");
    assert!(
        report.bus.last().unwrap().total_in() > 0,
        "wrap unit unused"
    );
}

#[test]
fn cli_accuracy_and_codegen_on_shipped_models() {
    let path = model("gsm_encoder.sbd");
    let acc = run(&["accuracy", &path]).unwrap();
    assert!(acc.contains('%'), "{acc}");
    let vhdl = run(&["codegen", &path]).unwrap();
    assert!(vhdl.contains("entity sa1_scheduler"), "{vhdl}");
}
