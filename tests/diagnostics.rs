//! Golden tests for the diagnostics contract: exact error codes and
//! source spans for the canonical rejection cases. These pin the `P0xx` /
//! `X0xx` / `M0xx` / `V0xx` taxonomy documented in
//! `segbus_model::diag` — a code change here is a breaking change for
//! anything that matches on codes.

use segbus_model::SegbusError;

fn span_of(e: &SegbusError) -> (u32, u32) {
    let s = e
        .span
        .unwrap_or_else(|| panic!("error {e} must carry a span"));
    (s.line, s.col)
}

// ---------------------------------------------------------------------------
// DSL

const VALID_DSL: &str = "\
application a {
    process A initial;
    process B final;
    flow A -> B { items 72; order 1; ticks 10; }
}
platform p {
    package_size 36;
    ca { freq_mhz 111; }
    segment S1 { freq_mhz 100; hosts A B; }
}";

#[test]
fn valid_baseline_parses() {
    segbus_dsl::parse_system(VALID_DSL).expect("baseline must be valid");
}

#[test]
fn dsl_undefined_flow_target_is_p005_at_the_name() {
    let src = VALID_DSL.replace("flow A -> B", "flow A -> Nope");
    let e = segbus_dsl::parse_system(&src).unwrap_err();
    assert_eq!(e.code, "P005");
    assert_eq!(span_of(&e), (4, 15), "span must point at `Nope`");
    assert!(e.message.contains("Nope"), "{e}");
}

#[test]
fn dsl_duplicate_process_name_is_p006_at_the_redefinition() {
    let src = VALID_DSL.replace("process B final", "process A final");
    let e = segbus_dsl::parse_system(&src).unwrap_err();
    assert_eq!(e.code, "P006");
    assert_eq!(span_of(&e), (3, 13), "span must point at the second `A`");
}

#[test]
fn dsl_zero_frequency_clock_is_p003_at_the_value() {
    let src = VALID_DSL.replace("ca { freq_mhz 111; }", "ca { freq_mhz 0; }");
    let e = segbus_dsl::parse_system(&src).unwrap_err();
    assert_eq!(e.code, "P003");
    assert_eq!(span_of(&e), (8, 19), "span must point at the `0`");
}

#[test]
fn dsl_unallocated_process_is_v003() {
    let src = VALID_DSL.replace("hosts A B", "hosts A");
    let e = segbus_dsl::parse_system(&src).unwrap_err();
    assert_eq!(e.code, "V003");
    assert!(e.message.contains('B'), "{e}");
}

#[test]
fn dsl_out_of_range_literal_is_p003_not_truncation() {
    let src = VALID_DSL.replace("package_size 36", "package_size 4294967297");
    let e = segbus_dsl::parse_system(&src).unwrap_err();
    assert_eq!(e.code, "P003");
    assert_eq!(span_of(&e).0, 7, "span must be on the package_size line");
}

// ---------------------------------------------------------------------------
// XML

fn exported_schemes() -> (String, String) {
    let psm = segbus_dsl::parse_system(VALID_DSL).unwrap();
    (
        segbus_xml::m2t::export_psdf(psm.application()).to_xml_string(),
        segbus_xml::m2t::export_psm(&psm).to_xml_string(),
    )
}

#[test]
fn truncated_xml_is_x001_with_a_span() {
    let (psdf, _) = exported_schemes();
    let cut = &psdf[..psdf.len() / 2];
    let e = segbus_xml::parse(cut).unwrap_err();
    assert_eq!(e.code, "X001");
    let (line, col) = span_of(&e);
    assert!(line >= 1 && col >= 1, "{e}");
}

#[test]
fn undefined_xml_flow_target_is_x002() {
    let (psdf, _) = exported_schemes();
    // The M2T flow naming convention is `<target>_<items>_<order>_<ticks>`;
    // point the flow at a process that does not exist.
    let broken = psdf.replace("B_72_1_10", "Nope_72_1_10");
    assert_ne!(psdf, broken, "fixture must contain the flow element");
    let doc = segbus_xml::parse(&broken).unwrap();
    let e = segbus_xml::import::import_psdf(&doc).unwrap_err();
    assert_eq!(e.code, "X002");
    assert!(e.message.contains("Nope"), "{e}");
}

#[test]
fn zero_period_xml_clock_is_x003() {
    let (psdf, psm) = exported_schemes();
    let mut broken = None;
    // Zero out whichever periodPs attribute the exporter emitted.
    for needle in ["periodPs=\"9009\"", "periodPs=\"10000\""] {
        if psm.contains(needle) {
            broken = Some(psm.replace(needle, "periodPs=\"0\""));
            break;
        }
    }
    let broken = broken.expect("fixture must contain a known periodPs");
    let pd = segbus_xml::parse(&psdf).unwrap();
    let pm = segbus_xml::parse(&broken).unwrap();
    let e = segbus_xml::import::import_system(&pd, &pm).unwrap_err();
    assert_eq!(e.code, "X003");
    assert!(e.message.contains("periodPs"), "{e}");
}

// ---------------------------------------------------------------------------
// model / engine pre-flight

#[test]
fn display_format_is_stable() {
    let e = SegbusError::new("P003", "integer literal out of range").with_span(3, 14);
    assert_eq!(
        e.to_string(),
        "error[P003] at 3:14: integer literal out of range"
    );
    let e = SegbusError::new("C001", "frame count must be non-zero");
    assert_eq!(e.to_string(), "error[C001]: frame count must be non-zero");
}

#[test]
fn engine_preflight_rejects_zero_frames_as_c001() {
    let psm = segbus_dsl::parse_system(VALID_DSL).unwrap();
    let e = segbus_core::Engine::default()
        .try_run_frames(&psm, 0)
        .unwrap_err();
    assert_eq!(e.code, "C001");
}

#[test]
fn engine_preflight_bounds_absurd_frame_counts_as_c008() {
    let psm = segbus_dsl::parse_system(VALID_DSL).unwrap();
    let e = segbus_core::Engine::default()
        .try_run_frames(&psm, u64::MAX)
        .unwrap_err();
    assert_eq!(e.code, "C008");
}
