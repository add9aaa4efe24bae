//! Helpers shared by the integration tests. Each test binary uses a
//! subset of them.
#![allow(dead_code)]

use segbus_core::{EmulationReport, EmulatorConfig, Engine, EnginePlan, ReferenceEmulator};
use segbus_model::mapping::Psm;

/// [`Engine::try_run_frames`] on a model the test builds valid.
pub fn estimate(config: EmulatorConfig, psm: &Psm, frames: u64) -> EmulationReport {
    Engine::new(config)
        .try_run_frames(psm, frames)
        .expect("test models are valid")
}

/// One default-configuration frame of a valid model.
pub fn run(psm: &Psm) -> EmulationReport {
    estimate(EmulatorConfig::default(), psm, 1)
}

/// [`ReferenceEmulator::try_run_frames`] on a valid model.
pub fn reference(config: EmulatorConfig, psm: &Psm, frames: u64) -> EmulationReport {
    ReferenceEmulator::new(config)
        .try_run_frames(psm, frames)
        .expect("test models are valid")
}

/// [`Engine::run_plan_into`] a fresh report.
pub fn run_plan(engine: &mut Engine, plan: &EnginePlan, frames: u64) -> EmulationReport {
    let mut out = EmulationReport::empty();
    engine.run_plan_into(plan, frames, &mut out);
    out
}

/// The committed corpus scenarios as (`family/file.sbd`, parsed PSM),
/// sorted by path.
pub fn corpus() -> Vec<(String, Psm)> {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus"));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .expect("corpus/ directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            p.is_dir().then_some(p)
        })
        .flat_map(|dir| {
            std::fs::read_dir(dir)
                .expect("corpus family dir")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd").then_some(p)
                })
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 15, "the corpus has fifteen scenarios");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
            let rel = p.strip_prefix(root).expect("corpus path");
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (parts.join("/"), psm)
        })
        .collect()
}
