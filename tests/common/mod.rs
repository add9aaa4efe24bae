//! Helpers shared by the workspace integration tests. Each test binary
//! uses a subset of them.
#![allow(dead_code)]

use segbus_core::{EmulationReport, EmulatorConfig, Engine};
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
