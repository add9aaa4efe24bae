//! Early design-space exploration, the paper's motivating use case: decide
//! which platform configuration suits the application *before* committing
//! to implementation. PlaceTool proposes allocations for 2–4 segments; the
//! emulator scores each; the report ranks them.
//!
//! ```text
//! cargo run --release --example placement_exploration
//! ```

use segbus::apps::generators::{random_layered, GeneratorConfig};
use segbus::emu::Engine;
use segbus::model::prelude::*;
use segbus::place::{Objective, PlaceTool};

fn main() {
    // A synthetic 18-process streaming application (seeded, reproducible).
    let app = random_layered(
        6,
        3,
        2026,
        GeneratorConfig {
            items_per_flow: 8 * 36,
            ticks_per_package: 220,
        },
    );
    println!(
        "application '{}': {} processes, {} flows, {} items total\n",
        app.name(),
        app.process_count(),
        app.flows().len(),
        app.total_items()
    );

    let mut engine = Engine::default();
    let mut results: Vec<(usize, u64, f64)> = Vec::new();

    for segments in 2..=4 {
        // PlaceTool: minimise package traffic across the border units.
        let placement = PlaceTool::new(&app, segments)
            .with_objective(Objective::Packages(36))
            .best(7);

        // Score the proposal on a platform with per-segment clocks.
        let mut builder = Platform::builder(format!("explore-{segments}seg"))
            .package_size(36)
            .ca_clock(ClockDomain::from_mhz(111.0));
        for i in 0..segments {
            builder = builder.segment(
                format!("S{}", i + 1),
                ClockDomain::from_mhz(90.0 + 3.0 * i as f64),
            );
        }
        let platform = builder.build().expect("valid platform");
        let psm = Psm::new(platform, app.clone(), placement.allocation.clone())
            .expect("PlaceTool output validates");
        let report = engine.try_run(&psm).expect("PlaceTool output emulates");
        println!(
            "{segments} segments: package cut {:4}, estimated {:.2} us, CA grants {}",
            placement.cost,
            report.execution_time().as_micros_f64(),
            report.ca.grants
        );
        results.push((
            segments,
            placement.cost,
            report.execution_time().as_micros_f64(),
        ));
    }

    let best = results
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one configuration");
    println!(
        "\nrecommended configuration: {} segments ({:.2} us estimated)",
        best.0, best.2
    );
}
