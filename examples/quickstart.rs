//! Quickstart: model a tiny application, map it onto a two-segment SegBus
//! platform and estimate its performance.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use segbus::emu::{EmulatorConfig, Engine};
use segbus::model::prelude::*;

fn main() {
    // 1. The application (PSDF): a three-stage pipeline. Each flow is the
    //    paper's tuple (target, items, order, ticks-per-package).
    let mut app = Application::new("quickstart");
    let producer = app.add_process(Process::initial("PRODUCER"));
    let filter = app.add_process(Process::new("FILTER"));
    let sink = app.add_process(Process::final_("SINK"));
    app.add_flow(Flow::new(producer, filter, 10 * 36, 1, 200))
        .expect("valid flow");
    app.add_flow(Flow::new(filter, sink, 10 * 36, 2, 120))
        .expect("valid flow");

    // 2. The platform: two segments with their own clocks, a central
    //    arbiter, 36-item packages.
    let platform = Platform::builder("demo-platform")
        .package_size(36)
        .ca_clock(ClockDomain::from_mhz(111.0))
        .segment("Segment1", ClockDomain::from_mhz(91.0))
        .segment("Segment2", ClockDomain::from_mhz(98.0))
        .build()
        .expect("valid platform");

    // 3. The mapping: producer+filter on segment 1, sink on segment 2.
    let mut alloc = Allocation::new(platform.segment_count());
    alloc.assign(producer, SegmentId(0));
    alloc.assign(filter, SegmentId(0));
    alloc.assign(sink, SegmentId(1));

    // 4. Validate everything into a PSM and emulate.
    let psm = Psm::new(platform, app, alloc).expect("model validates");
    let report = Engine::new(EmulatorConfig::traced())
        .try_run(&psm)
        .expect("the model is valid");

    println!("=== quickstart emulation ===");
    println!(
        "estimated execution time: {:.2} us",
        report.execution_time().as_micros_f64()
    );
    println!("packages crossing BU12:   {}", report.bus[0].total_in());
    println!(
        "SA1: {} intra-segment requests, {} inter-segment requests",
        report.sas[0].intra_requests, report.sas[0].inter_requests
    );
    println!();
    println!("{}", report.paper_style());
}
