//! The experiment implementations (see the crate docs for the index).
//!
//! Paper reference values are kept next to the code that reproduces them so
//! EXPERIMENTS.md and the binaries can print paper-vs-measured columns.

use segbus_apps::mp3;
use segbus_core::config::ProducerRelease;
use segbus_core::{EmulationReport, EmulatorConfig, Engine};
use segbus_model::ids::ProcessId;
use segbus_model::mapping::Psm;
use segbus_model::matrix::CommMatrix;
use segbus_model::psdf::CostModel;
use segbus_model::time::Picos;
use segbus_place::{Objective, PlaceTool};
use segbus_rtl::RtlSimulator;

use crate::table::Table;

/// Paper §4: estimated execution times (µs) for the three experiments.
pub const PAPER_ESTIMATED_US: [f64; 3] = [489.79, 560.16, 540.4];
/// Paper §4: actual (real platform) execution times (µs).
pub const PAPER_ACTUAL_US: [f64; 3] = [515.2, 600.02, 570.12];

/// Estimate `frames` frames of a model an experiment builds valid.
fn estimate_with(config: EmulatorConfig, psm: &Psm, frames: u64) -> EmulationReport {
    Engine::new(config)
        .try_run_frames(psm, frames)
        .expect("experiment models are valid")
}

/// Estimate one frame of a valid model under the default configuration.
fn estimate(psm: &Psm) -> EmulationReport {
    estimate_with(EmulatorConfig::default(), psm, 1)
}

/// E1 / Fig. 8 — the communication matrix of the MP3 decoder.
pub fn fig8_matrix() -> CommMatrix {
    CommMatrix::from_application(&mp3::mp3_decoder())
}

/// E2 — the full 3-segment emulation print-out, paper style.
pub fn threeseg_report() -> EmulationReport {
    estimate_with(EmulatorConfig::traced(), &mp3::three_segment_psm(), 1)
}

/// E3 / Fig. 10 — `(process, start µs, end µs)` timeline rows.
pub fn fig10_timeline() -> Table {
    let report = threeseg_report();
    let mut t = Table::new(["process", "start_us", "end_us"]);
    for (p, start, end) in report.timeline() {
        t.row([
            p.to_string(),
            format!("{:.3}", start.as_micros_f64()),
            format!("{:.3}", end.as_micros_f64()),
        ]);
    }
    t
}

/// E4 / Fig. 11 — per-element activity (busy ticks and TCT) at package
/// sizes 18 and 36.
pub fn fig11_activity() -> Table {
    let r36 = estimate(&mp3::three_segment_psm());
    let r18 = estimate(
        &mp3::three_segment_psm()
            .with_package_size(18)
            .expect("valid size"),
    );
    let mut t = Table::new([
        "element",
        "busy_ticks_s18",
        "busy_ticks_s36",
        "tct_s18",
        "tct_s36",
    ]);
    for i in 0..r36.sas.len() {
        t.row([
            format!("SA{}", i + 1),
            r18.sas[i].busy_ticks.to_string(),
            r36.sas[i].busy_ticks.to_string(),
            r18.sas[i].tct.to_string(),
            r36.sas[i].tct.to_string(),
        ]);
    }
    t.row([
        "CA".to_string(),
        r18.ca.busy_ticks.to_string(),
        r36.ca.busy_ticks.to_string(),
        r18.ca.tct.to_string(),
        r36.ca.tct.to_string(),
    ]);
    for i in 0..r36.bus.len() {
        t.row([
            format!("BU{}{}", i + 1, i + 2),
            r18.bus[i].tct.to_string(),
            r36.bus[i].tct.to_string(),
            r18.bus[i].tct.to_string(),
            r36.bus[i].tct.to_string(),
        ]);
    }
    t
}

/// One row of the accuracy experiment.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Configuration label.
    pub config: &'static str,
    /// Estimated execution time (µs) from the emulator.
    pub estimated_us: f64,
    /// "Actual" execution time (µs) from the reference simulator.
    pub actual_us: f64,
    /// `estimated / actual`.
    pub accuracy: f64,
    /// The paper's estimated value (µs).
    pub paper_estimated_us: f64,
    /// The paper's actual value (µs).
    pub paper_actual_us: f64,
}

impl AccuracyRow {
    /// The paper's accuracy for this configuration.
    pub fn paper_accuracy(&self) -> f64 {
        self.paper_estimated_us / self.paper_actual_us
    }
}

/// E5 — estimated vs actual for the paper's three experiments.
pub fn accuracy_rows() -> Vec<AccuracyRow> {
    let configs: [(&'static str, Psm); 3] = [
        ("3seg s=36 (Fig. 9)", mp3::three_segment_psm()),
        (
            "3seg s=18",
            mp3::three_segment_psm()
                .with_package_size(18)
                .expect("valid"),
        ),
        ("3seg s=36 P9 on seg3", mp3::three_segment_p9_moved_psm()),
    ];
    configs
        .into_iter()
        .enumerate()
        .map(|(i, (config, psm))| {
            let est = estimate(&psm).execution_time();
            let act = RtlSimulator::default()
                .run(&psm)
                .expect("reference run completes")
                .execution_time();
            AccuracyRow {
                config,
                estimated_us: est.as_micros_f64(),
                actual_us: act.as_micros_f64(),
                accuracy: est.0 as f64 / act.0 as f64,
                paper_estimated_us: PAPER_ESTIMATED_US[i],
                paper_actual_us: PAPER_ACTUAL_US[i],
            }
        })
        .collect()
}

/// Render [`accuracy_rows`] with paper-vs-measured columns.
pub fn accuracy_table() -> Table {
    let mut t = Table::new([
        "config",
        "est_us",
        "act_us",
        "accuracy",
        "paper_est_us",
        "paper_act_us",
        "paper_accuracy",
    ]);
    for r in accuracy_rows() {
        t.row([
            r.config.to_string(),
            format!("{:.2}", r.estimated_us),
            format!("{:.2}", r.actual_us),
            format!("{:.1}%", r.accuracy * 100.0),
            format!("{:.2}", r.paper_estimated_us),
            format!("{:.2}", r.paper_actual_us),
            format!("{:.1}%", r.paper_accuracy() * 100.0),
        ]);
    }
    t
}

/// E6 — BU bottleneck analysis: `(BU, UP, TCT, W̄P)` per border unit.
/// Paper values at s = 36: UP12 = 2304, TCT12 = 2336, W̄P ≈ 1;
/// UP23 = 144, TCT23 = 146.
pub fn bu_utilisation() -> Table {
    let report = threeseg_report();
    let mut t = Table::new(["bu", "UP_ticks", "TCT_ticks", "avg_WP_ticks"]);
    for (bu, up, tct, wp) in report.bu_analysis() {
        t.row([
            bu.to_string(),
            up.to_string(),
            tct.to_string(),
            format!("{wp:.2}"),
        ]);
    }
    t
}

/// E7 — the Fig. 9 configurations compared (the paper defines all three
/// but prints only the 3-segment results).
pub fn segment_comparison() -> Table {
    let configs = [
        ("1 segment", mp3::one_segment_psm()),
        ("2 segments", mp3::two_segment_psm()),
        ("3 segments", mp3::three_segment_psm()),
    ];
    let mut t = Table::new(["config", "est_us", "inter_seg_packages", "ca_grants"]);
    for (name, psm) in configs {
        let r = estimate(&psm);
        t.row([
            name.to_string(),
            format!("{:.2}", r.execution_time().as_micros_f64()),
            r.inter_segment_packages().to_string(),
            r.ca.grants.to_string(),
        ]);
    }
    t
}

/// A1 — placement quality: the Fig. 9 hand allocation vs PlaceTool
/// (composed heuristics and the Kernighan–Lin bipartitioner collapsed to
/// three segments is not meaningful, so KL is reported on the two-segment
/// platform in `placement_two_segments`) and naive baselines.
pub fn placement_comparison() -> Table {
    let app = mp3::mp3_decoder();
    let tool = PlaceTool::new(&app, 3).with_objective(Objective::Packages(36));

    let hand = mp3::three_segment_allocation();
    let rr = segbus_apps::generators::round_robin_allocation(&app, 3);
    let block = segbus_apps::generators::block_allocation(&app, 3);
    let best = tool.best(42).allocation;

    let platform = segbus_model::platform::paper_three_segment_platform();
    let mut t = Table::new(["allocation", "package_cut", "est_us"]);
    for (name, alloc) in [
        ("Fig. 9 (hand)", hand),
        ("PlaceTool best", best),
        ("block", block),
        ("round-robin", rr),
    ] {
        let cut = alloc.package_cut(&app, 36);
        let psm = Psm::new(platform.clone(), app.clone(), alloc).expect("valid");
        let r = estimate(&psm);
        t.row([
            name.to_string(),
            cut.to_string(),
            format!("{:.2}", r.execution_time().as_micros_f64()),
        ]);
    }
    t
}

/// A1b — two-segment placement: the paper's Fig. 9 hand bipartition vs
/// Kernighan–Lin vs the composed PlaceTool solver.
pub fn placement_two_segments() -> Table {
    let app = mp3::mp3_decoder();
    let tool = PlaceTool::new(&app, 2).with_objective(Objective::Packages(36));
    let platform = segbus_model::platform::Platform::builder("SBP-2seg")
        .package_size(36)
        .ca_clock(segbus_model::time::ClockDomain::from_mhz(111.0))
        .segment("Segment1", segbus_model::time::ClockDomain::from_mhz(91.0))
        .segment("Segment2", segbus_model::time::ClockDomain::from_mhz(98.0))
        .build()
        .expect("valid");
    let hand = mp3::two_segment_psm().allocation().clone();
    let kl = segbus_place::kernighan_lin(&app, Objective::Packages(36), 8).allocation;
    let best = tool.best(7).allocation;
    let mut t = Table::new(["allocation", "package_cut", "est_us"]);
    for (name, alloc) in [
        ("Fig. 9 (hand)", hand),
        ("Kernighan-Lin", kl),
        ("PlaceTool best", best),
    ] {
        let cut = alloc.package_cut(&app, 36);
        let psm = Psm::new(platform.clone(), app.clone(), alloc).expect("valid");
        let r = estimate(&psm);
        t.row([
            name.to_string(),
            cut.to_string(),
            format!("{:.2}", r.execution_time().as_micros_f64()),
        ]);
    }
    t
}

/// A2 — package-size sweep on the 3-segment configuration.
pub fn package_size_sweep(sizes: &[u32]) -> Table {
    let mut t = Table::new(["package_size", "est_us", "packages", "bu12_tct"]);
    let psms: Vec<Psm> = sizes
        .iter()
        .map(|&s| {
            mp3::three_segment_psm()
                .with_package_size(s)
                .expect("valid")
        })
        .collect();
    let reports = segbus_core::SweepPool::new(EmulatorConfig::default()).sweep(&psms);
    for ((&s, psm), r) in sizes.iter().zip(&psms).zip(reports) {
        let r = r.expect("experiment models are valid");
        t.row([
            s.to_string(),
            format!("{:.2}", r.execution_time().as_micros_f64()),
            psm.application().total_packages(s).to_string(),
            r.bus[0].tct.to_string(),
        ]);
    }
    t
}

/// The default sweep sizes (divisors of the MP3 item counts where
/// possible; 72 and 144 pad the 540-item flows).
pub const SWEEP_SIZES: [u32; 7] = [6, 9, 12, 18, 36, 72, 144];

/// A3 — cost-model ablation at package sizes 18 and 36.
pub fn cost_model_ablation() -> Table {
    let models: [(&str, CostModel); 3] = [
        ("per_item(36)", CostModel::per_item(36).unwrap()),
        ("per_package", CostModel::PerPackage),
        ("affine(base=40;ref=36)", CostModel::affine(40, 36).unwrap()),
    ];
    let mut t = Table::new(["cost_model", "est_us_s36", "est_us_s18", "ratio"]);
    for (name, cm) in models {
        let mut app = mp3::mp3_decoder();
        app.set_cost_model(cm);
        let platform = segbus_model::platform::paper_three_segment_platform();
        let alloc = mp3::three_segment_allocation();
        let p36 = Psm::new(platform.clone(), app.clone(), alloc.clone()).expect("valid");
        let p18 = p36.with_package_size(18).expect("valid");
        let t36 = estimate(&p36).execution_time().as_micros_f64();
        let t18 = estimate(&p18).execution_time().as_micros_f64();
        t.row([
            name.to_string(),
            format!("{t36:.2}"),
            format!("{t18:.2}"),
            format!("{:.3}", t18 / t36),
        ]);
    }
    t
}

/// A5 — clock-frequency sensitivity: scale every segment clock by a factor
/// while the CA stays at 111 MHz.
pub fn clock_sensitivity(factors: &[f64]) -> Table {
    let mut t = Table::new(["segment_clock_factor", "est_us"]);
    let psms: Vec<Psm> = factors
        .iter()
        .map(|&f| {
            let platform = segbus_model::platform::Platform::builder("scaled")
                .package_size(36)
                .ca_clock(segbus_model::time::ClockDomain::from_mhz(111.0))
                .segment("S1", segbus_model::time::ClockDomain::from_mhz(91.0 * f))
                .segment("S2", segbus_model::time::ClockDomain::from_mhz(98.0 * f))
                .segment("S3", segbus_model::time::ClockDomain::from_mhz(89.0 * f))
                .build()
                .expect("valid");
            Psm::new(
                platform,
                mp3::mp3_decoder(),
                mp3::three_segment_allocation(),
            )
            .expect("valid")
        })
        .collect();
    let reports = segbus_core::SweepPool::new(EmulatorConfig::default()).sweep(&psms);
    for (&f, r) in factors.iter().zip(reports) {
        let r = r.expect("experiment models are valid");
        t.row([
            format!("{f:.2}"),
            format!("{:.2}", r.execution_time().as_micros_f64()),
        ]);
    }
    t
}

/// A6 — producer flow-control ablation: send-and-wait-acknowledge
/// (default) vs fire-and-forget.
pub fn release_policy_ablation() -> Table {
    let configs = [
        ("3seg s=36", mp3::three_segment_psm()),
        ("3seg P9 on seg3", mp3::three_segment_p9_moved_psm()),
    ];
    let mut t = Table::new(["config", "after_delivery_us", "after_local_us", "speedup"]);
    for (name, psm) in configs {
        let release = |producer_release| {
            let config = EmulatorConfig {
                producer_release,
                ..EmulatorConfig::default()
            };
            estimate_with(config, &psm, 1).execution_time()
        };
        let slow = release(ProducerRelease::AfterDelivery);
        let fast = release(ProducerRelease::AfterLocalPhase);
        t.row([
            name.to_string(),
            format!("{:.2}", slow.as_micros_f64()),
            format!("{:.2}", fast.as_micros_f64()),
            format!("{:.3}", slow.0 as f64 / fast.0 as f64),
        ]);
    }
    t
}

/// A7 — the application library (future work: "more application models"):
/// every library app on 1–3 segments, with estimator-vs-reference accuracy.
pub fn application_library() -> Table {
    let mut t = Table::new(["application", "segments", "est_us", "act_us", "accuracy"]);
    for app in [
        segbus_apps::mp3::mp3_decoder(),
        segbus_apps::library::jpeg_encoder(),
        segbus_apps::library::gsm_encoder(),
        segbus_apps::library::sdr_receiver(),
        segbus_apps::library::video_encoder(),
    ] {
        for segments in 1..=3usize {
            let psm = segbus_apps::library::on_paper_platform(app.clone(), segments);
            let est = estimate(&psm).execution_time();
            let act = RtlSimulator::default()
                .run(&psm)
                .expect("reference run completes")
                .execution_time();
            t.row([
                app.name().to_string(),
                segments.to_string(),
                format!("{:.2}", est.as_micros_f64()),
                format!("{:.2}", act.as_micros_f64()),
                format!("{:.1}%", 100.0 * est.0 as f64 / act.0 as f64),
            ]);
        }
    }
    t
}

/// A8 — energy attribution per configuration (the paper's conclusion:
/// early configuration decisions "improve power consumption up to some
/// extent"). Synthetic per-tick weights; comparisons, not absolutes.
pub fn energy_comparison() -> Table {
    use segbus_core::{estimate_energy, EnergyModel};
    let model = EnergyModel::default();
    let configs = [
        ("1 segment", mp3::one_segment_psm()),
        ("2 segments", mp3::two_segment_psm()),
        ("3 segments", mp3::three_segment_psm()),
        (
            "3 seg s=18",
            mp3::three_segment_psm()
                .with_package_size(18)
                .expect("valid"),
        ),
        ("3 seg P9 moved", mp3::three_segment_p9_moved_psm()),
    ];
    let mut t = Table::new(["config", "total_uj", "compute_uj", "comm_fraction"]);
    for (name, psm) in configs {
        let r = estimate(&psm);
        let e = estimate_energy(&r, &model);
        let compute: f64 = e.fu_pj.iter().sum::<f64>() / 1e6;
        t.row([
            name.to_string(),
            format!("{:.2}", e.total_uj()),
            format!("{compute:.2}"),
            format!("{:.1}%", e.communication_fraction() * 100.0),
        ]);
    }
    t
}

/// A9 — topology extension: linear vs ring on a hub-and-spokes workload
/// (source and sink on segment 1, workers spread over the others). The
/// ring's wrap-around unit turns the two long return paths into single
/// hops.
pub fn topology_comparison() -> Table {
    use segbus_apps::generators::{diamond, GeneratorConfig};
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;

    let mut t = Table::new(["workers", "linear_us", "ring_us", "ring_speedup"]);
    for workers in [3usize, 5, 7] {
        let segments = workers + 1;
        let app = diamond(
            workers,
            GeneratorConfig {
                items_per_flow: 4 * 36,
                ticks_per_package: 150,
            },
        );
        // SRC (id 0) and SINK (last id) on segment 0; worker i on segment i+1.
        let mut alloc = Allocation::new(segments);
        alloc.assign(ProcessId(0), SegmentId(0));
        alloc.assign(ProcessId(app.process_count() as u32 - 1), SegmentId(0));
        for w in 0..workers {
            alloc.assign(ProcessId(w as u32 + 1), SegmentId(w as u16 + 1));
        }
        let linear = Psm::new(
            segbus_apps::generators::uniform_platform(segments, 36),
            app.clone(),
            alloc.clone(),
        )
        .expect("valid");
        let ring = Psm::new(
            segbus_apps::generators::ring_platform(segments, 36),
            app,
            alloc,
        )
        .expect("valid");
        let tl = estimate(&linear).execution_time();
        let tr = estimate(&ring).execution_time();
        t.row([
            workers.to_string(),
            format!("{:.2}", tl.as_micros_f64()),
            format!("{:.2}", tr.as_micros_f64()),
            format!("{:.3}", tl.0 as f64 / tr.0 as f64),
        ]);
    }
    t
}

/// A11 — SA arbitration-policy ablation on a contended segment: three
/// producers flood one sink; the policy decides who finishes first.
pub fn arbitration_comparison() -> Table {
    use segbus_core::config::ArbitrationPolicy;
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;
    use segbus_model::psdf::{Application, Flow, Process};

    let mut app = Application::new("contended");
    let producers: Vec<ProcessId> = (0..3)
        .map(|i| app.add_process(Process::initial(format!("A{i}"))))
        .collect();
    let sink = app.add_process(Process::final_("SINK"));
    for &p in &producers {
        app.add_flow(Flow::new(p, sink, 8 * 36, 1, 10))
            .expect("valid");
    }
    let mut alloc = Allocation::new(1);
    for p in producers.iter().chain(std::iter::once(&sink)) {
        alloc.assign(*p, SegmentId(0));
    }
    let psm =
        Psm::new(segbus_apps::generators::uniform_platform(1, 36), app, alloc).expect("valid");

    let mut t = Table::new([
        "policy",
        "makespan_us",
        "a0_end_us",
        "a2_end_us",
        "finish_spread_us",
    ]);
    for (name, policy) in [
        ("fifo", ArbitrationPolicy::Fifo),
        ("fixed_priority", ArbitrationPolicy::FixedPriority),
        ("fair_round_robin", ArbitrationPolicy::FairRoundRobin),
    ] {
        let cfg = EmulatorConfig {
            arbitration: policy,
            ..EmulatorConfig::default()
        };
        let r = estimate_with(cfg, &psm, 1);
        let ends: Vec<f64> = (0..3)
            .map(|i| r.fus[i].end.expect("producers ran").as_micros_f64())
            .collect();
        let spread = ends.iter().cloned().fold(f64::MIN, f64::max)
            - ends.iter().cloned().fold(f64::MAX, f64::min);
        t.row([
            name.to_string(),
            format!("{:.2}", r.execution_time().as_micros_f64()),
            format!("{:.2}", ends[0]),
            format!("{:.2}", ends[2]),
            format!("{spread:.2}"),
        ]);
    }
    t
}

/// A12 — streaming extension: pipelined multi-frame execution. The paper
/// emulates one decoded frame; `Engine::try_run_frames` streams `N` frames
/// through the wave schedule and measures throughput.
pub fn streaming_throughput() -> Table {
    let mut t = Table::new([
        "application",
        "frames",
        "makespan_us",
        "us_per_frame",
        "pipelining_speedup",
    ]);
    for (name, psm) in [
        ("mp3-3seg", mp3::three_segment_psm()),
        (
            "jpeg-3seg",
            segbus_apps::library::on_paper_platform(segbus_apps::library::jpeg_encoder(), 3),
        ),
    ] {
        let t1 = estimate(&psm).makespan.0 as f64;
        for frames in [1u64, 2, 4, 8, 16] {
            let tn = estimate_with(EmulatorConfig::default(), &psm, frames)
                .makespan
                .0 as f64;
            t.row([
                name.to_string(),
                frames.to_string(),
                format!("{:.2}", tn / 1e6),
                format!("{:.2}", tn / frames as f64 / 1e6),
                format!("{:.2}", frames as f64 * t1 / tn),
            ]);
        }
    }
    t
}

/// E2 paper-vs-measured side-by-side: every counter of the §4 print-out
/// with the paper's printed value, the measured value, and the status
/// (exact / approximate with the documented cause).
pub fn e2_comparison() -> Table {
    let r = threeseg_report();
    let mut t = Table::new(["counter", "paper", "measured", "status"]);
    let mut row = |name: &str, paper: u64, measured: u64, exact_expected: bool| {
        let status = if paper == measured {
            "exact"
        } else if exact_expected {
            "MISMATCH"
        } else {
            "approx (unpublished per-flow costs)"
        };
        t.row([
            name.to_string(),
            paper.to_string(),
            measured.to_string(),
            status.to_string(),
        ]);
    };
    // Fully determined by Fig. 8 × Fig. 9 — must be exact.
    row("BU12 packages in", 32, r.bus[0].total_in(), true);
    row("BU12 packages out", 32, r.bus[0].total_out(), true);
    row("BU23 packages in", 2, r.bus[1].total_in(), true);
    row("BU23 packages out", 2, r.bus[1].total_out(), true);
    row(
        "Segment1 packets to right",
        32,
        r.sas[0].packets_to_right,
        true,
    );
    row(
        "Segment2 packets to left",
        0,
        r.sas[1].packets_to_left,
        true,
    );
    row(
        "Segment3 packets to left",
        1,
        r.sas[2].packets_to_left,
        true,
    );
    row(
        "SA1 inter-segment requests",
        32,
        r.sas[0].inter_requests,
        true,
    );
    row(
        "SA2 inter-segment requests",
        0,
        r.sas[1].inter_requests,
        true,
    );
    row(
        "SA3 inter-segment requests",
        1,
        r.sas[2].inter_requests,
        true,
    );
    row("BU12 TCT", 2336, r.bus[0].tct, true);
    row("BU23 TCT", 146, r.bus[1].tct, true);
    // Depend on the 19 unpublished per-flow costs — approximate.
    row("SA1 TCT", 34_764, r.sas[0].tct, false);
    row("SA2 TCT", 46_031, r.sas[1].tct, false);
    row("SA3 TCT", 35_884, r.sas[2].tct, false);
    row("CA TCT", 54_367, r.ca.tct, false);
    row(
        "SA1 intra-segment requests",
        124,
        r.sas[0].intra_requests,
        false,
    );
    row(
        "SA2 intra-segment requests",
        137,
        r.sas[1].intra_requests,
        false,
    );
    row(
        "Execution time (ps)",
        489_792_303,
        r.execution_time().0,
        false,
    );
    t
}

/// Helper for the E2 binary: start/end instants of the paper's named
/// processes (P0, P8, P7, P14).
pub fn e2_highlights(report: &segbus_core::EmulationReport) -> Vec<(String, Picos, Picos)> {
    [0u32, 8, 7]
        .into_iter()
        .map(|i| {
            let fu = report.fu(ProcessId(i));
            (
                format!("P{i}"),
                fu.start.unwrap_or(Picos::ZERO),
                fu.end.unwrap_or(Picos::ZERO),
            )
        })
        .chain(std::iter::once({
            let fu = report.fu(ProcessId(14));
            (
                "P14 (last package received)".to_string(),
                fu.last_received.unwrap_or(Picos::ZERO),
                fu.last_received.unwrap_or(Picos::ZERO),
            )
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_matches_paper_cells() {
        let m = fig8_matrix();
        assert_eq!(m.items(ProcessId(0), ProcessId(1)), 576);
        assert_eq!(m.items(ProcessId(3), ProcessId(11)), 540);
        assert_eq!(m.items(ProcessId(10), ProcessId(11)), 36);
        assert_eq!(m.items(ProcessId(14), ProcessId(0)), 0);
    }

    #[test]
    fn fig10_has_all_active_processes() {
        let t = fig10_timeline();
        // All 15 processes appear (14 producers + the sink).
        assert_eq!(t.len(), 15);
        assert!(t.to_csv().contains("P14"));
    }

    #[test]
    fn fig11_covers_every_element() {
        let t = fig11_activity();
        assert_eq!(t.len(), 3 + 1 + 2); // SAs + CA + BUs
        let csv = t.to_csv();
        assert!(csv.contains("SA1") && csv.contains("CA") && csv.contains("BU23"));
    }

    #[test]
    fn accuracy_rows_reproduce_paper_shape() {
        let rows = accuracy_rows();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.accuracy > 0.85 && r.accuracy < 1.0,
                "{}: {}",
                r.config,
                r.accuracy
            );
        }
        // Smaller packages hurt accuracy (93 % vs 95 % in the paper).
        assert!(rows[1].accuracy < rows[0].accuracy);
        // Both engines slow down when P9 moves.
        assert!(rows[2].estimated_us > rows[0].estimated_us);
        assert!(rows[2].actual_us > rows[0].actual_us);
    }

    #[test]
    fn bu_utilisation_matches_paper_identities() {
        let t = bu_utilisation();
        let csv = t.to_csv();
        // UP12 = 2304 and UP23 = 144 exactly as in the paper.
        assert!(csv.contains("BU12,2304,"), "{csv}");
        assert!(csv.contains("BU23,144,"), "{csv}");
    }

    #[test]
    fn placement_tool_beats_naive_baselines() {
        let t = placement_comparison();
        let csv = t.to_csv();
        let cut = |name: &str| -> u64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(cut("PlaceTool best") <= cut("round-robin"));
        assert!(cut("PlaceTool best") <= cut("Fig. 9 (hand)"));
    }

    #[test]
    fn two_segment_placement_beats_or_ties_hand() {
        let csv = placement_two_segments().to_csv();
        let cut = |name: &str| -> u64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(cut("PlaceTool best") <= cut("Fig. 9 (hand)"));
        // KL is balance-constrained (8/7) yet matches the paper's
        // hand-tuned 9/6 bipartition quality.
        assert!(cut("Kernighan-Lin") <= cut("Fig. 9 (hand)"));
    }

    #[test]
    fn sweep_runs_all_sizes() {
        let t = package_size_sweep(&SWEEP_SIZES);
        assert_eq!(t.len(), SWEEP_SIZES.len());
    }

    #[test]
    fn cost_models_order_as_designed() {
        let csv = cost_model_ablation().to_csv();
        let ratio = |name: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .rsplit(',')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        // per-item: nearly invariant; affine: the paper's ~1.14;
        // per-package: compute doubles.
        assert!(ratio("per_item(36)") < ratio("affine(base=40;ref=36)"));
        assert!(ratio("affine(base=40;ref=36)") < ratio("per_package"));
        assert!(ratio("per_package") > 1.5);
    }

    #[test]
    fn faster_clocks_shorten_execution() {
        let t = clock_sensitivity(&[0.5, 1.0, 2.0]);
        let csv = t.to_csv();
        let us: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(us[0] > us[1] && us[1] > us[2], "{us:?}");
    }

    #[test]
    fn e2_comparison_has_no_mismatch_on_determined_counters() {
        let csv = e2_comparison().to_csv();
        assert!(!csv.contains("MISMATCH"), "{csv}");
        // 12 exact rows + 7 approximate ones.
        assert_eq!(csv.matches(",exact").count(), 12, "{csv}");
    }

    #[test]
    fn streaming_speedup_grows_with_frames() {
        let csv = streaming_throughput().to_csv();
        let speedups: Vec<f64> = csv
            .lines()
            .skip(1)
            .filter(|l| l.starts_with("mp3"))
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(speedups.len(), 5);
        assert!((speedups[0] - 1.0).abs() < 1e-9, "1 frame = no pipelining");
        assert!(speedups[4] > speedups[1], "{speedups:?}");
    }

    #[test]
    fn arbitration_policies_differ_in_fairness() {
        let csv = arbitration_comparison().to_csv();
        let spread = |name: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .rsplit(',')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(spread("fair_round_robin") <= spread("fixed_priority"));
    }

    #[test]
    fn ring_beats_linear_on_hub_workloads() {
        let csv = topology_comparison().to_csv();
        for line in csv.lines().skip(1) {
            let speedup: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(speedup > 1.0, "{line}");
        }
    }

    #[test]
    fn energy_comparison_shapes() {
        let csv = energy_comparison().to_csv();
        let total = |name: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        // Smaller packages and the P9 move both cost energy.
        assert!(total("3 seg s=18") > total("3 segments"));
        assert!(total("3 seg P9 moved") > total("3 segments"));
    }

    #[test]
    fn library_accuracy_band_holds_everywhere() {
        let csv = application_library().to_csv();
        assert_eq!(csv.lines().count(), 1 + 15); // 5 apps × 3 segment counts
        for line in csv.lines().skip(1) {
            let acc: f64 = line
                .rsplit(',')
                .next()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!((80.0..100.0).contains(&acc), "{line}");
        }
    }

    #[test]
    fn flow_control_costs_time() {
        let csv = release_policy_ablation().to_csv();
        for line in csv.lines().skip(1) {
            let speedup: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(speedup >= 1.0, "{line}");
        }
    }
}
