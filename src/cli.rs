//! Implementation of the `segbus` command-line tool.
//!
//! Subcommands mirror the design flow of the paper's Fig. 3:
//!
//! ```text
//! segbus validate  <model.sbd>              check DSL + structural constraints
//! segbus matrix    <model.sbd>              print the communication matrix
//! segbus emulate   <model.sbd> [--trace] [--package-size N] [--detailed]
//! segbus reference <model.sbd>              run the cycle-accurate reference
//! segbus accuracy  <model.sbd>              estimated vs actual
//! segbus export    <model.sbd> <out-dir>    M2T: write psdf.xml + psm.xml
//! segbus import    <psdf.xml> <psm.xml>     import schemes, emulate
//! segbus place     <model.sbd> --segments N re-place with PlaceTool
//! segbus sweep     <model.sbd> --sizes a,b  package-size sweep
//! ```
//!
//! All functions return their report as a `String` so the test-suite can
//! assert on outputs without spawning processes.

use std::fmt::Write as _;
use std::path::Path;

use segbus_core::{BatchJob, CachedPool, Emulator, EmulatorConfig, SweepPool};
use segbus_dsl as dsl;
use segbus_model::mapping::Psm;
use segbus_model::validate::{validate, Severity};
use segbus_place::{Objective, PlaceTool, Portfolio};
use segbus_rtl::RtlSimulator;
use segbus_serve::{ServeOptions, Server};
use segbus_xml::{import, m2t};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message (already formatted).
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
    }
}

/// Top-level dispatch. `args` excludes the program name.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "validate" => cmd_validate(rest),
        "matrix" => cmd_matrix(rest),
        "emulate" => cmd_emulate(rest),
        "reference" => cmd_reference(rest),
        "accuracy" => cmd_accuracy(rest),
        "export" => cmd_export(rest),
        "import" => cmd_import(rest),
        "place" => cmd_place(rest),
        "sweep" => cmd_sweep(rest),
        "batch" => cmd_batch(rest),
        "mc" => cmd_mc(rest),
        "corpus" => cmd_corpus(rest),
        "serve" => cmd_serve(rest),
        "cache" => cmd_cache(rest),
        "codegen" => cmd_codegen(rest),
        "analyze" => cmd_analyze(rest),
        "gantt" => cmd_gantt(rest),
        "vcd" => cmd_vcd(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(fail(format!("unknown command {other:?}\n\n{}", usage()))),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
segbus — SegBus platform modeling, emulation and performance estimation

USAGE:
    segbus <COMMAND> [ARGS]

COMMANDS:
    validate  <model.sbd>                 parse and run the structural constraints
    matrix    <model.sbd>                 print the communication matrix (Fig. 8 style)
    emulate   <model.sbd> [--trace] [--package-size N] [--detailed] [--frames N]
              [--trace-out FILE.sbt]
                                          run the performance estimator
                                          (--trace-out streams the event trace
                                          to a compact binary .sbt file)
    reference <model.sbd> [--package-size N]
                                          run the cycle-accurate reference simulator
    accuracy  <model.sbd> [--package-size N]
                                          estimated vs actual execution time
    export    <model.sbd> <out-dir>       M2T transformation to psdf.xml / psm.xml
    import    <psdf.xml> <psm.xml>        rebuild the system from schemes and emulate
    place     <model.sbd> --segments N [--seed S]
              [--objective items|packages|makespan] [--capacity C]
              [--threads N] [--restarts R] [--cache-dir DIR]
              [--from-trace FILE.sbt]
                                          propose an allocation with PlaceTool;
                                          makespan searches with emulation in
                                          the loop, sharded over --threads
                                          workers and warm-started from
                                          --cache-dir; --from-trace weighs
                                          flows by packages actually delivered
                                          in a recorded trace
    sweep     <model.sbd> --sizes 18,36,72
                                          emulate at several package sizes
    batch     <paths...> [--package-size N] [--frames N] [--detailed] [--trace]
              [--threads N] [--cache N] [--cache-dir DIR]
                                          emulate many models (files or directories
                                          of .sbd) through the report cache;
                                          --cache-dir persists reports across runs
    mc        <model.sbd> [--samples N] [--seed S] [--frames N] [--threads N]
              [--bootstrap N] [--cache N] [--cache-dir DIR]
              [--package-size N]
                                          Monte-Carlo estimation of a stochastic
                                          model (flows annotated with items_dist /
                                          ticks_dist / jitter): mean, p50/p95/p99,
                                          bootstrap CI and bus-utilisation spread;
                                          byte-identical for any --threads
    corpus    gen [<dir>] [--check]       render the seed manifest (<dir>/MANIFEST.txt,
                                          default dir `corpus`) to .sbd scenarios;
                                          --check re-renders and verifies the
                                          committed tree byte for byte
    corpus    min <dir> [--write] [--check]
                                          find scenarios whose model+noise
                                          fingerprints collide; --write deletes the
                                          redundant files, --check fails when any
                                          exist
    serve     [--port N] [--threads N] [--cache N] [--cache-dir DIR]
              [--window N] [--max-frames N] [--shards N]
              [--max-in-flight N]
                                          batched NDJSON-over-TCP emulation service
                                          on 127.0.0.1 with per-connection request
                                          pipelining; the sharded event-loop
                                          core sheds load over --max-in-flight
                                          with S005
                                          (see segbus-serve docs)
    cache     gc <dir>                    compact a --cache-dir report store,
                                          dropping dead records
    codegen   <model.sbd> [--format vhdl|rust|c]
                                          generate arbiter schedule code
    analyze   <model.sbd | trace.sbt> [--frames N]
                                          per-segment/per-BU utilisation, wait-time
                                          histograms, bottleneck ranking, latency
                                          (and wave timing + energy for models)
    gantt     <model.sbd> [--width N]     ASCII Gantt chart of the emulation
    vcd       <model.sbd>                 dump a VCD waveform of the emulation

The .sbd model format is the textual SegBus DSL (see segbus-dsl docs).
"
    .to_string()
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
}

fn load_psm(path: &str) -> Result<Psm, CliError> {
    let text = read_file(path)?;
    dsl::parse_system(&text).map_err(|e| fail(format!("{path}: {e}")))
}

/// Engine pre-flight ([`segbus_core::strict_validate`]) with the CLI's
/// `path: error` formatting. Guards the commands that hand the PSM to a
/// consumer without a `try_` entry point of its own.
fn precheck(psm: &Psm, frames: u64, path: &str) -> Result<(), CliError> {
    segbus_core::strict_validate(psm, frames, &EmulatorConfig::default())
        .map_err(|e| fail(format!("{path}: {e}")))
}

/// Flags that take no value, so a following positional is never
/// swallowed. Every other flag takes a value.
const BOOL_FLAGS: &[&str] = &["trace", "detailed", "portfolio", "check", "write"];

/// Parsed `--key [value]` options.
type Opts<'a> = Vec<(&'a str, Option<&'a str>)>;

/// Parse `--key value` style options out of an argument list; returns
/// (positional, lookup). A `--key` not among the subcommand's `accepted`
/// flags is an error.
fn split_opts<'a>(
    args: &'a [String],
    accepted: &[&str],
) -> Result<(Vec<&'a str>, Opts<'a>), CliError> {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            if !accepted.contains(&key) {
                return Err(fail(format!("unknown option --{key}")));
            }
            let value = if !BOOL_FLAGS.contains(&key) {
                args.get(i + 1)
                    .map(|s| s.as_str())
                    .filter(|v| !v.starts_with("--"))
            } else {
                None
            };
            if value.is_some() {
                i += 1;
            }
            opts.push((key, value));
        } else {
            pos.push(a);
        }
        i += 1;
    }
    Ok((pos, opts))
}

fn opt<'a>(opts: &[(&'a str, Option<&'a str>)], key: &str) -> Option<Option<&'a str>> {
    opts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn opt_u32(opts: &[(&str, Option<&str>)], key: &str) -> Result<Option<u32>, CliError> {
    match opt(opts, key) {
        None => Ok(None),
        Some(None) => Err(fail(format!("--{key} needs a value"))),
        Some(Some(v)) => v
            .parse()
            .map(Some)
            .map_err(|_| fail(format!("--{key}: {v:?} is not a number"))),
    }
}

fn apply_package_size(psm: Psm, opts: &[(&str, Option<&str>)]) -> Result<Psm, CliError> {
    match opt_u32(opts, "package-size")? {
        None => Ok(psm),
        Some(s) => psm
            .with_package_size(s)
            .map_err(|e| fail(format!("--package-size: {e}"))),
    }
}

// -- subcommands --------------------------------------------------------------

fn cmd_validate(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_opts(args, &[])?;
    let [path] = pos.as_slice() else {
        return Err(fail("usage: segbus validate <model.sbd>"));
    };
    let text = read_file(path)?;
    let source = dsl::parse_source(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    let mut out = String::new();
    // Full diagnostic listing (warnings included) before the hard verdict.
    if let (Some(app), Some(spec)) = (source.applications.first(), source.platforms.first()) {
        let mut alloc = segbus_model::mapping::Allocation::new(spec.platform.segment_count());
        for (name, seg, _span) in &spec.hosts {
            if let Some(p) = app.process_by_name(name) {
                alloc.assign(p, *seg);
            }
        }
        let diags = validate(&spec.platform, app, &alloc);
        for d in &diags {
            let _ = writeln!(out, "{d}");
        }
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if errors > 0 {
            return Err(fail(format!("{out}{path}: {errors} error(s)")));
        }
    }
    match source.into_psm() {
        Ok(psm) => {
            let _ = writeln!(
                out,
                "{path}: OK — {} processes, {} flows, {} segments, package size {}",
                psm.application().process_count(),
                psm.application().flows().len(),
                psm.platform().segment_count(),
                psm.platform().package_size()
            );
            Ok(out)
        }
        Err(e) => Err(fail(format!("{out}{path}: {e}"))),
    }
}

fn cmd_matrix(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_opts(args, &[])?;
    let [path] = pos.as_slice() else {
        return Err(fail("usage: segbus matrix <model.sbd>"));
    };
    let psm = load_psm(path)?;
    Ok(psm.matrix().to_table())
}

fn cmd_emulate(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(
        args,
        &["package-size", "trace", "detailed", "frames", "trace-out"],
    )?;
    let [path] = pos.as_slice() else {
        return Err(fail("usage: segbus emulate <model.sbd> [--trace] [--package-size N] [--detailed] [--frames N] [--trace-out FILE.sbt]"));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let mut config = EmulatorConfig::default();
    if opt(&opts, "trace").is_some() {
        config.trace = true;
    }
    if opt(&opts, "detailed").is_some() {
        config.timing = segbus_core::TimingParams::detailed();
    }
    let frames = opt_u32(&opts, "frames")?.unwrap_or(1) as u64;
    if frames == 0 {
        return Err(fail("--frames must be at least 1"));
    }
    if let Some(sbt) = opt(&opts, "trace-out") {
        let sbt = sbt.ok_or_else(|| fail("--trace-out needs a file path"))?;
        // Stream the trace to disk instead of holding it in memory.
        let mut writer = segbus_core::SbtWriter::create(
            Path::new(sbt),
            psm.platform().segment_count() as u32,
            psm.application().process_count() as u32,
        )
        .map_err(|e| fail(format!("--trace-out {sbt}: {e}")))?;
        let report = segbus_core::Engine::new(config)
            .try_run_frames_with_sink(&psm, frames, &mut writer)
            .map_err(|e| fail(format!("{path}: {e}")))?;
        let events = writer
            .finish()
            .map_err(|e| fail(format!("--trace-out {sbt}: {e}")))?;
        let mut out = report.paper_style();
        let _ = writeln!(out, "\ntrace: {events} events written to {sbt}");
        return Ok(out);
    }
    let report = Emulator::new(config)
        .try_run_frames(&psm, frames)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    let mut out = report.paper_style();
    if let Some(trace) = &report.trace {
        let _ = writeln!(out, "\ntrace: {} events recorded", trace.len());
    }
    Ok(out)
}

fn cmd_reference(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["package-size"])?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus reference <model.sbd> [--package-size N]",
        ));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    precheck(&psm, 1, path)?;
    let report = RtlSimulator::default()
        .run(&psm)
        .map_err(|e| fail(e.to_string()))?;
    Ok(report.paper_style())
}

fn cmd_accuracy(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["package-size"])?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus accuracy <model.sbd> [--package-size N]",
        ));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let est = Emulator::default()
        .try_run(&psm)
        .map_err(|e| fail(format!("{path}: {e}")))?
        .execution_time();
    let act = RtlSimulator::default()
        .run(&psm)
        .map_err(|e| fail(e.to_string()))?
        .execution_time();
    Ok(format!(
        "estimated: {:.2} us\nactual:    {:.2} us\naccuracy:  {:.1}%\n",
        est.as_micros_f64(),
        act.as_micros_f64(),
        100.0 * est.0 as f64 / act.0 as f64
    ))
}

fn cmd_export(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_opts(args, &[])?;
    let [path, out_dir] = pos.as_slice() else {
        return Err(fail("usage: segbus export <model.sbd> <out-dir>"));
    };
    let psm = load_psm(path)?;
    std::fs::create_dir_all(out_dir).map_err(|e| fail(format!("{out_dir}: {e}")))?;
    let psdf_path = Path::new(out_dir).join("psdf.xml");
    let psm_path = Path::new(out_dir).join("psm.xml");
    std::fs::write(
        &psdf_path,
        m2t::export_psdf(psm.application()).to_xml_string(),
    )
    .map_err(|e| fail(format!("{}: {e}", psdf_path.display())))?;
    std::fs::write(&psm_path, m2t::export_psm(&psm).to_xml_string())
        .map_err(|e| fail(format!("{}: {e}", psm_path.display())))?;
    Ok(format!(
        "wrote {}\nwrote {}\n",
        psdf_path.display(),
        psm_path.display()
    ))
}

fn cmd_import(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_opts(args, &[])?;
    let [psdf_path, psm_path] = pos.as_slice() else {
        return Err(fail("usage: segbus import <psdf.xml> <psm.xml>"));
    };
    let psdf =
        segbus_xml::parse(&read_file(psdf_path)?).map_err(|e| fail(format!("{psdf_path}: {e}")))?;
    let psm_doc =
        segbus_xml::parse(&read_file(psm_path)?).map_err(|e| fail(format!("{psm_path}: {e}")))?;
    let psm = import::import_system(&psdf, &psm_doc).map_err(|e| fail(e.to_string()))?;
    let report = Emulator::default()
        .try_run(&psm)
        .map_err(|e| fail(format!("{psm_path}: {e}")))?;
    Ok(format!(
        "imported '{}' on '{}'\nestimated execution time: {:.2} us\n",
        psm.application().name(),
        psm.platform().name(),
        report.execution_time().as_micros_f64()
    ))
}

fn cmd_place(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(
        args,
        &[
            "segments",
            "seed",
            "from-trace",
            "objective",
            "capacity",
            "threads",
            "restarts",
            "cache-dir",
            "portfolio",
            "rounds",
            "time-budget",
        ],
    )?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus place <model.sbd> --segments N [--seed S] \
             [--objective items|packages|makespan] [--capacity C] \
             [--threads N] [--restarts R] [--cache-dir DIR] \
             [--from-trace FILE.sbt] \
             [--portfolio [--rounds N] [--time-budget MS]]",
        ));
    };
    let segments =
        opt_u32(&opts, "segments")?.ok_or_else(|| fail("--segments is required"))? as usize;
    let seed = opt_u32(&opts, "seed")?.unwrap_or(42) as u64;
    let psm = load_psm(path)?;
    let app = psm.application();
    let n = app.process_count();
    if segments == 0 || segments > n {
        return Err(fail(format!("--segments must be in 1..={n}")));
    }
    let s = psm.platform().package_size();
    // Measured traffic: per-flow delivered-package counts from a trace.
    let measured: Option<(String, Vec<u64>)> = match opt(&opts, "from-trace") {
        None => None,
        Some(None) => return Err(fail("--from-trace needs a .sbt trace file")),
        Some(Some(file)) => {
            let t = segbus_core::read_trace(Path::new(file))
                .map_err(|e| fail(format!("--from-trace {file}: {e}")))?;
            let mut w = vec![0u64; app.flows().len()];
            for e in t.log.of_kind(segbus_core::TraceKind::Delivered) {
                if let Some(slot) = e.flow.and_then(|f| w.get_mut(f.index())) {
                    *slot += 1;
                }
            }
            if w.iter().all(|&x| x == 0) {
                return Err(fail(format!(
                    "--from-trace {file}: trace contains no deliveries for this application"
                )));
            }
            Some((file.to_string(), w))
        }
    };
    let objective = match opt(&opts, "objective") {
        None => "packages",
        Some(None) => {
            return Err(fail(
                "--objective needs a value: items, packages or makespan",
            ))
        }
        Some(Some(v)) => v,
    };
    let mut tool = PlaceTool::new(app, segments);
    if let Some((_, w)) = &measured {
        tool = tool.with_measured_weights(w);
    }
    let label = match objective {
        "items" => {
            tool = tool.with_objective(Objective::Items);
            "item cut"
        }
        "packages" => {
            tool = tool.with_objective(Objective::Packages(s));
            "package cut"
        }
        "makespan" => {
            // Emulation in the loop judges candidates on the model's own
            // platform, so the target segment count is not free.
            if psm.platform().segment_count() != segments {
                return Err(fail(format!(
                    "--objective makespan emulates on the model's platform: \
                     --segments must equal its {} segment(s)",
                    psm.platform().segment_count()
                )));
            }
            tool = tool.with_makespan(psm.platform());
            "makespan_ps"
        }
        other => {
            return Err(fail(format!(
                "--objective: unknown objective {other:?} (items, packages or makespan)"
            )))
        }
    };
    if let Some(cap) = opt_u32(&opts, "capacity")? {
        let cap = cap as usize;
        if cap == 0 || cap * segments < n {
            return Err(fail(format!(
                "--capacity {cap} cannot host {n} process(es) on {segments} segment(s)"
            )));
        }
        tool = tool.with_capacity(cap);
    }
    let threads = opt_u32(&opts, "threads")?.unwrap_or(0) as usize;
    let restarts = opt_u32(&opts, "restarts")?.unwrap_or(3) as usize;
    if restarts == 0 {
        return Err(fail("--restarts must be at least 1"));
    }
    let use_portfolio = match opt(&opts, "portfolio") {
        None => false,
        Some(None) => true,
        Some(Some(v)) => return Err(fail(format!("--portfolio takes no value (got {v:?})"))),
    };
    let rounds = opt_u32(&opts, "rounds")?;
    let time_budget = opt_u32(&opts, "time-budget")?;
    if !use_portfolio && (rounds.is_some() || time_budget.is_some()) {
        return Err(fail("--rounds/--time-budget need --portfolio"));
    }
    if rounds == Some(0) {
        return Err(fail("--rounds must be at least 1"));
    }
    let cache_dir = match opt(&opts, "cache-dir") {
        None => None,
        Some(None) => return Err(fail("--cache-dir needs a directory")),
        Some(Some(dir)) => Some(dir),
    };
    // Both drivers share the evaluation substrate; the portfolio adds
    // round-based cross-pollination on top.
    let (placement, threads_used, st, portfolio_line) = if use_portfolio {
        let mut port = tool
            .portfolio(threads)
            .with_restarts(restarts)
            .with_rounds(rounds.unwrap_or(Portfolio::DEFAULT_ROUNDS as u32) as usize);
        if let Some(ms) = time_budget {
            port = port.with_time_budget(std::time::Duration::from_millis(ms as u64));
        }
        if let Some(dir) = cache_dir {
            port = port
                .with_cache_dir(Path::new(dir))
                .map_err(|e| fail(format!("--cache-dir {dir}: {e}")))?;
        }
        let placement = port.best(seed);
        let stats = port.stats();
        let line = format!(
            "portfolio: {} round(s), {} cross-pollination(s)\n",
            stats.rounds, stats.cross_pollinations
        );
        (placement, port.threads(), stats.search, Some(line))
    } else {
        let mut search = tool.parallel(threads).with_restarts(restarts);
        if let Some(dir) = cache_dir {
            search = search
                .with_cache_dir(Path::new(dir))
                .map_err(|e| fail(format!("--cache-dir {dir}: {e}")))?;
        }
        let placement = search.best(seed);
        (placement, search.threads(), search.stats(), None)
    };
    let mut out = format!(
        "PlaceTool: {} segments, {} thread(s), {label} {}\n",
        segments, threads_used, placement.cost
    );
    if let Some((file, w)) = &measured {
        let total: u64 = w.iter().sum();
        let _ = writeln!(
            out,
            "measured weights from {file}: {total} delivered package(s) over {} flow(s)",
            w.iter().filter(|&&x| x > 0).count()
        );
    }
    for i in 0..segments {
        let seg = segbus_model::ids::SegmentId(i as u16);
        let names: Vec<String> = placement
            .allocation
            .processes_on(seg)
            .iter()
            .map(|p| app.process(*p).name.clone())
            .collect();
        let _ = writeln!(out, "  {seg}: {}", names.join(" "));
    }
    if objective == "packages" {
        let baseline = psm.allocation().package_cut(app, s);
        let _ = writeln!(out, "model file's allocation cut: {baseline}");
    }
    if objective == "makespan" {
        // Every evaluation is accounted exactly once (memo hit, bound
        // skip, or fresh entry), so these counters reconcile by eye.
        let _ = writeln!(
            out,
            "search: {} evaluation(s), {} memo hit(s), {} disk hit(s), \
             {} bound skip(s), {} plan patch(es), {} emulated",
            st.evaluations,
            st.memo_hits,
            st.cache.disk_hits,
            st.bound_skips,
            st.plan_patches,
            st.emulations
        );
    }
    if let Some(line) = portfolio_line {
        out.push_str(&line);
    }
    Ok(out)
}

fn cmd_cache(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_opts(args, &[])?;
    match pos.as_slice() {
        ["gc", dir] => {
            // A gc must never create a store; `open` would.
            if !Path::new(dir).is_dir() {
                return Err(fail(format!("no cache directory at {dir}")));
            }
            // `open` already drops dead records and compacts when the scan
            // finds any; the explicit pass also reclaims stores whose live
            // records merely sit at stale offsets.
            let mut store = segbus_core::DiskStore::open(Path::new(dir))
                .map_err(|e| fail(format!("cannot open cache {dir}: {e}")))?;
            let dead = store.dead_on_load();
            let truncated = store.truncated_on_load();
            let reclaimed = store.reclaimed_on_load()
                + store
                    .compact()
                    .map_err(|e| fail(format!("compact {dir}: {e}")))?;
            Ok(format!(
                "cache gc: {} live report(s), {} byte(s) on disk; \
                 {dead} dead record(s) dropped, {reclaimed} byte(s) reclaimed, \
                 {truncated} byte(s) of corrupt tail truncated\n",
                store.len(),
                store.file_bytes(),
            ))
        }
        _ => Err(fail("usage: segbus cache gc <dir>")),
    }
}

fn cmd_sweep(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["sizes"])?;
    let [path] = pos.as_slice() else {
        return Err(fail("usage: segbus sweep <model.sbd> --sizes 18,36,72"));
    };
    let sizes: Vec<u32> = match opt(&opts, "sizes") {
        Some(Some(v)) => v
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| fail(format!("bad size {p:?}")))
            })
            .collect::<Result<_, _>>()?,
        _ => vec![9, 18, 36, 72],
    };
    let base = load_psm(path)?;
    let psms: Vec<Psm> = sizes
        .iter()
        .map(|&s| base.with_package_size(s).map_err(|e| fail(e.to_string())))
        .collect::<Result<_, _>>()?;
    for psm in &psms {
        precheck(psm, 1, path)?;
    }
    let reports = segbus_core::run_many(&psms);
    let mut out = format!("{:>8} {:>12}\n", "size", "est_us");
    for (s, r) in sizes.iter().zip(&reports) {
        let _ = writeln!(out, "{s:>8} {:>12.2}", r.execution_time().as_micros_f64());
    }
    Ok(out)
}

/// Collect the model files named by `paths`: each positional is either a
/// `.sbd` file or a directory scanned (non-recursively, sorted) for them.
fn gather_models(paths: &[&str]) -> Result<Vec<String>, CliError> {
    let mut files = Vec::new();
    for p in paths {
        let meta = std::fs::metadata(p).map_err(|e| fail(format!("cannot read {p}: {e}")))?;
        if meta.is_dir() {
            let mut in_dir = Vec::new();
            let entries =
                std::fs::read_dir(p).map_err(|e| fail(format!("cannot read {p}: {e}")))?;
            for entry in entries {
                let entry = entry.map_err(|e| fail(format!("cannot read {p}: {e}")))?;
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some("sbd") {
                    in_dir.push(path.to_string_lossy().into_owned());
                }
            }
            in_dir.sort();
            files.extend(in_dir);
        } else {
            files.push((*p).to_string());
        }
    }
    if files.is_empty() {
        return Err(fail("no .sbd models found"));
    }
    Ok(files)
}

fn cmd_batch(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(
        args,
        &[
            "package-size",
            "frames",
            "detailed",
            "trace",
            "threads",
            "cache",
            "cache-dir",
        ],
    )?;
    if pos.is_empty() {
        return Err(fail(
            "usage: segbus batch <paths...> [--package-size N] [--frames N] [--detailed] [--trace] [--threads N] [--cache N] [--cache-dir DIR]",
        ));
    }
    let files = gather_models(&pos)?;
    let mut config = EmulatorConfig::default();
    if opt(&opts, "trace").is_some() {
        config.trace = true;
    }
    if opt(&opts, "detailed").is_some() {
        config.timing = segbus_core::TimingParams::detailed();
    }
    let frames = opt_u32(&opts, "frames")?.unwrap_or(1) as u64;
    if frames == 0 {
        return Err(fail("--frames must be at least 1"));
    }
    let capacity = opt_u32(&opts, "cache")?.unwrap_or(256) as usize;
    let threads = opt_u32(&opts, "threads")?.unwrap_or(0) as usize;
    let pool = if threads == 0 {
        SweepPool::new(config)
    } else {
        SweepPool::with_threads(config, threads)
    };
    let mut pool = CachedPool::with_pool(pool, capacity);
    if let Some(dir) = opt(&opts, "cache-dir") {
        let dir = dir.ok_or_else(|| fail("--cache-dir needs a directory"))?;
        pool.attach_disk(std::path::Path::new(dir))
            .map_err(|e| fail(format!("--cache-dir {dir}: {e}")))?;
    }
    let mut jobs = Vec::with_capacity(files.len());
    for path in &files {
        let psm = apply_package_size(load_psm(path)?, &opts)?;
        jobs.push(BatchJob {
            psm,
            config,
            frames,
        });
    }
    // "cached" below means answered without emulation: resident before the
    // batch, or a duplicate of an earlier job in the same batch.
    let mut seen = std::collections::HashSet::new();
    let reused: Vec<bool> = jobs
        .iter()
        .map(|j| pool.is_cached(j) | !seen.insert(j.digest()))
        .collect();
    let results = pool.run_batch(&jobs);
    let mut out = String::new();
    let mut failures = 0usize;
    for ((path, result), was_reused) in files.iter().zip(results).zip(reused) {
        let tag = if was_reused { "cached" } else { "emulated" };
        match result {
            Ok(report) => {
                let _ = writeln!(out, "== {path} ({tag})");
                out.push_str(&report.paper_style());
            }
            Err(e) => {
                failures += 1;
                let _ = writeln!(out, "== {path} (error)");
                let _ = writeln!(out, "{e}");
            }
        }
        out.push('\n');
    }
    let stats = pool.stats();
    let _ = writeln!(
        out,
        "batch: {} model(s), {} failure(s); cache: {} hits, {} misses, {} evictions, {} disk hits; {} emulated",
        files.len(),
        failures,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.disk_hits,
        stats.misses
    );
    Ok(out)
}

fn cmd_mc(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(
        args,
        &[
            "samples",
            "seed",
            "frames",
            "threads",
            "bootstrap",
            "cache",
            "cache-dir",
            "package-size",
        ],
    )?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus mc <model.sbd> [--samples N] [--seed S] [--frames N] [--threads N] [--bootstrap N] [--cache N] [--cache-dir DIR] [--package-size N]",
        ));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let samples = opt_u32(&opts, "samples")?.unwrap_or(100) as u64;
    if samples == 0 {
        return Err(fail("--samples must be at least 1"));
    }
    let frames = opt_u32(&opts, "frames")?.unwrap_or(1) as u64;
    if frames == 0 {
        return Err(fail("--frames must be at least 1"));
    }
    let opts_mc = segbus_core::McOptions {
        samples,
        seed: opt_u32(&opts, "seed")?.unwrap_or(0) as u64,
        frames,
        bootstrap: opt_u32(&opts, "bootstrap")?.unwrap_or(200),
    };
    let config = EmulatorConfig::default();
    let capacity = opt_u32(&opts, "cache")?.unwrap_or(1024) as usize;
    let threads = opt_u32(&opts, "threads")?.unwrap_or(0) as usize;
    let pool = if threads == 0 {
        SweepPool::new(config)
    } else {
        SweepPool::with_threads(config, threads)
    };
    let mut pool = CachedPool::with_pool(pool, capacity);
    if let Some(dir) = opt(&opts, "cache-dir") {
        let dir = dir.ok_or_else(|| fail("--cache-dir needs a directory"))?;
        pool.attach_disk(Path::new(dir))
            .map_err(|e| fail(format!("--cache-dir {dir}: {e}")))?;
    }
    let report = segbus_core::run_monte_carlo(&mut pool, &psm, config, &opts_mc)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    let us = |ps: u64| ps as f64 / 1e6;
    let mut out = format!(
        "monte carlo: {} sample(s), seed {}, {} distinct system(s)\n",
        report.samples, opts_mc.seed, report.distinct
    );
    if !psm.application().is_stochastic() {
        let _ = writeln!(
            out,
            "note: the model carries no distributions — every sample is the base system"
        );
    }
    let m = &report.makespan;
    let _ = writeln!(
        out,
        "makespan: mean {:.2} us, 95% CI [{:.2}, {:.2}] us",
        m.mean / 1e6,
        m.ci95.0 / 1e6,
        m.ci95.1 / 1e6
    );
    let _ = writeln!(
        out,
        "          min {:.2} | p50 {:.2} | p95 {:.2} | p99 {:.2} | max {:.2} us",
        us(m.min),
        us(m.p50),
        us(m.p95),
        us(m.p99),
        us(m.max)
    );
    let _ = writeln!(out, "bus utilisation (fraction of makespan):");
    for (i, u) in report.utilisation.iter().enumerate() {
        let _ = writeln!(
            out,
            "  segment {}: min {:.1}% mean {:.1}% max {:.1}%",
            i + 1,
            u.min * 100.0,
            u.mean * 100.0,
            u.max * 100.0
        );
    }
    let stats = pool.stats();
    let _ = writeln!(
        out,
        "cache: {} hits, {} misses, {} evictions, {} disk hits; {} emulated",
        stats.hits, stats.misses, stats.evictions, stats.disk_hits, stats.misses
    );
    Ok(out)
}

/// The corpus files under `dir`, as paths relative to it (sorted; one
/// directory level deep, matching the `<family>/<file>.sbd` layout).
fn corpus_files(dir: &Path) -> Result<Vec<String>, CliError> {
    fn walk(root: &Path, at: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(at)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if path.extension().and_then(|e| e.to_str()) == Some("sbd") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out).map_err(|e| fail(format!("cannot scan {}: {e}", dir.display())))?;
    out.sort();
    Ok(out)
}

fn cmd_corpus(args: &[String]) -> Result<String, CliError> {
    let accepted: &[&str] = match args.first().map(String::as_str) {
        Some("min") => &["write", "check"],
        _ => &["check"],
    };
    let (pos, opts) = split_opts(args, accepted)?;
    match pos.as_slice() {
        ["gen"] | ["gen", _] => {
            let dir = Path::new(if let [_, d] = pos.as_slice() {
                *d
            } else {
                "corpus"
            });
            let check = opt(&opts, "check").is_some();
            let manifest_path = dir.join("MANIFEST.txt");
            let manifest = match std::fs::read_to_string(&manifest_path) {
                Ok(text) => text,
                Err(_) if !check => segbus_gen::DEFAULT_MANIFEST.to_string(),
                Err(e) => {
                    return Err(fail(format!(
                        "--check needs a committed manifest at {}: {e}",
                        manifest_path.display()
                    )))
                }
            };
            let entries = segbus_gen::parse_manifest(&manifest)
                .map_err(|e| fail(format!("{}: {e}", manifest_path.display())))?;
            let files = segbus_gen::generate_corpus(&entries);
            if check {
                // Byte-identity against the committed tree, plus no strays.
                let mut bad = Vec::new();
                for (rel, want) in &files {
                    match std::fs::read_to_string(dir.join(rel)) {
                        Ok(have) if have == *want => {}
                        Ok(_) => bad.push(format!("{rel}: differs from its manifest entry")),
                        Err(e) => bad.push(format!("{rel}: {e}")),
                    }
                }
                let expected: std::collections::HashSet<&str> =
                    files.iter().map(|(rel, _)| rel.as_str()).collect();
                for rel in corpus_files(dir)? {
                    if !expected.contains(rel.as_str()) {
                        bad.push(format!("{rel}: not in the manifest"));
                    }
                }
                if !bad.is_empty() {
                    return Err(fail(format!(
                        "corpus check failed ({} problem(s)) — run `segbus corpus gen`:\n  {}",
                        bad.len(),
                        bad.join("\n  ")
                    )));
                }
                Ok(format!(
                    "corpus check: {} scenario(s) match {}\n",
                    files.len(),
                    manifest_path.display()
                ))
            } else {
                std::fs::create_dir_all(dir)
                    .map_err(|e| fail(format!("{}: {e}", dir.display())))?;
                if !manifest_path.exists() {
                    std::fs::write(&manifest_path, &manifest)
                        .map_err(|e| fail(format!("{}: {e}", manifest_path.display())))?;
                }
                for (rel, text) in &files {
                    let target = dir.join(rel);
                    if let Some(parent) = target.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| fail(format!("{}: {e}", parent.display())))?;
                    }
                    std::fs::write(&target, text)
                        .map_err(|e| fail(format!("{}: {e}", target.display())))?;
                }
                Ok(format!(
                    "corpus gen: wrote {} scenario(s) under {}\n",
                    files.len(),
                    dir.display()
                ))
            }
        }
        ["min", d] => {
            let dir = Path::new(d);
            let write = opt(&opts, "write").is_some();
            let check = opt(&opts, "check").is_some();
            let files = corpus_files(dir)?;
            if files.is_empty() {
                return Err(fail(format!("no .sbd scenarios under {d}")));
            }
            // First file per fingerprint survives (sorted order — stable).
            let mut seen: std::collections::HashMap<(u64, u64), String> =
                std::collections::HashMap::new();
            let mut redundant: Vec<(String, String)> = Vec::new();
            for rel in &files {
                let text = read_file(&dir.join(rel).to_string_lossy())?;
                let psm = dsl::parse_system(&text).map_err(|e| fail(format!("{rel}: {e}")))?;
                let fp = segbus_gen::model_fingerprint(&psm);
                match seen.entry(fp) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(rel.clone());
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        redundant.push((rel.clone(), o.get().clone()));
                    }
                }
            }
            let mut out = format!(
                "corpus min: {} scenario(s), {} distinct, {} redundant\n",
                files.len(),
                seen.len(),
                redundant.len()
            );
            for (dup, kept) in &redundant {
                let _ = writeln!(out, "  {dup} duplicates {kept}");
                if write {
                    std::fs::remove_file(dir.join(dup))
                        .map_err(|e| fail(format!("{dup}: {e}")))?;
                }
            }
            if write && !redundant.is_empty() {
                let _ = writeln!(out, "removed {} file(s)", redundant.len());
            }
            if check && !redundant.is_empty() {
                return Err(fail(format!(
                    "{out}corpus min --check: {} redundant scenario(s)",
                    redundant.len()
                )));
            }
            Ok(out)
        }
        _ => Err(fail(
            "usage: segbus corpus gen [<dir>] [--check] | segbus corpus min <dir> [--write] [--check]",
        )),
    }
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(
        args,
        &[
            "port",
            "threads",
            "cache",
            "cache-dir",
            "window",
            "max-frames",
            "shards",
            "max-in-flight",
        ],
    )?;
    if !pos.is_empty() {
        return Err(fail(
            "usage: segbus serve [--port N] [--threads N] [--cache N] [--cache-dir DIR] [--window N] [--max-frames N] [--shards N] [--max-in-flight N]",
        ));
    }
    let port = opt_u32(&opts, "port")?.unwrap_or(7878);
    let port = u16::try_from(port).map_err(|_| fail(format!("--port: {port} is not a port")))?;
    let threads = opt_u32(&opts, "threads")?.unwrap_or(0) as usize;
    let cache_capacity = opt_u32(&opts, "cache")?.unwrap_or(256) as usize;
    let defaults = ServeOptions::default();
    let window = opt_u32(&opts, "window")?.map_or(defaults.window, |w| w as usize);
    if window == 0 {
        return Err(fail("--window must be at least 1"));
    }
    let max_frames = opt_u32(&opts, "max-frames")?.map_or(defaults.max_frames, u64::from);
    if max_frames == 0 {
        return Err(fail("--max-frames must be at least 1"));
    }
    let cache_dir = match opt(&opts, "cache-dir") {
        None => None,
        Some(None) => return Err(fail("--cache-dir needs a directory")),
        Some(Some(dir)) => Some(std::path::PathBuf::from(dir)),
    };
    let shards = opt_u32(&opts, "shards")?.unwrap_or(0) as usize;
    let max_in_flight = opt_u32(&opts, "max-in-flight")?.unwrap_or(0) as usize;
    let server = Server::start(ServeOptions {
        port,
        threads,
        cache_capacity,
        cache_dir,
        window,
        max_frames,
        shards,
        max_in_flight,
        ..defaults
    })
    .map_err(|e| fail(format!("cannot start on 127.0.0.1:{port}: {e}")))?;
    let addr = server.addr();
    // The accept loop blocks this command until a client sends
    // {"cmd": "shutdown"}; announce the address on stderr first.
    eprintln!("segbus-serve listening on {addr} (newline-delimited JSON)");
    server.join();
    Ok(format!("segbus-serve on {addr} stopped\n"))
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["package-size", "frames"])?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus analyze <model.sbd | trace.sbt> [--package-size N] [--frames N]",
        ));
    };
    if path.ends_with(".sbt") {
        // A recorded binary trace: everything derives from the events.
        let t =
            segbus_core::read_trace(Path::new(path)).map_err(|e| fail(format!("{path}: {e}")))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} segment(s), {} process(es){}",
            t.log.len(),
            t.segments,
            t.processes,
            if t.truncated {
                " — truncated tail dropped"
            } else {
                ""
            }
        );
        write_trace_report(&mut out, &t.log, t.segments as usize);
        return Ok(out);
    }
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let frames = opt_u32(&opts, "frames")?.unwrap_or(1) as u64;
    if frames == 0 {
        return Err(fail("--frames must be at least 1"));
    }
    let report = Emulator::new(EmulatorConfig::traced())
        .try_run_frames(&psm, frames)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimated execution time: {:.2} us",
        report.execution_time().as_micros_f64()
    );
    let trace = report
        .trace
        .as_ref()
        .expect("traced config records a trace");
    write_trace_report(&mut out, trace, report.sas.len());
    let _ = writeln!(
        out,
        "
wave durations (us):"
    );
    for (i, d) in segbus_core::wave_durations(&report).iter().enumerate() {
        let _ = writeln!(out, "  wave {}: {:.2}", i + 1, d.as_micros_f64());
    }
    let energy = segbus_core::estimate_energy(&report, &segbus_core::EnergyModel::default());
    let _ = writeln!(
        out,
        "
energy (synthetic weights): {:.2} uJ total, {:.1}% communication",
        energy.total_uj(),
        energy.communication_fraction() * 100.0
    );
    Ok(out)
}

/// The shared heart of `segbus analyze`: per-segment utilisation, wait
/// histograms, border-unit occupancy, the bottleneck ranking and the
/// package-latency summary — all derived from the trace alone, so it
/// serves both a freshly emulated model and a decoded `.sbt` file.
fn write_trace_report(out: &mut String, log: &segbus_core::TraceLog, segments: usize) {
    let us = |ns: u64| ns as f64 / 1e3;
    let a = segbus_core::analyze_trace(log, segments);
    let _ = writeln!(
        out,
        "
bus utilisation (makespan {:.2} us):",
        a.makespan.as_micros_f64()
    );
    for s in &a.segments {
        let _ = writeln!(
            out,
            "  {}: busy {:.2} us ({:.1}%), {} serve(s), {} gap(s), longest gap {:.2} us",
            s.segment,
            s.busy.as_micros_f64(),
            s.fraction * 100.0,
            s.serves,
            s.gaps,
            s.gap_max.as_micros_f64()
        );
    }
    let _ = writeln!(
        out,
        "
wait time (arbitration to grant):"
    );
    for s in &a.segments {
        if s.wait.count() == 0 {
            let _ = writeln!(out, "  {}: no requests", s.segment);
        } else {
            let _ = writeln!(
                out,
                "  {}: {} request(s), p50 {:.2} us, p95 {:.2} us, max {:.2} us",
                s.segment,
                s.wait.count(),
                us(s.wait.quantile(0.50)),
                us(s.wait.quantile(0.95)),
                us(s.wait.max().unwrap_or(0)),
            );
        }
    }
    if !a.bus_units.is_empty() {
        let _ = writeln!(
            out,
            "
border units:"
        );
        for b in &a.bus_units {
            let _ = writeln!(
                out,
                "  BU loaded by {}: {} package(s), occupied {:.2} us ({:.1}%)",
                b.loading_segment,
                b.loads,
                b.occupied.as_micros_f64(),
                b.fraction * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "
bottlenecks (by total arbitration wait):"
    );
    for (i, s) in a.bottlenecks().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {}. {}: total wait {:.2} us, busy {:.1}%",
            i + 1,
            s.segment,
            s.total_wait.as_micros_f64(),
            s.fraction * 100.0
        );
    }
    let stats = segbus_core::trace_latency_stats(log);
    if let (Some(min), Some(max), Some(mean)) = (stats.min, stats.max, stats.mean_ps) {
        let _ = writeln!(
            out,
            "
package latency: {} packages, min {:.2} us, mean {:.2} us, max {:.2} us",
            stats.count,
            min.as_micros_f64(),
            mean / 1e6,
            max.as_micros_f64()
        );
    } else {
        let _ = writeln!(
            out,
            "
package latency: no packages delivered"
        );
    }
}

fn cmd_gantt(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["width", "package-size"])?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus gantt <model.sbd> [--width N] [--package-size N]",
        ));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let width = opt_u32(&opts, "width")?.unwrap_or(100) as usize;
    if width == 0 {
        return Err(fail("--width must be positive"));
    }
    let report = Emulator::new(EmulatorConfig::traced())
        .try_run(&psm)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    Ok(segbus_core::ascii_gantt(&report, width))
}

fn cmd_vcd(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["package-size"])?;
    let [path] = pos.as_slice() else {
        return Err(fail("usage: segbus vcd <model.sbd> [--package-size N]"));
    };
    let psm = apply_package_size(load_psm(path)?, &opts)?;
    let report = Emulator::new(EmulatorConfig::traced())
        .try_run(&psm)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    segbus_core::to_vcd(&report).map_err(|e| fail(format!("{path}: {e}")))
}

fn cmd_codegen(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_opts(args, &["format"])?;
    let [path] = pos.as_slice() else {
        return Err(fail(
            "usage: segbus codegen <model.sbd> [--format vhdl|rust]",
        ));
    };
    let psm = load_psm(path)?;
    precheck(&psm, 1, path)?;
    let sched = segbus_codegen::SystemSchedule::derive(&psm);
    match opt(&opts, "format") {
        None | Some(Some("vhdl")) => Ok(segbus_codegen::vhdl::to_vhdl(&psm, &sched)),
        Some(Some("rust")) => Ok(segbus_codegen::rust_emit::to_rust(&psm, &sched)),
        Some(Some("c")) => Ok(segbus_codegen::c_emit::to_c_header(&psm, &sched)),
        Some(other) => Err(fail(format!(
            "--format must be 'vhdl', 'rust' or 'c', got '{}'",
            other.unwrap_or("")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn demo_file(dir: &Path) -> String {
        let path = dir.join("demo.sbd");
        std::fs::write(
            &path,
            r#"application demo {
                 process A initial;
                 process B final;
                 flow A -> B { items 360; order 1; ticks 100; }
               }
               platform duo {
                 package_size 36;
                 ca { freq_mhz 111; }
                 segment S1 { freq_mhz 91; hosts A; }
                 segment S2 { freq_mhz 98; hosts B; }
               }"#,
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("segbus-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.message.contains("unknown command"));
        assert!(err.message.contains("USAGE"));
    }

    #[test]
    fn validate_and_matrix_and_emulate() {
        let dir = tmpdir("vme");
        let f = demo_file(&dir);
        let v = run(&args(&["validate", &f])).unwrap();
        assert!(v.contains("OK"), "{v}");
        let m = run(&args(&["matrix", &f])).unwrap();
        assert!(m.contains("360"), "{m}");
        let e = run(&args(&["emulate", &f, "--trace"])).unwrap();
        assert!(e.contains("Execution time"), "{e}");
        assert!(e.contains("trace:"), "{e}");
    }

    #[test]
    fn boolean_flags_before_the_positional() {
        // Regression: --trace must not swallow the model path.
        let dir = tmpdir("bf");
        let f = demo_file(&dir);
        let out = run(&args(&["emulate", "--trace", &f])).unwrap();
        assert!(out.contains("trace:"), "{out}");
        let out = run(&args(&["emulate", "--detailed", &f])).unwrap();
        assert!(out.contains("Execution time"), "{out}");
    }

    #[test]
    fn frames_flag_streams() {
        let dir = tmpdir("fr");
        let f = demo_file(&dir);
        let one = run(&args(&["emulate", &f])).unwrap();
        let four = run(&args(&["emulate", &f, "--frames", "4"])).unwrap();
        assert_ne!(one, four);
        assert!(run(&args(&["emulate", &f, "--frames", "0"])).is_err());
    }

    #[test]
    fn package_size_flag_changes_results() {
        let dir = tmpdir("pkg");
        let f = demo_file(&dir);
        let a = run(&args(&["emulate", &f])).unwrap();
        let b = run(&args(&["emulate", &f, "--package-size", "18"])).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn accuracy_under_one() {
        let dir = tmpdir("acc");
        let f = demo_file(&dir);
        let out = run(&args(&["accuracy", &f])).unwrap();
        assert!(out.contains("accuracy"), "{out}");
        let pct: f64 = out
            .lines()
            .find(|l| l.starts_with("accuracy"))
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(pct > 50.0 && pct < 100.0, "{pct}");
    }

    #[test]
    fn export_then_import_round_trip() {
        let dir = tmpdir("exp");
        let f = demo_file(&dir);
        let out_dir = dir.join("schemes");
        let out = run(&args(&["export", &f, &out_dir.to_string_lossy()])).unwrap();
        assert!(out.contains("psdf.xml"));
        let psdf = out_dir.join("psdf.xml").to_string_lossy().into_owned();
        let psm = out_dir.join("psm.xml").to_string_lossy().into_owned();
        let imported = run(&args(&["import", &psdf, &psm])).unwrap();
        assert!(imported.contains("imported 'demo' on 'duo'"), "{imported}");
    }

    #[test]
    fn place_requires_segments() {
        let dir = tmpdir("pl");
        let f = demo_file(&dir);
        assert!(run(&args(&["place", &f])).is_err());
        let out = run(&args(&["place", &f, "--segments", "2"])).unwrap();
        assert!(out.contains("package cut"), "{out}");
    }

    #[test]
    fn place_objectives_and_error_paths() {
        let dir = tmpdir("plo");
        let f = demo_file(&dir);
        let items = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--objective",
            "items",
        ]))
        .unwrap();
        assert!(items.contains("item cut"), "{items}");
        let mk = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--objective",
            "makespan",
            "--threads",
            "2",
            "--restarts",
            "2",
        ]))
        .unwrap();
        assert!(mk.contains("makespan_ps"), "{mk}");
        assert!(mk.contains("search:"), "{mk}");
        let cap = run(&args(&["place", &f, "--segments", "2", "--capacity", "1"])).unwrap();
        assert!(cap.contains("package cut"), "{cap}");
        // Error paths: unknown objective, makespan segment mismatch,
        // impossible capacity, zero restarts.
        let bad = run(&args(&["place", &f, "--segments", "2", "--objective", "x"])).unwrap_err();
        assert!(bad.message.contains("unknown objective"), "{bad}");
        let mismatch = run(&args(&[
            "place",
            &f,
            "--segments",
            "1",
            "--objective",
            "makespan",
        ]))
        .unwrap_err();
        assert!(mismatch.message.contains("segment"), "{mismatch}");
        assert!(run(&args(&["place", &f, "--segments", "2", "--capacity", "0"])).is_err());
        assert!(run(&args(&["place", &f, "--segments", "2", "--restarts", "0"])).is_err());
    }

    #[test]
    fn place_portfolio_flag_and_error_paths() {
        let dir = tmpdir("plp");
        let f = demo_file(&dir);
        let out = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--objective",
            "makespan",
            "--portfolio",
            "--rounds",
            "2",
            "--time-budget",
            "60000",
        ]))
        .unwrap();
        assert!(out.contains("makespan_ps"), "{out}");
        assert!(out.contains("bound skip(s)"), "{out}");
        assert!(out.contains("plan patch(es)"), "{out}");
        assert!(
            out.contains("portfolio:") && out.contains("round(s)"),
            "{out}"
        );
        // A portfolio answer is never worse than the plain parallel search.
        let plain = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--objective",
            "makespan",
        ]))
        .unwrap();
        assert_eq!(out.lines().next(), plain.lines().next(), "same placement");
        // Error paths: the round/budget knobs require --portfolio, rounds
        // must be positive, and --portfolio itself takes no value.
        let orphan = run(&args(&["place", &f, "--segments", "2", "--rounds", "2"])).unwrap_err();
        assert!(orphan.message.contains("--portfolio"), "{orphan}");
        let orphan = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--time-budget",
            "5",
        ]))
        .unwrap_err();
        assert!(orphan.message.contains("--portfolio"), "{orphan}");
        assert!(run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--portfolio",
            "--rounds",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn place_warm_cache_dir_emulates_nothing() {
        let dir = tmpdir("plc");
        let f = demo_file(&dir);
        let cache = dir.join("place-cache").to_string_lossy().into_owned();
        let cmd = [
            "place",
            &f,
            "--segments",
            "2",
            "--objective",
            "makespan",
            "--cache-dir",
            &cache,
        ];
        let cold = run(&args(&cmd)).unwrap();
        let warm = run(&args(&cmd)).unwrap();
        assert_eq!(cold.lines().next(), warm.lines().next(), "same placement");
        assert!(warm.contains("0 emulated"), "{warm}");
    }

    #[test]
    fn cache_gc_compacts_a_store() {
        let dir = tmpdir("gc");
        let f = demo_file(&dir);
        let cache = dir.join("gc-store").to_string_lossy().into_owned();
        run(&args(&["batch", &f, "--cache-dir", &cache])).unwrap();
        let out = run(&args(&["cache", "gc", &cache])).unwrap();
        assert!(out.contains("live report(s)"), "{out}");
        assert!(run(&args(&["cache"])).is_err());
        // A path that cannot become a store directory (it is a file).
        assert!(run(&args(&["cache", "gc", &f])).is_err());
        // A gc must not conjure a store out of a missing directory.
        let missing = dir.join("no-such-store").to_string_lossy().into_owned();
        assert!(run(&args(&["cache", "gc", &missing])).is_err());
    }

    #[test]
    fn sweep_parses_sizes() {
        let dir = tmpdir("sw");
        let f = demo_file(&dir);
        let out = run(&args(&["sweep", &f, "--sizes", "18,36"])).unwrap();
        assert!(out.contains("18") && out.contains("36"), "{out}");
        assert!(run(&args(&["sweep", &f, "--sizes", "x"])).is_err());
    }

    #[test]
    fn analyze_and_vcd() {
        let dir = tmpdir("an");
        let f = demo_file(&dir);
        let a = run(&args(&["analyze", &f])).unwrap();
        assert!(a.contains("bus utilisation"), "{a}");
        assert!(a.contains("package latency"), "{a}");
        assert!(a.contains("energy"), "{a}");
        let v = run(&args(&["vcd", &f])).unwrap();
        assert!(v.starts_with("$date"), "{v}");
        assert!(v.contains("bus_busy_seg1"), "{v}");
        let g = run(&args(&["gantt", &f, "--width", "40"])).unwrap();
        assert!(g.contains("Segment 1 |"), "{g}");
        assert!(run(&args(&["gantt", &f, "--width", "0"])).is_err());
    }

    #[test]
    fn trace_round_trip_through_sbt() {
        let dir = tmpdir("sbt");
        let f = demo_file(&dir);
        let sbt = dir.join("run.sbt").to_string_lossy().into_owned();
        // Stream a trace to disk while emulating.
        let e = run(&args(&[
            "emulate",
            &f,
            "--trace-out",
            &sbt,
            "--frames",
            "2",
        ]))
        .unwrap();
        assert!(e.contains("events written to"), "{e}");
        // Analyze the file without the model.
        let a = run(&args(&["analyze", &sbt])).unwrap();
        assert!(a.contains("bus utilisation"), "{a}");
        assert!(a.contains("wait time (arbitration to grant)"), "{a}");
        assert!(a.contains("border units"), "{a}");
        assert!(a.contains("bottlenecks"), "{a}");
        assert!(a.contains("package latency"), "{a}");
        // The trace-derived report matches the model-derived one section
        // for section (same events, same analytics).
        let m = run(&args(&["analyze", &f, "--frames", "2"])).unwrap();
        for line in a.lines().skip(1) {
            if !line.is_empty() {
                assert!(m.contains(line), "model analyze lacks {line:?}\n{m}");
            }
        }
        // And the measured traffic drives the placement.
        let p = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--from-trace",
            &sbt,
        ]))
        .unwrap();
        assert!(p.contains("measured weights from"), "{p}");
        assert!(p.contains("PlaceTool: 2 segments"), "{p}");
        // A missing trace is a typed, propagated error.
        let err = run(&args(&[
            "place",
            &f,
            "--segments",
            "2",
            "--from-trace",
            "/nonexistent.sbt",
        ]))
        .unwrap_err();
        assert!(err.message.contains("T001"), "{}", err.message);
    }

    /// A mistyped or retired flag is an error, not a silently ignored
    /// no-op that runs with defaults.
    #[test]
    fn unknown_options_are_rejected() {
        let dir = tmpdir("opts");
        let f = demo_file(&dir);
        let err = run(&args(&["emulate", &f, "--detaild"])).unwrap_err();
        assert_eq!(err.message, "unknown option --detaild");
        let err = run(&args(&["emulate", &f, "--engine", "fast"])).unwrap_err();
        assert_eq!(err.message, "unknown option --engine");
        let err = run(&args(&["serve", "--serve-core", "threads"])).unwrap_err();
        assert_eq!(err.message, "unknown option --serve-core");
        for cmd in ["validate", "batch", "mc", "place", "analyze", "gantt"] {
            let err = run(&args(&[cmd, &f, "--bogus"])).unwrap_err();
            assert_eq!(err.message, "unknown option --bogus", "{cmd}");
        }
        // A flag another subcommand accepts is still unknown here.
        for (argv, flag) in [
            (vec!["reference", &f, "--detailed"], "--detailed"),
            (vec!["emulate", &f, "--threads", "4"], "--threads"),
            (vec!["validate", &f, "--frames", "2"], "--frames"),
            (vec!["corpus", "gen", "--write"], "--write"),
        ] {
            let err = run(&args(&argv)).unwrap_err();
            assert_eq!(err.message, format!("unknown option {flag}"), "{argv:?}");
        }
    }

    #[test]
    fn codegen_formats() {
        let dir = tmpdir("cg");
        let f = demo_file(&dir);
        let vhdl = run(&args(&["codegen", &f])).unwrap();
        assert!(vhdl.contains("entity sa1_scheduler"), "{vhdl}");
        let rust = run(&args(&["codegen", &f, "--format", "rust"])).unwrap();
        assert!(rust.contains("pub const SA_SCHEDULE_1"), "{rust}");
        let c = run(&args(&["codegen", &f, "--format", "c"])).unwrap();
        assert!(c.contains("segbus_sa_job_t"), "{c}");
        assert!(run(&args(&["codegen", &f, "--format", "cobol"])).is_err());
    }

    #[test]
    fn missing_file_reports_path() {
        let err = run(&args(&["validate", "/nonexistent/x.sbd"])).unwrap_err();
        assert!(err.message.contains("/nonexistent/x.sbd"));
    }

    #[test]
    fn validation_errors_list_diagnostics() {
        let dir = tmpdir("bad");
        let path = dir.join("bad.sbd");
        std::fs::write(
            &path,
            r#"application bad {
                 process A initial;
                 process B final;
                 flow A -> B { items 360; order 1; ticks 100; }
               }
               platform p {
                 segment S1 { freq_mhz 91; hosts A; }
               }"#,
        )
        .unwrap();
        let err = run(&args(&["validate", &path.to_string_lossy()])).unwrap_err();
        assert!(err.message.contains("V003"), "{}", err.message);
    }

    #[test]
    fn batch_over_directory_hits_cache_and_matches_emulate() {
        let dir = tmpdir("batch");
        let f = demo_file(&dir);
        // Two byte-identical duplicates plus the original: three jobs,
        // one distinct digest.
        let demo = std::fs::read_to_string(&f).unwrap();
        std::fs::write(dir.join("dup1.sbd"), &demo).unwrap();
        std::fs::write(dir.join("dup2.sbd"), &demo).unwrap();
        std::fs::write(dir.join("not-a-model.txt"), "ignored").unwrap();
        let out = run(&args(&["batch", &dir.to_string_lossy()])).unwrap();

        // Duplicates are answered from the cache…
        let stats = out.lines().last().unwrap();
        assert!(stats.contains("3 model(s), 0 failure(s)"), "{stats}");
        let hits: u64 = stats
            .split("cache: ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(hits >= 2, "duplicates must hit the cache: {stats}");
        assert_eq!(out.matches("(cached)").count(), 2, "{out}");
        assert_eq!(out.matches("(emulated)").count(), 1, "{out}");

        // …and every report is bit-identical to a lone `segbus emulate`.
        let emulated = run(&args(&["emulate", &f])).unwrap();
        assert_eq!(out.matches(emulated.as_str()).count(), 3, "{out}");
    }

    #[test]
    fn batch_cache_dir_warm_starts_across_runs() {
        let dir = tmpdir("batch-disk");
        let f = demo_file(&dir);
        let cache = dir.join("cache");
        let _ = std::fs::remove_dir_all(&cache);
        let cache = cache.to_string_lossy().to_string();
        let cold = run(&args(&["batch", &f, "--cache-dir", &cache])).unwrap();
        assert_eq!(cold.matches("(emulated)").count(), 1, "{cold}");
        assert!(cold.lines().last().unwrap().contains("1 misses"), "{cold}");
        // A second run — a separate pool, as a fresh process would be —
        // answers entirely from the persistent store: 100% cache hits,
        // zero emulations, and the same bytes in the report.
        let warm = run(&args(&["batch", &f, "--cache-dir", &cache])).unwrap();
        assert_eq!(warm.matches("(cached)").count(), 1, "{warm}");
        let stats = warm.lines().last().unwrap();
        assert!(stats.contains("0 misses"), "{stats}");
        assert!(stats.contains("1 disk hits; 0 emulated"), "{stats}");
        let emulated = run(&args(&["emulate", &f])).unwrap();
        assert!(warm.contains(emulated.as_str()), "{warm}");
    }

    #[test]
    fn batch_reports_per_model_errors_and_keeps_going() {
        let dir = tmpdir("batch-err");
        let f = demo_file(&dir);
        let broken = dir.join("broken.sbd");
        std::fs::write(&broken, "application broken {").unwrap();
        // Parse failures abort with the path, like every other command.
        let err = run(&args(&["batch", &broken.to_string_lossy(), &f])).unwrap_err();
        assert!(err.message.contains("broken.sbd"), "{}", err.message);
        assert!(run(&args(&["batch"])).is_err());
        assert!(run(&args(&["batch", "/nonexistent"])).is_err());
        // Flags thread through to the engine: 0 frames is rejected.
        assert!(run(&args(&["batch", &f, "--frames", "0"])).is_err());
    }

    fn stochastic_demo_file(dir: &Path) -> String {
        let path = dir.join("noisy.sbd");
        std::fs::write(
            &path,
            r#"application noisy {
                 process A initial;
                 process B;
                 process C final;
                 flow A -> B { items 360; order 1; ticks 100;
                               items_dist uniform 300 400;
                               ticks_dist normal 100 15 60 140; }
                 flow B -> C { items 180; order 2; ticks 50;
                               jitter choice 0 3 10 1; }
               }
               platform duo {
                 package_size 36;
                 ca { freq_mhz 111; }
                 segment S1 { freq_mhz 91; hosts A B; }
                 segment S2 { freq_mhz 98; hosts C; }
               }"#,
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn mc_is_thread_count_invariant() {
        let dir = tmpdir("mc");
        let f = stochastic_demo_file(&dir);
        let cmd = |threads: &str| {
            run(&args(&[
                "mc",
                &f,
                "--samples",
                "16",
                "--seed",
                "7",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        let one = cmd("1");
        assert!(one.contains("16 sample(s), seed 7"), "{one}");
        assert!(one.contains("95% CI"), "{one}");
        assert!(one.contains("segment 1:"), "{one}");
        // The acceptance contract: byte-identical for any --threads.
        assert_eq!(one, cmd("2"));
        assert_eq!(one, cmd("8"));
    }

    #[test]
    fn mc_warm_cache_dir_emulates_nothing() {
        let dir = tmpdir("mc-disk");
        let f = stochastic_demo_file(&dir);
        let cache = dir.join("cache").to_string_lossy().into_owned();
        let cmd = [
            "mc",
            &f,
            "--samples",
            "12",
            "--seed",
            "3",
            "--cache-dir",
            &cache,
        ];
        let cold = run(&args(&cmd)).unwrap();
        let warm = run(&args(&cmd)).unwrap();
        let stats = warm.lines().last().unwrap();
        assert!(stats.contains("0 misses"), "{warm}");
        assert!(stats.ends_with("0 emulated"), "{warm}");
        // Identical estimate, cold or warm.
        let head = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("cache:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&cold), head(&warm));
    }

    #[test]
    fn mc_flags_and_deterministic_models() {
        let dir = tmpdir("mc-flags");
        let f = demo_file(&dir);
        // A model without distributions collapses to one distinct system.
        let out = run(&args(&["mc", &f, "--samples", "10"])).unwrap();
        assert!(out.contains("1 distinct system(s)"), "{out}");
        assert!(out.contains("no distributions"), "{out}");
        assert!(run(&args(&["mc", &f, "--samples", "0"])).is_err());
        assert!(run(&args(&["mc", &f, "--frames", "0"])).is_err());
        assert!(run(&args(&["mc"])).is_err());
    }

    #[test]
    fn corpus_gen_then_check_round_trips() {
        let dir = tmpdir("corpus");
        let tree = dir.join("tree").to_string_lossy().into_owned();
        let out = run(&args(&["corpus", "gen", &tree])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(Path::new(&tree).join("MANIFEST.txt").exists());
        assert!(Path::new(&tree).join("mp3/mp3-s1.sbd").exists());
        let check = run(&args(&["corpus", "gen", &tree, "--check"])).unwrap();
        assert!(check.contains("match"), "{check}");
        // A drifted file fails the check and is named.
        let victim = Path::new(&tree).join("star/star-s1.sbd");
        std::fs::write(&victim, "application tampered {}\n").unwrap();
        let err = run(&args(&["corpus", "gen", &tree, "--check"])).unwrap_err();
        assert!(err.message.contains("star-s1.sbd"), "{}", err.message);
        run(&args(&["corpus", "gen", &tree])).unwrap(); // regenerate heals
        run(&args(&["corpus", "gen", &tree, "--check"])).unwrap();
        // A stray scenario outside the manifest also fails the check.
        std::fs::write(Path::new(&tree).join("mp3/stray.sbd"), "x").unwrap();
        let err = run(&args(&["corpus", "gen", &tree, "--check"])).unwrap_err();
        assert!(err.message.contains("stray.sbd"), "{}", err.message);
        // --check without a manifest refuses rather than inventing one.
        let empty = dir.join("empty").to_string_lossy().into_owned();
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run(&args(&["corpus", "gen", &empty, "--check"])).is_err());
        assert!(run(&args(&["corpus"])).is_err());
    }

    #[test]
    fn corpus_min_reports_and_removes_duplicates() {
        let dir = tmpdir("corpus-min");
        let tree = dir.join("tree").to_string_lossy().into_owned();
        run(&args(&["corpus", "gen", &tree])).unwrap();
        let clean = run(&args(&["corpus", "min", &tree, "--check"])).unwrap();
        assert!(clean.contains("0 redundant"), "{clean}");
        // Duplicate one scenario under a new name: same fingerprint.
        let src = Path::new(&tree).join("ring/ring-s1.sbd");
        let dup = Path::new(&tree).join("ring/ring-s999.sbd");
        std::fs::copy(&src, &dup).unwrap();
        let report = run(&args(&["corpus", "min", &tree])).unwrap();
        assert!(report.contains("1 redundant"), "{report}");
        assert!(report.contains("ring-s999.sbd duplicates"), "{report}");
        assert!(dup.exists(), "report-only run must not delete");
        let err = run(&args(&["corpus", "min", &tree, "--check"])).unwrap_err();
        assert!(err.message.contains("redundant"), "{}", err.message);
        let fixed = run(&args(&["corpus", "min", &tree, "--write"])).unwrap();
        assert!(fixed.contains("removed 1 file(s)"), "{fixed}");
        assert!(!dup.exists());
        run(&args(&["corpus", "min", &tree, "--check"])).unwrap();
        assert!(run(&args(&[
            "corpus",
            "min",
            &dir.join("nope").to_string_lossy()
        ]))
        .is_err());
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        assert!(run(&args(&["serve", "stray-positional"])).is_err());
        assert!(run(&args(&["serve", "--port", "notaport"])).is_err());
        let err = run(&args(&["serve", "--port", "99999"])).unwrap_err();
        assert!(err.message.contains("99999"), "{}", err.message);
        assert!(run(&args(&["serve", "--max-in-flight", "lots"])).is_err());
    }
}
