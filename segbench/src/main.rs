//! The `segbench` command line.
//!
//! ```text
//! segbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!          [--spans <file>] [--append <runs.jsonl>]
//! segbench compare <a.jsonl> <b.jsonl> [--bench <BENCHMARK.json>]
//! ```
//!
//! A run prints one `name value unit` line per metric, then the result as
//! one JSON object on the last line of standard output. It exits 1 when a
//! correctness check fails and 2 when the run cannot be made.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use segbench::{compare, run, Config, Workload};

/// Scratch files and spans go here, relative to the working directory.
const WORK_DIR: &str = ".bench_build/segbench";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: segbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
         [--spans <file>] [--append <runs.jsonl>]\n       \
         segbench compare <a.jsonl> <b.jsonl> [--bench <BENCHMARK.json>]",
        names.join("|")
    )
}

/// `--flag value` pairs; every flag takes a value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key, value.as_str()));
    }
    Ok(out)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 12.0;
    let mut trace = false;
    let mut spans = None;
    let mut append = None;
    for (key, value) in flags(args)? {
        let bad = || format!("--{key}: bad value {value:?}");
        match key {
            "workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "spans" => spans = Some(PathBuf::from(value)),
            "append" => append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Err("--workload and --seed are required".to_string());
    };
    let work_dir = PathBuf::from(WORK_DIR);
    let spans_path = trace
        .then(|| spans.unwrap_or_else(|| work_dir.join(format!("spans-{}.json", workload.name()))));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scenarios: segbench::corpus::SCENARIOS.len(),
        work_dir,
        spans_path: spans_path.clone(),
    };
    let outcome = run(&cfg)?;
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if !trace {
        println!(
            "latency_tail_us is the p{} of {} operation latencies (the faster half of windows)",
            workload.tail_percentile(),
            outcome.latency_samples
        );
    }
    if let Some(path) = spans_path {
        eprintln!("spans written to {}", path.display());
    }
    for m in &outcome.mismatches {
        eprintln!("MISMATCH {m}");
    }
    let json = outcome.to_json();
    if let Some(path) = append {
        let line = compare::run_line(workload.name(), seed, trace, &json);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{json}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let (files, rest) = args.split_at(args.len().min(2));
    let [a, b] = files else {
        return Err("compare needs two runs files".to_string());
    };
    let mut bench = PathBuf::from("BENCHMARK.json");
    for (key, value) in flags(rest)? {
        match key {
            "bench" => bench = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    let specs = compare::read_bench(&bench)?;
    let (report, ok) = compare::compare(
        &specs,
        &compare::read_runs(Path::new(a))?,
        &compare::read_runs(Path::new(b))?,
    );
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("--help" | "-h") | None => Err(usage()),
        _ => run_command(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("segbench: {e}");
        ExitCode::from(2)
    })
}
