//! `serve`: an in-process `Server` under a closed loop of two connections.
//!
//! The server runs two workers, a 128-entry memory cache and a report
//! store in a scratch directory. Each connection keeps four requests in
//! flight. The request mix is 70% from a 30-job hot set (warmed before
//! timing, so memory hits), 20% from a 1024-job warm set (larger than the
//! memory cache, so after first touch mostly disk hits) and 10% fresh jobs
//! (package size 8..=4096, 1..=4 frames; each one misses, emulates, is
//! inserted and later spills to disk). Latency runs from just before a
//! request line is written to just after its response line is read.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use segbus_core::{
    strict_validate, CachedPool, EmulationReport, EmulatorConfig, Engine, EnginePlan, SweepPool,
};
use segbus_serve::json::{self, Json};
use segbus_serve::protocol::{decode_job, encode_report};
use segbus_serve::{Limits, ServeOptions, Server};

use crate::corpus::SCENARIOS;
use crate::rng::{mix, Rng};
use crate::trace::Tracer;
use crate::{
    mismatch, ns_since, peak_rss_mb, timed_setup, Config, Measured, Traced, Window, Workload, OP,
};

const CONNECTIONS: usize = 2;
const IN_FLIGHT: usize = 4;
const WORKERS: usize = 2;
const MEMORY_CACHE: usize = 128;
const HOT: usize = 30;
const WARM: usize = 1024;
/// Width of a throughput window, in seconds.
const WINDOW_S: f64 = 0.5;

/// One emulation job as a client describes it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Job {
    scenario: u8,
    package_size: u32,
    frames: u8,
}

/// The seeded request stream. Every set cycles through the scenarios
/// (the hot set holds each twice), so the share of large models — whose
/// DSL parse every request pays, hit or miss — is the same for every seed.
struct Stream {
    hot: Vec<Job>,
    warm: Vec<Job>,
    used: HashSet<Job>,
    pick: Rng,
    fresh: Rng,
    fresh_drawn: usize,
    scenarios: usize,
    /// Every job handed out, indexed by request id.
    sent: Vec<Job>,
}

/// A job on `scenario` not in `used`, with a random package size and
/// frame count.
fn distinct_job(rng: &mut Rng, scenario: usize, used: &mut HashSet<Job>) -> Job {
    loop {
        let j = Job {
            scenario: scenario as u8,
            package_size: rng.range(8, 4096) as u32,
            frames: rng.range(1, 4) as u8,
        };
        if used.insert(j) {
            return j;
        }
    }
}

impl Stream {
    fn new(seed: u64, scenarios: usize) -> Stream {
        let mut sets = Rng::new(mix(seed, 1));
        let mut used = HashSet::new();
        let mut draw = |n: usize| -> Vec<Job> {
            (0..n)
                .map(|k| distinct_job(&mut sets, k % scenarios, &mut used))
                .collect()
        };
        let hot = draw(HOT);
        let warm = draw(WARM);
        Stream {
            hot,
            warm,
            used,
            pick: Rng::new(mix(seed, 2)),
            fresh: Rng::new(mix(seed, 3)),
            fresh_drawn: 0,
            scenarios,
            sent: Vec::new(),
        }
    }

    /// The next request: its id and job.
    fn next(&mut self) -> (u64, Job) {
        let u = self.pick.below(100);
        let job = if u < 70 {
            self.hot[self.pick.below(HOT as u64) as usize]
        } else if u < 90 {
            self.warm[self.pick.below(WARM as u64) as usize]
        } else {
            self.fresh_drawn += 1;
            let scenario = self.fresh_drawn % self.scenarios;
            distinct_job(&mut self.fresh, scenario, &mut self.used)
        };
        self.sent.push(job);
        (self.sent.len() as u64 - 1, job)
    }
}

/// The scenarios as JSON string literals, escaped once.
fn escaped_sources() -> Vec<String> {
    SCENARIOS
        .iter()
        .map(|(_, text)| {
            let mut s = String::new();
            json::write_str(&mut s, text);
            s
        })
        .collect()
}

/// The first `count` request lines.
pub(crate) fn stream(seed: u64, count: usize, scenarios: usize) -> Vec<String> {
    let sources = escaped_sources();
    let mut stream = Stream::new(seed, scenarios);
    (0..count)
        .map(|_| {
            let (id, job) = stream.next();
            request_line(id, job, &sources)
        })
        .collect()
}

fn request_line(id: u64, job: Job, sources: &[String]) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"emulate\",\"source\":{},\"package_size\":{},\"frames\":{}}}\n",
        sources[job.scenario as usize], job.package_size, job.frames
    )
}

/// A running server over its own report store, warmed with the hot set.
struct Served {
    server: Server,
    dir: PathBuf,
    sources: Vec<String>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh, empty scratch directory.
fn fresh_dir(work_dir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = work_dir.join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn setup(cfg: &Config, rep: usize) -> Result<Served, String> {
    let dir = fresh_dir(&cfg.work_dir, &rep.to_string())?;
    let server = Server::start(ServeOptions {
        port: 0,
        threads: WORKERS,
        cache_capacity: MEMORY_CACHE,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let served = Served {
        server,
        dir,
        sources: escaped_sources(),
    };
    let mut conn = Conn::open(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (id, &job) in Stream::new(cfg.seed, cfg.scenarios).hot.iter().enumerate() {
        conn.send(&request_line(id as u64, job, &served.sources))
            .map_err(|e| format!("warm-up: {e}"))?;
        let line = conn.recv().map_err(|e| format!("warm-up: {e}"))?;
        if !Response::parse(&line).ok {
            return Err(format!("warm-up: {job:?} answered {line}"));
        }
    }
    Ok(served)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        // A response that never comes must end the run, not hang it.
        sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(sock.try_clone()?),
            writer: sock,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(std::mem::take(&mut self.line)),
        }
    }
}

/// The fields of a response line the benchmark checks.
struct Response {
    id: u64,
    ok: bool,
    makespan_ps: Option<u64>,
}

impl Response {
    /// Read the checked fields without parsing the whole line, so the
    /// client spends its share of the two cores on I/O rather than on the
    /// report text. Each pattern is a quoted key and its colon; the report
    /// and error texts are JSON strings, whose quotes are escaped, so the
    /// first match is the field itself.
    fn parse(line: &str) -> Response {
        let field = |pattern: &str| {
            let rest = &line[line.find(pattern)? + pattern.len()..];
            rest.split([',', '}']).next()
        };
        Response {
            id: field("\"id\":")
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX),
            ok: field("\"ok\":") == Some("true"),
            makespan_ps: field("\"makespan_ps\":").and_then(|v| v.parse().ok()),
        }
    }
}

/// One answered request.
struct Record {
    id: u64,
    latency_ns: u64,
    /// Completion time since the run started.
    done_ns: u64,
    response: Response,
}

/// One connection's closed loop until `deadline`, then a drain.
fn connection(
    addr: SocketAddr,
    stream: &Mutex<Stream>,
    sources: &[String],
    start: Instant,
    deadline: Instant,
) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let Ok(mut conn) = Conn::open(addr) else {
        return (records, 0);
    };
    let mut lost = 0;
    loop {
        while pending.len() < IN_FLIGHT && Instant::now() < deadline {
            let (id, job) = stream.lock().expect("request stream lock").next();
            let line = request_line(id, job, sources);
            let t = Instant::now();
            if conn.send(&line).is_err() {
                lost += 1;
                break;
            }
            pending.insert(id, t);
        }
        if pending.is_empty() {
            break;
        }
        let Ok(line) = conn.recv() else {
            lost += pending.len() as u64;
            break;
        };
        let now = Instant::now();
        let response = Response::parse(&line);
        match pending.remove(&response.id) {
            Some(t) => records.push(Record {
                id: response.id,
                latency_ns: now.duration_since(t).as_nanos() as u64,
                done_ns: now.duration_since(start).as_nanos() as u64,
                response,
            }),
            // A response to nothing we sent: its request is lost.
            None => lost += 1,
        }
    }
    (records, lost)
}

/// The closed loop's results.
struct Run {
    records: Vec<Record>,
    sent: Vec<Job>,
    lost: u64,
    /// Responses grouped by the slice of time they completed in.
    windows: Vec<Window>,
}

fn drive(served: &Served, cfg: &Config, seconds: f64) -> Run {
    let stream = Mutex::new(Stream::new(cfg.seed, cfg.scenarios));
    let addr = served.server.addr();
    let sources = &served.sources;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Record>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| connection(addr, &stream, sources, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut records = Vec::new();
    let mut lost = 0;
    for (r, l) in results {
        records.extend(r);
        lost += l;
    }
    let slices = ((seconds / WINDOW_S) as usize).max(1);
    let width_ns = seconds * 1e9 / slices as f64;
    let mut windows: Vec<Window> = (0..slices)
        .map(|_| Window {
            secs: width_ns / 1e9,
            ..Window::default()
        })
        .collect();
    // Responses drained after the deadline fall in no slice.
    for r in &records {
        if let Some(w) = windows.get_mut((r.done_ns as f64 / width_ns) as usize) {
            w.ops += 1;
            w.latencies_ns.push(r.latency_ns);
        }
    }
    Run {
        records,
        sent: stream.into_inner().expect("request stream lock").sent,
        lost,
        windows,
    }
}

fn failed(run: &Run) -> u64 {
    run.lost + run.records.iter().filter(|r| !r.response.ok).count() as u64
}

/// Every answered makespan must equal an in-process run of its job.
fn check_against_engine(run: &Run, out: &mut Vec<String>) {
    let mut distinct: Vec<Job> = run
        .sent
        .iter()
        .copied()
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    distinct.sort_by_key(|j| (j.scenario, j.package_size, j.frames));
    let config = EmulatorConfig::default();
    let want: HashMap<Job, Result<u64, String>> = distinct
        .iter()
        .copied()
        .zip(
            SweepPool::with_threads(config, WORKERS).sweep_with(&distinct, |engine, job| {
                crate::parse_at(SCENARIOS[job.scenario as usize].1, job.package_size)
                    .and_then(|psm| engine.try_run_frames(&psm, job.frames as u64))
                    .map(|r| r.makespan.0)
                    .map_err(|e| e.to_string())
            }),
        )
        .collect();
    for r in &run.records {
        let job = run.sent[r.id as usize];
        match (&want[&job], r.response.makespan_ps) {
            (Ok(w), Some(g)) if *w == g => {}
            (Ok(w), Some(g)) => mismatch(
                out,
                Workload::Serve,
                r.id,
                format!("makespan_ps: served {g} vs in-process {w} for {job:?}"),
            ),
            (Err(e), _) => mismatch(
                out,
                Workload::Serve,
                r.id,
                format!("in-process run failed: {e}"),
            ),
            // A failed response is counted in `failed`, not here.
            (Ok(_), None) => {}
        }
    }
}

/// The server's own counters, from its `stats` command.
fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("stats: {e}"))?;
    conn.send("{\"id\":0,\"cmd\":\"stats\"}\n")
        .and_then(|_| conn.recv())
        .map_err(|e| format!("stats: {e}"))
        .and_then(|l| json::parse(&l).map_err(|e| format!("stats: {e}")))
}

pub(crate) fn measured(cfg: &Config) -> Result<Measured, String> {
    let mut rep = 0;
    let (served, setup_s) = timed_setup(|| {
        rep += 1;
        setup(cfg, rep)
    })?;
    let run = drive(&served, cfg, cfg.seconds);
    drop(served);
    let mut mismatches = Vec::new();
    check_against_engine(&run, &mut mismatches);
    Ok(Measured {
        setup_s,
        attempted: run.sent.len() as u64,
        failed: failed(&run),
        windows: run.windows,
        mismatches,
    })
}

/// The replay's results.
struct Replay {
    wall_ns: u64,
    makespans: Vec<Option<u64>>,
    packages: u64,
}

/// Every request of `run`, in id order, through the layers a request
/// crosses inside the server — decode (which parses the DSL), digest,
/// cache lookup, validate, plan and run on a miss, cache insert, encode —
/// on one thread, over a fresh store warmed with the same hot set.
fn replay(
    tr: &mut Tracer,
    run: &Run,
    hot: &[Job],
    sources: &[String],
    dir: &Path,
) -> Result<Replay, String> {
    let config = EmulatorConfig::default();
    let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 1), MEMORY_CACHE);
    pool.attach_disk(dir)
        .map_err(|e| format!("cannot open a report store in {}: {e}", dir.display()))?;
    let mut engine = Engine::new(config);
    let mut buffer = EmulationReport::empty();
    let limits = Limits::default();
    let mut out = Replay {
        wall_ns: 0,
        makespans: Vec::with_capacity(run.sent.len()),
        packages: 0,
    };
    let jobs = hot.iter().map(|&j| (u64::MAX, j, false)).chain(
        run.sent
            .iter()
            .enumerate()
            .map(|(id, &j)| (id as u64, j, true)),
    );
    for (id, job, timed) in jobs {
        let line = request_line(id, job, sources);
        let mut quiet = Tracer::new(false);
        let tr: &mut Tracer = if timed { &mut *tr } else { &mut quiet };
        tr.set_request(id);
        let t = Instant::now();
        let root = tr.enter(OP);
        let result = (|| {
            let v = tr.time("protocol.decode", || {
                json::parse(&line)
                    .map_err(|e| e.to_string())
                    .and_then(|v| decode_job(&v, &limits).map_err(|e| e.to_string()))
            })?;
            let key = tr.time("digest.job", || v.digest());
            let cached = tr.time("cache.lookup", || pool.lookup(key));
            let report = match &cached {
                Some(r) => r,
                None => {
                    tr.time("precheck.validate", || {
                        strict_validate(&v.psm, v.frames, &v.config)
                    })
                    .map_err(|e| e.to_string())?;
                    let plan = tr
                        .time("plan.compile", || EnginePlan::try_new(&v.psm))
                        .map_err(|e| e.to_string())?;
                    tr.time("engine.run", || {
                        engine.run_plan_into(&plan, v.frames, &mut buffer)
                    });
                    tr.time("cache.insert", || pool.insert(key, &buffer));
                    out.packages += buffer.fus.iter().map(|f| f.packages_sent).sum::<u64>();
                    &buffer
                }
            };
            let text = tr.time("protocol.encode", || {
                encode_report(id, cached.is_some(), key, report)
            });
            black_box(text);
            Ok::<u64, String>(report.makespan.0)
        })();
        tr.exit(root);
        if timed {
            out.wall_ns += ns_since(t);
            out.makespans.push(result.ok());
        }
    }
    Ok(out)
}

/// A third of the time runs the closed loop; its requests are then
/// replayed on one thread, untraced and then traced, and every replayed
/// makespan must equal the served one.
pub(crate) fn traced(cfg: &Config) -> Result<Traced, String> {
    let served = setup(cfg, 0)?;
    let hot = Stream::new(cfg.seed, cfg.scenarios).hot;
    let run = drive(&served, cfg, cfg.seconds / 3.0);
    let peak_rss_mb = peak_rss_mb()?;
    let stats = server_stats(served.server.addr())?;
    let sources = served.sources.clone();
    drop(served);

    let untraced_dir = fresh_dir(&cfg.work_dir, "replay")?;
    let untraced = replay(&mut Tracer::new(false), &run, &hot, &sources, &untraced_dir);
    let _ = std::fs::remove_dir_all(&untraced_dir);
    let untraced = untraced?;
    let traced_dir = fresh_dir(&cfg.work_dir, "traced")?;
    let mut tr = Tracer::new(true);
    let traced = replay(&mut tr, &run, &hot, &sources, &traced_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);
    let traced = traced?;

    let mut mismatches = Vec::new();
    for r in &run.records {
        let served = r.response.makespan_ps;
        for (side, replayed) in [("untraced", &untraced), ("traced", &traced)] {
            let got = replayed.makespans[r.id as usize];
            if served.is_some() && got != served {
                mismatch(
                    &mut mismatches,
                    Workload::Serve,
                    r.id,
                    format!("makespan_ps: {side} replay {got:?} vs served {served:?}"),
                );
            }
        }
    }
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let lookups = (n("hits") + n("misses")).max(1.0);
    let e2e_mean = run.records.iter().map(|r| r.latency_ns).sum::<u64>() as f64
        / run.records.len().max(1) as f64;
    let replay_mean = untraced.wall_ns as f64 / run.sent.len().max(1) as f64;
    Ok(Traced {
        spans: tr.spans().to_vec(),
        ops: run.sent.len() as u64,
        untraced_ns: untraced.wall_ns,
        packages: traced.packages,
        attempted: run.sent.len() as u64,
        failed: failed(&run),
        extra: vec![
            ("mem.peak_rss_mb", peak_rss_mb),
            ("cache.hit_ratio", n("hits") / lookups),
            ("cache.disk_hit_ratio", n("disk_hits") / lookups),
            ("cache.evictions", n("evictions")),
            ("serve.sheds", n("sheds")),
            ("serve.batch_jobs_mean", n("jobs") / n("batches").max(1.0)),
            (
                "serve.outside_pct",
                100.0 * (e2e_mean - replay_mean) / e2e_mean.max(1.0),
            ),
        ],
        mismatches,
    })
}
