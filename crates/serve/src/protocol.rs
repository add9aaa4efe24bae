//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response per line, correlated by the
//! client-chosen `id`. Four commands:
//!
//! * `emulate` — a model (DSL source, or an XML PSDF + PSM pair) plus
//!   optional config overrides; answered with the report summary.
//! * `hello` — optional handshake; `{"in_order": true}` switches the
//!   connection to in-order response delivery (must be the first request
//!   on the connection — see `crate::server` for the ordering contract).
//! * `stats` — the service's cache and batch counters.
//! * `shutdown` — stop accepting connections; answered before the
//!   listener closes.
//!
//! Protocol-level failures use the `S0xx` code family, continuing the
//! taxonomy of DESIGN.md §9: `S001` malformed request line (bad JSON),
//! `S002` invalid request shape (unknown command, missing or ill-typed
//! field), `S003` request line longer than the server's cap (the line is
//! discarded, not buffered), `S004` `frames` out of range (zero, or above
//! the server's `--max-frames` bound), `S005` load shed — the server
//! refused or abandoned the request to protect itself (global in-flight
//! cap reached, reorder buffer over its bound, or a worker fault
//! abandoned the batch); the request was *not* executed and can be
//! retried. Model-level failures pass the underlying `P/X/M/V/C` codes
//! through untouched, so a service client sees exactly the diagnostics
//! the CLI would print.

use segbus_core::{
    ArbitrationPolicy, BatchJob, CacheStats, EmulationReport, EmulatorConfig, ProducerRelease,
};
use segbus_model::SegbusError;

use crate::json::{self, Json, ObjWriter};

/// A decoded request line.
#[derive(Debug)]
pub enum Request {
    /// Run one model and report the result.
    Emulate {
        /// Echoed correlation id (0 when the client sent none).
        id: u64,
        /// The decoded, ready-to-run job (boxed: a [`BatchJob`] is two
        /// orders of magnitude larger than the other variants).
        job: Box<BatchJob>,
    },
    /// Connection handshake (optionally requesting in-order responses).
    Hello {
        /// Echoed correlation id.
        id: u64,
        /// `true` to request in-order response delivery.
        in_order: bool,
    },
    /// Report cache/batch counters.
    Stats {
        /// Echoed correlation id.
        id: u64,
    },
    /// Stop the server.
    Shutdown {
        /// Echoed correlation id.
        id: u64,
    },
}

/// Server-side bounds applied while decoding requests.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Upper bound on an `emulate` request's `frames` (inclusive); jobs
    /// beyond it are rejected with `S004` so one request cannot pin a
    /// worker indefinitely.
    pub max_frames: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_frames: 4096 }
    }
}

fn shape_err(msg: impl Into<String>) -> SegbusError {
    SegbusError::new("S002", msg)
}

/// The `S003` error for a request line exceeding the server's byte cap.
/// Built here (not in the server) so the code lives with the taxonomy.
pub fn oversize_error(max_line_bytes: usize) -> SegbusError {
    SegbusError::new(
        "S003",
        format!("request line exceeds {max_line_bytes} bytes and was discarded"),
    )
}

/// The `S005` load-shed error: the request was refused or abandoned to
/// keep the server bounded (never silently stalled). Safe to retry.
pub fn shed_error(reason: &str) -> SegbusError {
    SegbusError::new("S005", format!("load shed: {reason}; retry later"))
}

/// The `S002` error for an `in_order` handshake that is not the first
/// request on its connection. Shared by both serve cores so the
/// differential contract covers the exact bytes.
pub fn handshake_order_error() -> SegbusError {
    SegbusError::new(
        "S002",
        "the in_order handshake must be the first request on the connection",
    )
}

fn frames_err(frames: u64, limits: &Limits) -> SegbusError {
    SegbusError::new(
        "S004",
        format!(
            "\"frames\" is {frames}, outside the accepted range 1..={}",
            limits.max_frames
        ),
    )
}

/// Decode one request line. On failure the caller still gets the `id` (if
/// one could be read) so the error response can be correlated.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, (u64, SegbusError)> {
    let v = json::parse(line).map_err(|e| {
        (
            0,
            SegbusError::new("S001", format!("malformed request: {e}")),
        )
    })?;
    let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
    let with_id = |e: SegbusError| (id, e);
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| with_id(shape_err("request lacks a \"cmd\" string")))?;
    match cmd {
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "hello" => Ok(Request::Hello {
            id,
            in_order: v.get("in_order").and_then(Json::as_bool).unwrap_or(false),
        }),
        "emulate" => {
            let job = decode_job(&v, limits).map_err(with_id)?;
            Ok(Request::Emulate {
                id,
                job: Box::new(job),
            })
        }
        other => Err(with_id(shape_err(format!(
            "unknown cmd {other:?} (emulate | hello | stats | shutdown)"
        )))),
    }
}

/// Build the [`BatchJob`] described by an `emulate` request object.
pub fn decode_job(v: &Json, limits: &Limits) -> Result<BatchJob, SegbusError> {
    let mut psm = match v.get("format").and_then(Json::as_str).unwrap_or("dsl") {
        "dsl" => {
            let source = v
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| shape_err("emulate (dsl) lacks a \"source\" string"))?;
            segbus_dsl::parse_system(source)?
        }
        "xml" => {
            let psdf = v
                .get("psdf")
                .and_then(Json::as_str)
                .ok_or_else(|| shape_err("emulate (xml) lacks a \"psdf\" string"))?;
            let psm_doc = v
                .get("psm")
                .and_then(Json::as_str)
                .ok_or_else(|| shape_err("emulate (xml) lacks a \"psm\" string"))?;
            let pd = segbus_xml::parse(psdf)?;
            let pm = segbus_xml::parse(psm_doc)?;
            segbus_xml::import::import_system(&pd, &pm)?
        }
        other => {
            return Err(shape_err(format!("unknown format {other:?} (dsl | xml)")));
        }
    };
    if let Some(s) = v.get("package_size") {
        let s = s
            .as_u64()
            .filter(|&s| s <= u32::MAX as u64)
            .ok_or_else(|| shape_err("\"package_size\" must be a u32"))?;
        psm = psm.with_package_size(s as u32)?;
    }
    let frames = match v.get("frames") {
        None => 1,
        Some(f) => f
            .as_u64()
            .ok_or_else(|| shape_err("\"frames\" must be an unsigned integer"))?,
    };
    if frames == 0 || frames > limits.max_frames {
        return Err(frames_err(frames, limits));
    }
    let config = decode_config(v)?;
    Ok(BatchJob {
        psm,
        config,
        frames,
    })
}

/// The [`EmulatorConfig`] overrides of an `emulate` request.
fn decode_config(v: &Json) -> Result<EmulatorConfig, SegbusError> {
    let mut config = if v.get("detailed").and_then(Json::as_bool).unwrap_or(false) {
        EmulatorConfig::detailed()
    } else {
        EmulatorConfig::default()
    };
    if let Some(t) = v.get("trace").and_then(Json::as_bool) {
        config.trace = t;
    }
    if let Some(a) = v.get("arbitration") {
        config.arbitration = match a.as_str() {
            Some("fifo") => ArbitrationPolicy::Fifo,
            Some("fixed_priority") => ArbitrationPolicy::FixedPriority,
            Some("fair_round_robin") => ArbitrationPolicy::FairRoundRobin,
            _ => {
                return Err(shape_err(
                    "\"arbitration\" must be fifo | fixed_priority | fair_round_robin",
                ))
            }
        };
    }
    if let Some(r) = v.get("release") {
        config.producer_release = match r.as_str() {
            Some("after_delivery") => ProducerRelease::AfterDelivery,
            Some("after_local_phase") => ProducerRelease::AfterLocalPhase,
            _ => {
                return Err(shape_err(
                    "\"release\" must be after_delivery | after_local_phase",
                ))
            }
        };
    }
    Ok(config)
}

/// Encode a successful `emulate` response.
///
/// `report` carries the full paper-style print-out, so a service client
/// sees byte-for-byte what `segbus emulate` prints (the batch/emulate
/// bit-identity contract).
pub fn encode_report(id: u64, cached: bool, digest: u64, report: &EmulationReport) -> String {
    let mut w = ObjWriter::new();
    w.uint("id", id)
        .bool("ok", true)
        .bool("cached", cached)
        .str("digest", &format!("{digest:016x}"))
        .uint("makespan_ps", report.makespan.0)
        .uint("execution_time_ps", report.execution_time().0)
        .float("execution_time_us", report.execution_time().as_micros_f64())
        .uint("ca_tct", report.ca.tct)
        .str("report", &report.paper_style());
    w.finish()
}

/// Encode a failure response carrying a typed [`SegbusError`].
pub fn encode_error(id: u64, e: &SegbusError) -> String {
    let mut w = ObjWriter::new();
    w.uint("id", id)
        .bool("ok", false)
        .str("code", e.code)
        .str("error", &e.to_string());
    w.finish()
}

/// Encode the `hello` acknowledgement: the ordering mode now in effect
/// and the server's pipelining window.
pub fn encode_hello(id: u64, in_order: bool, window: usize) -> String {
    let mut w = ObjWriter::new();
    w.uint("id", id)
        .bool("ok", true)
        .bool("in_order", in_order)
        .uint("window", window as u64);
    w.finish()
}

/// Per-shard figures of the `stats` response.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Connections currently registered on the shard.
    pub connections: u64,
    /// Depth of the shard's ready-ring (completions + registrations
    /// waiting for the shard thread).
    pub queue_depth: u64,
    /// `S005` responses this shard has issued.
    pub sheds: u64,
}

/// The `stats` snapshot: service counters plus shard/admission/latency
/// figures.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Batches executed.
    pub batches: u64,
    /// Jobs executed across all batches.
    pub jobs: u64,
    /// Worker threads of the sweep pool.
    pub threads: usize,
    /// Emulation jobs submitted and not yet completed.
    pub in_flight: u64,
    /// Global in-flight cap (admission control bound).
    pub max_in_flight: u64,
    /// One entry per IO shard.
    pub shards: Vec<ShardStats>,
    /// p50 service latency (submit → completion), microseconds.
    pub p50_us: u64,
    /// p99 service latency (submit → completion), microseconds.
    pub p99_us: u64,
    /// Latency samples behind the quantiles.
    pub latency_samples: u64,
}

/// Encode the `stats` response: cache and batch counters, cache hit
/// tiers, admission counters and latency quantiles.
pub fn encode_stats_full(id: u64, s: &ServeStats) -> String {
    let total_sheds: u64 = s.shards.iter().map(|sh| sh.sheds).sum();
    let conns: Vec<u64> = s.shards.iter().map(|sh| sh.connections).collect();
    let depths: Vec<u64> = s.shards.iter().map(|sh| sh.queue_depth).collect();
    let sheds: Vec<u64> = s.shards.iter().map(|sh| sh.sheds).collect();
    let mut w = ObjWriter::new();
    w.uint("id", id)
        .bool("ok", true)
        .uint("hits", s.cache.hits)
        .uint("misses", s.cache.misses)
        .uint("evictions", s.cache.evictions)
        .uint("len", s.cache.len as u64)
        .uint("capacity", s.cache.capacity as u64)
        .uint("disk_hits", s.cache.disk_hits)
        .uint("disk_len", s.cache.disk_len as u64)
        .uint("batches", s.batches)
        .uint("jobs", s.jobs)
        .uint("threads", s.threads as u64)
        .uint("memory_hits", s.cache.memory_hits())
        .uint("in_flight", s.in_flight)
        .uint("max_in_flight", s.max_in_flight)
        .uint("sheds", total_sheds)
        .uint("shards", s.shards.len() as u64)
        .uints("shard_connections", &conns)
        .uints("shard_queue_depth", &depths)
        .uints("shard_sheds", &sheds)
        .uint("p50_us", s.p50_us)
        .uint("p99_us", s.p99_us)
        .uint("latency_samples", s.latency_samples);
    w.finish()
}

/// Encode the `shutdown` acknowledgement.
pub fn encode_shutdown(id: u64) -> String {
    let mut w = ObjWriter::new();
    w.uint("id", id)
        .bool("ok", true)
        .bool("shutting_down", true);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::write_str;

    const DEMO: &str = "application a {\n  process X initial;\n  process Y final;\n  flow X -> Y { items 72; order 1; ticks 100; }\n}\nplatform p {\n  segment S0 { freq_mhz 100; hosts X; }\n  segment S1 { freq_mhz 100; hosts Y; }\n}\n";

    fn emulate_line(extra: &str) -> String {
        let mut src = String::new();
        write_str(&mut src, DEMO);
        format!(r#"{{"id": 5, "cmd": "emulate", "source": {src}{extra}}}"#)
    }

    fn parse(line: &str) -> Result<Request, (u64, SegbusError)> {
        parse_request(line, &Limits::default())
    }

    #[test]
    fn decodes_a_dsl_emulate_request() {
        let req = parse(&emulate_line("")).unwrap();
        match req {
            Request::Emulate { id, job } => {
                assert_eq!(id, 5);
                assert_eq!(job.frames, 1);
                assert_eq!(job.config, EmulatorConfig::default());
                assert_eq!(job.psm.application().process_count(), 2);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn overrides_reach_the_job() {
        let req = parse(&emulate_line(
            r#", "frames": 3, "package_size": 18, "detailed": true, "trace": true, "arbitration": "fair_round_robin", "release": "after_local_phase""#,
        ))
        .unwrap();
        match req {
            Request::Emulate { job, .. } => {
                assert_eq!(job.frames, 3);
                assert_eq!(job.psm.platform().package_size(), 18);
                assert!(job.config.trace);
                assert_eq!(job.config.arbitration, ArbitrationPolicy::FairRoundRobin);
                assert_eq!(
                    job.config.producer_release,
                    ProducerRelease::AfterLocalPhase
                );
                assert_eq!(job.config.timing, segbus_core::TimingParams::detailed());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn protocol_errors_are_typed() {
        // Bad JSON: S001, id unknown.
        let (id, e) = parse("{nope").unwrap_err();
        assert_eq!((id, e.code), (0, "S001"));
        // Unknown cmd: S002, id preserved.
        let (id, e) = parse(r#"{"id": 9, "cmd": "explode"}"#).unwrap_err();
        assert_eq!((id, e.code), (9, "S002"));
        // Missing source.
        let (_, e) = parse(r#"{"id": 1, "cmd": "emulate"}"#).unwrap_err();
        assert_eq!(e.code, "S002");
        // Model-level errors keep their own codes (P004: no platform).
        let (_, e) =
            parse(r#"{"id": 1, "cmd": "emulate", "source": "application a { }"}"#).unwrap_err();
        assert_eq!(e.code, "P004");
    }

    #[test]
    fn frames_are_validated_at_the_boundary() {
        // Zero frames: rejected before the job is ever built.
        let (id, e) = parse(&emulate_line(r#", "frames": 0"#)).unwrap_err();
        assert_eq!((id, e.code), (5, "S004"));
        // Above the configured cap: rejected with the same code.
        let (_, e) = parse(&emulate_line(r#", "frames": 4097"#)).unwrap_err();
        assert_eq!(e.code, "S004");
        let huge = format!(r#", "frames": {}"#, u64::MAX);
        let (_, e) = parse(&emulate_line(&huge)).unwrap_err();
        assert_eq!(e.code, "S004");
        // The cap is inclusive and configurable.
        let tight = Limits { max_frames: 2 };
        assert!(parse_request(&emulate_line(r#", "frames": 2"#), &tight).is_ok());
        let (_, e) = parse_request(&emulate_line(r#", "frames": 3"#), &tight).unwrap_err();
        assert_eq!(e.code, "S004");
        // A non-integer is still a shape error, not a range error.
        let (_, e) = parse(&emulate_line(r#", "frames": "many""#)).unwrap_err();
        assert_eq!(e.code, "S002");
    }

    #[test]
    fn hello_decodes_and_oversize_is_s003() {
        match parse(r#"{"id": 3, "cmd": "hello", "in_order": true}"#).unwrap() {
            Request::Hello { id, in_order } => assert_eq!((id, in_order), (3, true)),
            other => panic!("wrong request: {other:?}"),
        }
        match parse(r#"{"cmd": "hello"}"#).unwrap() {
            Request::Hello { id, in_order } => assert_eq!((id, in_order), (0, false)),
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(oversize_error(4096).code, "S003");
        let v = crate::json::parse(&encode_hello(3, true, 8)).unwrap();
        assert_eq!(v.get("in_order").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("window").and_then(Json::as_u64), Some(8));
    }

    #[test]
    fn responses_parse_back() {
        let stats = ServeStats {
            batches: 3,
            ..ServeStats::default()
        };
        let line = encode_stats_full(2, &stats);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(crate::json::Json::as_bool), Some(true));
        assert_eq!(
            v.get("batches").and_then(crate::json::Json::as_u64),
            Some(3)
        );
        let e = SegbusError::new("C001", "frame count is zero");
        let v = crate::json::parse(&encode_error(4, &e)).unwrap();
        assert_eq!(
            v.get("code").and_then(crate::json::Json::as_str),
            Some("C001")
        );
    }
}
