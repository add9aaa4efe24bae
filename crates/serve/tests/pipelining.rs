//! Windowed-pipelining and persistent-cache tests over localhost.
//!
//! These drive one or more connections with N > 1 requests in flight
//! (writing every request before reading any response), covering the
//! pipelining window, both response-ordering modes, the protocol
//! hardening (`S003` oversize lines, `S004` frames bounds) and the
//! disk-backed warm start across a server restart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use segbus_serve::json::{self, Json};
use segbus_serve::{ServeOptions, Server};

const DEMO: &str = "application a {\n  process X initial;\n  process Y final;\n  flow X -> Y { items 72; order 1; ticks 100; }\n}\nplatform p {\n  segment S0 { freq_mhz 100; hosts X; }\n  segment S1 { freq_mhz 100; hosts Y; }\n}\n";

fn emulate_line(id: u64, extra: &str) -> String {
    let mut src = String::new();
    json::write_str(&mut src, DEMO);
    format!("{{\"id\": {id}, \"cmd\": \"emulate\", \"source\": {src}{extra}}}\n")
}

/// Write every line up front (pipelined), then read `n` response lines.
fn pipeline(stream: &mut TcpStream, lines: &[String], n: usize) -> Vec<Json> {
    for line in lines {
        stream.write_all(line.as_bytes()).unwrap();
    }
    stream.flush().unwrap();
    read_responses(stream, n)
}

fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Json> {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (0..n)
        .map(|_| {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            json::parse(response.trim()).unwrap()
        })
        .collect()
}

fn id_of(v: &Json) -> u64 {
    v.get("id").and_then(Json::as_u64).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("segbus-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn window_of_8_pipelines_and_coalesces_on_one_connection() {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 64,
        window: 8,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // 32 distinct jobs, all written before any response is read: the
    // handler keeps up to 8 in flight, so jobs queue behind the running
    // batch and coalesce.
    let lines: Vec<String> = (0..32u64)
        .map(|i| emulate_line(i, &format!(", \"frames\": {}", 10 + i)))
        .collect();
    let responses = pipeline(&mut stream, &lines, 32);

    let mut ids: Vec<u64> = responses
        .iter()
        .map(|v| {
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            id_of(v)
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..32).collect::<Vec<_>>(), "every id answered once");

    let stats = pipeline(&mut stream, &["{\"cmd\": \"stats\"}\n".into()], 1).remove(0);
    let jobs = stats.get("jobs").and_then(Json::as_u64).unwrap();
    let batches = stats.get("batches").and_then(Json::as_u64).unwrap();
    assert_eq!(jobs, 32);
    assert!(
        batches < jobs,
        "pipelined jobs coalesce into shared batches ({batches} batches for {jobs} jobs)"
    );
    server.shutdown();
}

#[test]
fn in_order_handshake_restores_request_order() {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 64,
        window: 8,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // First request is the heaviest by far; without in_order its response
    // would usually finish (and be written) after the light ones.
    let mut lines = vec!["{\"id\": 7, \"cmd\": \"hello\", \"in_order\": true}\n".to_string()];
    lines.push(emulate_line(0, ", \"frames\": 400"));
    for i in 1..6u64 {
        lines.push(emulate_line(i, ""));
    }
    let responses = pipeline(&mut stream, &lines, 7);

    let hello = &responses[0];
    assert_eq!(id_of(hello), 7);
    assert_eq!(hello.get("in_order").and_then(Json::as_bool), Some(true));
    assert_eq!(hello.get("window").and_then(Json::as_u64), Some(8));
    let ids: Vec<u64> = responses[1..].iter().map(id_of).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "responses in request order");

    // The handshake is first-request-only: a second hello with in_order
    // on a used connection is a shape error.
    let v = pipeline(
        &mut stream,
        &["{\"id\": 8, \"cmd\": \"hello\", \"in_order\": true}\n".into()],
        1,
    )
    .remove(0);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("code").and_then(Json::as_str), Some("S002"));
    server.shutdown();
}

#[test]
fn oversize_lines_are_rejected_and_the_connection_survives() {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 1,
        cache_capacity: 4,
        max_line_bytes: 1024,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A 64 KiB line: far over the cap, discarded as it streams in.
    let mut huge = vec![b'x'; 64 * 1024];
    huge.push(b'\n');
    stream.write_all(&huge).unwrap();
    // A valid request directly behind it must still be served.
    let lines = [emulate_line(3, "")];
    let responses = {
        stream.write_all(lines[0].as_bytes()).unwrap();
        stream.flush().unwrap();
        read_responses(&mut stream, 2)
    };
    assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        responses[0].get("code").and_then(Json::as_str),
        Some("S003")
    );
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(id_of(&responses[1]), 3);
    server.shutdown();
}

#[test]
fn frames_bounds_are_enforced() {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 1,
        cache_capacity: 4,
        max_frames: 16,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let lines = [
        emulate_line(1, ", \"frames\": 0"),
        emulate_line(2, ", \"frames\": 17"),
        emulate_line(3, ", \"frames\": 16"),
    ];
    let responses = pipeline(&mut stream, &lines, 3);
    let by_id = |want: u64| responses.iter().find(|v| id_of(v) == want).unwrap();
    assert_eq!(by_id(1).get("code").and_then(Json::as_str), Some("S004"));
    assert_eq!(by_id(2).get("code").and_then(Json::as_str), Some("S004"));
    assert_eq!(by_id(3).get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_responses() {
    let server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 16,
        window: 8,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Six jobs and a shutdown, all written before reading: every job
    // response and the acknowledgement must all arrive.
    let mut lines: Vec<String> = (1..=6u64)
        .map(|i| emulate_line(i, &format!(", \"frames\": {i}")))
        .collect();
    lines.push("{\"id\": 99, \"cmd\": \"shutdown\"}\n".into());
    let responses = pipeline(&mut stream, &lines, 7);
    let mut ids: Vec<u64> = responses.iter().map(id_of).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 99]);
    assert!(responses
        .iter()
        .all(|v| v.get("ok").and_then(Json::as_bool) == Some(true)));
    // join() returns: the accept loop and every handler exited.
    server.join();
}

#[test]
fn warm_restart_answers_pipelined_repeats_from_disk() {
    let dir = tmpdir("warm");
    let opts = || ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 64,
        window: 8,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let job_lines = |base: u64, frames: std::ops::RangeInclusive<u64>| -> Vec<String> {
        frames
            .map(|f| emulate_line(base + f, &format!(", \"frames\": {f}")))
            .collect()
    };

    // First server: two clients, each with 6 requests in flight on its
    // own connection (12 distinct jobs in total).
    let mut server = Server::start(opts()).unwrap();
    let addr = server.addr();
    let clients: Vec<_> = [(100u64, 2u64..=7), (200, 8..=13)]
        .into_iter()
        .map(|(base, frames)| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let lines = frames
                    .map(|f| emulate_line(base + f, &format!(", \"frames\": {f}")))
                    .collect::<Vec<_>>();
                let responses = pipeline(&mut stream, &lines, lines.len());
                let mut ids: Vec<u64> = responses
                    .iter()
                    .map(|v| {
                        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
                        id_of(v)
                    })
                    .collect();
                ids.sort_unstable();
                ids
            })
        })
        .collect();
    let mut answered: Vec<u64> = clients
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    answered.sort_unstable();
    assert_eq!(answered.len(), 12, "all pipelined ids answered");
    server.shutdown();

    // Second server over the same cache directory: every repeat must be a
    // cache hit (served from disk, promoted to memory) with zero fresh
    // emulations.
    let mut server = Server::start(opts()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut lines = job_lines(100, 2..=7);
    lines.extend(job_lines(200, 8..=13));
    let responses = pipeline(&mut stream, &lines, lines.len());
    for v in &responses {
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "a warm-started repeat is answered without emulation"
        );
    }
    let stats = pipeline(&mut stream, &["{\"cmd\": \"stats\"}\n".into()], 1).remove(0);
    assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(12));
    assert_eq!(stats.get("disk_hits").and_then(Json::as_u64), Some(12));
    assert!(stats.get("disk_len").and_then(Json::as_u64).unwrap() >= 12);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memory hit is answered from the report text kept with its cache
/// entry: byte for byte the miss's response but for `"cached"`. That
/// holds for a plain hit, for an entry evicted to the disk tier and
/// promoted back (memory capacity 1), for the hit after that promotion,
/// and for a traced job.
#[test]
fn rendered_once_hits_match_the_miss_byte_for_byte() {
    let dir = tmpdir("render-once");
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 1,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> String {
        stream.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    let as_hit = |miss: &str| {
        assert_eq!(miss.matches("\"cached\":false").count(), 1, "{miss}");
        miss.replace("\"cached\":false", "\"cached\":true")
    };

    for extra in ["", ", \"trace\": true"] {
        let job = emulate_line(7, extra);
        let other = emulate_line(8, &format!("{extra}, \"frames\": 2"));
        let miss = ask(&job);
        let hit = as_hit(&miss);
        assert_eq!(ask(&job), hit, "memory hit{extra}");
        // Capacity 1: the other job evicts this one (to disk when untraced;
        // traced reports are memory-only and are emulated again).
        assert!(ask(&other).contains("\"ok\":true"));
        let again = ask(&job);
        if extra.is_empty() {
            assert_eq!(again, hit, "disk hit promoted back into memory");
        } else {
            assert_eq!(again, miss, "a traced report is never persisted");
        }
        assert_eq!(ask(&job), hit, "memory hit after the promotion{extra}");
    }
    let stats = ask("{\"cmd\": \"stats\"}\n");
    let stats = json::parse(stats.trim()).unwrap();
    assert_eq!(stats.get("disk_hits").and_then(Json::as_u64), Some(1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
