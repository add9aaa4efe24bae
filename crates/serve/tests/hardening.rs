//! Adversarial-client and fault-injection hardening tests: slow-loris
//! writers, mid-batch disconnects, shutdown under load, worker-panic
//! containment, the global in-flight cap (`S005` shed with a surviving
//! connection), oversize-line resync and 1024 concurrent pipelining
//! connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use segbus_serve::json::{self, Json};
use segbus_serve::{ServeOptions, Server};

const DEMO: &str = "application a {\n  process X initial;\n  process Y final;\n  flow X -> Y { items 72; order 1; ticks 100; }\n}\nplatform p {\n  segment S0 { freq_mhz 100; hosts X; }\n  segment S1 { freq_mhz 100; hosts Y; }\n}\n";

fn emulate_line(id: u64, frames: u64) -> String {
    let mut src = String::new();
    json::write_str(&mut src, DEMO);
    format!("{{\"id\": {id}, \"cmd\": \"emulate\", \"source\": {src}, \"frames\": {frames}}}")
}

fn start(tweak: impl FnOnce(&mut ServeOptions)) -> Server {
    let mut opts = ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 256,
        window: 8,
        ..ServeOptions::default()
    };
    tweak(&mut opts);
    Server::start(opts).unwrap()
}

fn request(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> Json {
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        !line.is_empty(),
        "server closed the connection unexpectedly"
    );
    json::parse(&line).unwrap()
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn code(v: &Json) -> Option<&str> {
    v.get("code").and_then(Json::as_str)
}

/// A client trickling one request a few bytes at a time must not stall
/// the server: a concurrent fast client on the same server completes
/// several round trips while the loris is still mid-line, and the loris
/// still gets its (correct) answer at the end.
#[test]
fn slow_loris_does_not_starve_other_clients() {
    let mut server = start(|_| {});
    let addr = server.addr();

    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut line = emulate_line(1, 11);
        line.push('\n');
        for chunk in line.as_bytes().chunks(7) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        read_response(&mut stream)
    });

    // While the loris trickles (~100 chunks x 2ms), a fast client
    // gets served repeatedly.
    let mut fast = TcpStream::connect(addr).unwrap();
    for (i, frames) in [(0u64, 21u64), (1, 22), (2, 23)] {
        let v = request(&mut fast, &emulate_line(100 + i, frames));
        assert!(is_ok(&v), "fast client starved: {v:?}");
    }

    let v = loris.join().unwrap();
    assert!(is_ok(&v), "loris answer wrong: {v:?}");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
    server.shutdown();
}

/// A client that pipelines a batch and vanishes without reading must not
/// wedge the server: jobs already admitted run to completion against a
/// dead socket, and fresh clients are served normally afterwards.
#[test]
fn client_disconnect_mid_batch_leaves_server_healthy() {
    let mut server = start(|_| {});
    let addr = server.addr();
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        for k in 0..6u64 {
            stream
                .write_all(emulate_line(k, 30 + k).as_bytes())
                .unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        // Dropped here: reset mid-batch, nothing ever read.
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    let v = request(&mut stream, &emulate_line(7, 50));
    assert!(is_ok(&v), "server wedged after reset: {v:?}");
    let v = request(&mut stream, "{\"id\": 8, \"cmd\": \"stats\"}");
    assert!(is_ok(&v), "stats failed after reset: {v:?}");
    server.shutdown();
}

/// `Server::shutdown` while requests are in flight. The contract: every
/// request *admitted* before the shutdown flag is observed is still
/// answered (responses in flight drain), later lines may be dropped, and
/// every client then sees clean EOF — never a hang, a reset, or a torn
/// response. Each client signals after its first response, so the plug
/// is pulled while its remaining requests are typically mid-flight.
#[test]
fn shutdown_under_load_drains_in_flight_responses() {
    const CLIENTS: u64 = 6;
    const PER_CLIENT: u64 = 4;
    let mut server = start(|_| {});
    let addr = server.addr();
    let (tx, rx) = mpsc::channel::<()>();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for k in 0..PER_CLIENT {
                    let frames = 100 + client * PER_CLIENT + k;
                    stream
                        .write_all(emulate_line(client * 100 + k, frames).as_bytes())
                        .unwrap();
                    stream.write_all(b"\n").unwrap();
                }
                stream.flush().unwrap();
                let mut r = BufReader::new(stream);
                let mut first = String::new();
                r.read_line(&mut first).unwrap();
                tx.send(()).unwrap();
                let mut lines = vec![first];
                // Runs until EOF: a hung drain would hang the test.
                lines.extend(r.lines().map(|l| l.unwrap()));
                lines
            })
        })
        .collect();
    drop(tx);
    for _ in 0..CLIENTS {
        rx.recv().unwrap();
    }
    server.shutdown();
    for (client, h) in handles.into_iter().enumerate() {
        let lines = h.join().unwrap();
        assert!(
            !lines.is_empty() && lines.len() <= PER_CLIENT as usize,
            "client {client} got {} responses",
            lines.len()
        );
        for line in &lines {
            let v = json::parse(line).expect("torn response line");
            assert!(is_ok(&v), "drained response not ok: {v:?}");
        }
    }
}

/// A worker panic (injected via the `fault_frames` hook) must be
/// contained to its batch: the poisoned batch is shed with `S005`, and
/// both the connection and the batcher keep answering afterwards —
/// the regression for the old poison-cascade failure where one panic
/// under the window mutex killed the whole server.
#[test]
fn worker_panic_sheds_batch_and_server_keeps_answering() {
    let mut server = start(|o| o.fault_frames = Some(4095));
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();

    let v = request(&mut stream, &emulate_line(1, 4095));
    assert_eq!(code(&v), Some("S005"), "{v:?}");
    assert!(!is_ok(&v));

    // Same connection, next request: served normally.
    let v = request(&mut stream, &emulate_line(2, 17));
    assert!(is_ok(&v), "connection died after fault: {v:?}");

    // Fresh connection: the batcher itself survived.
    let mut fresh = TcpStream::connect(addr).unwrap();
    let v = request(&mut fresh, &emulate_line(3, 18));
    assert!(is_ok(&v), "batcher died after fault: {v:?}");
    server.shutdown();
}

/// Admission control: with `max_in_flight: 1`, pipelining a
/// heavy job plus seven light ones sheds the surplus with `S005` while
/// the heavy job and the connection itself survive; the shed counter
/// shows up in `stats`.
#[test]
fn global_cap_sheds_with_s005_and_connection_survives() {
    let mut server = start(|o| o.max_in_flight = 1);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();

    let mut burst = String::new();
    burst.push_str(&emulate_line(0, 2048)); // heavy: holds the one slot
    burst.push('\n');
    for k in 1..8u64 {
        burst.push_str(&emulate_line(k, k));
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut shed = 0;
    let mut served = 0;
    for _ in 0..8 {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed during the burst");
        let v = json::parse(&line).unwrap();
        if is_ok(&v) {
            served += 1;
        } else {
            assert_eq!(code(&v), Some("S005"), "unexpected error: {v:?}");
            shed += 1;
        }
    }
    assert!(served >= 1, "the in-flight slot holder must be served");
    assert!(shed >= 1, "the cap must shed at least one request");

    // The connection survived the sheds: stats still answers on it, and
    // accounts for them.
    let v = request(&mut stream, "{\"id\": 9, \"cmd\": \"stats\"}");
    assert!(is_ok(&v), "connection did not survive the shed: {v:?}");
    assert!(v.get("sheds").and_then(Json::as_u64).unwrap_or(0) >= shed);
    assert_eq!(v.get("max_in_flight").and_then(Json::as_u64), Some(1));
    server.shutdown();
}

/// Oversized lines while the decoder is mid-request must not corrupt
/// framing: after an `S003` shed the next well-formed line is answered
/// normally on the same connection.
#[test]
fn oversize_line_resyncs() {
    let mut server = start(|o| o.max_line_bytes = 512);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut junk = "y".repeat(4096);
    junk.push('\n');
    stream.write_all(junk.as_bytes()).unwrap();
    let v = read_response(&mut stream);
    assert_eq!(code(&v), Some("S003"), "{v:?}");
    let v = request(&mut stream, "{\"id\": 5, \"cmd\": \"stats\"}");
    assert!(is_ok(&v), "decoder lost sync: {v:?}");
    server.shutdown();
}

/// 1024 concurrent loopback connections, each pipelining two full
/// windows of emulate requests: every request is answered `ok` on its
/// own connection and, with the in-flight cap sized for every window,
/// nothing is shed. Ignored by default because the ~2048 sockets exceed
/// macOS's default soft limit of 256 file descriptors; run it with
/// `-- --include-ignored` where the limit allows.
#[test]
#[ignore = "opens ~2048 sockets"]
fn thousand_connections_are_all_answered_without_sheds() {
    const CONNECTIONS: usize = 1024;
    const WINDOW: usize = 8;
    const ROUNDS: usize = 2;
    const DISTINCT_JOBS: u64 = 32;
    let mut server = start(|o| {
        o.cache_capacity = 4 * DISTINCT_JOBS as usize;
        o.window = WINDOW;
        o.max_in_flight = CONNECTIONS * WINDOW;
    });
    let addr = server.addr();
    let mut conns: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            let r = BufReader::new(s.try_clone().unwrap());
            (s, r)
        })
        .collect();

    let mut answered = 0;
    for round in 0..ROUNDS {
        // Every connection has a full window in flight before any
        // response is read.
        for (c, (stream, _)) in conns.iter_mut().enumerate() {
            let mut burst = String::new();
            for w in 0..WINDOW {
                let id = ((c * ROUNDS + round) * WINDOW + w) as u64;
                burst.push_str(&emulate_line(id, 1 + id % DISTINCT_JOBS));
                burst.push('\n');
            }
            stream.write_all(burst.as_bytes()).unwrap();
        }
        for (_, reader) in conns.iter_mut() {
            for _ in 0..WINDOW {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(!line.is_empty(), "server closed a connection");
                assert!(is_ok(&json::parse(&line).unwrap()), "{line}");
                answered += 1;
            }
        }
    }
    assert_eq!(answered, CONNECTIONS * ROUNDS * WINDOW, "lost responses");

    let mut stream = TcpStream::connect(addr).unwrap();
    let v = request(&mut stream, "{\"id\": 1, \"cmd\": \"stats\"}");
    assert_eq!(v.get("sheds").and_then(Json::as_u64), Some(0), "{v:?}");
    server.shutdown();
}
