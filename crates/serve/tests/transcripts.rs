//! Golden request/response transcripts: committed streams under
//! `tests/transcripts/` are replayed against a fresh server, and the
//! response bodies must match the recorded ones byte for byte — as
//! sorted sets for completion-order connections (completion order is
//! timing-dependent) and as exact sequences for in-order connections.
//!
//! Transcript format: `#` lines are comments; each `client in-order` or
//! `client completion-order` line opens one concurrent connection, whose
//! `> ` lines are its requests in send order (a bare `>` is a blank
//! keep-alive line) and whose `< ` lines are the expected responses
//! (sorted, for completion-order clients). Every emulate request in a
//! transcript uses a distinct `frames` value: duplicate jobs would make
//! the `cached` response field depend on batch-coalescing timing.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use segbus_serve::json;
use segbus_serve::{ServeOptions, Server};

/// One recorded connection.
struct Client {
    in_order: bool,
    requests: Vec<String>,
    responses: Vec<String>,
}

fn load(name: &str) -> Vec<Client> {
    let path = format!(
        "{}/tests/transcripts/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut clients: Vec<Client> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(mode) = line.strip_prefix("client ") {
            clients.push(Client {
                in_order: mode == "in-order",
                requests: Vec::new(),
                responses: Vec::new(),
            });
            continue;
        }
        let client = clients.last_mut().expect("a client line comes first");
        if let Some(req) = line.strip_prefix('>') {
            client
                .requests
                .push(req.strip_prefix(' ').unwrap_or(req).to_string());
        } else if let Some(resp) = line.strip_prefix("< ") {
            client.responses.push(resp.to_string());
        } else {
            panic!("{path}: unrecognised transcript line {line:?}");
        }
    }
    assert!(!clients.is_empty(), "{path}: empty transcript");
    clients
}

/// Run every client's requests as a concurrent connection against a
/// fresh server; returns each client's raw response lines in arrival
/// order.
fn run_streams(clients: &[Client]) -> Vec<Vec<String>> {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 512,
        window: 8,
        max_line_bytes: 1024,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = clients
        .iter()
        .map(|c| {
            let lines = c.requests.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for line in &lines {
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                }
                stream.flush().unwrap();
                // Half-close: the server sees EOF, answers everything
                // pending, then closes its side.
                stream.shutdown(Shutdown::Write).unwrap();
                BufReader::new(stream)
                    .lines()
                    .map(|l| l.unwrap())
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let out = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown();
    out
}

/// Replay transcript `name` and compare; returns the live responses.
fn replay(name: &str) -> Vec<Vec<String>> {
    let clients = load(name);
    let got = run_streams(&clients);
    for (i, (client, lines)) in clients.iter().zip(&got).enumerate() {
        let mut lines = lines.clone();
        if !client.in_order {
            lines.sort();
        }
        assert_eq!(
            lines.len(),
            client.responses.len(),
            "{name}: client {i} response count"
        );
        for (k, (a, b)) in lines.iter().zip(&client.responses).enumerate() {
            assert_eq!(a, b, "{name}: client {i} response {k}");
        }
    }
    got
}

/// One client, a mixed stream touching every response shape: reports,
/// S001/S002/S003/S004 errors and a blank keep-alive (no response).
#[test]
fn mixed_stream_matches_transcript() {
    replay("mixed");
}

/// The same mixed stream after an in-order handshake.
#[test]
fn mixed_in_order_stream_matches_transcript() {
    replay("mixed_in_order");
}

/// Adversarial completion order through the reorder buffer: the heaviest
/// job is requested first, so every successor completes ahead of it and
/// must wait; responses still come back in request order.
#[test]
fn adversarial_order_matches_transcript() {
    let got = replay("adversarial_order");
    for (i, line) in got[0].iter().skip(1).enumerate() {
        let v = json::parse(line).unwrap();
        assert_eq!(
            v.get("id").and_then(json::Json::as_u64),
            Some(10 + i as u64)
        );
    }
}

/// 64 concurrent clients, alternating in-order and completion-order
/// connections, every emulate distinct.
#[test]
fn sixty_four_clients_match_transcript() {
    replay("clients64");
}
