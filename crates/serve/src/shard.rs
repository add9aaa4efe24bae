//! The sharded non-blocking event-loop core behind [`crate::Server`].
//!
//! # Architecture
//!
//! One blocking **accept thread** round-robins incoming connections over
//! N **IO shard threads**. Each shard owns its connections outright —
//! sockets in nonblocking mode, per-connection read decoder, pending
//! request queue and write buffer — so there are no per-connection
//! threads and no cross-shard locking on the data path. Emulation jobs
//! are submitted to the shared [`BatchService`] (the fixed `SweepPool`
//! worker pool over the shared `CachedPool`); completion callbacks post
//! the encoded response line onto the owning shard's **ready-ring** (a
//! `Mutex<VecDeque>` + `Condvar`, the same pattern as `SweepPool`'s
//! coordination) and the shard weaves it back into the connection.
//!
//! # Readiness without `poll(2)`
//!
//! The std library exposes no readiness API, so a shard *polls*: each
//! loop iteration reads every open connection once (nonblocking — an
//! `is_idle_read_error` result means "no data"), admits decoded requests
//! up to the window, and flushes write buffers. If a full iteration makes
//! no progress the shard parks on its ready-ring condvar with a timeout:
//! 50 µs within 2 ms of its last progress, ~1 ms after that. Socket data
//! never notifies the condvar, so the short park is what lets a
//! closed-loop client's next request, sent just after its last response,
//! be read within tens of microseconds instead of a millisecond later.
//! An idle shard still costs ~1k wakeups/s, a busy shard never sleeps,
//! and a shard with **zero connections blocks indefinitely** (no
//! busy-wake: registrations and shutdown notify the condvar).
//!
//! # Admission control and backpressure
//!
//! Bounded at every stage, shedding loudly (`S005`) instead of stalling
//! silently or buffering without bound:
//!
//! * per-connection: at most `window` requests admitted and undelivered,
//!   at most `window` decoded-but-unadmitted lines, and reads pause while
//!   the write buffer is above its high-water mark (a slow reader cannot
//!   balloon the buffer);
//! * global: at most `max_in_flight` emulation jobs submitted and
//!   uncompleted across all shards — admission beyond the cap answers
//!   `S005` immediately (the connection survives and can retry);
//! * in-order mode: the reorder buffer is capped at `2 × window`
//!   ([`crate::reorder`]); overflowing it sheds the connection.
//!
//! Service latency (submit → completion) is recorded into a shared
//! [`LatencyHistogram`]; `{"cmd":"stats"}` reports per-shard connection
//! counts, ready-ring depths and shed counts, cache hit tiers, and
//! p50/p99 latency — answered instantly from published counters, never
//! blocking an IO shard behind an emulation batch.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::decode::{is_idle_read_error, DecodedLine, LineDecoder};
use crate::hist::LatencyHistogram;
use crate::protocol::{self, Request, ServeStats, ShardStats};
use crate::reorder::{Push, Reorder};
use crate::server::{ConnLimits, ServeOptions, Server};
use crate::service::{lock_recover, BatchService, ServiceOptions};

/// Read chunk per connection per loop iteration.
const READ_CHUNK: usize = 8 * 1024;
/// Write-buffer level above which a connection's reads pause.
const OUT_HIGH_WATER: usize = 64 * 1024;
/// Park time between polling iterations while connections are open.
const IDLE_POLL: Duration = Duration::from_millis(1);
/// Park time while the shard made progress within [`BUSY_WINDOW`].
const BUSY_POLL: Duration = Duration::from_micros(50);
/// How long after its last progress a shard parks for [`BUSY_POLL`].
const BUSY_WINDOW: Duration = Duration::from_millis(2);
/// Upper bound on draining in-flight responses at shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Global in-flight cap when `ServeOptions::max_in_flight` is `0`.
const DEFAULT_MAX_IN_FLIGHT: u64 = 4096;

/// State shared by the accept thread, every shard, and the [`Server`]
/// facade.
pub(crate) struct EventShared {
    shutdown: AtomicBool,
    /// Emulation jobs submitted to the batch service, not yet completed.
    in_flight: AtomicU64,
    max_in_flight: u64,
    hist: LatencyHistogram,
    shards: Vec<Arc<ShardState>>,
}

impl EventShared {
    /// Flag shutdown, poke the blocking accept loop, and wake every
    /// shard's condvar (the ring lock is taken after the flag is set, so
    /// a shard about to park cannot miss the wakeup).
    pub(crate) fn begin_shutdown(&self, addr: SocketAddr) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        let _ = TcpStream::connect(addr);
        for shard in &self.shards {
            drop(lock_recover(&shard.ring));
            shard.cv.notify_all();
        }
    }
}

/// One IO shard's cross-thread surface: the ready-ring plus counters.
struct ShardState {
    ring: Mutex<VecDeque<ShardMsg>>,
    cv: Condvar,
    /// Connections currently registered on this shard.
    connections: AtomicU64,
    /// `S005` responses issued by this shard.
    sheds: AtomicU64,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            ring: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            connections: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// Post a message and wake the shard thread.
    fn post(&self, msg: ShardMsg) {
        lock_recover(&self.ring).push_back(msg);
        self.cv.notify_all();
    }
}

enum ShardMsg {
    /// A freshly accepted connection for this shard to own.
    Register(TcpStream),
    /// A completed job's encoded response line.
    Done { conn: u64, seq: u64, line: String },
}

/// Everything a shard loop needs besides its own connections.
struct ShardCtx {
    shared: Arc<EventShared>,
    state: Arc<ShardState>,
    service: BatchService,
    limits: ConnLimits,
    addr: SocketAddr,
}

/// One connection, owned exclusively by its shard thread.
struct Conn {
    stream: TcpStream,
    decoder: LineDecoder,
    /// Decoded lines awaiting admission (bounded by the window).
    pending: VecDeque<DecodedLine>,
    /// Encoded response bytes awaiting the socket.
    out: Vec<u8>,
    /// Written prefix of `out` (compacted when it grows).
    out_pos: usize,
    /// Next request sequence number.
    seq: u64,
    /// Requests admitted whose response is not yet in `out`.
    outstanding: u64,
    /// In-order delivery buffer, present after the `hello` handshake.
    reorder: Option<Reorder>,
    read_open: bool,
    /// Close once `out` drains (shed or protocol-fatal state).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_line_bytes: usize) -> Conn {
        Conn {
            stream,
            decoder: LineDecoder::new(max_line_bytes),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            seq: 0,
            outstanding: 0,
            reorder: None,
            read_open: true,
            closing: false,
        }
    }

    /// Unwritten bytes in the out buffer.
    fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Everything delivered and flushed.
    fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }
}

/// Start the event-loop core: N shard threads plus the accept thread.
pub(crate) fn start_event_core(opts: ServeOptions) -> std::io::Result<Server> {
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;
    let service = BatchService::start(ServiceOptions {
        config: opts.config,
        threads: opts.threads,
        cache_capacity: opts.cache_capacity,
        cache_dir: opts.cache_dir.clone(),
        fault_frames: opts.fault_frames,
    })?;
    let limits = ConnLimits::from_options(&opts);
    let nshards = effective_shards(opts.shards);
    let shared = Arc::new(EventShared {
        shutdown: AtomicBool::new(false),
        in_flight: AtomicU64::new(0),
        max_in_flight: if opts.max_in_flight == 0 {
            DEFAULT_MAX_IN_FLIGHT
        } else {
            opts.max_in_flight as u64
        },
        hist: LatencyHistogram::new(),
        shards: (0..nshards).map(|_| Arc::new(ShardState::new())).collect(),
    });
    let mut handles = Vec::with_capacity(nshards + 1);
    for state in &shared.shards {
        let ctx = ShardCtx {
            shared: Arc::clone(&shared),
            state: Arc::clone(state),
            service: service.clone(),
            limits,
            addr,
        };
        handles.push(std::thread::spawn(move || shard_loop(ctx)));
    }
    let accept_shared = Arc::clone(&shared);
    handles.push(std::thread::spawn(move || {
        accept_loop(listener, accept_shared)
    }));
    Ok(Server::from_event(addr, shared, handles))
}

/// Shard count: explicit, or one per hardware thread capped at 8.
fn effective_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested.min(64);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Accept connections and deal them round-robin to the shards.
fn accept_loop(listener: TcpListener, shared: Arc<EventShared>) {
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shard = &shared.shards[rr % shared.shards.len()];
        rr = rr.wrapping_add(1);
        shard.post(ShardMsg::Register(stream));
    }
}

/// One IO shard: owns its connections, loops read → admit → write, parks
/// on the ready-ring when idle.
fn shard_loop(ctx: ShardCtx) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn = 0u64;
    let mut drain_deadline: Option<Instant> = None;
    let mut want_shutdown = false;
    let mut last_progress = Instant::now();
    loop {
        let mut progressed = false;

        // Phase 1: drain the ready-ring (registrations + completions).
        let msgs: Vec<ShardMsg> = {
            let mut ring = lock_recover(&ctx.state.ring);
            ring.drain(..).collect()
        };
        for msg in msgs {
            progressed = true;
            match msg {
                ShardMsg::Register(stream) => {
                    if ctx.shared.shutdown.load(Ordering::SeqCst)
                        || stream.set_nonblocking(true).is_err()
                    {
                        continue; // refused: the dropped stream closes
                    }
                    let _ = stream.set_nodelay(true);
                    let id = next_conn;
                    next_conn += 1;
                    ctx.state.connections.fetch_add(1, Ordering::Relaxed);
                    conns.insert(id, Conn::new(stream, ctx.limits.max_line_bytes));
                }
                ShardMsg::Done { conn, seq, line } => {
                    // A missing connection hung up mid-flight; its
                    // response is dropped, which is all it asked for.
                    if let Some(c) = conns.get_mut(&conn) {
                        deliver(c, &ctx.state, seq, &line);
                    }
                }
            }
        }

        let shutting = ctx.shared.shutdown.load(Ordering::SeqCst);
        if shutting && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
        }

        // Phase 2: per connection — read, admit, write.
        let mut dead: Vec<u64> = Vec::new();
        for (&id, c) in conns.iter_mut() {
            if shutting {
                // Stop admitting; drain what is already in flight.
                c.read_open = false;
                c.pending.clear();
            }
            if c.read_open
                && c.pending.len() < ctx.limits.window
                && c.out_backlog() < OUT_HIGH_WATER
            {
                let mut buf = [0u8; READ_CHUNK];
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        progressed = true;
                        c.read_open = false;
                        if let Some(ev) = c.decoder.finish() {
                            c.pending.push_back(ev);
                        }
                    }
                    Ok(n) => {
                        progressed = true;
                        c.decoder.feed(&buf[..n]);
                        while let Some(ev) = c.decoder.pop() {
                            c.pending.push_back(ev);
                        }
                    }
                    Err(ref e) if is_idle_read_error(e) => {}
                    Err(_) => {
                        dead.push(id);
                        continue;
                    }
                }
            }
            while !c.closing && c.outstanding < ctx.limits.window as u64 {
                let Some(ev) = c.pending.pop_front() else {
                    break;
                };
                progressed = true;
                process_event(&ctx, c, id, ev, &mut want_shutdown);
            }
            if !c.flushed() {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => {
                        dead.push(id);
                        continue;
                    }
                    Ok(n) => {
                        progressed = true;
                        c.out_pos += n;
                        if c.flushed() {
                            c.out.clear();
                            c.out_pos = 0;
                        } else if c.out_pos > OUT_HIGH_WATER {
                            c.out.drain(..c.out_pos);
                            c.out_pos = 0;
                        }
                    }
                    Err(ref e) if is_idle_read_error(e) => {}
                    Err(_) => {
                        dead.push(id);
                        continue;
                    }
                }
            }
            let done = !c.read_open && c.outstanding == 0 && c.pending.is_empty();
            if c.flushed() && (c.closing || done) {
                dead.push(id);
            }
        }
        for id in dead {
            if conns.remove(&id).is_some() {
                ctx.state.connections.fetch_sub(1, Ordering::Relaxed);
            }
        }

        if want_shutdown {
            want_shutdown = false;
            ctx.shared.begin_shutdown(ctx.addr);
            continue; // picked up as `shutting` next iteration
        }

        if shutting {
            let drained = conns.values().all(|c| c.outstanding == 0 && c.flushed());
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if drained || expired {
                break;
            }
        }

        // Phase 3: park until there is work. With zero connections there
        // is nothing to poll, so block indefinitely — registrations,
        // completions and shutdown all notify the condvar after taking
        // the ring lock, so the wakeup cannot be missed.
        if progressed {
            last_progress = Instant::now();
        } else {
            let poll = if last_progress.elapsed() < BUSY_WINDOW {
                BUSY_POLL
            } else {
                IDLE_POLL
            };
            let ring = lock_recover(&ctx.state.ring);
            if ring.is_empty() {
                if conns.is_empty() && !shutting {
                    drop(ctx.state.cv.wait(ring).unwrap_or_else(|e| e.into_inner()));
                } else {
                    drop(
                        ctx.state
                            .cv
                            .wait_timeout(ring, poll)
                            .unwrap_or_else(|e| e.into_inner()),
                    );
                }
            }
        }
    }
    // Dropping the map closes every socket. Late completion callbacks
    // still post to the ring; the lines are dropped with it.
}

/// Take the next sequence number and its window slot.
fn next_seq(c: &mut Conn) -> u64 {
    let s = c.seq;
    c.seq += 1;
    c.outstanding += 1;
    s
}

/// Append one response line to the connection's write buffer.
fn push_line(out: &mut Vec<u8>, line: &str) {
    out.reserve(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Hand a completed response (sequence `seq`) to the connection: straight
/// to the out buffer in completion-order mode, through the bounded
/// reorder buffer in in-order mode. Releases the window slot per line
/// actually delivered.
fn deliver(c: &mut Conn, state: &ShardState, seq: u64, line: &str) {
    match &mut c.reorder {
        None => {
            push_line(&mut c.out, line);
            c.outstanding = c.outstanding.saturating_sub(1);
        }
        Some(r) => match r.push(seq, line.to_owned()) {
            Push::Ready(lines) => {
                for ready in &lines {
                    push_line(&mut c.out, ready);
                }
                c.outstanding = c.outstanding.saturating_sub(lines.len() as u64);
            }
            Push::Buffered => {}
            Push::Overflow => {
                state.sheds.fetch_add(1, Ordering::Relaxed);
                let e =
                    protocol::shed_error("in-order reorder buffer exceeded its 2x-window bound");
                push_line(&mut c.out, &protocol::encode_error(0, &e));
                c.closing = true;
            }
        },
    }
}

/// Process one decoded line: parse, answer instantly (errors, hello,
/// stats, shutdown) or submit the emulation job — subject to the global
/// in-flight cap.
fn process_event(
    ctx: &ShardCtx,
    c: &mut Conn,
    conn_id: u64,
    ev: DecodedLine,
    want_shutdown: &mut bool,
) {
    let line = match ev {
        DecodedLine::Overflow => {
            let this_seq = next_seq(c);
            let e = protocol::oversize_error(ctx.limits.max_line_bytes);
            // The line was discarded before parsing, so no id exists.
            deliver(c, &ctx.state, this_seq, &protocol::encode_error(0, &e));
            return;
        }
        DecodedLine::Line(l) => l,
    };
    if line.trim().is_empty() {
        return; // blank keep-alive lines get no response and no seq
    }
    let this_seq = next_seq(c);
    match protocol::parse_request(&line, &ctx.limits.proto) {
        Err((id, e)) => deliver(c, &ctx.state, this_seq, &protocol::encode_error(id, &e)),
        Ok(Request::Emulate { id, job }) => {
            if ctx.shared.in_flight.load(Ordering::SeqCst) >= ctx.shared.max_in_flight {
                ctx.state.sheds.fetch_add(1, Ordering::Relaxed);
                let e = protocol::shed_error(&format!(
                    "global in-flight cap ({}) reached",
                    ctx.shared.max_in_flight
                ));
                deliver(c, &ctx.state, this_seq, &protocol::encode_error(id, &e));
                return;
            }
            ctx.shared.in_flight.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&ctx.shared);
            let state = Arc::clone(&ctx.state);
            let t0 = Instant::now();
            ctx.service.submit_with(*job, move |outcome| {
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                shared
                    .hist
                    .record_us(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                let line = match outcome.result {
                    Ok(report) => {
                        protocol::encode_cached_report(id, outcome.cached, outcome.digest, &report)
                    }
                    Err(e) => protocol::encode_error(id, &e),
                };
                state.post(ShardMsg::Done {
                    conn: conn_id,
                    seq: this_seq,
                    line,
                });
            });
        }
        Ok(Request::Hello { id, in_order }) => {
            let line = if in_order && this_seq != 0 {
                protocol::encode_error(id, &protocol::handshake_order_error())
            } else {
                if in_order {
                    // Installed before the ack is delivered, so the ack
                    // itself flows through the reorder buffer at seq 0.
                    c.reorder = Some(Reorder::new(ctx.limits.window));
                }
                protocol::encode_hello(id, in_order, ctx.limits.window)
            };
            deliver(c, &ctx.state, this_seq, &line);
        }
        Ok(Request::Stats { id }) => {
            let line = protocol::encode_stats_full(id, &snapshot(ctx));
            deliver(c, &ctx.state, this_seq, &line);
        }
        Ok(Request::Shutdown { id }) => {
            deliver(c, &ctx.state, this_seq, &protocol::encode_shutdown(id));
            *want_shutdown = true;
        }
    }
}

/// Assemble the `stats` snapshot from published service counters and the
/// shards' atomics — instant, never waiting on the batcher.
fn snapshot(ctx: &ShardCtx) -> ServeStats {
    let svc = ctx.service.stats();
    ServeStats {
        cache: svc.cache,
        batches: svc.batches,
        jobs: svc.jobs,
        threads: ctx.service.threads(),
        in_flight: ctx.shared.in_flight.load(Ordering::SeqCst),
        max_in_flight: ctx.shared.max_in_flight,
        shards: ctx
            .shared
            .shards
            .iter()
            .map(|s| ShardStats {
                connections: s.connections.load(Ordering::Relaxed),
                queue_depth: lock_recover(&s.ring).len() as u64,
                sheds: s.sheds.load(Ordering::Relaxed),
            })
            .collect(),
        p50_us: ctx.shared.hist.quantile_us(0.50),
        p99_us: ctx.shared.hist.quantile_us(0.99),
        latency_samples: ctx.shared.hist.count(),
    }
}
