//! The coalescing batch service: many submitters, one cached pool.
//!
//! Jobs arriving from any number of threads funnel into one mpsc channel.
//! A single batcher thread blocks for the first job, then drains whatever
//! else has queued up behind it and runs the whole set as one
//! [`CachedPool::run_batch_keyed`] — so concurrently arriving jobs coalesce into
//! sweep batches and share both the worker pool and the report cache,
//! while a lone job still starts immediately (no batching delay window).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use segbus_core::{BatchJob, CacheStats, CachedPool, CachedReport, EmulatorConfig, SweepPool};
use segbus_model::SegbusError;

use crate::protocol;

/// What the service returns for one submitted job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The report as the memory cache holds it (shared, its text rendered
    /// at most once while resident), or the typed rejection.
    pub result: Result<Arc<CachedReport>, SegbusError>,
    /// `true` if the report was resident in the cache when the job's
    /// batch started (an answered-without-emulation hit).
    pub cached: bool,
    /// The job's content digest (cache key), for client-side correlation.
    pub digest: u64,
}

/// Service-wide counters: the cache's, plus batch shape.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Batches executed (each covering ≥ 1 job).
    pub batches: u64,
    /// Jobs executed across all batches.
    pub jobs: u64,
}

/// How the service is constructed (the server's knobs minus the socket).
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Default emulator configuration for the pool workers (per-job
    /// overrides still apply).
    pub config: EmulatorConfig,
    /// Worker threads of the sweep pool (`0` = all hardware threads).
    pub threads: usize,
    /// In-memory report-cache capacity in entries.
    pub cache_capacity: usize,
    /// Directory of the persistent report store; `None` = memory only.
    pub cache_dir: Option<PathBuf>,
    /// Test instrumentation: panic inside the batcher when a batch
    /// contains a job with exactly this `frames` value, exercising the
    /// worker-fault shed path. `None` (the default) in production.
    #[doc(hidden)]
    pub fault_frames: Option<u64>,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            config: EmulatorConfig::default(),
            threads: 0,
            cache_capacity: 256,
            cache_dir: None,
            fault_frames: None,
        }
    }
}

/// What a submitted job's outcome is handed to: a one-shot callback run
/// on the batcher thread (keep it cheap — encode and enqueue, no I/O that
/// can block the next batch).
type Reply = Box<dyn FnOnce(JobOutcome) + Send>;

/// One submitted job and where its outcome goes.
type Msg = (Box<BatchJob>, Reply);

/// Handle to a running batch service. Cloning is cheap; every clone
/// submits into the same batcher. The batcher thread exits when the last
/// handle is dropped.
#[derive(Clone)]
pub struct BatchService {
    tx: Sender<Msg>,
    threads: usize,
    published: Arc<Mutex<ServiceStats>>,
}

impl BatchService {
    /// Start a service over a [`CachedPool`]. Fails only when a
    /// `cache_dir` is given and the persistent store cannot be opened.
    pub fn start(opts: ServiceOptions) -> std::io::Result<BatchService> {
        let pool = if opts.threads == 0 {
            SweepPool::new(opts.config)
        } else {
            SweepPool::with_threads(opts.config, opts.threads)
        };
        let effective = pool.threads();
        let (tx, rx) = channel();
        let mut pool = CachedPool::with_pool(pool, opts.cache_capacity);
        if let Some(dir) = &opts.cache_dir {
            pool.attach_disk(dir)?;
        }
        let published = Arc::new(Mutex::new(ServiceStats {
            cache: pool.stats(),
            ..ServiceStats::default()
        }));
        let snapshot = Arc::clone(&published);
        let fault = opts.fault_frames;
        // The batcher owns the pool; it ends when every sender is gone.
        let _batcher: JoinHandle<()> =
            std::thread::spawn(move || batcher(rx, pool, snapshot, fault));
        Ok(BatchService {
            tx,
            threads: effective,
            published,
        })
    }

    /// The worker count of the underlying pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a job with a completion callback, without blocking. The
    /// callback runs on the batcher thread once the job's batch completes
    /// — this is the pipelining primitive: a connection handler can keep
    /// any number of jobs in flight and let the callbacks feed its writer.
    pub fn submit_with(&self, job: BatchJob, reply: impl FnOnce(JobOutcome) + Send + 'static) {
        self.tx
            .send((Box::new(job), Box::new(reply)))
            .expect("batcher thread lives as long as any handle");
    }

    /// Submit a job; the returned receiver yields its outcome once the
    /// batch it lands in completes.
    pub fn submit(&self, job: BatchJob) -> Receiver<JobOutcome> {
        let (reply_tx, reply_rx) = channel();
        self.submit_with(job, move |outcome| {
            // A dead receiver (client hung up) is not an error.
            let _ = reply_tx.send(outcome);
        });
        reply_rx
    }

    /// Submit a job and block for its outcome.
    pub fn run(&self, job: BatchJob) -> JobOutcome {
        self.submit(job)
            .recv()
            .expect("batcher always answers a submitted job")
    }

    /// The counters as of the last completed batch, without waiting on
    /// the batcher. The snapshot is published *before* that batch's reply
    /// callbacks run, so once a client has seen a job's response the
    /// published counters already include its batch. An IO shard serves
    /// `stats` from this snapshot, so it never blocks behind an emulation
    /// batch.
    pub fn stats(&self) -> ServiceStats {
        *lock_recover(&self.published)
    }
}

/// Lock a mutex, recovering the guard from a poisoned lock: the protected
/// state stays valid even if a holder panicked mid-update. Shared by the
/// serve crate's synchronisation points so one panicking thread can never
/// cascade into panics on every later lock.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn batcher(
    rx: Receiver<Msg>,
    mut pool: CachedPool,
    published: Arc<Mutex<ServiceStats>>,
    fault_frames: Option<u64>,
) {
    let mut batches = 0u64;
    let mut total_jobs = 0u64;
    while let Ok(first) = rx.recv() {
        // Coalesce: take everything already queued behind the first
        // message without blocking.
        let mut msgs = vec![first];
        while let Ok(m) = rx.try_recv() {
            msgs.push(m);
        }
        let (jobs, replies): (Vec<BatchJob>, Vec<Reply>) =
            msgs.into_iter().map(|(job, reply)| (*job, reply)).unzip();
        batches += 1;
        total_jobs += jobs.len() as u64;
        // One digest per job: the same keys answer `cached`, run the
        // batch and go back to the client.
        let digests: Vec<u64> = jobs.iter().map(BatchJob::digest).collect();
        let cached: Vec<bool> = digests.iter().map(|&key| pool.contains(key)).collect();
        // A panicking worker must not kill the batcher (every connected
        // client would lose its service): contain it, shed the batch with
        // S005 — the jobs were not executed and are safe to retry.
        let results = catch_unwind(AssertUnwindSafe(|| {
            if let Some(ff) = fault_frames {
                if jobs.iter().any(|j| j.frames == ff) {
                    panic!("injected worker fault (fault_frames = {ff})");
                }
            }
            pool.run_batch_keyed(&jobs, &digests)
        }));
        {
            let mut s = lock_recover(&published);
            s.cache = pool.stats();
            s.batches = batches;
            s.jobs = total_jobs;
        }
        match results {
            Ok(results) => {
                for ((result, reply), (was_cached, digest)) in results
                    .into_iter()
                    .zip(replies)
                    .zip(cached.into_iter().zip(digests))
                {
                    // A reply that panics (dead client structures, bugs in
                    // an encoder) must not take the other replies with it.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        reply(JobOutcome {
                            result,
                            cached: was_cached,
                            digest,
                        })
                    }));
                }
            }
            Err(_) => {
                for (reply, digest) in replies.into_iter().zip(digests) {
                    let e = protocol::shed_error("a worker fault abandoned this batch");
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        reply(JobOutcome {
                            result: Err(e),
                            cached: false,
                            digest,
                        })
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "application a {\n  process X initial;\n  process Y final;\n  flow X -> Y { items 72; order 1; ticks 100; }\n}\nplatform p {\n  segment S0 { freq_mhz 100; hosts X; }\n  segment S1 { freq_mhz 100; hosts Y; }\n}\n";

    fn job() -> BatchJob {
        BatchJob::new(
            segbus_dsl::parse_system(DEMO).unwrap(),
            EmulatorConfig::default(),
        )
    }

    fn svc(threads: usize, cache_capacity: usize) -> BatchService {
        BatchService::start(ServiceOptions {
            threads,
            cache_capacity,
            ..ServiceOptions::default()
        })
        .unwrap()
    }

    #[test]
    fn run_and_cache_flags() {
        let svc = svc(2, 16);
        let first = svc.run(job());
        assert!(first.result.is_ok());
        assert!(!first.cached);
        let second = svc.run(job());
        assert!(second.cached, "second identical job is a cache hit");
        assert_eq!(first.digest, second.digest);
        assert_eq!(
            first.result.unwrap().report().makespan,
            second.result.unwrap().report().makespan
        );
        let stats = svc.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.jobs, 2);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn traced_jobs_carry_traces_through_the_pool() {
        // `"trace": true` requests route to the traced fast core; the
        // report that comes back through the cache must carry the events,
        // and the traced digest must not collide with the untraced one.
        let svc = svc(2, 16);
        let plain = svc.run(job());
        let mut tj = BatchJob::new(
            segbus_dsl::parse_system(DEMO).unwrap(),
            segbus_core::EmulatorConfig::traced(),
        );
        tj.frames = 2;
        let traced = svc.run(tj.clone());
        assert_ne!(plain.digest, traced.digest);
        let report = traced.result.unwrap();
        let trace = report
            .report()
            .trace
            .as_ref()
            .expect("traced job records events");
        assert!(!trace.is_empty());
        // Cached replay returns the same trace.
        let again = svc.run(tj);
        assert!(again.cached);
        assert_eq!(
            again
                .result
                .unwrap()
                .report()
                .trace
                .as_ref()
                .expect("cached trace")
                .len(),
            trace.len()
        );
    }

    #[test]
    fn concurrent_submitters_coalesce_and_all_get_answers() {
        let svc = svc(2, 64);
        let receivers: Vec<_> = (0..24).map(|_| svc.submit(job())).collect();
        let mut makespans = Vec::new();
        for rx in receivers {
            let outcome = rx.recv().unwrap();
            makespans.push(outcome.result.unwrap().report().makespan);
        }
        assert!(makespans.windows(2).all(|w| w[0] == w[1]));
        let stats = svc.stats();
        // 24 identical jobs: exactly one emulation, 23 answered as hits.
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.hits, 23);
        assert_eq!(stats.jobs, 24);
        assert!(
            stats.batches <= 24,
            "batches never exceed jobs; coalescing usually makes them fewer"
        );
    }

    #[test]
    fn worker_fault_sheds_batch_and_batcher_survives() {
        let svc = BatchService::start(ServiceOptions {
            threads: 2,
            cache_capacity: 16,
            fault_frames: Some(3),
            ..ServiceOptions::default()
        })
        .unwrap();
        let mut bad = job();
        bad.frames = 3;
        let outcome = svc.run(bad);
        assert_eq!(outcome.result.unwrap_err().code, "S005");
        assert!(!outcome.cached);
        // The batcher survived the contained panic: later jobs still run,
        // and the published snapshot keeps advancing.
        let ok = svc.run(job());
        assert!(ok.result.is_ok());
        assert!(svc.stats().batches >= 2);
        assert_eq!(svc.stats().jobs, 2);
    }

    #[test]
    fn published_stats_cover_answered_batches() {
        let svc = svc(2, 16);
        assert_eq!(svc.stats().jobs, 0);
        let first = svc.run(job());
        assert!(first.result.is_ok());
        // `run` returned, so the batch's snapshot is already published.
        let s = svc.stats();
        assert_eq!(s.jobs, 1);
        assert_eq!(s.cache.misses, 1);
    }

    #[test]
    fn submit_with_runs_every_callback() {
        use std::sync::mpsc::channel;
        let svc = svc(2, 64);
        let (tx, rx) = channel();
        for i in 0u64..12 {
            let tx = tx.clone();
            svc.submit_with(job(), move |outcome| {
                let _ = tx.send((i, outcome.result.is_ok()));
            });
        }
        drop(tx);
        let mut seen: Vec<u64> = rx
            .iter()
            .map(|(i, ok)| {
                assert!(ok);
                i
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }
}
