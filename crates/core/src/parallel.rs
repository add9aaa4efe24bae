//! Parallel execution of independent emulation runs.
//!
//! Parameter sweeps (package sizes, placements, frequencies) emulate many
//! PSMs that share nothing; [`SweepPool`] fans the runs out over scoped
//! worker threads, the calling thread among them. Workers claim chunks of
//! the job list from a shared atomic cursor, each worker reuses one
//! [`Engine`] (and therefore its scratch buffers) for every job it
//! claims, and results land in per-index lock-free slots. Results come
//! back in input order, bit-identical to a sequential map regardless of
//! the thread count — each run is itself deterministic — which the tests
//! below assert.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use segbus_model::diag::SegbusError;
use segbus_model::mapping::Psm;

use crate::config::EmulatorConfig;
use crate::engine::Engine;
use crate::report::EmulationReport;

/// Write-once result slots indexed by job position.
///
/// Safety: the atomic cursor hands every index to exactly one worker, so
/// no two threads ever touch the same cell, and `thread::scope` joins all
/// workers before the slots are read back — that join is the
/// happens-before edge making the writes visible.
struct ResultSlots<R>(Vec<UnsafeCell<Option<R>>>);

unsafe impl<R: Send> Sync for ResultSlots<R> {}

impl<R> ResultSlots<R> {
    /// # Safety
    /// `i` must be exclusively owned by the calling worker (claimed from
    /// the cursor) and within bounds.
    unsafe fn set(&self, i: usize, value: R) {
        *self.0[i].get() = Some(value);
    }
}

/// A reusable pool configuration for batched emulation sweeps.
///
/// ```
/// use segbus_apps::mp3;
/// use segbus_core::{EmulatorConfig, SweepPool};
///
/// let psms = vec![mp3::three_segment_psm(), mp3::three_segment_psm()];
/// let pool = SweepPool::new(EmulatorConfig::default());
/// let reports = pool.sweep(&psms);
/// let makespan = |i: usize| reports[i].as_ref().expect("the MP3 model is valid").makespan;
/// assert_eq!(makespan(0), makespan(1));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SweepPool {
    config: EmulatorConfig,
    threads: usize,
}

impl SweepPool {
    /// A pool using every available hardware thread.
    pub fn new(config: EmulatorConfig) -> SweepPool {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepPool::with_threads(config, threads)
    }

    /// A pool capped at `threads` workers (`0` is treated as `1`).
    pub fn with_threads(config: EmulatorConfig, threads: usize) -> SweepPool {
        SweepPool {
            config,
            threads: threads.max(1),
        }
    }

    /// The worker cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Emulate every PSM with [`Engine::try_run`]; results are returned in
    /// input order, an invalid PSM as its typed error.
    pub fn sweep(&self, psms: &[Psm]) -> Vec<Result<EmulationReport, SegbusError>> {
        self.sweep_with(psms, |engine, psm| engine.try_run(psm))
    }

    /// Generalised sweep: run `f(engine, job)` for every job on the pool,
    /// reusing one engine per worker. The function must be deterministic
    /// in its inputs for the results to be thread-count independent.
    pub fn sweep_with<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut Engine, &T) -> R + Sync,
    {
        self.sweep_with_state(jobs, || (), |engine, _, job| f(engine, job))
    }

    /// [`SweepPool::sweep_with`] with per-worker state: each worker calls
    /// `init` once and hands the value to `f` for every job it claims
    /// (a Monte-Carlo estimation keeps one patched plan per worker this way).
    /// This is the pool's one worker loop; `sweep_with` is its stateless
    /// instance. Results must not depend on which worker ran a job.
    pub fn sweep_with_state<T, S, R, I, F>(&self, jobs: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut Engine, &mut S, &T) -> R + Sync,
    {
        let threads = self.threads.min(jobs.len());
        if threads <= 1 {
            let mut engine = Engine::new(self.config);
            let mut state = init();
            return jobs.iter().map(|j| f(&mut engine, &mut state, j)).collect();
        }
        // Small chunks keep the tail balanced; claiming more than one job
        // at a time keeps cursor traffic negligible.
        let chunk = (jobs.len() / (threads * 8)).clamp(1, 32);
        let cursor = AtomicUsize::new(0);
        let slots = ResultSlots((0..jobs.len()).map(|_| UnsafeCell::new(None)).collect());
        // Fail fast on a panicking job: the first panic flags the sweep so
        // the other workers stop claiming chunks, then re-raises. The
        // caller still sees the original panic (propagated through
        // `thread::scope`), it just sees it without the pool grinding
        // through the rest of the batch first.
        let poisoned = AtomicBool::new(false);

        // The calling thread is one of the workers, so a sweep spawns
        // `threads - 1` threads.
        let work = || {
            let mut engine = Engine::new(self.config);
            let mut state = init();
            while !poisoned.load(Ordering::Relaxed) {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= jobs.len() {
                    break;
                }
                let end = (start + chunk).min(jobs.len());
                for (i, job) in jobs.iter().enumerate().take(end).skip(start) {
                    match catch_unwind(AssertUnwindSafe(|| f(&mut engine, &mut state, job))) {
                        // SAFETY: index `i` belongs to this worker's chunk
                        // only (see ResultSlots).
                        Ok(r) => unsafe { slots.set(i, r) },
                        Err(payload) => {
                            poisoned.store(true, Ordering::Relaxed);
                            resume_unwind(payload);
                        }
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });

        slots
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("every claimed slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;

    fn psm(items: u64) -> Psm {
        let mut app = Application::new("p");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, items, 1, 50)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(1));
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        Psm::new(platform, app, alloc).unwrap()
    }

    /// `sweep` over models the tests build valid.
    fn sweep(pool: SweepPool, psms: &[Psm]) -> Vec<EmulationReport> {
        pool.sweep(psms)
            .into_iter()
            .map(|r| r.expect("test models are valid"))
            .collect()
    }

    /// Any worker count produces the same reports — the pool only changes
    /// who computes a slot, never what lands in it.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let psms: Vec<Psm> = (1..=40).map(|k| psm(36 * (1 + k % 7))).collect();
        let reference = sweep(SweepPool::with_threads(EmulatorConfig::default(), 1), &psms);
        for threads in [4, 16] {
            let out = sweep(
                SweepPool::with_threads(EmulatorConfig::default(), threads),
                &psms,
            );
            assert_eq!(out.len(), reference.len());
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.makespan, b.makespan);
                assert_eq!(a.sas, b.sas);
                assert_eq!(a.ca, b.ca);
                assert_eq!(a.bus, b.bus);
                assert_eq!(a.fus, b.fus);
            }
        }
    }

    #[test]
    fn sweep_with_custom_job_type() {
        let base = psm(10 * 36);
        let frames: Vec<u64> = vec![1, 2, 3, 4];
        let pool = SweepPool::with_threads(EmulatorConfig::default(), 2);
        let out = pool.sweep_with(&frames, |engine, &n| {
            engine.try_run_frames(&base, n).unwrap().makespan
        });
        // More frames => strictly more work.
        for w in out.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn results_in_input_order() {
        let psms: Vec<Psm> = (1..=8).map(|k| psm(36 * k)).collect();
        let out = sweep(SweepPool::new(EmulatorConfig::default()), &psms);
        // More items => strictly longer makespan, so order checks placement.
        for w in out.windows(2) {
            assert!(w[0].makespan < w[1].makespan);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = SweepPool::new(EmulatorConfig::default());
        assert!(pool.sweep(&[]).is_empty());
        let one = sweep(pool, &[psm(36)]);
        assert_eq!(one.len(), 1);
    }

    /// A panicking job propagates out of the sweep (no hang, no silent
    /// loss) and flags the other workers to stop claiming chunks.
    #[test]
    fn panicking_job_propagates_and_fails_fast() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let jobs: Vec<u64> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let pool = SweepPool::with_threads(EmulatorConfig::default(), 4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.sweep_with(&jobs, |_, &n| {
                if n == 0 {
                    panic!("injected job fault");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                n
            })
        }));
        assert!(result.is_err(), "the job's panic must reach the caller");
        assert!(
            ran.load(Ordering::Relaxed) < jobs.len(),
            "fail-fast: the sweep must not run the whole batch"
        );
        // The pool is plain config — reusable after a poisoned sweep.
        let out = pool.sweep_with(&jobs[1..], |_, &n| n);
        assert_eq!(out.len(), jobs.len() - 1);
    }
}
