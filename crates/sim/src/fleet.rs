//! Batch simulation: a work-stealing job fleet.
//!
//! The policy-invariance battery (E10), the semantic oracle of
//! `etpn-transform`, and the experiment sweeps all run *many* independent
//! simulations of the same few designs under varying policies, seeds and
//! environments. [`Fleet::run_batch`] spreads them over worker threads:
//! jobs are striped over per-worker deques (idle workers steal from the
//! back of their neighbours'), and each job runs on the compiled engine by
//! default, so all jobs over one design share its single compilation
//! ([`crate::compiled::get_or_compile`]). Every job runs inside a
//! panic-isolation boundary with bounded retries. Results come back
//! indexed by submission order, so the output is deterministic regardless
//! of how the jobs were scheduled or stolen.

use crate::compiled::Backend;
use crate::engine::Simulator;
use crate::env::{Environment, ScriptedEnv};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::policy::FiringPolicy;
use crate::retry::RetryPolicy;
use crate::trace::Trace;
use etpn_core::Etpn;
use etpn_cov::CovDb;
use etpn_obs as obs;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bounded retries for a panicked job.
const DEFAULT_RETRIES: u64 = 1;

/// Lock a mutex, recovering the data if a previous holder panicked. Every
/// structure guarded this way in the fleet (work queues, result slots) is
/// only mutated by panic-free operations — a poisoned lock means a *job*
/// died elsewhere on that thread, not that the guarded data is torn — so
/// recovery is sound.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload as a message (best effort).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One simulation request: a design, an environment and a run
/// configuration. Built builder-style, mirroring [`Simulator`].
#[derive(Clone)]
pub struct SimJob<'g, E: Environment = ScriptedEnv> {
    g: &'g Etpn,
    env: E,
    policy: FiringPolicy,
    max_steps: u64,
    init_all: Option<i64>,
    reg_inits: Vec<(String, i64)>,
    allow_unsafe: bool,
    faults: Option<FaultPlan>,
    wall_budget: Option<Duration>,
    strict: bool,
    coverage: bool,
    backend: Backend,
    record: Option<etpn_rec::RecordConfig>,
    design_fp: Option<u64>,
    trace: obs::TraceCtx,
}

impl<'g, E: Environment> SimJob<'g, E> {
    /// A job over `g` and `env` with the deterministic
    /// [`FiringPolicy::MaximalStep`] policy, a 10 000-step budget, and the
    /// compiled backend (the fleet default — jobs over one design share its
    /// compilation, and the differential battery holds the backends
    /// bit-identical; see [`SimJob::backend`] to opt out).
    pub fn new(g: &'g Etpn, env: E) -> Self {
        Self {
            g,
            env,
            policy: FiringPolicy::MaximalStep,
            max_steps: 10_000,
            init_all: None,
            reg_inits: Vec::new(),
            allow_unsafe: false,
            faults: None,
            wall_budget: None,
            strict: false,
            coverage: false,
            backend: Backend::Compiled,
            record: None,
            design_fp: None,
            trace: obs::TraceCtx::disabled(),
        }
    }

    /// The design this job runs.
    pub fn design(&self) -> &'g Etpn {
        self.g
    }

    /// Select the step engine (default [`Backend::Compiled`]; use
    /// [`Backend::Interp`] for the reference interpreter).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Select the firing policy (the seed lives inside the policy).
    pub fn with_policy(mut self, policy: FiringPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Initialise every register to `value` before the run.
    pub fn init_registers(mut self, value: i64) -> Self {
        self.init_all = Some(value);
        self
    }

    /// Initialise the register vertex named `name` to `value`.
    pub fn init_register(mut self, name: &str, value: i64) -> Self {
        self.reg_inits.push((name.to_string(), value));
        self
    }

    /// Disable the runtime safeness check (Def. 3.2(2)).
    pub fn allow_unsafe(mut self) -> Self {
        self.allow_unsafe = true;
        self
    }

    /// Attach a request-scoped trace context ([`obs::TraceCtx`]). The
    /// fleet worker that eventually executes this job opens a `fleet.job`
    /// span as a child of the context's parent span, recorded into the
    /// *request's* span buffer — not the process-wide thread-local one —
    /// so a request's span tree survives the thread hop and reassembles
    /// at join.
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.trace = ctx;
        self
    }

    /// Inject faults from `plan` (see [`crate::fault`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Stop with `Termination::Budget` after this much wall-clock time.
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Raise `SimError::InputExhausted` on dry input reads.
    pub fn strict_inputs(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Collect functional coverage into the job's trace (see
    /// [`Simulator::with_coverage`]); the fleet merges per-job DBs into
    /// [`FleetBatch::coverage`] at join.
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Flight-record the job (see [`Simulator::with_recorder`]): the
    /// trace carries an [`etpn_rec::Recording`] per job, so any fleet
    /// member — e.g. each fault of a campaign — can be replayed and
    /// bisected for divergence forensics afterwards.
    pub fn record(mut self, cfg: etpn_rec::RecordConfig) -> Self {
        self.record = Some(cfg);
        self
    }

    /// Supply the design's precomputed fingerprint so each recorded job
    /// skips re-deriving it (see
    /// [`Simulator::with_design_fingerprint`]). Campaign drivers compute
    /// it once per design and stamp every job.
    pub fn design_fingerprint(mut self, fp: u64) -> Self {
        self.design_fp = Some(fp);
        self
    }

    /// Build the configured simulator.
    fn into_sim(self) -> Simulator<'g, E> {
        let mut sim = Simulator::new(self.g, self.env)
            .with_backend(self.backend)
            .with_policy(self.policy);
        if let Some(v) = self.init_all {
            sim = sim.init_registers(v);
        }
        for (name, v) in &self.reg_inits {
            sim = sim.init_register(name, *v);
        }
        if self.allow_unsafe {
            sim = sim.allow_unsafe();
        }
        if let Some(plan) = self.faults {
            sim = sim.with_faults(plan);
        }
        if let Some(b) = self.wall_budget {
            sim = sim.with_wall_budget(b);
        }
        if self.strict {
            sim = sim.strict_inputs();
        }
        if self.coverage {
            sim = sim.with_coverage();
        }
        if let Some(cfg) = self.record {
            sim = sim.with_recorder(cfg);
        }
        if let Some(fp) = self.design_fp {
            sim = sim.with_design_fingerprint(fp);
        }
        sim
    }

    /// Execute this job on the calling thread.
    pub fn run(self) -> Result<Trace, SimError> {
        let max_steps = self.max_steps;
        self.into_sim().run(max_steps)
    }

    /// Same as [`SimJob::run`].
    // Kept only because `perfbench/src/battery.rs` calls it by this name;
    // delete it once that call is changed to `run`.
    #[doc(hidden)]
    pub fn run_uncached(self) -> Result<Trace, SimError> {
        self.run()
    }
}

/// Always-empty stand-in for the evaluation-cache counters a batch used
/// to report. Fleet jobs make no cache lookups, so the rate is 0.
// Kept only because `perfbench/src/battery.rs` reads
// `batch.stats.cache.hit_rate()`; delete it with that benchmark metric.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats;

impl CacheStats {
    /// Always 0.0: no lookups are made.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

/// Summary of one [`Fleet::run_batch`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed by a worker other than the one they were striped to.
    pub stolen: u64,
    /// Panics contained by the per-job isolation boundary (every attempt
    /// of every job counts once).
    pub panics: u64,
    /// Retry attempts made for panicked jobs.
    pub retried: u64,
    /// Always empty (see [`CacheStats`]).
    #[doc(hidden)]
    pub cache: CacheStats,
}

impl FleetStats {
    /// Re-export this summary through the observability registry as
    /// gauges under `fleet.*`, so profile/stats dumps and downstream
    /// tooling see the same numbers `run_batch` returned.
    pub fn export(&self, reg: &obs::Registry) {
        reg.gauge("fleet.jobs").set(self.jobs as i64);
        reg.gauge("fleet.workers").set(self.workers as i64);
        reg.gauge("fleet.stolen").set(self.stolen as i64);
        reg.gauge("fleet.panics").set(self.panics as i64);
        reg.gauge("fleet.retried").set(self.retried as i64);
    }
}

/// Everything a batch run returns: per-job outcomes in submission order
/// plus the run summary.
pub struct FleetBatch {
    /// `results[i]` is the outcome of the `i`-th submitted job, whatever
    /// order the workers actually ran them in.
    pub results: Vec<Result<Trace, SimError>>,
    /// Merged functional coverage over every successful job that carried a
    /// [`CovDb`] (jobs built [`SimJob::with_coverage`]). Counters sum and
    /// covered-sets union, so the merge is independent of worker count and
    /// scheduling: the same seed set yields a bit-identical DB under any
    /// `--jobs`. Jobs whose design fingerprint differs from the first
    /// covered job are skipped (a batch may legally mix designs).
    pub coverage: Option<CovDb>,
    /// Scheduling and panic counters for the batch.
    pub stats: FleetStats,
}

/// Configuration for [`Fleet::run_saturation`]: batch geometry and the
/// stopping rule.
#[derive(Clone, Copy, Debug)]
pub struct SaturationConfig {
    /// Seeds drawn per batch.
    pub batch_size: u64,
    /// Consecutive batches that must add *no* new coverage before the
    /// sweep is declared saturated.
    pub stable_batches: u32,
    /// Hard cap on batches, so a design whose coverage keeps trickling in
    /// cannot run unbounded.
    pub max_batches: u32,
}

impl Default for SaturationConfig {
    /// 8 seeds per batch, stop after 3 batches without new coverage,
    /// give up after 64 batches.
    fn default() -> Self {
        Self {
            batch_size: 8,
            stable_batches: 3,
            max_batches: 64,
        }
    }
}

/// What a coverage-saturation sweep found.
#[derive(Clone, Debug)]
pub struct SaturationOutcome {
    /// Coverage merged over every batch (`None` only if no job succeeded).
    pub coverage: Option<CovDb>,
    /// Batches executed.
    pub batches: u32,
    /// Jobs executed (batches × batch size).
    pub jobs: u64,
    /// Jobs that ended in an error.
    pub failures: u64,
    /// True when the sweep stopped because coverage went stable, false
    /// when it hit `max_batches` first.
    pub saturated: bool,
    /// Every seed drawn, in draw order (the reproducible seed set).
    pub seeds_used: Vec<u64>,
}

/// A reusable batch-simulation engine: a worker count plus retry and
/// deadline settings. Batches run on scoped threads, so jobs may borrow
/// their designs from the caller's stack.
pub struct Fleet {
    workers: usize,
    retry: RetryPolicy,
    job_deadline: Option<Duration>,
    deadline_at: Option<Instant>,
}

impl Fleet {
    /// A fleet with `workers` threads (`0` means one per available CPU).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        Self {
            workers,
            retry: RetryPolicy::immediate(DEFAULT_RETRIES),
            job_deadline: None,
            deadline_at: None,
        }
    }

    /// Bounded retries for panicked jobs (default 1), retried
    /// immediately. Retries re-run the identical job from scratch, so
    /// they are deterministic. A job that panics on every attempt
    /// resolves to [`SimError::Panicked`] instead of aborting the batch.
    pub fn with_retries(mut self, retries: u64) -> Self {
        self.retry = self.retry.with_max_retries(retries);
        self
    }

    /// The full retry policy — budget *and* backoff schedule (see
    /// [`RetryPolicy`]). The fleet default is
    /// [`RetryPolicy::immediate`]`(1)`; services that share a machine
    /// with their callers (e.g. `etpnd`) use a decorrelated-jitter
    /// policy so retry storms spread out.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// A wall-clock deadline stamped onto every job of a batch that does
    /// not already carry its own [`SimJob::wall_budget`]: one stuck
    /// simulation then resolves to `Termination::Budget` instead of
    /// stalling the whole batch behind it. Note this is a **per-job**
    /// budget, each measured from its own start — a deep queue on few
    /// workers can therefore spend many multiples of it in total. When
    /// the batch as a whole must resolve by a point in time, use
    /// [`Fleet::with_deadline_at`].
    pub fn with_job_deadline(mut self, deadline: Duration) -> Self {
        self.job_deadline = Some(deadline);
        self
    }

    /// An **absolute** deadline for the whole batch: when each job
    /// starts, its [`SimJob::wall_budget`] is clamped to the time left
    /// until `at` (jobs starting after `at` terminate almost immediately
    /// with `Termination::Budget`). Unlike [`Fleet::with_job_deadline`],
    /// queueing time counts, so a deep queue cannot multiply the batch's
    /// wall time past the deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline_at = Some(at);
        self
    }

    /// Execute one job inside a panic-isolation boundary with bounded
    /// retries under `retry`'s deterministic backoff schedule (keyed by
    /// the job's submission index).
    fn run_isolated<'g, E: Environment + Clone>(
        job: &SimJob<'g, E>,
        token: u64,
        retry: &RetryPolicy,
        panics: (&AtomicU64, &obs::Counter),
        retried: (&AtomicU64, &obs::Counter),
    ) -> Result<Trace, SimError> {
        let retries = retry.max_retries();
        let mut backoff = retry.schedule(token);
        let mut message = String::new();
        for attempt in 0..=retries {
            if attempt > 0 {
                if let Some(delay) = backoff.next() {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
            let j = job.clone();
            let run = panic::catch_unwind(AssertUnwindSafe(move || j.run()));
            match run {
                Ok(outcome) => return outcome,
                Err(payload) => {
                    panics.0.fetch_add(1, Ordering::Relaxed);
                    panics.1.inc();
                    message = panic_message(payload.as_ref());
                    if attempt < retries {
                        retried.0.fetch_add(1, Ordering::Relaxed);
                        retried.1.inc();
                    }
                }
            }
        }
        Err(SimError::Panicked { message, retries })
    }

    /// Run every job, returning results in submission order.
    ///
    /// Jobs are striped round-robin over per-worker deques; each worker
    /// drains its own deque from the front and steals from the *back* of
    /// the others when idle, so the batch balances itself even when job
    /// lengths are skewed.
    pub fn run_batch<'g, E: Environment + Clone + Send>(
        &self,
        jobs: Vec<SimJob<'g, E>>,
    ) -> FleetBatch {
        self.run_batch_with(jobs, |_, _| {})
    }

    /// [`Fleet::run_batch`] with a per-job post-processing hook, called on
    /// the worker thread as soon as that job's result exists — before the
    /// rest of the batch completes. The hook may harvest or strip
    /// per-job payloads (`idx` is the submission index), which bounds the
    /// batch's memory to what the hook leaves behind: fault-campaign
    /// forensics bisects and then drops each faulty flight recording
    /// here, holding at most one journal per worker instead of one per
    /// job. The hook runs outside the panic-isolation boundary, so it
    /// must not panic.
    pub fn run_batch_with<'g, E, F>(&self, jobs: Vec<SimJob<'g, E>>, post: F) -> FleetBatch
    where
        E: Environment + Clone + Send,
        F: Fn(usize, &mut Result<Trace, SimError>) + Sync,
    {
        type WorkQueue<'g, E> = Mutex<VecDeque<(usize, SimJob<'g, E>)>>;
        let _batch_span = obs::span_arg("fleet.batch", "jobs", jobs.len() as i64);
        let reg = obs::global();
        let jobs_done = reg.counter("fleet.jobs_done");
        let steals = reg.counter("fleet.steals");
        let panics_ctr = reg.counter("fleet.panics");
        let retried_ctr = reg.counter("fleet.retries");
        let n_jobs = jobs.len();
        let workers = self.workers.min(n_jobs).max(1);
        let queues: Vec<WorkQueue<'g, E>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, mut job) in jobs.into_iter().enumerate() {
            // Stamp the fleet-wide deadline on jobs without their own, so
            // a single pathological job cannot stall the batch.
            if job.wall_budget.is_none() {
                job.wall_budget = self.job_deadline;
            }
            lock_recover(&queues[i % workers]).push_back((i, job));
        }
        let slots: Vec<Mutex<Option<Result<Trace, SimError>>>> =
            (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let stolen = AtomicU64::new(0);
        let panics = AtomicU64::new(0);
        let retried = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let stolen = &stolen;
                let panics = &panics;
                let retried = &retried;
                let retry = &self.retry;
                let deadline_at = self.deadline_at;
                let jobs_done = &jobs_done;
                let steals = &steals;
                let panics_ctr = &panics_ctr;
                let retried_ctr = &retried_ctr;
                let post = &post;
                scope.spawn(move || {
                    {
                        let _worker_span = obs::span_arg("fleet.worker", "worker", w as i64);
                        loop {
                            let mut next = lock_recover(&queues[w]).pop_front();
                            if next.is_none() {
                                for d in 1..workers {
                                    let victim = (w + d) % workers;
                                    next = lock_recover(&queues[victim]).pop_back();
                                    if next.is_some() {
                                        stolen.fetch_add(1, Ordering::Relaxed);
                                        steals.inc();
                                        break;
                                    }
                                }
                            }
                            match next {
                                Some((idx, mut job)) => {
                                    // The batch-wide absolute deadline binds
                                    // each job to the time actually left when
                                    // it *starts*, so queued jobs cannot each
                                    // spend a full budget of their own.
                                    if let Some(at) = deadline_at {
                                        let left = at
                                            .checked_duration_since(Instant::now())
                                            .unwrap_or(Duration::from_micros(1));
                                        job.wall_budget =
                                            Some(job.wall_budget.map_or(left, |b| b.min(left)));
                                    }
                                    let _job_span = obs::span_arg("fleet.job", "job", idx as i64);
                                    // The request-scoped twin of the span
                                    // above: lands in the owning request's
                                    // buffer, tagged with the job index.
                                    let _req_span =
                                        job.trace.span_arg("fleet.job", "job", idx as i64);
                                    let mut outcome = Self::run_isolated(
                                        &job,
                                        idx as u64,
                                        retry,
                                        (panics, panics_ctr),
                                        (retried, retried_ctr),
                                    );
                                    post(idx, &mut outcome);
                                    *lock_recover(&slots[idx]) = Some(outcome);
                                    jobs_done.inc();
                                }
                                None => break,
                            }
                        }
                    }
                    // Flush explicitly: `thread::scope` unblocks when this
                    // closure returns, which is *before* thread-local
                    // destructors run, so relying on the TLS-drop flush
                    // would race the batch's readers.
                    obs::flush_thread();
                });
            }
        });

        let results: Vec<Result<Trace, SimError>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every submitted job is executed exactly once")
            })
            .collect();
        let stats = FleetStats {
            jobs: n_jobs,
            workers,
            stolen: stolen.load(Ordering::Relaxed),
            panics: panics.load(Ordering::Relaxed),
            retried: retried.load(Ordering::Relaxed),
            cache: CacheStats,
        };
        stats.export(reg);
        // Merge per-job coverage in submission order. Summation and set
        // union are associative and commutative, so the result is
        // independent of which worker ran which job.
        let mut coverage: Option<CovDb> = None;
        for trace in results.iter().flatten() {
            let Some(db) = &trace.cov else { continue };
            match &mut coverage {
                None => coverage = Some(db.clone()),
                Some(acc) => {
                    // A batch may mix designs; merge only matching ones.
                    let _ = acc.merge(db);
                }
            }
        }
        if let Some(db) = &coverage {
            db.export(reg);
        }
        FleetBatch {
            results,
            coverage,
            stats,
        }
    }

    /// Drive a design to **coverage saturation**: keep drawing seeds in
    /// batches of [`SaturationConfig::batch_size`], merging each batch's
    /// coverage, until [`SaturationConfig::stable_batches`] consecutive
    /// batches add no new coverage (the merged DB's
    /// [`CovDb::signature`] stops changing) or
    /// [`SaturationConfig::max_batches`] is hit.
    ///
    /// `make_job` maps a seed to a job; coverage collection is forced on
    /// regardless of how the job was built. Seeds are drawn sequentially
    /// from 0, so the sweep — and its merged coverage — is reproducible.
    pub fn run_saturation<'g, E, F>(
        &self,
        mut make_job: F,
        cfg: SaturationConfig,
    ) -> SaturationOutcome
    where
        E: Environment + Clone + Send,
        F: FnMut(u64) -> SimJob<'g, E>,
    {
        let mut merged: Option<CovDb> = None;
        let mut seeds_used = Vec::new();
        let mut failures = 0u64;
        let mut streak = 0u32;
        let mut batches = 0u32;
        let mut saturated = false;
        let mut next_seed = 0u64;
        while batches < cfg.max_batches {
            let seeds: Vec<u64> = (0..cfg.batch_size.max(1))
                .map(|_| {
                    let s = next_seed;
                    next_seed += 1;
                    s
                })
                .collect();
            let jobs: Vec<SimJob<'g, E>> = seeds
                .iter()
                .map(|&seed| make_job(seed).with_coverage())
                .collect();
            seeds_used.extend_from_slice(&seeds);
            let batch = self.run_batch(jobs);
            failures += batch.results.iter().filter(|r| r.is_err()).count() as u64;
            batches += 1;
            let before = merged.as_ref().map(CovDb::signature);
            match (&mut merged, batch.coverage) {
                (None, Some(db)) => merged = Some(db),
                (Some(acc), Some(db)) => {
                    let _ = acc.merge(&db);
                }
                (_, None) => {}
            }
            let after = merged.as_ref().map(CovDb::signature);
            if before == after && before.is_some() {
                streak += 1;
                if streak >= cfg.stable_batches {
                    saturated = true;
                    break;
                }
            } else {
                streak = 0;
            }
        }
        let reg = obs::global();
        reg.gauge("cov.saturation.batches").set(batches as i64);
        reg.gauge("cov.saturation.saturated")
            .set(i64::from(saturated));
        SaturationOutcome {
            coverage: merged,
            jobs: seeds_used.len() as u64,
            batches,
            failures,
            saturated,
            seeds_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op, Value};

    /// s0: load r := a + b;  s1: emit r to y;  then terminate.
    fn add_once() -> Etpn {
        let mut b = EtpnBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let out = b.output("y");
        let arc_a = b.connect(b.out_port(a, 0), b.in_port(add, 0));
        let arc_b = b.connect(b.out_port(c, 0), b.in_port(add, 1));
        let load = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(out, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [arc_a, arc_b, load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s_end, "t1");
        let t2 = b.transition("t2");
        b.flow_st(s_end, t2);
        b.mark(s0);
        b.finish().unwrap()
    }

    fn env_ab(a: i64, b: i64) -> ScriptedEnv {
        ScriptedEnv::new()
            .with_stream("a", [a])
            .with_stream("b", [b])
    }

    #[test]
    fn batch_results_follow_submission_order() {
        let g = add_once();
        let jobs: Vec<SimJob> = (0..12)
            .map(|i| SimJob::new(&g, env_ab(i, 100)).max_steps(10))
            .collect();
        let fleet = Fleet::new(4);
        let batch = fleet.run_batch(jobs);
        assert_eq!(batch.stats.jobs, 12);
        for (i, r) in batch.results.iter().enumerate() {
            let t = r.as_ref().unwrap();
            assert_eq!(t.values_on_named_output(&g, "y"), vec![i as i64 + 100]);
        }
    }

    #[test]
    fn interpreter_jobs_run_through_the_fleet() {
        let g = add_once();
        let jobs: Vec<SimJob> = (0..8)
            .map(|_| {
                SimJob::new(&g, env_ab(3, 4))
                    .backend(Backend::Interp)
                    .max_steps(10)
            })
            .collect();
        let batch = Fleet::new(2).run_batch(jobs);
        for r in &batch.results {
            assert_eq!(r.as_ref().unwrap().values_on_named_output(&g, "y"), vec![7]);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = add_once();
        let fleet = Fleet::new(3);
        let batch = fleet.run_batch(Vec::<SimJob>::new());
        assert!(batch.results.is_empty());
        let _ = &g;
    }

    /// An environment that either answers from a script or detonates,
    /// letting a batch mix healthy and panicking jobs under one type.
    #[derive(Clone)]
    enum TestEnv {
        Healthy(ScriptedEnv),
        Bomb,
    }

    impl Environment for TestEnv {
        fn value_at(&self, input: etpn_core::VertexId, name: &str, k: u64) -> Value {
            match self {
                TestEnv::Healthy(e) => e.value_at(input, name, k),
                TestEnv::Bomb => panic!("injected eval panic"),
            }
        }
    }

    #[test]
    fn panics_are_contained_per_job() {
        let g = add_once();
        let jobs = vec![
            SimJob::new(&g, TestEnv::Healthy(env_ab(1, 2))).max_steps(10),
            SimJob::new(&g, TestEnv::Bomb).max_steps(10),
            SimJob::new(&g, TestEnv::Healthy(env_ab(3, 4))).max_steps(10),
        ];
        let batch = Fleet::new(2).run_batch(jobs);
        assert_eq!(
            batch.results[0]
                .as_ref()
                .unwrap()
                .values_on_named_output(&g, "y"),
            vec![3]
        );
        match &batch.results[1] {
            Err(SimError::Panicked { message, retries }) => {
                assert!(message.contains("injected eval panic"), "{message}");
                assert_eq!(*retries, DEFAULT_RETRIES);
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(
            batch.results[2]
                .as_ref()
                .unwrap()
                .values_on_named_output(&g, "y"),
            vec![7]
        );
        // Initial attempt + DEFAULT_RETRIES retries, all panicking.
        assert_eq!(batch.stats.panics, DEFAULT_RETRIES + 1);
        assert_eq!(batch.stats.retried, DEFAULT_RETRIES);
    }

    #[test]
    fn retry_budget_is_bounded_and_counted() {
        let g = add_once();
        let jobs = vec![SimJob::new(&g, TestEnv::Bomb).max_steps(10)];
        let batch = Fleet::new(1).with_retries(3).run_batch(jobs);
        assert!(matches!(
            batch.results[0],
            Err(SimError::Panicked { retries: 3, .. })
        ));
        assert_eq!(batch.stats.panics, 4, "1 attempt + 3 retries");
        assert_eq!(batch.stats.retried, 3);
    }

    #[test]
    fn zero_retries_still_contains_the_panic() {
        let g = add_once();
        let jobs = vec![SimJob::new(&g, TestEnv::Bomb).max_steps(10)];
        let batch = Fleet::new(1).with_retries(0).run_batch(jobs);
        assert!(matches!(
            batch.results[0],
            Err(SimError::Panicked { retries: 0, .. })
        ));
        assert_eq!(batch.stats.panics, 1);
        assert_eq!(batch.stats.retried, 0);
    }

    /// The fleet-wide job deadline lands on jobs without their own
    /// budget: a spinning job resolves to `Termination::Budget` instead
    /// of hanging the batch.
    #[test]
    fn fleet_deadline_bounds_stuck_jobs() {
        use crate::trace::Termination;
        // x=1, y=0: `while (x != y) x = x - y` never terminates.
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let keep = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [keep]);
        b.control(s1, [keep]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        b.mark(s0);
        let spin = b.finish().unwrap();
        let jobs = vec![SimJob::new(&spin, ScriptedEnv::new()).max_steps(u64::MAX)];
        let fleet = Fleet::new(1).with_job_deadline(Duration::from_millis(20));
        let batch = fleet.run_batch(jobs);
        let trace = batch.results[0].as_ref().unwrap();
        assert_eq!(trace.termination, Termination::Budget);
    }

    /// `with_deadline_at` is a batch-wide *absolute* deadline: eight
    /// unbounded spinners queued on one worker all resolve within roughly
    /// one deadline, not eight per-job budgets back to back.
    #[test]
    fn batch_deadline_is_absolute_not_per_job() {
        use crate::trace::Termination;
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let keep = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [keep]);
        b.control(s1, [keep]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        b.mark(s0);
        let spin = b.finish().unwrap();
        let jobs: Vec<_> = (0..8)
            .map(|_| SimJob::new(&spin, ScriptedEnv::new()).max_steps(u64::MAX))
            .collect();
        let deadline = Duration::from_millis(150);
        let fleet = Fleet::new(1).with_deadline_at(Instant::now() + deadline);
        let started = Instant::now();
        let batch = fleet.run_batch(jobs);
        // Per-job semantics would take ≥ 8 × 150 ms = 1.2 s; leave slack
        // for scheduling noise but stay far under that.
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "batch overran its absolute deadline: {:?}",
            started.elapsed()
        );
        for r in &batch.results {
            assert_eq!(r.as_ref().unwrap().termination, Termination::Budget);
        }
    }

    #[test]
    fn job_errors_are_reported_per_job() {
        // An unsafe merge: two tokens into one place.
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s2);
        let t1 = b.transition("t1");
        b.flow_st(s1, t1);
        b.flow_ts(t1, s2);
        b.mark(s0);
        b.mark(s1);
        let bad = b.finish().unwrap();
        let good = add_once();
        let jobs = vec![
            SimJob::new(&good, env_ab(1, 2)).max_steps(10),
            SimJob::new(&bad, ScriptedEnv::new()).max_steps(10),
        ];
        let batch = Fleet::new(2).run_batch(jobs);
        assert!(batch.results[0].is_ok());
        assert!(matches!(
            batch.results[1],
            Err(SimError::UnsafeMarking { .. })
        ));
    }
}
