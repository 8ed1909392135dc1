//! Builds the simulated cluster, spawns the master and workers, drives
//! the simulation, and assembles the run report.

use std::fmt;
use std::rc::Rc;

use s3a_des::{Deadlock, Sim, SimTime};
use s3a_faults::{FaultLog, FaultParams, FaultSchedule};
use s3a_mpi::World;
use s3a_mpiio::{File, Hints};
use s3a_net::Fabric;
use s3a_obs::ObsSink;
use s3a_pvfs::{FileSystem, PvfsError, SimSanitizer};
use s3a_workload::Workload;

use crate::master::run_master;
use crate::observe::publish_service_obs;
use crate::params::{ParamError, Segmentation, SimParams};
use crate::phase::PhaseBreakdown;
use crate::report::{RunReport, ServiceReport};
use crate::resume::{restart_point, CommitTracker, ResumePoint};
use crate::service::ServiceTracker;
use crate::trace::TraceSink;
use crate::worker::{run_worker, WorkerStats};

/// The per-run fault machinery handed to the master and workers: the
/// deterministic schedule (what fails, when) and the shared event log
/// (what actually happened, for the recovery-tax report).
#[derive(Clone)]
pub struct FaultCtx {
    /// Immutable, seed-derived fault plan.
    pub schedule: Rc<FaultSchedule>,
    /// Append-only record of injections, detections, and repairs.
    pub log: FaultLog,
}

/// Name of the simulated output file.
pub const OUTPUT_FILE: &str = "s3asim.out";

/// Name of the simulated sequence-database file (read by
/// query-segmentation workers whose memory cannot hold the database).
pub const DATABASE_FILE: &str = "database.db";

/// For query segmentation, fold each query's per-fragment hits into a
/// single whole-database task: the search work and result volume are
/// unchanged, but one worker performs all of it.
fn fold_for_query_segmentation(workload: &Workload) -> Workload {
    let mut folded = workload.clone();
    folded.params.fragments = 1;
    for q in &mut folded.queries {
        let mut all: Vec<s3a_workload::Hit> = q.hits.iter().flatten().copied().collect();
        all.sort_by(crate::protocol::hit_order);
        q.hits = vec![all];
    }
    folded
}

/// Why a run could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The parameter combination was rejected before any simulation ran.
    InvalidParams(ParamError),
    /// The simulation stalled: no task could make progress. Carries the
    /// engine's parked-task diagnosis.
    Deadlock(Deadlock),
    /// The run completed but its output file failed verification (a byte
    /// missing, duplicated, or unflushed).
    Verification(String),
    /// A rank hit an unrecoverable file-system error — an outage past
    /// the retry budget, a write below its replica quorum, or a block
    /// with every copy rotten.
    Io(PvfsError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
            SimError::Deadlock(d) => write!(f, "S3aSim run deadlocked: {d}"),
            SimError::Verification(e) => write!(f, "output verification failed: {e}"),
            SimError::Io(e) => write!(f, "PVFS I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidParams(e) => Some(e),
            SimError::Deadlock(d) => Some(d),
            SimError::Verification(_) => None,
            SimError::Io(e) => Some(e),
        }
    }
}

/// Panic payload a master/worker task throws on an unrecoverable PVFS
/// error (simulated MPI has no error returns across ranks — a fatal I/O
/// error aborts the "job", exactly like `MPI_Abort`). The fallible entry
/// points catch it and surface [`SimError::Io`]; `repro` additionally
/// installs a panic hook that suppresses the default backtrace for this
/// payload.
pub struct IoFailure(
    /// The typed file-system error that aborted the run.
    pub PvfsError,
);

impl fmt::Debug for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IoFailure({})", self.0)
    }
}

/// Abort the simulated job with a typed I/O error (see [`IoFailure`]).
pub(crate) fn io_failure(e: PvfsError) -> ! {
    std::panic::panic_any(IoFailure(e))
}

/// Run `execute`, converting an [`IoFailure`] unwind back into a typed
/// [`SimError::Io`]. Any other panic (a genuine bug) keeps unwinding.
fn execute_caught(params: &SimParams) -> Result<RunReport, SimError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(params))) {
        Ok(r) => r,
        Err(payload) => match payload.downcast::<IoFailure>() {
            Ok(io) => Err(SimError::Io(io.0)),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

impl From<ParamError> for SimError {
    fn from(e: ParamError) -> Self {
        SimError::InvalidParams(e)
    }
}

impl From<Deadlock> for SimError {
    fn from(d: Deadlock) -> Self {
        SimError::Deadlock(d)
    }
}

/// Execute one S3aSim run and return its report, or a typed error when
/// the parameters are invalid, the simulation deadlocks, or the produced
/// output file fails verification.
///
/// The cluster is assembled exactly once per run: compute nodes
/// (`procs / ranks_per_node` NICs) and PVFS2 servers share one fabric, so
/// MPI traffic and file traffic contend for the same links, as on the
/// paper's testbed.
pub fn try_run(params: &SimParams) -> Result<RunReport, SimError> {
    let report = execute_caught(params)?;
    report.verify().map_err(SimError::Verification)?;
    Ok(report)
}

/// Execute one S3aSim run and return its report.
///
/// Thin compatible wrapper over the fallible path: panics where
/// [`try_run`] returns `Err` (except verification, which remains the
/// caller's explicit step via [`RunReport::verify`], as it always was).
pub fn run(params: &SimParams) -> RunReport {
    execute_caught(params).unwrap_or_else(|e| panic!("{e}"))
}

/// The shared simulation body: validates, assembles the cluster, drives
/// the engine, and assembles the report. Does not verify the output file.
fn execute(params: &SimParams) -> Result<RunReport, SimError> {
    params.try_validate()?;
    let params = Rc::new(params.clone());
    let sim = Sim::new();
    let generated = Workload::generate(&params.workload);
    let workload = Rc::new(match params.segmentation {
        Segmentation::Database => generated,
        Segmentation::Query => fold_for_query_segmentation(&generated),
    });

    let tb = &params.testbed;
    let compute_nodes = params.procs.div_ceil(tb.mpi.ranks_per_node);
    let fabric = Rc::new(Fabric::new(compute_nodes + tb.pvfs.servers, tb.net));
    let world = World::with_fabric(&sim, params.procs, tb.mpi, Rc::clone(&fabric), 0);
    let fs = FileSystem::new(&sim, tb.pvfs, Rc::clone(&fabric), compute_nodes);

    // Arm the fault machinery. Message faults live in the fabric, server
    // faults in the file system; crash handling lives in the master and
    // worker loops, which receive the whole context. Domain-scoped
    // outages are expanded into per-server outages here, where the
    // testbed shape (server count, failure-domain count) is known.
    let faults = params
        .faults
        .expand_domains(tb.pvfs.servers, tb.pvfs.failure_domains);
    let faults_ctx = faults.any().then(|| FaultCtx {
        schedule: FaultSchedule::new(faults.clone()),
        log: FaultLog::new(),
    });
    if let Some(ctx) = &faults_ctx {
        fabric.set_faults(Rc::clone(&ctx.schedule), ctx.log.clone());
        fs.set_faults(Rc::clone(&ctx.schedule), ctx.log.clone());
    }

    // Background maintenance (failure detection, repair, scrub) only
    // runs when the file system tracks block replicas; plain runs keep
    // the exact pre-replication task set, byte for byte.
    let maint = (tb.pvfs.replicas > 1 || tb.pvfs.scrub_interval > SimTime::ZERO)
        .then(|| fs.spawn_maintenance(faults.heartbeat_interval));
    let replicated = tb.pvfs.replicas > 1;

    // Arm observability before any `File::open` (files inherit the file
    // system's sink at open time). Recording never changes virtual-time
    // behaviour, so report numbers are identical either way.
    let obs_sink = if params.observe {
        ObsSink::recording()
    } else {
        ObsSink::disabled()
    };
    if params.observe {
        fabric.set_obs(obs_sink.clone());
        fs.set_obs(obs_sink.clone());
        world.set_obs(obs_sink.clone());
    }

    // Arm the race sanitizer, also before any `File::open` (files snapshot
    // the file system's sanitizer at open time). Pure bookkeeping: it
    // advances no virtual time, so the run is bit-identical either way.
    let san = if params.sanitize {
        SimSanitizer::armed()
    } else {
        SimSanitizer::disabled()
    };
    if params.sanitize {
        if params.observe {
            san.set_obs(obs_sink.clone());
        }
        fs.set_sanitizer(san.clone());
    }

    let hints = Hints {
        cb_nodes: if params.cb_nodes == 0 {
            compute_nodes
        } else {
            params.cb_nodes
        },
        cb_buffer_size: params.cb_buffer_size,
        ind_wr_buffer_size: params.ind_wr_buffer_size,
    };

    let worker_ranks: Vec<usize> = (params.num_masters..params.procs).collect();
    let sink = if params.trace {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };
    let commits = CommitTracker::new();
    let service_tracker = params.is_service().then(ServiceTracker::new);

    // Masters (world ranks 0..num_masters), one loop for every shard
    // count. Each master's file handle lives on a communicator holding
    // only that master: MW writes (and shipped-result shard writes) are
    // independent operations. Task and communicator names keep their
    // single-master spelling at one master: the model checker hashes task
    // names into its schedule signatures.
    let master_joins: Vec<_> = (0..params.num_masters)
        .map(|s| {
            let (name, io) = if params.sharded() {
                (format!("master{s}"), format!("master-io-{s}"))
            } else {
                ("master".to_string(), "master-io".to_string())
            };
            let comm = world.comm(s);
            let master_only = comm.sub(&[s], &io);
            let file = File::open(&master_only, &fs, OUTPUT_FILE, hints);
            sim.spawn(
                name,
                run_master(
                    sim.clone(),
                    comm,
                    Rc::clone(&params),
                    Rc::clone(&workload),
                    file,
                    sink.clone(),
                    commits.clone(),
                    faults_ctx.clone(),
                    service_tracker.clone(),
                    obs_sink.clone(),
                ),
            )
        })
        .collect();

    // Workers (world ranks num_masters..procs), single-master and sharded
    // alike. Their file handle lives on the workers' communicator so
    // collective writes span exactly the workers.
    let worker_joins: Vec<_> = worker_ranks
        .iter()
        .map(|&r| {
            let comm = world.comm(r);
            let workers_comm = comm.sub(&worker_ranks, "workers");
            let file = File::open(&workers_comm, &fs, OUTPUT_FILE, hints);
            let sim2 = sim.clone();
            let p = Rc::clone(&params);
            let w = Rc::clone(&workload);
            let database = (params.segmentation == Segmentation::Query
                && params.db_reload_bytes() > 0)
                .then(|| fs.open(DATABASE_FILE));
            sim.spawn(
                format!("worker{r}"),
                run_worker(
                    sim2,
                    comm,
                    workers_comm,
                    p,
                    w,
                    file,
                    database,
                    sink.clone(),
                    commits.clone(),
                    faults_ctx.clone(),
                ),
            )
        })
        .collect();

    // Drive to completion; collect per-rank breakdowns.
    let collector = {
        let sim2 = sim.clone();
        let fs2 = fs.clone();
        sim.spawn("collector", async move {
            let mut masters = Vec::with_capacity(master_joins.len());
            for j in master_joins {
                masters.push(j.join().await);
            }
            // Single-master runs report that master's breakdown verbatim
            // (byte-identity with the pre-shard report); sharded runs
            // report the across-shard mean.
            let master = if masters.len() == 1 {
                masters.pop().expect("one master")
            } else {
                PhaseBreakdown::mean(&masters)
            };
            let mut workers = Vec::with_capacity(worker_joins.len());
            let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers.capacity());
            for j in worker_joins {
                let (bd, st) = j.join().await;
                workers.push(bd);
                worker_stats.push(st);
            }
            // Application completion time: every rank has exited. (The
            // engine may drain a few in-flight transfer bookkeeping tasks
            // a moment longer; those are not application time.)
            let overall = sim2.now();
            // Recovery epilogue: stop the perpetual maintenance loop so
            // the engine can terminate, then drain any re-replication
            // still outstanding so the report shows final block health.
            // Happens after `overall` is taken — the epilogue is repair
            // tax, not application time.
            if let Some(m) = &maint {
                m.stop();
            }
            if replicated {
                fs2.drain_repairs().await;
            }
            (overall, master, workers, worker_stats)
        })
    };

    sim.run()?;
    let (overall, master, workers, worker_stats) = collector
        .take_output()
        .expect("collector finishes with the simulation");

    let out = fs.open(OUTPUT_FILE);
    let trace = sink.finish();
    let commits = commits.finish();
    // Join the master's service milestones with the commit log (when each
    // query's bytes became durable) and publish the latency series into
    // the observability recording before it is sealed.
    let service = service_tracker.map(|t| {
        let sp = params
            .service()
            .expect("tracker exists only in service mode");
        ServiceReport::assemble(sp, t.finish(), &commits)
    });
    if let Some(svc) = &service {
        publish_service_obs(&obs_sink, svc);
    }
    let obs = obs_sink.finish();
    Ok(RunReport::assemble(
        trace,
        obs,
        commits,
        &params,
        &workload,
        overall,
        master,
        workers,
        worker_stats,
        &out,
        &fs,
        &world,
        &sim,
        faults_ctx.as_ref().map(|c| c.log.report()),
        san.finish(),
        service,
    ))
}

/// Outcome of a kill-and-restart experiment: the interrupted run, the
/// checkpoint recovered from its commit log, and the resumed run.
#[derive(Debug)]
pub struct RestartOutcome {
    /// The first run's report (in the experiment's fiction, this run was
    /// killed at `kill_at`; determinism makes its prefix identical to the
    /// completed run, so the commit log up to `kill_at` is exactly what a
    /// real crash would have left on disk).
    pub first: RunReport,
    /// The durable state recovered from the commit log at `kill_at`.
    pub resume: ResumePoint,
    /// The resumed run, started from `resume` with faults disarmed.
    pub second: RunReport,
}

impl RestartOutcome {
    /// Check that the restart produced a complete output: the resumed
    /// run's single extent sits exactly on top of the checkpoint's
    /// durable prefix and together they cover the whole expected output.
    pub fn verify(&self) -> Result<(), String> {
        self.second.verify()?;
        let total = self.first.expected_bytes;
        let covered = self.resume.base_offset + self.second.covered_bytes;
        if covered != total {
            return Err(format!(
                "restart hole: durable prefix {} + resumed {} != expected {}",
                self.resume.base_offset, self.second.covered_bytes, total
            ));
        }
        Ok(())
    }
}

/// Simulate a checkpoint-restart: run once (with whatever faults `params`
/// arms), pretend the process was killed at `kill_at`, recover the
/// durable prefix from the commit log, and run again resuming from it.
///
/// The whole experiment is deterministic: the first run's behavior up to
/// `kill_at` does not depend on anything after it, so its commit log
/// truncated at `kill_at` is byte-for-byte what a genuinely killed run
/// would have left behind.
pub fn run_with_restart(params: &SimParams, kill_at: SimTime) -> RestartOutcome {
    try_run_with_restart(params, kill_at).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`run_with_restart`]: both runs and the final
/// restart-coverage check report through [`SimError`] instead of
/// panicking.
pub fn try_run_with_restart(
    params: &SimParams,
    kill_at: SimTime,
) -> Result<RestartOutcome, SimError> {
    // Service runs shed load, so "the durable prefix covers batches
    // 0..k" no longer implies the restart owes exactly the rest — the
    // coverage check would be unsound. Typed rejection up front.
    if params.is_service() {
        return Err(SimError::InvalidParams(
            ParamError::ServiceResumeUnsupported,
        ));
    }
    let first = execute_caught(params)?;
    let resume = restart_point(&first.commits, kill_at);
    let mut resumed = params.clone();
    resumed.faults = FaultParams::default();
    resumed.resume_from = Some(resume.clone());
    let second = execute_caught(&resumed)?;
    let outcome = RestartOutcome {
        first,
        resume,
        second,
    };
    outcome.verify().map_err(SimError::Verification)?;
    Ok(outcome)
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for FaultCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCtx").finish_non_exhaustive()
    }
}
