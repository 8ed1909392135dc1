//! Simulation parameters: the I/O strategy under test, the workload, and
//! the modeled testbed.

use s3a_des::SimTime;
use s3a_faults::FaultParams;
use s3a_mpi::MpiConfig;
use s3a_mpiio::WriteMethod;
use s3a_net::{Bandwidth, NetConfig};
use s3a_pvfs::PvfsConfig;
use s3a_workload::{ArrivalProcess, WorkloadParams};

use crate::resume::ResumePoint;

/// Most tenants a service run may model. Per-tenant latency series carry
/// `&'static` metric names in the observability registry, so the tenant
/// space is a small fixed set rather than an open-ended one.
pub const MAX_TENANTS: usize = 8;

/// The result-writing strategy (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Master-writing: workers ship scores *and* result data to the
    /// master, which writes each completed batch contiguously (§2.1,
    /// mpiBLAST-style).
    Mw,
    /// Worker-writing with POSIX noncontiguous I/O: one independent write
    /// per result region (§2.3).
    WwPosix,
    /// Worker-writing with PVFS2 list I/O: region lists batched per
    /// file-system request (§2.3).
    WwList,
    /// Worker-writing with collective two-phase I/O (§2.2,
    /// pioBLAST-style).
    WwColl,
    /// Worker-writing with list I/O plus a forced synchronization after
    /// every batch — the "collective implemented with list I/O" the
    /// paper's conclusion proposes as a better collective method.
    WwCollList,
    /// Worker-writing with ROMIO-style data sieving (Thakur, Gropp &
    /// Lusk): per covering block of at most `ind_wr_buffer_size` bytes,
    /// lock the block, read it back, patch the holes, and write it out
    /// as one contiguous request — real ROMIO's independent
    /// noncontiguous path, which the paper's WW-POSIX deliberately
    /// leaves unoptimized.
    WwSieve,
}

impl Strategy {
    /// All strategies the paper evaluates, in its presentation order.
    pub const PAPER_SET: [Strategy; 4] = [
        Strategy::Mw,
        Strategy::WwPosix,
        Strategy::WwList,
        Strategy::WwColl,
    ];

    /// The paper's strategies plus the data-sieving extension — the set
    /// the repro harness runs end to end.
    pub const EXTENDED_SET: [Strategy; 5] = [
        Strategy::Mw,
        Strategy::WwPosix,
        Strategy::WwList,
        Strategy::WwColl,
        Strategy::WwSieve,
    ];

    /// True for the strategies in which workers write their own results.
    pub fn workers_write(self) -> bool {
        !matches!(self, Strategy::Mw)
    }

    /// True when the strategy itself forces workers to synchronize around
    /// each batch's I/O regardless of the `query_sync` option.
    pub fn inherently_synchronizing(self) -> bool {
        matches!(self, Strategy::WwColl | Strategy::WwCollList)
    }

    /// The MPI-IO method of this strategy's independent writes (worker
    /// batches, repairs and shard-master writes of shipped results).
    pub(crate) fn write_method(self) -> WriteMethod {
        match self {
            Strategy::WwPosix => WriteMethod::Posix,
            // ROMIO data sieving: each covering block is one locked
            // read-modify-write cycle.
            Strategy::WwSieve => WriteMethod::DataSieve,
            _ => WriteMethod::ListIo,
        }
    }

    /// Short label used in reports (matches the paper's terminology).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Mw => "MW",
            Strategy::WwPosix => "WW-POSIX",
            Strategy::WwList => "WW-List",
            Strategy::WwColl => "WW-Coll",
            Strategy::WwCollList => "WW-CollList",
            Strategy::WwSieve => "WW-DS",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the master picks the next task when a worker asks for work in
/// service mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Serve admitted queries strictly in arrival order.
    #[default]
    Fifo,
    /// Shortest job first: among admitted queries, dispatch the one with
    /// the smallest total result volume (the simulator's size oracle
    /// stands in for a production size estimator). Classic tail-latency
    /// winner under heavy-tailed job sizes; starves the largest jobs
    /// under overload.
    Sjf,
    /// Fair share across tenants: pick the tenant with the least result
    /// bytes dispatched so far, then its earliest-arrived query.
    FairShare,
}

impl SchedPolicy {
    /// Every policy, in presentation order.
    pub const ALL: [SchedPolicy; 3] = [SchedPolicy::Fifo, SchedPolicy::Sjf, SchedPolicy::FairShare];

    /// Short label used in reports and CSV rows.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "FIFO",
            SchedPolicy::Sjf => "SJF",
            SchedPolicy::FairShare => "FAIR",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Service-mode knobs: the arrival stream, the scheduling policy, and the
/// admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceParams {
    /// How simulated clients submit queries over virtual time.
    pub arrivals: ArrivalProcess,
    /// Master-side scheduling policy.
    pub policy: SchedPolicy,
    /// Tenants sharing the service (`1..=MAX_TENANTS`); each arrival is
    /// attributed to one tenant by the seeded stream.
    pub tenants: usize,
    /// Bounded admission queue: most queries that may sit admitted but
    /// not yet dispatched. An arrival that finds the queue full is shed
    /// (counted, never run) instead of growing the backlog without bound.
    pub queue_capacity: usize,
    /// Seed for the arrival stream (independent of the workload seed, so
    /// the same queries can be replayed under a different traffic trace).
    pub arrival_seed: u64,
    /// Idle back-off: how long a worker waits after a `Wait` assignment
    /// before asking for work again (no arrival may be due yet).
    pub poll_interval: SimTime,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            arrivals: ArrivalProcess::Poisson { rate: 4.0 },
            policy: SchedPolicy::Fifo,
            tenants: 2,
            queue_capacity: 64,
            arrival_seed: 7,
            poll_interval: SimTime::from_millis(5),
        }
    }
}

/// What one run models: a closed batch (the paper's setting) or an
/// open-loop service under client traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RunMode {
    /// All queries are present at time zero; the run measures makespan.
    #[default]
    Batch,
    /// Queries arrive over virtual time; the run measures per-query
    /// latency under admission control and a scheduling policy.
    Service(ServiceParams),
}

/// How the search is partitioned across workers (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Segmentation {
    /// Database segmentation (the paper's focus): queries are replicated,
    /// database fragments are searched on demand by any worker.
    #[default]
    Database,
    /// Query segmentation: the database is replicated (or streamed from
    /// the file system when it exceeds worker memory) and whole queries
    /// are distributed — the approach the paper's introduction argues
    /// stops scaling as databases outgrow memory.
    Query,
}

/// The modeled search-time and cluster constants. Defaults reproduce the
/// paper's Feynman/PVFS2 testbed behaviour; see EXPERIMENTS.md for the
/// calibration notes.
#[derive(Debug, Clone, Copy)]
pub struct Testbed {
    /// Interconnect model (Myrinet-2000-like).
    pub net: NetConfig,
    /// MPI layer configuration (protocol thresholds, ranks per node).
    pub mpi: MpiConfig,
    /// File system model (16 PVFS2 servers, 64 KiB strips).
    pub pvfs: PvfsConfig,
    /// Fixed startup cost of searching one (query, fragment) task at
    /// compute speed 1 (the paper's "constant startup cost").
    pub compute_startup: SimTime,
    /// Search time per byte of result produced, at compute speed 1 (the
    /// paper's "linear time based on the size of the result").
    pub compute_per_result_byte: SimTime,
    /// Worker-side cost of merging one hit into the per-query result list
    /// (the Merge Results phase; the master's merge is free, as in §3).
    pub merge_per_hit: SimTime,
    /// Maximum result-send operations a worker keeps in flight before
    /// waiting on the oldest (bounded send buffering).
    pub max_outstanding_result_sends: usize,
    /// Memory available for caching database data on one worker (the
    /// paper's nodes had 1 GB); only query-segmentation runs consult it.
    pub worker_memory: u64,
}

impl Default for Testbed {
    fn default() -> Self {
        let net = NetConfig {
            latency: SimTime::from_micros(8),
            bandwidth: Bandwidth::mib_per_sec(240.0),
            per_message_overhead: SimTime::from_micros(150),
        };
        Testbed {
            net,
            mpi: MpiConfig {
                net,
                eager_threshold: 16 * 1024,
                header_bytes: 64,
                ranks_per_node: 2,
            },
            pvfs: PvfsConfig::default(),
            compute_startup: SimTime::from_millis(30),
            compute_per_result_byte: SimTime::from_nanos(1250),
            merge_per_hit: SimTime::from_micros(2),
            max_outstanding_result_sends: 8,
            worker_memory: 1024 * 1024 * 1024,
        }
    }
}

/// Everything that defines one S3aSim run.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Total MPI processes (`num_masters` masters + the rest workers);
    /// the paper sweeps 2–96.
    pub procs: usize,
    /// Master ranks (`0..num_masters`). The default 1 reproduces the
    /// paper's single master exactly; more shards partition the query
    /// space, home workers round-robin, and steal tasks between shards
    /// (rank 0 doubles as the coordinator).
    pub num_masters: usize,
    /// Sharded mode only: split every `(query, fragment)` task into this
    /// many sub-fragment tasks so work stealing has fine grain to move
    /// (1 = whole fragments, the classic grain).
    pub subfragment_factor: usize,
    /// The I/O strategy under test.
    pub strategy: Strategy,
    /// The "query sync" option: force all workers to synchronize after
    /// each batch's I/O (§3.3).
    pub query_sync: bool,
    /// Relative compute speed; >1 models faster hardware or better search
    /// algorithms (the paper sweeps 0.1–25.6).
    pub compute_speed: f64,
    /// Write results after every `n` queries (paper default 1; a value of
    /// `>= workload.queries` reproduces mpiBLAST 1.2 / pioBLAST
    /// write-at-end behaviour).
    pub write_every_n_queries: usize,
    /// Two-phase collective aggregator count (0 = one aggregator per
    /// node, ROMIO's default).
    pub cb_nodes: usize,
    /// Two-phase collective buffer size per aggregator per round.
    pub cb_buffer_size: u64,
    /// Data-sieving buffer size for WW-DS independent noncontiguous
    /// writes (ROMIO's `ind_wr_buffer_size`; its default is 512 KiB).
    pub ind_wr_buffer_size: u64,
    /// Work-partitioning scheme (database segmentation is the paper's
    /// subject; query segmentation reproduces the introduction's
    /// motivation).
    pub segmentation: Segmentation,
    /// MW only: overlap the master's writes with task distribution using
    /// nonblocking I/O (one batch in flight — the paper notes blocking
    /// I/O is the norm "to avoid overloading the memory of the master",
    /// so the overlap is bounded to one batch's worth of buffering).
    pub mw_nonblocking_io: bool,
    /// Record a per-rank phase timeline (MPE/Jumpshot-style; see
    /// [`crate::trace`]).
    pub trace: bool,
    /// Record request-level observability: per-request lifecycle spans,
    /// collective exchange rounds, queue-depth series, and the metrics
    /// registry (see [`crate::observe`]). Off by default — a disabled sink
    /// costs nothing on the hot path.
    pub observe: bool,
    /// Arm the simulated-cluster race sanitizer (`SimSanitizer`): flag
    /// unlocked overlapping concurrent writes, reads of foreign unflushed
    /// bytes, and partial collectives. Pure bookkeeping in virtual time —
    /// a clean run's report is bit-identical with the sanitizer on or
    /// off. Off by default.
    pub sanitize: bool,
    /// Deterministic fault injection: worker crashes, message faults, and
    /// file-server misbehaviour (all off by default).
    pub faults: FaultParams,
    /// Restart from a prior run's durable checkpoint: the listed batches
    /// are skipped and output starts at the recorded base offset.
    pub resume_from: Option<ResumePoint>,
    /// Batch (default) or open-loop service mode.
    pub mode: RunMode,
    /// The synthetic search workload.
    pub workload: WorkloadParams,
    /// Cluster and compute-model constants.
    pub testbed: Testbed,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            procs: 16,
            num_masters: 1,
            subfragment_factor: 1,
            strategy: Strategy::WwList,
            query_sync: false,
            compute_speed: 1.0,
            write_every_n_queries: 1,
            // Calibrated aggregator count: reproduces the modest two-phase
            // throughput the paper measured through ROMIO's default
            // collective-buffering configuration (see EXPERIMENTS.md).
            cb_nodes: 6,
            cb_buffer_size: 4 * 1024 * 1024,
            ind_wr_buffer_size: 512 * 1024,
            segmentation: Segmentation::Database,
            mw_nonblocking_io: false,
            trace: false,
            observe: false,
            sanitize: false,
            faults: FaultParams::default(),
            resume_from: None,
            mode: RunMode::Batch,
            workload: WorkloadParams::default(),
            testbed: Testbed::default(),
        }
    }
}

impl SimParams {
    /// Number of worker processes.
    pub fn workers(&self) -> usize {
        self.procs.saturating_sub(self.num_masters)
    }

    /// Is this a sharded-master run (more than one master rank)?
    pub fn sharded(&self) -> bool {
        self.num_masters > 1
    }

    /// Time to search one task that produces `result_bytes` of output.
    pub fn compute_time(&self, result_bytes: u64) -> SimTime {
        self.compute_time_multi(result_bytes, 1)
    }

    /// Compute time for a task equivalent to `startups` fragment searches
    /// producing `result_bytes` in total (a query-segmentation task scans
    /// every fragment, paying the startup cost once per fragment).
    pub fn compute_time_multi(&self, result_bytes: u64, startups: usize) -> SimTime {
        assert!(self.compute_speed > 0.0, "compute speed must be positive");
        let base = self.testbed.compute_startup.as_secs_f64() * startups as f64
            + self.testbed.compute_per_result_byte.as_secs_f64() * result_bytes as f64;
        SimTime::from_secs_f64(base / self.compute_speed)
    }

    /// The service-mode parameters, when this run is a service run.
    pub fn service(&self) -> Option<&ServiceParams> {
        match &self.mode {
            RunMode::Batch => None,
            RunMode::Service(sp) => Some(sp),
        }
    }

    /// Is this an open-loop service run?
    pub fn is_service(&self) -> bool {
        matches!(self.mode, RunMode::Service(_))
    }

    /// Queries per write batch for a workload of `nq` queries. Service
    /// runs always write per query — each query's reply time is its own
    /// batch commit — while batch runs group `write_every_n_queries`.
    pub fn batch_granularity(&self, nq: usize) -> usize {
        if self.is_service() {
            1
        } else {
            self.write_every_n_queries.min(nq)
        }
    }

    /// Bytes a query-segmentation worker must re-read from the file
    /// system for every query (the part of the database that does not fit
    /// in its memory).
    pub fn db_reload_bytes(&self) -> u64 {
        self.workload
            .database_bytes
            .saturating_sub(self.testbed.worker_memory)
    }

    /// Start building a parameter set from the paper defaults. Every
    /// setter is infallible; [`SimParamsBuilder::build`] checks the
    /// combination and returns a typed [`ParamError`] instead of
    /// panicking.
    pub fn builder() -> SimParamsBuilder {
        SimParamsBuilder::default()
    }

    /// The longest silence a live rank's heartbeats can show. Without
    /// message delays it is the interval. A delayed message holds back
    /// everything queued behind it on the receiver's link, so with delays
    /// armed a heartbeat can land `msg_extra_delay` late — and a rank only
    /// starts beating once the setup broadcast reaches it, one possibly
    /// delayed hop per level of the binomial tree.
    fn heartbeat_gap(&self) -> SimTime {
        let f = &self.faults;
        if f.msg_delay_per_mille == 0 {
            return f.heartbeat_interval;
        }
        // Ranks `1..beating` heartbeat; rank `r` sits `popcount(r)` hops
        // below the root, at most the bit length of `beating - 1`.
        let beating = if f.master_crashes() {
            self.num_masters
        } else {
            self.procs
        };
        let hops = u64::from(usize::BITS - beating.saturating_sub(1).leading_zeros());
        let delays = f.msg_extra_delay.as_nanos().saturating_mul(hops + 1);
        SimTime::from_nanos(f.heartbeat_interval.as_nanos().saturating_add(delays))
    }

    /// Check the parameter combination, returning a typed error for every
    /// nonsense configuration (fewer than 2 procs, zero batch size, ...).
    pub fn try_validate(&self) -> Result<(), ParamError> {
        if self.procs < 2 {
            return Err(ParamError::TooFewProcs { procs: self.procs });
        }
        // NaN must be rejected too, hence the explicit is_nan check.
        if self.compute_speed.is_nan() || self.compute_speed <= 0.0 {
            return Err(ParamError::NonPositiveComputeSpeed {
                speed: self.compute_speed,
            });
        }
        if self.write_every_n_queries < 1 {
            return Err(ParamError::ZeroBatchSize);
        }
        if self.cb_buffer_size == 0 {
            return Err(ParamError::ZeroCbBufferSize);
        }
        if self.ind_wr_buffer_size == 0 {
            return Err(ParamError::ZeroIndWrBuffer);
        }
        let pv = &self.testbed.pvfs;
        if pv.replicas == 0 {
            return Err(ParamError::ZeroReplicas);
        }
        if pv.write_quorum == 0 || pv.write_quorum > pv.replicas {
            return Err(ParamError::InvalidWriteQuorum {
                quorum: pv.write_quorum,
                replicas: pv.replicas,
            });
        }
        let domains = s3a_pvfs::effective_domains(pv.servers, pv.failure_domains);
        if pv.replicas > domains {
            return Err(ParamError::ReplicasExceedDomains {
                replicas: pv.replicas,
                domains,
            });
        }
        if self.faults.max_io_retries == 0 {
            return Err(ParamError::ZeroRetryLimit);
        }
        if self.num_masters == 0 {
            return Err(ParamError::ZeroMasters);
        }
        if self.sharded() {
            if self.workers() == 0 {
                return Err(ParamError::MastersNeedWorker {
                    masters: self.num_masters,
                    procs: self.procs,
                });
            }
            if self.query_sync || self.strategy.inherently_synchronizing() {
                return Err(ParamError::ShardsNeedFreeRunningWorkers {
                    strategy: self.strategy,
                    query_sync: self.query_sync,
                });
            }
            if self.segmentation == Segmentation::Query {
                return Err(ParamError::ShardsQuerySegUnsupported);
            }
            if self.is_service() {
                return Err(ParamError::ShardsServiceUnsupported);
            }
            if self.resume_from.is_some() {
                return Err(ParamError::ShardsResumeUnsupported);
            }
            if self.faults.crashes() {
                return Err(ParamError::ShardsWorkerCrashesUnsupported);
            }
        }
        if self.subfragment_factor == 0 {
            return Err(ParamError::ZeroSubfragmentFactor);
        }
        if self.subfragment_factor > 1 && !self.sharded() {
            return Err(ParamError::SubfragmentsNeedShards);
        }
        if self.faults.master_crashes() {
            if !self.sharded() {
                return Err(ParamError::MasterCrashesNeedShards);
            }
            for &(rank, _) in &self.faults.master_crashes {
                if !(1..self.num_masters).contains(&rank) {
                    return Err(ParamError::CrashRankNotStandbyMaster {
                        rank,
                        masters: self.num_masters,
                    });
                }
            }
            if self.heartbeat_gap() >= self.faults.detection_timeout {
                return Err(ParamError::HeartbeatNotUnderTimeout {
                    interval: self.heartbeat_gap(),
                    timeout: self.faults.detection_timeout,
                });
            }
        }
        if self.faults.crashes() {
            if self.query_sync || self.strategy.inherently_synchronizing() {
                return Err(ParamError::CrashesNeedFreeRunningWorkers {
                    strategy: self.strategy,
                    query_sync: self.query_sync,
                });
            }
            if self.faults.worker_crashes.len() >= self.workers() {
                return Err(ParamError::NoSurvivingWorker {
                    crashes: self.faults.worker_crashes.len(),
                    workers: self.workers(),
                });
            }
            for &(rank, _) in &self.faults.worker_crashes {
                if !(1..self.procs).contains(&rank) {
                    return Err(ParamError::CrashRankNotWorker {
                        rank,
                        procs: self.procs,
                    });
                }
            }
            if self.heartbeat_gap() >= self.faults.detection_timeout {
                return Err(ParamError::HeartbeatNotUnderTimeout {
                    interval: self.heartbeat_gap(),
                    timeout: self.faults.detection_timeout,
                });
            }
        }
        if let Some(sp) = self.service() {
            let rates = match sp.arrivals {
                ArrivalProcess::Poisson { rate } => [rate, rate],
                ArrivalProcess::Bursty {
                    base_rate,
                    burst_rate,
                    ..
                } => [base_rate, burst_rate],
                ArrivalProcess::Diurnal {
                    trough_rate,
                    peak_rate,
                    ..
                } => [trough_rate, peak_rate],
            };
            for rate in rates {
                if rate.is_nan() || rate <= 0.0 {
                    return Err(ParamError::ZeroArrivalRate { rate });
                }
            }
            let shape: Option<(&'static str, f64)> = match &sp.arrivals {
                ArrivalProcess::Poisson { .. } => None,
                ArrivalProcess::Bursty { mean_dwell, .. } => Some(("mean_dwell", *mean_dwell)),
                ArrivalProcess::Diurnal { period, .. } => Some(("period", *period)),
            };
            if let Some((what, value)) = shape {
                if value.is_nan() || value <= 0.0 {
                    return Err(ParamError::NonPositiveArrivalShape { what, value });
                }
            }
            if sp.queue_capacity == 0 {
                return Err(ParamError::ZeroServiceQueue);
            }
            if sp.tenants == 0 || sp.tenants > MAX_TENANTS {
                return Err(ParamError::TenantsOutOfRange {
                    tenants: sp.tenants,
                    max: MAX_TENANTS,
                });
            }
            if sp.poll_interval == SimTime::ZERO {
                return Err(ParamError::ZeroPollInterval);
            }
            if self.faults.crashes() {
                return Err(ParamError::ServiceCrashesUnsupported);
            }
            if self.resume_from.is_some() {
                return Err(ParamError::ServiceResumeUnsupported);
            }
        }
        Ok(())
    }
}

/// Why a parameter combination was rejected — one variant per invariant
/// the old panicking `validate()` asserted.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// Fewer than 2 processes: a run needs at least 1 master + 1 worker.
    TooFewProcs {
        /// The rejected process count.
        procs: usize,
    },
    /// Compute speed must be positive (and finite enough to compare).
    NonPositiveComputeSpeed {
        /// The rejected multiplier.
        speed: f64,
    },
    /// `write_every_n_queries` must be at least 1.
    ZeroBatchSize,
    /// The two-phase collective buffer cannot be empty.
    ZeroCbBufferSize,
    /// The data-sieving buffer cannot be empty.
    ZeroIndWrBuffer,
    /// Crash injection needs free-running workers: query-sync and
    /// collective strategies recover via checkpoint-restart instead.
    CrashesNeedFreeRunningWorkers {
        /// The synchronizing strategy (or any strategy with query-sync).
        strategy: Strategy,
        /// Whether the query-sync option triggered the rejection.
        query_sync: bool,
    },
    /// Every worker was scheduled to crash; at least one must survive.
    NoSurvivingWorker {
        /// Crashes scheduled.
        crashes: usize,
        /// Workers available.
        workers: usize,
    },
    /// A crash was scheduled for a rank outside `1..procs`.
    CrashRankNotWorker {
        /// The offending rank.
        rank: usize,
        /// Total processes (valid worker ranks are `1..procs`).
        procs: usize,
    },
    /// The heartbeat interval — plus the extra delays a heartbeat can
    /// meet when message delays are armed — must undercut the detection
    /// timeout or the detector can never distinguish silence from death.
    HeartbeatNotUnderTimeout {
        /// Configured heartbeat interval, plus the extra message delays a
        /// heartbeat can meet when delays are armed.
        interval: SimTime,
        /// Configured detection timeout.
        timeout: SimTime,
    },
    /// The replication factor cannot be zero — even an unreplicated file
    /// has its one primary copy.
    ZeroReplicas,
    /// The write quorum must satisfy `1 <= w <= replicas`.
    InvalidWriteQuorum {
        /// The rejected quorum.
        quorum: usize,
        /// The configured replication factor.
        replicas: usize,
    },
    /// Replica placement needs at least as many failure domains as
    /// replicas — otherwise two copies would share a domain.
    ReplicasExceedDomains {
        /// The configured replication factor.
        replicas: usize,
        /// Effective failure-domain count (`0` config = one per server).
        domains: usize,
    },
    /// The I/O retry limit cannot be zero: a single outage tick would
    /// fail every request instantly with no backoff at all.
    ZeroRetryLimit,
    /// A service-mode arrival rate must be positive and finite.
    ZeroArrivalRate {
        /// The rejected rate (queries per second).
        rate: f64,
    },
    /// A service-mode arrival-shape parameter (burst dwell, diurnal
    /// period) must be positive and finite.
    NonPositiveArrivalShape {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value (seconds).
        value: f64,
    },
    /// The service admission queue must hold at least one query —
    /// capacity zero would shed every arrival.
    ZeroServiceQueue,
    /// The tenant count must be in `1..=MAX_TENANTS` (per-tenant metric
    /// names are a small fixed set).
    TenantsOutOfRange {
        /// The rejected tenant count.
        tenants: usize,
        /// The largest supported count ([`MAX_TENANTS`]).
        max: usize,
    },
    /// The service idle poll interval cannot be zero: an idle worker
    /// would re-request work at the same virtual instant forever.
    ZeroPollInterval,
    /// Service mode does not support worker-crash injection (message and
    /// server faults are fine); crash recovery is a batch-mode facility.
    ServiceCrashesUnsupported,
    /// Service mode does not support resuming from a checkpoint: arrivals
    /// are a traffic trace, not a resumable batch.
    ServiceResumeUnsupported,
    /// `num_masters` must be at least 1.
    ZeroMasters,
    /// A sharded run still needs at least one worker rank beyond its
    /// masters.
    MastersNeedWorker {
        /// Configured master count.
        masters: usize,
        /// Total processes.
        procs: usize,
    },
    /// Sharded masters need free-running workers: query-sync and
    /// collective strategies synchronize the whole worker set, which a
    /// partitioned query space cannot provide.
    ShardsNeedFreeRunningWorkers {
        /// The synchronizing strategy (or any strategy with query-sync).
        strategy: Strategy,
        /// Whether the query-sync option triggered the rejection.
        query_sync: bool,
    },
    /// Sharded masters partition the query space across database
    /// segments; query segmentation partitions the opposite axis.
    ShardsQuerySegUnsupported,
    /// Service mode keeps the single-master admission loop.
    ShardsServiceUnsupported,
    /// Sharded runs cannot resume from a single-master checkpoint.
    ShardsResumeUnsupported,
    /// Worker-crash injection is a single-master facility; sharded runs
    /// inject master crashes instead.
    ShardsWorkerCrashesUnsupported,
    /// `subfragment_factor` must be at least 1.
    ZeroSubfragmentFactor,
    /// Sub-fragment decomposition only exists to give work stealing
    /// grain, so it requires `num_masters > 1`.
    SubfragmentsNeedShards,
    /// A master-crash schedule needs a sharded run to act on.
    MasterCrashesNeedShards,
    /// A master crash was scheduled for a rank that is not a standby
    /// master (`1..num_masters`; rank 0 is the coordinator and must
    /// survive).
    CrashRankNotStandbyMaster {
        /// The offending rank.
        rank: usize,
        /// Configured master count (valid crash ranks are `1..masters`).
        masters: usize,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::TooFewProcs { procs } => {
                write!(f, "need at least 1 master + 1 worker, got {procs} procs")
            }
            ParamError::NonPositiveComputeSpeed { speed } => {
                write!(f, "compute speed must be positive, got {speed}")
            }
            ParamError::ZeroBatchSize => write!(f, "batch size must be >= 1"),
            ParamError::ZeroCbBufferSize => write!(f, "cb_buffer_size must be nonzero"),
            ParamError::ZeroIndWrBuffer => write!(f, "ind_wr_buffer_size must be nonzero"),
            ParamError::CrashesNeedFreeRunningWorkers {
                strategy,
                query_sync,
            } => write!(
                f,
                "crash injection needs free-running workers: {} recovers via \
                 checkpoint-restart instead",
                if *query_sync {
                    "query-sync".to_string()
                } else {
                    format!("the {strategy} collective strategy")
                }
            ),
            ParamError::NoSurvivingWorker { crashes, workers } => write!(
                f,
                "at least one worker must survive the injected crashes \
                 ({crashes} crashes for {workers} workers)"
            ),
            ParamError::CrashRankNotWorker { rank, procs } => {
                write!(f, "crash rank {rank} is not a worker (1..{procs})")
            }
            ParamError::HeartbeatNotUnderTimeout { interval, timeout } => write!(
                f,
                "heartbeat interval {interval} (plus any extra message delay) \
                 must undercut the detection timeout {timeout}"
            ),
            ParamError::ZeroReplicas => write!(f, "replicas must be >= 1"),
            ParamError::InvalidWriteQuorum { quorum, replicas } => write!(
                f,
                "write quorum must satisfy 1 <= w <= replicas, got w={quorum} \
                 with r={replicas}"
            ),
            ParamError::ReplicasExceedDomains { replicas, domains } => write!(
                f,
                "replicas ({replicas}) exceed the {domains} effective failure \
                 domains — two copies would share a domain"
            ),
            ParamError::ZeroRetryLimit => write!(f, "retry limit must be >= 1"),
            ParamError::ZeroArrivalRate { rate } => {
                write!(f, "arrival rate must be positive, got {rate}")
            }
            ParamError::NonPositiveArrivalShape { what, value } => {
                write!(f, "arrival {what} must be positive, got {value}")
            }
            ParamError::ZeroServiceQueue => {
                write!(f, "service admission queue capacity must be >= 1")
            }
            ParamError::TenantsOutOfRange { tenants, max } => {
                write!(f, "tenants must be in 1..={max}, got {tenants}")
            }
            ParamError::ZeroPollInterval => {
                write!(f, "service poll interval must be nonzero")
            }
            ParamError::ServiceCrashesUnsupported => write!(
                f,
                "service mode does not support worker-crash injection; \
                 use batch mode for crash-recovery experiments"
            ),
            ParamError::ServiceResumeUnsupported => write!(
                f,
                "service mode cannot resume from a checkpoint; arrivals \
                 are a traffic trace, not a resumable batch"
            ),
            ParamError::ZeroMasters => write!(f, "num_masters must be >= 1"),
            ParamError::MastersNeedWorker { masters, procs } => {
                write!(f, "{masters} masters leave no worker rank in {procs} procs")
            }
            ParamError::ShardsNeedFreeRunningWorkers {
                strategy,
                query_sync,
            } => write!(
                f,
                "sharded masters need free-running workers: {} synchronizes \
                 the whole worker set",
                if *query_sync {
                    "query-sync".to_string()
                } else {
                    format!("the {strategy} collective strategy")
                }
            ),
            ParamError::ShardsQuerySegUnsupported => write!(
                f,
                "sharded masters partition the query space; query \
                 segmentation partitions the opposite axis"
            ),
            ParamError::ShardsServiceUnsupported => {
                write!(f, "service mode keeps the single-master admission loop")
            }
            ParamError::ShardsResumeUnsupported => write!(
                f,
                "sharded runs cannot resume from a single-master checkpoint"
            ),
            ParamError::ShardsWorkerCrashesUnsupported => write!(
                f,
                "worker-crash injection is a single-master facility; \
                 sharded runs inject master crashes instead"
            ),
            ParamError::ZeroSubfragmentFactor => {
                write!(f, "subfragment_factor must be >= 1")
            }
            ParamError::SubfragmentsNeedShards => write!(
                f,
                "subfragment_factor > 1 requires num_masters > 1 (the finer \
                 grain only exists for work stealing)"
            ),
            ParamError::MasterCrashesNeedShards => write!(
                f,
                "master-crash schedules need a sharded run (num_masters > 1)"
            ),
            ParamError::CrashRankNotStandbyMaster { rank, masters } => write!(
                f,
                "master crash rank {rank} is not a standby master \
                 (1..{masters}; rank 0 is the coordinator)"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// Fluent constructor for [`SimParams`]: every setter overrides one field
/// of the paper-default configuration, and [`SimParamsBuilder::build`]
/// performs the validation the old panicking `validate()` did — returning
/// a typed [`ParamError`] instead.
///
/// ```
/// use s3asim::{SimParams, Strategy};
/// let params = SimParams::builder()
///     .procs(32)
///     .strategy(Strategy::WwList)
///     .query_sync(true)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(params.procs, 32);
/// assert!(SimParams::builder().procs(1).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimParamsBuilder {
    params: SimParams,
}

impl SimParamsBuilder {
    /// Total MPI processes (1 master + `procs - 1` workers).
    pub fn procs(mut self, procs: usize) -> Self {
        self.params.procs = procs;
        self
    }

    /// The result-writing strategy under test.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.params.strategy = strategy;
        self
    }

    /// Master shard count (ranks `0..n`; 1 = the paper's single master).
    pub fn num_masters(mut self, n: usize) -> Self {
        self.params.num_masters = n;
        self
    }

    /// Sub-fragment tasks per `(query, fragment)` in sharded mode.
    pub fn subfragment_factor(mut self, k: usize) -> Self {
        self.params.subfragment_factor = k;
        self
    }

    /// Force all workers to synchronize after each batch's I/O (§3.3).
    pub fn query_sync(mut self, on: bool) -> Self {
        self.params.query_sync = on;
        self
    }

    /// Relative compute speed (the paper sweeps 0.1–25.6).
    pub fn compute_speed(mut self, speed: f64) -> Self {
        self.params.compute_speed = speed;
        self
    }

    /// Write results after every `n` queries.
    pub fn write_every_n_queries(mut self, n: usize) -> Self {
        self.params.write_every_n_queries = n;
        self
    }

    /// Two-phase collective aggregator count (0 = one per node).
    pub fn cb_nodes(mut self, n: usize) -> Self {
        self.params.cb_nodes = n;
        self
    }

    /// Two-phase collective buffer size per aggregator per round.
    pub fn cb_buffer_size(mut self, bytes: u64) -> Self {
        self.params.cb_buffer_size = bytes;
        self
    }

    /// Data-sieving buffer size for WW-DS noncontiguous writes.
    pub fn ind_wr_buffer_size(mut self, bytes: u64) -> Self {
        self.params.ind_wr_buffer_size = bytes;
        self
    }

    /// Work-partitioning scheme (database vs. query segmentation).
    pub fn segmentation(mut self, seg: Segmentation) -> Self {
        self.params.segmentation = seg;
        self
    }

    /// MW only: overlap the master's writes with task distribution.
    pub fn mw_nonblocking_io(mut self, on: bool) -> Self {
        self.params.mw_nonblocking_io = on;
        self
    }

    /// Record a per-rank phase timeline.
    pub fn trace(mut self, on: bool) -> Self {
        self.params.trace = on;
        self
    }

    /// Record request-level observability (spans, series, metrics).
    pub fn observe(mut self, on: bool) -> Self {
        self.params.observe = on;
        self
    }

    /// Arm the simulated-cluster race sanitizer.
    pub fn sanitize(mut self, on: bool) -> Self {
        self.params.sanitize = on;
        self
    }

    /// Replication factor `r`: copies of every PVFS block, each in a
    /// distinct failure domain. 1 = the paper's unreplicated store.
    pub fn replicas(mut self, r: usize) -> Self {
        self.params.testbed.pvfs.replicas = r;
        self
    }

    /// Write quorum `w <= r`: block copies that must land before a write
    /// reports success.
    pub fn write_quorum(mut self, w: usize) -> Self {
        self.params.testbed.pvfs.write_quorum = w;
        self
    }

    /// Simulated failure domains the PVFS servers are grouped into
    /// (0 = every server its own domain).
    pub fn failure_domains(mut self, domains: usize) -> Self {
        self.params.testbed.pvfs.failure_domains = domains;
        self
    }

    /// Background checksum-scrub period (`SimTime::ZERO` disables it).
    pub fn scrub_interval(mut self, interval: SimTime) -> Self {
        self.params.testbed.pvfs.scrub_interval = interval;
        self
    }

    /// I/O retry budget for server-outage windows — replaces the
    /// schedule's default retry constant. Zero is rejected at build time.
    pub fn retry_limit(mut self, retries: u32) -> Self {
        self.params.faults.max_io_retries = retries;
        self
    }

    /// Backoff between I/O retries during a server outage.
    pub fn backoff_base(mut self, backoff: SimTime) -> Self {
        self.params.faults.io_retry_backoff = backoff;
        self
    }

    /// Deterministic fault injection plan.
    ///
    /// Overwrites the whole plan — call [`SimParamsBuilder::retry_limit`]
    /// / [`SimParamsBuilder::backoff_base`] *after* this to adjust the
    /// retry policy of an injected plan.
    pub fn faults(mut self, faults: FaultParams) -> Self {
        self.params.faults = faults;
        self
    }

    /// Resume from a prior run's durable checkpoint.
    pub fn resume_from(mut self, resume: ResumePoint) -> Self {
        self.params.resume_from = Some(resume);
        self
    }

    /// Batch (default) or open-loop service mode.
    pub fn mode(mut self, mode: RunMode) -> Self {
        self.params.mode = mode;
        self
    }

    /// Run as an open-loop service with these knobs (shorthand for
    /// [`SimParamsBuilder::mode`] with [`RunMode::Service`]).
    pub fn service(mut self, service: ServiceParams) -> Self {
        self.params.mode = RunMode::Service(service);
        self
    }

    /// Mutate the service knobs in place, switching to service mode if
    /// the builder was still in batch mode (keeps the other
    /// [`ServiceParams`] defaults).
    pub fn with_service(mut self, f: impl FnOnce(&mut ServiceParams)) -> Self {
        let mut sp = match self.params.mode {
            RunMode::Service(sp) => sp,
            RunMode::Batch => ServiceParams::default(),
        };
        f(&mut sp);
        self.params.mode = RunMode::Service(sp);
        self
    }

    /// The synthetic search workload.
    pub fn workload(mut self, workload: WorkloadParams) -> Self {
        self.params.workload = workload;
        self
    }

    /// Mutate the workload in place (keeps the other workload defaults).
    pub fn with_workload(mut self, f: impl FnOnce(&mut WorkloadParams)) -> Self {
        f(&mut self.params.workload);
        self
    }

    /// Cluster and compute-model constants.
    pub fn testbed(mut self, testbed: Testbed) -> Self {
        self.params.testbed = testbed;
        self
    }

    /// Mutate the testbed in place (keeps the other testbed defaults).
    pub fn with_testbed(mut self, f: impl FnOnce(&mut Testbed)) -> Self {
        f(&mut self.params.testbed);
        self
    }

    /// Validate the combination and produce the parameter set.
    pub fn build(self) -> Result<SimParams, ParamError> {
        self.params.try_validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_inversely_with_speed() {
        let mut p = SimParams {
            compute_speed: 1.0,
            ..SimParams::default()
        };
        let t1 = p.compute_time(80_000);
        p.compute_speed = 2.0;
        let t2 = p.compute_time(80_000);
        p.compute_speed = 0.5;
        let t05 = p.compute_time(80_000);
        assert!(t2 < t1 && t1 < t05);
        let ratio = t05.as_secs_f64() / t2.as_secs_f64();
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn compute_time_linear_in_result_bytes() {
        let p = SimParams::default();
        let t0 = p.compute_time(0);
        let t1 = p.compute_time(100_000);
        let t2 = p.compute_time(200_000);
        assert_eq!(t0, p.testbed.compute_startup);
        let d1 = t1 - t0;
        let d2 = t2 - t1;
        assert_eq!(d1, d2);
    }

    #[test]
    fn mean_task_time_matches_paper_anchor() {
        // ~81 KB mean task output → ~0.13 s at speed 1, so 63 workers
        // spend ≈ 5.4 s each (≈ 54 s at speed 0.1, the paper's number).
        let p = SimParams::default();
        let t = p.compute_time(81_000).as_secs_f64();
        assert!((0.10..0.17).contains(&t), "mean task compute {t}");
    }

    #[test]
    fn strategy_properties() {
        assert!(!Strategy::Mw.workers_write());
        for s in [
            Strategy::WwPosix,
            Strategy::WwList,
            Strategy::WwColl,
            Strategy::WwSieve,
        ] {
            assert!(s.workers_write());
        }
        assert!(Strategy::WwColl.inherently_synchronizing());
        assert!(Strategy::WwCollList.inherently_synchronizing());
        assert!(!Strategy::WwList.inherently_synchronizing());
        assert!(!Strategy::WwSieve.inherently_synchronizing());
        assert_eq!(Strategy::PAPER_SET.len(), 4);
        assert_eq!(Strategy::EXTENDED_SET.len(), 5);
        assert!(Strategy::EXTENDED_SET.starts_with(&Strategy::PAPER_SET));
        assert_eq!(Strategy::Mw.to_string(), "MW");
        assert_eq!(Strategy::WwSieve.to_string(), "WW-DS");
    }

    #[test]
    fn validate_rejects_single_proc() {
        let p = SimParams {
            procs: 1,
            ..SimParams::default()
        };
        let err = p.try_validate().unwrap_err();
        assert_eq!(err, ParamError::TooFewProcs { procs: 1 });
        assert!(err.to_string().contains("at least 1 master"));
    }

    #[test]
    fn builder_defaults_match_default_params() {
        let built = SimParams::builder().build().expect("defaults are valid");
        let dflt = SimParams::default();
        assert_eq!(built.procs, dflt.procs);
        assert_eq!(built.strategy, dflt.strategy);
        assert_eq!(built.compute_speed, dflt.compute_speed);
        assert_eq!(built.write_every_n_queries, dflt.write_every_n_queries);
        assert_eq!(built.cb_nodes, dflt.cb_nodes);
        assert_eq!(built.segmentation, dflt.segmentation);
    }

    #[test]
    fn builder_rejects_too_few_procs() {
        for procs in [0usize, 1] {
            assert_eq!(
                SimParams::builder().procs(procs).build().unwrap_err(),
                ParamError::TooFewProcs { procs }
            );
        }
    }

    #[test]
    fn builder_rejects_nonpositive_compute_speed() {
        for speed in [0.0, -1.5, f64::NAN] {
            let err = SimParams::builder()
                .compute_speed(speed)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ParamError::NonPositiveComputeSpeed { .. }),
                "speed {speed}: {err:?}"
            );
        }
    }

    #[test]
    fn builder_rejects_zero_batch_size() {
        assert_eq!(
            SimParams::builder()
                .write_every_n_queries(0)
                .build()
                .unwrap_err(),
            ParamError::ZeroBatchSize
        );
    }

    #[test]
    fn builder_rejects_zero_cb_buffer() {
        assert_eq!(
            SimParams::builder().cb_buffer_size(0).build().unwrap_err(),
            ParamError::ZeroCbBufferSize
        );
    }

    #[test]
    fn builder_rejects_zero_sieve_buffer() {
        assert_eq!(
            SimParams::builder()
                .ind_wr_buffer_size(0)
                .build()
                .unwrap_err(),
            ParamError::ZeroIndWrBuffer
        );
    }

    fn one_crash() -> FaultParams {
        FaultParams {
            worker_crashes: vec![(3, SimTime::from_secs(1))],
            ..FaultParams::default()
        }
    }

    #[test]
    fn builder_rejects_crashes_under_sync_or_collectives() {
        let err = SimParams::builder()
            .faults(one_crash())
            .query_sync(true)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ParamError::CrashesNeedFreeRunningWorkers {
                query_sync: true,
                ..
            }
        ));
        let err = SimParams::builder()
            .faults(one_crash())
            .strategy(Strategy::WwColl)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ParamError::CrashesNeedFreeRunningWorkers {
                strategy: Strategy::WwColl,
                query_sync: false,
            }
        ));
    }

    #[test]
    fn builder_rejects_crashing_every_worker() {
        let faults = FaultParams {
            worker_crashes: vec![(1, SimTime::ZERO), (2, SimTime::ZERO)],
            ..FaultParams::default()
        };
        assert_eq!(
            SimParams::builder()
                .procs(3)
                .faults(faults)
                .build()
                .unwrap_err(),
            ParamError::NoSurvivingWorker {
                crashes: 2,
                workers: 2
            }
        );
    }

    #[test]
    fn builder_rejects_crash_rank_outside_workers() {
        for rank in [0usize, 16, 99] {
            let faults = FaultParams {
                worker_crashes: vec![(rank, SimTime::ZERO)],
                ..FaultParams::default()
            };
            assert_eq!(
                SimParams::builder().faults(faults).build().unwrap_err(),
                ParamError::CrashRankNotWorker { rank, procs: 16 }
            );
        }
    }

    #[test]
    fn builder_rejects_heartbeat_at_or_over_timeout() {
        let mut faults = one_crash();
        faults.detection_timeout = faults.heartbeat_interval;
        let err = SimParams::builder().faults(faults).build().unwrap_err();
        assert!(matches!(err, ParamError::HeartbeatNotUnderTimeout { .. }));
    }

    #[test]
    fn builder_rejects_message_delays_that_outlast_the_timeout() {
        // A delayed message stalls the heartbeats queued behind it, so a
        // live rank would read as dead.
        let mut faults = one_crash();
        faults.msg_delay_per_mille = 10;
        faults.msg_extra_delay = faults.detection_timeout;
        let err = SimParams::builder()
            .faults(faults.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, ParamError::HeartbeatNotUnderTimeout { .. }));
        faults.msg_extra_delay = SimTime::from_millis(5);
        SimParams::builder()
            .procs(8)
            .faults(faults)
            .build()
            .expect("a short delay leaves the detector sound");
    }

    #[test]
    fn builder_accepts_a_valid_crash_plan() {
        let p = SimParams::builder()
            .procs(8)
            .faults(one_crash())
            .build()
            .expect("valid crash plan");
        assert!(p.faults.crashes());
    }

    #[test]
    fn param_errors_render_the_old_messages() {
        // The panicking shim must keep the message fragments callers (and
        // the old tests) matched on.
        assert!(ParamError::TooFewProcs { procs: 1 }
            .to_string()
            .contains("at least 1 master + 1 worker"));
        assert!(ParamError::ZeroBatchSize
            .to_string()
            .contains("batch size must be >= 1"));
        assert!(ParamError::CrashRankNotWorker { rank: 9, procs: 4 }
            .to_string()
            .contains("crash rank 9 is not a worker (1..4)"));
    }

    #[test]
    fn builder_rejects_bad_replication_configs() {
        assert_eq!(
            SimParams::builder().replicas(0).build().unwrap_err(),
            ParamError::ZeroReplicas
        );
        assert_eq!(
            SimParams::builder()
                .replicas(2)
                .write_quorum(3)
                .build()
                .unwrap_err(),
            ParamError::InvalidWriteQuorum {
                quorum: 3,
                replicas: 2
            }
        );
        assert_eq!(
            SimParams::builder()
                .replicas(2)
                .write_quorum(0)
                .build()
                .unwrap_err(),
            ParamError::InvalidWriteQuorum {
                quorum: 0,
                replicas: 2
            }
        );
        // 16 servers in 4 domains cannot hold 5 domain-disjoint copies.
        assert_eq!(
            SimParams::builder()
                .replicas(5)
                .write_quorum(1)
                .failure_domains(4)
                .build()
                .unwrap_err(),
            ParamError::ReplicasExceedDomains {
                replicas: 5,
                domains: 4
            }
        );
    }

    #[test]
    fn builder_rejects_zero_retry_limit() {
        assert_eq!(
            SimParams::builder().retry_limit(0).build().unwrap_err(),
            ParamError::ZeroRetryLimit
        );
    }

    #[test]
    fn builder_replication_and_retry_setters_land_in_params() {
        let p = SimParams::builder()
            .replicas(3)
            .write_quorum(2)
            .failure_domains(4)
            .scrub_interval(SimTime::from_secs(5))
            .retry_limit(7)
            .backoff_base(SimTime::from_millis(3))
            .build()
            .expect("valid replicated config");
        assert_eq!(p.testbed.pvfs.replicas, 3);
        assert_eq!(p.testbed.pvfs.write_quorum, 2);
        assert_eq!(p.testbed.pvfs.failure_domains, 4);
        assert_eq!(p.testbed.pvfs.scrub_interval, SimTime::from_secs(5));
        assert_eq!(p.faults.max_io_retries, 7);
        assert_eq!(p.faults.io_retry_backoff, SimTime::from_millis(3));
    }

    #[test]
    fn builder_rejects_bad_service_configs() {
        let err = SimParams::builder()
            .with_service(|s| s.arrivals = ArrivalProcess::Poisson { rate: 0.0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::ZeroArrivalRate { rate: 0.0 });
        let err = SimParams::builder()
            .with_service(|s| {
                s.arrivals = ArrivalProcess::Bursty {
                    base_rate: 1.0,
                    burst_rate: -2.0,
                    mean_dwell: 1.0,
                }
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::ZeroArrivalRate { rate: -2.0 });
        let err = SimParams::builder()
            .with_service(|s| {
                s.arrivals = ArrivalProcess::Diurnal {
                    trough_rate: 1.0,
                    peak_rate: 2.0,
                    period: 0.0,
                }
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ParamError::NonPositiveArrivalShape {
                what: "period",
                value: 0.0
            }
        );
        assert_eq!(
            SimParams::builder()
                .with_service(|s| s.queue_capacity = 0)
                .build()
                .unwrap_err(),
            ParamError::ZeroServiceQueue
        );
        for tenants in [0usize, MAX_TENANTS + 1] {
            assert_eq!(
                SimParams::builder()
                    .with_service(|s| s.tenants = tenants)
                    .build()
                    .unwrap_err(),
                ParamError::TenantsOutOfRange {
                    tenants,
                    max: MAX_TENANTS
                }
            );
        }
        assert_eq!(
            SimParams::builder()
                .with_service(|s| s.poll_interval = SimTime::ZERO)
                .build()
                .unwrap_err(),
            ParamError::ZeroPollInterval
        );
        assert_eq!(
            SimParams::builder()
                .procs(8)
                .faults(one_crash())
                .service(ServiceParams::default())
                .build()
                .unwrap_err(),
            ParamError::ServiceCrashesUnsupported
        );
        assert_eq!(
            SimParams::builder()
                .resume_from(ResumePoint::default())
                .service(ServiceParams::default())
                .build()
                .unwrap_err(),
            ParamError::ServiceResumeUnsupported
        );
    }

    #[test]
    fn service_mode_helpers_and_defaults() {
        let batch = SimParams::builder().build().expect("valid");
        assert!(!batch.is_service());
        assert!(batch.service().is_none());
        assert_eq!(batch.mode, RunMode::Batch);
        // Batch granularity unchanged by the mode machinery.
        assert_eq!(batch.batch_granularity(20), 1);
        let grouped = SimParams::builder()
            .write_every_n_queries(5)
            .build()
            .expect("valid");
        assert_eq!(grouped.batch_granularity(20), 5);
        assert_eq!(grouped.batch_granularity(3), 3);

        let svc = SimParams::builder()
            .service(ServiceParams::default())
            .write_every_n_queries(5)
            .build()
            .expect("service defaults are valid");
        assert!(svc.is_service());
        let sp = svc.service().expect("service params");
        assert_eq!(sp.policy, SchedPolicy::Fifo);
        assert_eq!(sp.tenants, 2);
        // Service runs always write per query.
        assert_eq!(svc.batch_granularity(20), 1);
    }

    #[test]
    fn sched_policy_labels() {
        assert_eq!(SchedPolicy::ALL.len(), 3);
        assert_eq!(SchedPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(SchedPolicy::Sjf.to_string(), "SJF");
        assert_eq!(SchedPolicy::FairShare.to_string(), "FAIR");
    }

    #[test]
    fn builder_setters_cover_every_field() {
        let p = SimParams::builder()
            .procs(4)
            .strategy(Strategy::Mw)
            .query_sync(true)
            .compute_speed(2.0)
            .write_every_n_queries(3)
            .cb_nodes(2)
            .cb_buffer_size(1024)
            .ind_wr_buffer_size(64 * 1024)
            .segmentation(Segmentation::Query)
            .mw_nonblocking_io(true)
            .trace(true)
            .observe(true)
            .sanitize(true)
            .with_workload(|w| w.queries = 2)
            .with_testbed(|t| t.pvfs.servers = 4)
            .build()
            .expect("valid");
        assert_eq!(p.procs, 4);
        assert_eq!(p.strategy, Strategy::Mw);
        assert!(p.query_sync);
        assert_eq!(p.compute_speed, 2.0);
        assert_eq!(p.write_every_n_queries, 3);
        assert_eq!(p.cb_nodes, 2);
        assert_eq!(p.cb_buffer_size, 1024);
        assert_eq!(p.ind_wr_buffer_size, 64 * 1024);
        assert_eq!(p.segmentation, Segmentation::Query);
        assert!(p.mw_nonblocking_io);
        assert!(p.trace);
        assert!(p.observe);
        assert!(p.sanitize);
        assert_eq!(p.workload.queries, 2);
        assert_eq!(p.testbed.pvfs.servers, 4);
    }
}
