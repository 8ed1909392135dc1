//! Layer probes: timed calls into each layer's public API, sized from the
//! workload, that price one unit of the layer's work in host time.
//!
//! A probe's cost per unit times the workload's count of that unit (for
//! example `des.probe_ns_per_event` x `des.events`) estimates the host
//! time the layer takes in a pass. The estimates overlap (an MPI message
//! also costs engine events), so they do not add up to `wall_s`.

use std::collections::BTreeMap;
use std::rc::Rc;

use s3a_des::{Queue, Sim, SimTime};
use s3a_mpi::World;
use s3a_mpiio::{File, Hints};
use s3a_net::Fabric;
use s3a_pvfs::{FileSystem, Region};
use s3a_workload::{QueryWork, Workload};
use s3asim::{BatchState, SimParams, WorkerPlan};

use crate::stats::time_median;

/// Units of work each des and mpi probe iteration performs, whatever the
/// rank count, so a probe costs about the same host time on every
/// workload.
const DES_EVENTS: u64 = 200_000;
const MPI_MESSAGES: u64 = 100_000;
/// Most regions the pvfs probe writes per iteration.
const PVFS_REGIONS: usize = 40_000;
/// Most ranks and collectives the mpiio probe uses. A 10,000-rank
/// two-phase exchange per iteration would take seconds of host time.
const MPIIO_RANKS: usize = 512;
const MPIIO_COLLECTIVES: usize = 4;

/// Host time per unit of work for each probed layer, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCosts {
    /// Engine: timed sleeps plus queue hand-offs, per engine event.
    pub des_ns_per_event: f64,
    /// MPI: eager ring sends and receives, per message.
    pub mpi_ns_per_msg: f64,
    /// PVFS: list writes of the workload's regions, per region.
    pub pvfs_ns_per_region: f64,
    /// MPI-IO: two-phase `write_at_all` across the ranks, per collective.
    pub mpiio_ns_per_coll: f64,
}

/// Run every probe, sized from the workload's first parameter set.
pub fn run(params: &[SimParams], budget_s: f64) -> ProbeCosts {
    let p = &params[0];
    let ranks = params.iter().map(|p| p.procs).max().unwrap_or(p.procs);
    let workload = Workload::generate(&p.workload);
    let each = budget_s / 4.0;
    ProbeCosts {
        des_ns_per_event: per_unit(each, || des_churn(ranks)),
        mpi_ns_per_msg: per_unit(each, || mpi_ring(ranks, p)),
        pvfs_ns_per_region: per_unit(each, || pvfs_list_writes(p, &workload)),
        mpiio_ns_per_coll: per_unit(each, || mpiio_collectives(p, &workload)),
    }
}

/// Median host nanoseconds per unit over repeated calls of `probe`,
/// which returns the units of work it performed.
fn per_unit(budget_s: f64, mut probe: impl FnMut() -> u64) -> f64 {
    let (_, units) = time_median(1, 0.0, &mut probe); // warm-up
    let (secs, _) = time_median(3, budget_s, probe);
    secs * 1e9 / units.max(1) as f64
}

/// `tasks` tasks each sleep a staggered few nanoseconds and push to a
/// shared queue; one consumer drains it. Returns engine events.
fn des_churn(tasks: usize) -> u64 {
    let sim = Sim::new();
    let q: Queue<u64> = Queue::new(&sim);
    let rounds = (DES_EVENTS / tasks as u64).max(1);
    for i in 0..tasks as u64 {
        let (s, q) = (sim.clone(), q.clone());
        sim.spawn(format!("t{i}"), async move {
            for k in 0..rounds {
                s.sleep(SimTime::from_nanos(1 + (i * 37 + k * 101) % 1000))
                    .await;
                q.push(k);
            }
        });
    }
    let total = tasks as u64 * rounds;
    let consumer = q.clone();
    sim.spawn("drain", async move {
        for _ in 0..total {
            consumer.pop().await;
        }
    });
    sim.run().expect("probe tasks never block forever");
    sim.stats().events
}

/// Every rank sends a small eager message to its right neighbour and
/// receives from its left, for enough rounds to reach [`MPI_MESSAGES`].
/// Returns messages sent.
fn mpi_ring(ranks: usize, p: &SimParams) -> u64 {
    let sim = Sim::new();
    let world = World::new(&sim, ranks, p.testbed.mpi);
    let rounds = (MPI_MESSAGES / ranks as u64).max(1);
    for rank in 0..ranks {
        let comm = world.comm(rank);
        sim.spawn(format!("r{rank}"), async move {
            let n = comm.size();
            for i in 0..rounds {
                comm.send((rank + 1) % n, 1, i, 64).await;
                let _ = comm.recv((rank + n - 1) % n, 1).await;
            }
        });
    }
    sim.run().expect("ring completes");
    world.stats().messages
}

/// The output layout of query `q` placed at `base`, as the master
/// assigns it when fragment `f` is searched by worker `f % workers`:
/// per-worker plans and the query's bytes.
fn layout(
    q: usize,
    query: &QueryWork,
    workers: usize,
    base: u64,
) -> (BTreeMap<usize, WorkerPlan>, u64) {
    let mut batch = BatchState::new(q, vec![q], query.hits.len());
    for (f, hits) in query.hits.iter().enumerate() {
        let mut hits = hits.clone();
        hits.sort_by(s3asim::hit_order);
        batch.record(q, f, f % workers, &hits);
    }
    batch.assign_offsets(base)
}

/// The per-worker region lists of the workload's leading queries, laid
/// out back to back; stops adding queries at `max_regions`.
fn region_lists(workload: &Workload, workers: usize, max_regions: usize) -> Vec<Vec<Region>> {
    let mut lists = Vec::new();
    let (mut base, mut total) = (0, 0);
    for (q, query) in workload.queries.iter().enumerate() {
        let (plans, bytes) = layout(q, query, workers, base);
        base += bytes;
        for plan in plans.into_values() {
            total += plan.regions.len();
            lists.push(plan.regions);
        }
        if total >= max_regions {
            break;
        }
    }
    lists
}

/// One client writes each worker's region list with list I/O, then
/// syncs, on a standalone file system configured like the workload's.
/// Returns regions written.
fn pvfs_list_writes(p: &SimParams, workload: &Workload) -> u64 {
    let sim = Sim::new();
    let (fs, client) = FileSystem::standalone(&sim, p.testbed.pvfs, p.testbed.net);
    let lists = region_lists(workload, p.workers(), PVFS_REGIONS);
    let fh = fs.open("probe");
    sim.spawn("client", async move {
        for regions in &lists {
            fh.write_regions(client, regions)
                .await
                .expect("fault-free write succeeds");
        }
        fh.sync(client).await.expect("fault-free sync succeeds");
    });
    sim.run().expect("writes complete");
    fs.stats().regions
}

/// Up to [`MPIIO_RANKS`] ranks each write their share of the leading
/// queries' layout with one `write_at_all` per query. Returns the number
/// of collectives.
fn mpiio_collectives(p: &SimParams, workload: &Workload) -> u64 {
    let ranks = p.workers().clamp(1, MPIIO_RANKS);
    let mut shares: Vec<Vec<Vec<Region>>> = vec![Vec::new(); ranks];
    let mut base = 0;
    for (q, query) in workload.queries.iter().take(MPIIO_COLLECTIVES).enumerate() {
        let (mut plans, bytes) = layout(q, query, ranks, base);
        base += bytes;
        for (rank, share) in shares.iter_mut().enumerate() {
            share.push(plans.remove(&rank).map(|p| p.regions).unwrap_or_default());
        }
    }
    let collectives = shares[0].len() as u64;

    let sim = Sim::new();
    let nodes = ranks.div_ceil(p.testbed.mpi.ranks_per_node);
    let fabric = Rc::new(Fabric::new(nodes + p.testbed.pvfs.servers, p.testbed.net));
    let world = World::with_fabric(&sim, ranks, p.testbed.mpi, Rc::clone(&fabric), 0);
    let fs = FileSystem::new(&sim, p.testbed.pvfs, fabric, nodes);
    let hints = Hints {
        cb_nodes: nodes,
        cb_buffer_size: p.cb_buffer_size,
        ind_wr_buffer_size: p.ind_wr_buffer_size,
    };
    for (rank, share) in shares.into_iter().enumerate() {
        let file = File::open(&world.comm(rank), &fs, "probe", hints);
        sim.spawn(format!("r{rank}"), async move {
            for regions in &share {
                file.write_at_all(regions)
                    .await
                    .expect("fault-free collective succeeds");
            }
        });
    }
    sim.run().expect("collectives complete");
    collectives
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3a_bench::small_params;
    use s3asim::Strategy;

    #[test]
    fn region_lists_tile_the_leading_queries() {
        let p = small_params(5, Strategy::WwList);
        let w = Workload::generate(&p.workload);
        let lists = region_lists(&w, p.workers(), usize::MAX);
        let mut all: Vec<Region> = lists.into_iter().flatten().collect();
        all.sort_by_key(|r| r.offset);
        let mut cursor = 0;
        for r in &all {
            assert_eq!(r.offset, cursor, "regions are disjoint and gapless");
            cursor += r.len;
        }
        assert_eq!(cursor, w.total_bytes());
    }

    #[test]
    fn probes_do_their_units_of_work() {
        let p = small_params(5, Strategy::WwList);
        let w = Workload::generate(&p.workload);
        assert!(des_churn(8) >= DES_EVENTS);
        assert_eq!(mpi_ring(4, &p), MPI_MESSAGES / 4 * 4);
        assert!(pvfs_list_writes(&p, &w) > 0);
        assert_eq!(mpiio_collectives(&p, &w), MPIIO_COLLECTIVES as u64);
    }
}
