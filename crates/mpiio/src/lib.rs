//! # s3a-mpiio — a ROMIO-like MPI-IO layer
//!
//! Sits between the application and [`s3a_pvfs`], mirroring the I/O paths
//! the paper exercises through ROMIO:
//!
//! * [`File::write_at`] — independent contiguous write (the MW master's
//!   path);
//! * [`File::write_regions`] with [`WriteMethod::Posix`] — noncontiguous
//!   data written one region at a time, "the `MPI_Write()` call without
//!   optimization" (WW-POSIX);
//! * [`File::write_regions`] with [`WriteMethod::ListIo`] — PVFS2 native
//!   list I/O, batching an offset/length list per file-system request
//!   (WW-List);
//! * [`File::write_regions`] with [`WriteMethod::DataSieve`] — ROMIO's
//!   actual independent noncontiguous path (WW-DS): lock a covering
//!   block of at most `ind_wr_buffer_size` bytes, read it back, patch
//!   the holes, and write it out as one contiguous request;
//! * [`File::write_at_all`] — collective two-phase I/O (WW-Coll):
//!   allgather of access extents, partition of the aggregate range into
//!   file domains owned by `cb_nodes` aggregator ranks, `cb_buffer_size`-
//!   sized exchange+write rounds, and the implicit synchronization that
//!   the paper identifies as collective I/O's hidden cost.
//!
//! A [`File`] owns an internal sub-communicator (as real MPI-IO
//! implementations duplicate the user communicator), so collective file
//! traffic can never cross-match application messages.

use std::rc::Rc;

use s3a_mpi::Comm;
use s3a_net::EndpointId;
use s3a_obs::{ObsSink, Track};
use s3a_pvfs::{FileHandle, FileSystem, PvfsError, Region, SimSanitizer};

/// Communicator size above which the collective paths switch to their
/// scalable variants, the way MPICH selects collective algorithms by
/// communicator size. Below the threshold the historical algorithms run
/// unchanged (every checked-in reference run has ≤ 96 ranks, so their
/// bytes are preserved); above it:
///
/// * the extent exchange becomes gather + broadcast (O(n) messages,
///   log-depth) instead of the ring allgather's n² message storm;
/// * only aggregator ranks — the only writers in two-phase I/O — sync
///   after a collective, instead of all n ranks flooding every server.
pub const LARGE_COLL_RANKS: usize = 128;

/// Point-to-point tag for the aggregator table hand-off in the
/// large-comm extent exchange. File communicators carry no other user
/// traffic, and consecutive hand-offs between the same pair cannot
/// cross-match (per-pair delivery is non-overtaking).
const TABLE_TAG: s3a_mpi::Tag = 7001;

/// How [`File::write_regions`] maps a noncontiguous region list onto
/// file-system requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMethod {
    /// One independent contiguous write per region, issued sequentially.
    Posix,
    /// One operation carrying the full region list (PVFS2 list I/O).
    ListIo,
    /// ROMIO data sieving: per covering block of at most
    /// `ind_wr_buffer_size` bytes, lock the block, read it back, patch
    /// the holes, and write it out as one contiguous request.
    DataSieve,
}

/// MPI-IO hints controlling collective buffering (the `cb_*` hints ROMIO
/// reads from the info object).
#[derive(Debug, Clone, Copy)]
pub struct Hints {
    /// Number of aggregator ranks for two-phase I/O. ROMIO defaults to one
    /// per node; the caller supplies the value (0 = every rank).
    pub cb_nodes: usize,
    /// Bytes of each aggregator's exchange buffer per two-phase round.
    pub cb_buffer_size: u64,
    /// Bytes of the data-sieving buffer for independent noncontiguous
    /// writes (ROMIO's `ind_wr_buffer_size`, default 512 KiB). Each
    /// [`WriteMethod::DataSieve`] covering block is at most this large.
    pub ind_wr_buffer_size: u64,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_nodes: 0,
            cb_buffer_size: 4 * 1024 * 1024,
            ind_wr_buffer_size: 512 * 1024,
        }
    }
}

/// An open MPI-IO file on one rank.
pub struct File {
    comm: Comm,
    fh: FileHandle,
    hints: Hints,
    ep: EndpointId,
    /// Observability sink inherited from the file system at open time.
    obs: ObsSink,
    /// Race sanitizer inherited from the file system at open time.
    san: SimSanitizer,
    /// This rank's world rank — the track collective spans land on.
    world_rank: usize,
}

impl File {
    /// Collectively open `name` on `fs`. Every member of `comm` must call
    /// `open` with the same name and hints; each member gets its own
    /// `File` whose internal communicator is a duplicate of `comm`.
    pub fn open(comm: &Comm, fs: &FileSystem, name: &str, hints: Hints) -> File {
        let dup = comm.dup(&format!("mpiio:{name}"));
        let ep = comm.endpoint();
        let world_rank = comm.world_rank(comm.rank());
        File {
            comm: dup,
            fh: fs.open(name),
            hints,
            ep,
            obs: fs.obs(),
            san: fs.sanitizer(),
            world_rank,
        }
    }

    /// The rank of this process in the file's communicator.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The underlying store handle (for verification, or for issuing
    /// independent I/O from a helper task).
    pub fn handle(&self) -> &FileHandle {
        &self.fh
    }

    /// The fabric endpoint this rank's file traffic uses.
    pub fn endpoint(&self) -> EndpointId {
        self.ep
    }

    /// Independent contiguous write (`MPI_File_write_at`).
    pub async fn write_at(&self, offset: u64, len: u64) -> Result<(), PvfsError> {
        self.fh.write_contiguous(self.ep, offset, len).await
    }

    /// Independent noncontiguous write of `regions` using `method`.
    pub async fn write_regions(
        &self,
        regions: &[Region],
        method: WriteMethod,
    ) -> Result<(), PvfsError> {
        match method {
            WriteMethod::Posix => {
                for r in regions {
                    self.fh.write_contiguous(self.ep, r.offset, r.len).await?;
                }
                Ok(())
            }
            WriteMethod::ListIo => self.fh.write_regions(self.ep, regions).await,
            WriteMethod::DataSieve => self.write_data_sieved(regions).await,
        }
    }

    /// ROMIO-style data sieving for an independent noncontiguous write.
    ///
    /// The region list is sorted and merged, then walked in covering
    /// blocks of at most `ind_wr_buffer_size` bytes. For each block the
    /// rank takes a byte-range lock (other sievers patching the same
    /// block would resurrect stale hole bytes), reads the block back if
    /// it has holes, and writes it out as one contiguous request. The
    /// win is request amortization when regions are dense; the cost is
    /// read-back traffic for the holes plus lock serialization.
    async fn write_data_sieved(&self, regions: &[Region]) -> Result<(), PvfsError> {
        let mut sorted: Vec<Region> = regions.iter().copied().filter(|r| r.len > 0).collect();
        if sorted.is_empty() {
            return Ok(());
        }
        sorted.sort_by_key(|r| r.offset);
        let merged = merge_regions(&sorted);
        let buf = self.hints.ind_wr_buffer_size.max(1);
        let sim = self.comm.sim();
        let mut cur = merged[0].offset;
        let end = merged.last().expect("nonempty").end();
        while cur < end {
            let wend = (cur + buf).min(end);
            let clipped = clip_regions(&merged, cur, wend);
            cur = wend;
            if clipped.is_empty() {
                continue;
            }
            // The covering block spans first data byte to last data byte
            // of this window — ROMIO never sieves past what it writes.
            let first = clipped.first().expect("nonempty");
            let last = clipped.last().expect("nonempty");
            let block = Region::new(first.offset, last.end() - first.offset);
            let data: u64 = clipped.iter().map(|r| r.len).sum();

            let t0 = sim.now();
            let _lock = self.fh.lock_range(self.ep, block.offset, block.len).await;
            let t_lock = sim.now();
            // Holes mean the block carries bytes this rank does not own:
            // read-modify-write. A gapless block skips the read.
            if data < block.len {
                self.fh
                    .read_contiguous(self.ep, block.offset, block.len)
                    .await?;
            }
            let t_read = sim.now();
            self.fh.write_sieved(self.ep, block, &clipped).await?;
            if self.obs.is_recording() {
                let t_write = sim.now();
                let track = Track::Rank(self.world_rank);
                self.obs
                    .span(track, "sieve.lock", t0, t_lock, &[("len", block.len)]);
                if t_read > t_lock {
                    self.obs
                        .span(track, "sieve.read", t_lock, t_read, &[("len", block.len)]);
                }
                self.obs.span(
                    track,
                    "sieve.write",
                    t_read,
                    t_write,
                    &[
                        ("len", block.len),
                        ("data", data),
                        ("holes", block.len - data),
                    ],
                );
                self.obs.add("sieve.blocks", 1);
                self.obs.observe("sieve.hole_bytes", block.len - data);
            }
        }
        Ok(())
    }

    /// Flush to stable storage (`MPI_File_sync`).
    pub async fn sync(&self) -> Result<(), PvfsError> {
        self.fh.sync(self.ep).await
    }

    /// Collective two-phase write (`MPI_File_write_at_all`). Every rank of
    /// the file's communicator must participate, passing its own (possibly
    /// empty) region list. Returns only when the collective completes on
    /// this rank.
    pub async fn write_at_all(&self, my_regions: &[Region]) -> Result<(), PvfsError> {
        self.write_at_all_timed(my_regions).await.map(|_| ())
    }

    /// Effective aggregator count for two-phase I/O on this file's
    /// communicator (`cb_nodes`, clamped; 0 = every rank).
    fn naggs(&self) -> usize {
        let n = self.comm.size();
        if self.hints.cb_nodes == 0 {
            n
        } else {
            self.hints.cb_nodes.min(n)
        }
    }

    /// Phase-1 extent exchange. Small communicators run the historical
    /// ring allgather: every rank learns every rank's access pattern.
    /// Past [`LARGE_COLL_RANKS`] the pattern is gathered at rank 0, the
    /// full table travels point-to-point to the other aggregators only —
    /// they alone consume it (to derive their receive counts) — and the
    /// remaining ranks get just the 16-byte aggregate extent via a
    /// binomial broadcast. That turns n rendezvous transfers of an
    /// O(total-regions) table per collective into `cb_nodes - 1`, which
    /// is what makes collective I/O usable at 10k ranks. Returns this
    /// rank's view of the table (empty on large-comm non-aggregators) and
    /// the aggregate `[lo, hi)` extent (`None` when no rank writes).
    async fn exchange_extents(
        &self,
        my_regions: &[Region],
        desc_bytes: u64,
    ) -> (Rc<Vec<Vec<Region>>>, Option<(u64, u64)>) {
        fn extent_of(all: &[Vec<Region>]) -> Option<(u64, u64)> {
            let lo = all.iter().flatten().map(|r| r.offset).min();
            let hi = all.iter().flatten().map(|r| r.end()).max();
            match (lo, hi) {
                (Some(l), Some(h)) if h > l => Some((l, h)),
                _ => None,
            }
        }
        if self.comm.size() <= LARGE_COLL_RANKS {
            let all = self.comm.allgather(my_regions.to_vec(), desc_bytes).await;
            let extent = extent_of(&all);
            return (Rc::new(all), extent);
        }
        let naggs = self.naggs();
        let me = self.comm.rank();
        let gathered = self.comm.gather(0, my_regions.to_vec(), desc_bytes).await;
        let (table, extent) = match gathered {
            Some(vs) => {
                let total: u64 = vs.iter().map(|v| 16 * v.len() as u64).sum();
                let extent = extent_of(&vs);
                let table = Rc::new(vs);
                // Ship the table to the other aggregators while the
                // extent broadcast fans out.
                let sends: Vec<_> = (1..naggs)
                    .map(|a| self.comm.isend(a, TABLE_TAG, Rc::clone(&table), total))
                    .collect();
                self.comm.bcast(0, Some(extent), 16).await;
                s3a_mpi::waitall_sends(&sends).await;
                (table, extent)
            }
            None if me < naggs => {
                let req = self.comm.irecv(0, TABLE_TAG);
                let extent = self.comm.bcast::<Option<(u64, u64)>>(0, None, 16).await;
                let table = req.wait().await.downcast::<Rc<Vec<Vec<Region>>>>();
                (table, extent)
            }
            None => {
                let extent = self.comm.bcast::<Option<(u64, u64)>>(0, None, 16).await;
                (Rc::new(Vec::new()), extent)
            }
        };
        (table, extent)
    }

    /// Post-collective durability flush. On small communicators every
    /// rank syncs — the historical behavior. Past [`LARGE_COLL_RANKS`]
    /// only aggregator ranks issue the sync: they are the only ranks
    /// that wrote in two-phase I/O, and an all-ranks sync fans n×servers
    /// requests into the file system without adding durability.
    pub async fn sync_collective(&self) -> Result<(), PvfsError> {
        if self.comm.size() <= LARGE_COLL_RANKS || self.comm.rank() < self.naggs() {
            self.sync().await
        } else {
            Ok(())
        }
    }

    /// [`File::write_at_all`], additionally reporting how the time split
    /// between the collective's inherent synchronization (the initial
    /// extent allgather, which blocks until the slowest participant
    /// arrives) and the exchange+write work that follows. This is the
    /// instrumentation the paper's phase analysis needs.
    pub async fn write_at_all_timed(
        &self,
        my_regions: &[Region],
    ) -> Result<CollectiveTiming, PvfsError> {
        let t0 = self.comm.sim().now();
        let n = self.comm.size();
        if self.san.is_armed() {
            // Participation check: a strict subset of ranks entering this
            // collective deadlocks the allgather below; record the entry
            // so the sanitizer can name the missing ranks afterwards.
            self.san
                .collective_enter(self.fh.name(), self.comm.context(), n, self.comm.rank(), t0);
        }
        let naggs = self.naggs();

        // Phase 1: everyone learns everyone's access pattern.
        let desc_bytes = 16 * my_regions.len() as u64;
        let (all_regions, extent) = self.exchange_extents(my_regions, desc_bytes).await;
        let synchronize = self.comm.sim().now() - t0;
        let t1 = self.comm.sim().now();
        if self.obs.is_recording() {
            self.obs.span(
                Track::Rank(self.world_rank),
                "coll.allgather",
                t0,
                t1,
                &[
                    ("my_regions", my_regions.len() as u64),
                    ("desc_bytes", desc_bytes),
                ],
            );
        }

        let (lo, hi) = match extent {
            Some(x) => x,
            None => {
                // Nothing to write anywhere: just synchronize.
                self.comm.barrier().await;
                return Ok(CollectiveTiming {
                    synchronize,
                    exchange_and_write: self.comm.sim().now() - t1,
                });
            }
        };

        // Phase 2: carve the aggregate extent into per-aggregator file
        // domains (aggregators are ranks 0..naggs of the file comm).
        let fd_size = (hi - lo).div_ceil(naggs as u64).max(1);
        let domain = |a: usize| -> (u64, u64) {
            let start = lo + fd_size * a as u64;
            let end = (start + fd_size).min(hi);
            (start.min(hi), end)
        };

        let rounds = fd_size.div_ceil(self.hints.cb_buffer_size).max(1);
        let me = self.comm.rank();
        // An I/O failure must not desynchronize the collective: remember it
        // and keep exchanging until the completion barrier, then report.
        let mut io_result: Result<(), PvfsError> = Ok(());

        for round in 0..rounds {
            // The window of each aggregator's domain handled this round.
            let window = |a: usize| -> (u64, u64) {
                let (ds, de) = domain(a);
                let ws = ds + round * self.hints.cb_buffer_size;
                let we = (ws + self.hints.cb_buffer_size).min(de);
                (ws.min(de), we)
            };

            // What I send to each aggregator: my regions clipped to its
            // window.
            let mut sends: Vec<(usize, Vec<Region>, u64)> = Vec::new();
            for a in 0..naggs {
                let (ws, we) = window(a);
                if we <= ws {
                    continue;
                }
                let clipped = clip_regions(my_regions, ws, we);
                if !clipped.is_empty() {
                    let data: u64 = clipped.iter().map(|r| r.len).sum();
                    let wire = data + 16 * clipped.len() as u64;
                    sends.push((a, clipped, wire));
                }
            }

            // How many ranks will send to me this round (only meaningful
            // if I am an aggregator): derivable from the allgathered
            // access pattern, exactly as each sender derives its sends.
            let recv_count = if me < naggs {
                let (ws, we) = window(me);
                if we <= ws {
                    0
                } else {
                    all_regions
                        .iter()
                        .filter(|regs| !clip_regions(regs, ws, we).is_empty())
                        .count()
                }
            } else {
                0
            };

            let round_start = self.comm.sim().now();
            let send_bytes: u64 = sends.iter().map(|(_, _, wire)| wire).sum();
            let send_count = sends.len() as u64;

            let received = self.comm.alltoallv_sparse(sends, recv_count).await;

            // Phase 3: aggregators coalesce and write their window.
            if me < naggs && !received.is_empty() {
                let mut regions: Vec<Region> =
                    received.into_iter().flat_map(|(_, regs)| regs).collect();
                regions.sort_by_key(|r| r.offset);
                let merged = merge_regions(&regions);
                if let Err(e) = self.fh.write_regions(self.ep, &merged).await {
                    if io_result.is_ok() {
                        io_result = Err(e);
                    }
                }
            }

            if self.obs.is_recording() {
                self.obs.span(
                    Track::Rank(self.world_rank),
                    "coll.round",
                    round_start,
                    self.comm.sim().now(),
                    &[
                        ("round", round),
                        ("cb_nodes", naggs as u64),
                        ("cb_buffer_size", self.hints.cb_buffer_size),
                        ("sends", send_count),
                        ("send_bytes", send_bytes),
                        ("recv_count", recv_count as u64),
                    ],
                );
                self.obs.add("coll.rounds", 1);
                self.obs.observe("coll.exchange_bytes", send_bytes);
            }
        }

        // Collective completion: nobody leaves before the data of every
        // rank has been written, and everybody leaves with the *same*
        // result — a rank that only aggregated successfully must still
        // see its peers' failures, or the callers' next collective would
        // mismatch. The allreduce (gather + bcast) subsumes the barrier;
        // the rank-order fold makes the agreed error deterministic (the
        // lowest-ranked failure wins).
        let agreed = self
            .comm
            .allreduce(io_result.err(), 8, |a, b| a.or(b))
            .await;
        if let Some(e) = agreed {
            return Err(e);
        }
        Ok(CollectiveTiming {
            synchronize,
            exchange_and_write: self.comm.sim().now() - t1,
        })
    }
}

/// Where the time of one [`File::write_at_all_timed`] call went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveTiming {
    /// Waiting in the initial extent exchange for the slowest participant
    /// — the inherent synchronization cost of collective I/O.
    pub synchronize: s3a_des::SimTime,
    /// Data exchange, aggregator writes, and the completion barrier.
    pub exchange_and_write: s3a_des::SimTime,
}

/// Clip `regions` to the half-open window `[ws, we)`.
fn clip_regions(regions: &[Region], ws: u64, we: u64) -> Vec<Region> {
    regions
        .iter()
        .filter_map(|r| {
            let s = r.offset.max(ws);
            let e = r.end().min(we);
            if e > s {
                Some(Region::new(s, e - s))
            } else {
                None
            }
        })
        .collect()
}

/// Merge a sorted region list, coalescing adjacent/overlapping entries.
fn merge_regions(sorted: &[Region]) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for &r in sorted {
        if let Some(last) = out.last_mut() {
            if r.offset <= last.end() {
                let end = last.end().max(r.end());
                last.len = end - last.offset;
                continue;
            }
        }
        out.push(r);
    }
    out
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for File {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("File").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_keeps_inner_parts() {
        let regs = [Region::new(0, 10), Region::new(20, 10), Region::new(40, 10)];
        assert_eq!(
            clip_regions(&regs, 5, 45),
            vec![Region::new(5, 5), Region::new(20, 10), Region::new(40, 5)]
        );
        assert!(clip_regions(&regs, 10, 20).is_empty());
        assert_eq!(clip_regions(&regs, 0, 100), regs.to_vec());
    }

    #[test]
    fn merge_coalesces_adjacent_and_overlapping() {
        let regs = [
            Region::new(0, 10),
            Region::new(10, 5),
            Region::new(20, 5),
            Region::new(22, 10),
        ];
        assert_eq!(
            merge_regions(&regs),
            vec![Region::new(0, 15), Region::new(20, 12)]
        );
    }

    #[test]
    fn merge_empty_is_empty() {
        assert!(merge_regions(&[]).is_empty());
    }
}
