//! Message types and tags exchanged between the master and workers.

use s3a_mpi::Tag;
use s3a_pvfs::Region;
use s3a_workload::Hit;

/// Worker → master: request for work (Algorithm 2, step 3).
pub const TAG_WORK_REQ: Tag = 1;
/// Master → worker: task assignment or end-of-work (Algorithm 1, step 7).
pub const TAG_ASSIGN: Tag = 2;
/// Worker → master: scores (and, for MW, result data) for one task
/// (Algorithm 2, step 10).
pub const TAG_SCORES: Tag = 3;
/// Master → worker: write-location list for a completed batch (Algorithm
/// 1, step 15); doubles as the "batch written" notification in MW runs
/// with query sync.
pub const TAG_OFFSETS: Tag = 4;
/// Worker → master: liveness beacon, sent periodically by a sibling task
/// whenever crash injection is armed. Only its arrival time matters.
pub const TAG_HEARTBEAT: Tag = 5;
/// Master → master: an idle shard asks a sibling for queued tasks.
pub const TAG_STEAL_REQ: Tag = 6;
/// Master → master: the victim's reply (possibly empty) to a steal
/// request.
pub const TAG_STEAL_RESP: Tag = 7;
/// Master → worker: control-plane message (re-homing after a master
/// death).
pub const TAG_CTRL: Tag = 8;
/// Worker → master: acknowledgement of a control message.
pub const TAG_CTRL_ACK: Tag = 9;
/// Standby master → coordinator: liveness beacon, sent whenever a
/// master-crash schedule is armed.
pub const TAG_MASTER_HB: Tag = 10;
/// Master ↔ coordinator: shard progress/quiesce state (see
/// [`ShardStatus`], [`ShardCtrl`]).
pub const TAG_STATUS: Tag = 11;

/// Wire size of a work request.
pub const WORK_REQ_BYTES: u64 = 16;
/// Wire size of an assignment message.
pub const ASSIGN_BYTES: u64 = 32;
/// Wire size of a heartbeat message.
pub const HEARTBEAT_BYTES: u64 = 8;
/// Wire bytes per hit in a scores message (score + size).
pub const SCORE_ENTRY_BYTES: u64 = 16;
/// Wire bytes per entry in an offset list (one 64-bit offset).
pub const OFFSET_ENTRY_BYTES: u64 = 8;
/// Wire size of a steal request, a shard status, or any fixed-size
/// control message.
pub const CTRL_BYTES: u64 = 24;
/// Wire bytes per `(query, sub-fragment)` task moved by a steal response
/// or purged by a re-home notice.
pub const TASK_ENTRY_BYTES: u64 = 16;

/// Master → worker response to a work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assign {
    /// No task is available right now, but the run is not over (tasks may
    /// be requeued if a peer dies, a client query may still arrive, or a
    /// steal may still refill the shard). Re-request after a short sleep.
    /// Only polling masters send it: service, crash-armed and sharded runs.
    Wait,
    /// Write a dead peer's already-assigned output regions on its behalf
    /// (checkpoint repair). Only sent when crash injection is armed.
    Repair {
        /// Batch whose commit the dead worker still owed.
        batch: usize,
        /// The dead worker's rank (whose commit obligation this clears).
        for_worker: usize,
        /// Number of (query, fragment) results backing the regions (for
        /// the compute-cost model of re-deriving the data).
        tasks: usize,
        /// Total output bytes to write.
        bytes: u64,
        /// The exact file regions the dead worker was told to write.
        regions: Vec<Region>,
    },
    /// All queries have been scheduled; no more work will come.
    Done,
    /// Service-mode end-of-work: like [`Assign::Done`], but carries the
    /// total number of [`TAG_OFFSETS`] messages the master has sent (or
    /// will send) this worker, so the worker can drain exactly that many
    /// before leaving.
    Shutdown {
        /// Total offset messages addressed to this worker over the run.
        offsets: usize,
    },
    /// Search `query` against sub-fragment `fragment` (a
    /// `1/subfragment_factor` slice of a database fragment; the whole
    /// fragment when the factor is 1) and report to `owner`. When `ship`
    /// is set the result data rides along with the scores and the owning
    /// master writes it (all MW tasks, and stolen tasks in sharded runs);
    /// otherwise the worker merges locally as usual.
    ShardTask {
        /// Query index.
        query: usize,
        /// Sub-fragment index (`fragment * subfragment_factor + slice`).
        fragment: usize,
        /// World rank of the master that owns the query's batch (always 0
        /// with one master).
        owner: usize,
        /// Ship result data to the owner instead of merging locally.
        ship: bool,
    },
}

impl Assign {
    /// Simulated wire size of this assignment.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Assign::Repair { regions, .. } => ASSIGN_BYTES + 16 * regions.len() as u64,
            _ => ASSIGN_BYTES,
        }
    }
}

/// Worker → master: the outcome of one (query, fragment) search, hits
/// sorted by descending score. In MW runs the simulated wire size also
/// covers the result data riding along with the scores.
#[derive(Debug, Clone)]
pub struct ScoresMsg {
    /// Query index.
    pub query: usize,
    /// Fragment index (a sub-fragment index in sharded runs).
    pub fragment: usize,
    /// Hits, sorted by `(score desc, size desc)`.
    pub hits: Vec<Hit>,
    /// The result data rides along and the receiving master writes it
    /// (the sender keeps nothing): every MW task, and stolen tasks in
    /// sharded runs.
    pub shipped: bool,
}

/// Master → master: an idle shard asks a sibling for queued tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealReq {
    /// World rank of the requesting shard.
    pub thief: usize,
}

/// Master → master: the victim's reply. Only tasks the victim itself
/// owns are lent (stolen tasks are never re-lent), so an unscored task
/// always keeps exactly one shard — its owner — unresolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealResp {
    /// `(query, sub-fragment)` tasks handed over (possibly empty).
    pub tasks: Vec<(usize, usize)>,
    /// World rank of the owning (victim) shard.
    pub owner: usize,
}

impl StealResp {
    /// Simulated wire size of this message.
    pub fn wire_bytes(&self) -> u64 {
        CTRL_BYTES + TASK_ENTRY_BYTES * self.tasks.len() as u64
    }
}

/// Master → worker control-plane message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardCtrl {
    /// A master died; its batches now belong to `successor`. Workers
    /// homed to the dead shard re-home to `successor`; every worker
    /// discards local results for the `purge`d (rebuilt) batches and
    /// acknowledges with [`TAG_CTRL_ACK`].
    Rehome {
        /// The dead master's world rank.
        dead: usize,
        /// The adopting master's world rank.
        successor: usize,
        /// Batches being recomputed from scratch — local merges for these
        /// are stale and must be dropped.
        purge: Vec<usize>,
    },
}

impl ShardCtrl {
    /// Simulated wire size of this message.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ShardCtrl::Rehome { purge, .. } => CTRL_BYTES + 8 * purge.len() as u64,
        }
    }
}

/// Master ↔ coordinator traffic on [`TAG_STATUS`]: shard progress
/// reports and the two-phase shutdown quiesce (see DESIGN.md §"Sharded
/// master").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Shard → coordinator: progress report, stamped with the sender's
    /// failover epoch (stale-epoch reports are ignored).
    Report {
        /// Reporting shard's world rank.
        shard: usize,
        /// Failover epoch the report belongs to.
        epoch: u64,
        /// All batches this shard owns are complete and laid out.
        resolved: bool,
        /// The shard has a steal request in flight.
        stealing: bool,
    },
    /// Coordinator → shards: all shards look resolved — stop stealing
    /// and acknowledge when no steal response is outstanding.
    Prepare {
        /// Failover epoch the quiesce belongs to.
        epoch: u64,
    },
    /// Shard → coordinator: quiesced (no steal in flight, none will
    /// start).
    PrepareAck {
        /// Acknowledging shard's world rank.
        shard: usize,
        /// Failover epoch being acknowledged.
        epoch: u64,
    },
    /// Coordinator → shards: every shard is quiesced; answer `Done` to
    /// workers and exit when they have all left.
    AllDone,
    /// Coordinator → shards: a master died. Bumps the failover epoch,
    /// aborts any quiesce in progress, and re-routes the dead shard's
    /// batches to `successor`. Every surviving shard force-resends its
    /// status stamped with the new epoch.
    MasterDead {
        /// The dead master's world rank.
        dead: usize,
        /// The adopting master's world rank.
        successor: usize,
        /// The new failover epoch.
        epoch: u64,
    },
}

/// Master → worker: where to write each of the worker's results for a
/// completed batch. Offsets are in the worker's local merged order. An
/// empty list is a pure synchronization notification.
#[derive(Debug, Clone)]
pub struct OffsetsMsg {
    /// Batch index (query group).
    pub batch: usize,
    /// One file offset per result the worker holds for this batch.
    pub offsets: Vec<u64>,
}

impl OffsetsMsg {
    /// Simulated wire size of this message.
    pub fn wire_bytes(&self) -> u64 {
        16 + OFFSET_ENTRY_BYTES * self.offsets.len() as u64
    }
}

/// Ordering used for all score-based sorting on both master and worker:
/// descending score, ties by descending size. Remaining ties are between
/// hits of identical size, so any order yields the same file layout.
pub fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.cmp(&a.score).then(b.size.cmp(&a.size))
}

/// Merge two lists already sorted by [`hit_order`] into one.
pub fn merge_sorted_hits(a: &[Hit], b: &[Hit]) -> Vec<Hit> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if hit_order(&a[i], &b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(score: u64, size: u64) -> Hit {
        Hit { score, size }
    }

    #[test]
    fn hit_order_desc_score_then_desc_size() {
        assert_eq!(hit_order(&h(10, 1), &h(5, 9)), std::cmp::Ordering::Less);
        assert_eq!(hit_order(&h(5, 9), &h(5, 1)), std::cmp::Ordering::Less);
        assert_eq!(hit_order(&h(5, 5), &h(5, 5)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn merge_keeps_global_order() {
        let a = vec![h(9, 1), h(5, 2), h(1, 3)];
        let b = vec![h(8, 1), h(5, 9), h(0, 1)];
        let m = merge_sorted_hits(&a, &b);
        let scores: Vec<u64> = m.iter().map(|x| x.score).collect();
        assert_eq!(scores, vec![9, 8, 5, 5, 1, 0]);
        // The score-5 tie is resolved by larger size first.
        assert_eq!(m[2].size, 9);
        assert_eq!(m[3].size, 2);
    }

    #[test]
    fn merge_with_empty() {
        let a = vec![h(3, 1)];
        assert_eq!(merge_sorted_hits(&a, &[]), a);
        assert_eq!(merge_sorted_hits(&[], &a), a);
    }

    #[test]
    fn offsets_wire_size() {
        let m = OffsetsMsg {
            batch: 0,
            offsets: vec![0; 10],
        };
        assert_eq!(m.wire_bytes(), 16 + 80);
    }

    #[test]
    fn shard_wire_sizes() {
        let resp = StealResp {
            tasks: vec![(0, 0); 5],
            owner: 1,
        };
        assert_eq!(resp.wire_bytes(), CTRL_BYTES + 5 * TASK_ENTRY_BYTES);
        let empty = StealResp {
            tasks: Vec::new(),
            owner: 1,
        };
        assert_eq!(empty.wire_bytes(), CTRL_BYTES);
        let rehome = ShardCtrl::Rehome {
            dead: 1,
            successor: 2,
            purge: vec![3, 4],
        };
        assert_eq!(rehome.wire_bytes(), CTRL_BYTES + 16);
        // A shard task is an ordinary fixed-size assignment on the wire.
        let t = Assign::ShardTask {
            query: 0,
            fragment: 0,
            owner: 0,
            ship: true,
        };
        assert_eq!(t.wire_bytes(), ASSIGN_BYTES);
    }
}
