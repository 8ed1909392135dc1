//! Pure helpers of sharded-master mode (`num_masters > 1`): the static
//! batch layout, the initial batch ownership, the steal rule and the
//! sub-fragment slicing. The query space is partitioned across master
//! ranks, each running the one master loop (`master.rs`) over its own
//! shard; idle shards steal `(query, sub-fragment)` tasks from busy
//! siblings, and tasks optionally decompose below fragment granularity
//! (`subfragment_factor`), so a steal can move less than one fragment's
//! worth of work (see DESIGN.md §"Sharded master").

use std::collections::VecDeque;

use s3a_des::SimTime;
use s3a_workload::{Hit, Workload};

/// How long an idle sharded worker backs off before re-requesting work
/// when no fault schedule supplies a heartbeat tick. Also the liveness
/// driver for fault-free masters: every Wait-ing worker re-polls its
/// home at this interval.
pub(crate) const SHARD_POLL: SimTime = SimTime::from_millis(10);

/// The slice of a fragment's hit list that sub-fragment `slice` of `k`
/// covers. Slices partition the list in order, so their concatenation is
/// the original fragment and each slice inherits the fragment's
/// `(score desc, size desc)` sort.
pub(crate) fn subfragment_hits(hits: &[Hit], slice: usize, k: usize) -> &[Hit] {
    let n = hits.len();
    &hits[slice * n / k..(slice + 1) * n / k]
}

/// Static file base of every batch: prefix sums of per-batch result
/// bytes, from the workload oracle. Batch extents never depend on
/// completion order, so shards can lay out independently.
pub(crate) fn batch_bases(workload: &Workload, gran: usize, nbatches: usize) -> Vec<u64> {
    let nq = workload.queries.len();
    let mut bases = Vec::with_capacity(nbatches);
    let mut cursor = 0u64;
    for b in 0..nbatches {
        bases.push(cursor);
        for q in b * gran..((b + 1) * gran).min(nq) {
            cursor += workload.queries[q]
                .hits
                .iter()
                .flatten()
                .map(|h| h.size)
                .sum::<u64>();
        }
    }
    bases
}

/// Initial batch → owning-master-rank map: shard `s` owns batches
/// `[s*nb/m, (s+1)*nb/m)` — contiguous, balanced to within one batch.
pub(crate) fn initial_owners(nbatches: usize, m: usize) -> Vec<usize> {
    let mut owner = vec![0usize; nbatches];
    for s in 0..m {
        for slot in owner
            .iter_mut()
            .take((s + 1) * nbatches / m)
            .skip(s * nbatches / m)
        {
            *slot = s;
        }
    }
    owner
}

/// Take `floor(own/2)` of the victim's *own-owned* queued tasks, from
/// the back (the work its own workers would reach last) — or all of them
/// when the victim is `homeless` (no worker is homed to it, so halving
/// would strand its last task forever). Stolen entries (owner ≠ `me`)
/// are never re-lent, so an unscored task always keeps exactly one
/// shard — its owner — unresolved.
pub(crate) fn lend_half(
    queue: &mut VecDeque<(usize, usize, usize)>,
    me: usize,
    homeless: bool,
) -> Vec<(usize, usize)> {
    let own = queue.iter().filter(|&&(_, _, o)| o == me).count();
    let mut want = if homeless { own } else { own / 2 };
    if want == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(want);
    let mut kept: VecDeque<(usize, usize, usize)> = VecDeque::new();
    while want > 0 {
        match queue.pop_back() {
            Some((q, sf, o)) if o == me => {
                out.push((q, sf));
                want -= 1;
            }
            Some(e) => kept.push_front(e),
            None => break,
        }
    }
    while let Some(e) = kept.pop_front() {
        queue.push_back(e);
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(score: u64, size: u64) -> Hit {
        Hit { score, size }
    }

    #[test]
    fn subfragments_partition_the_fragment() {
        for len in [0usize, 1, 5, 8, 13] {
            let hits: Vec<Hit> = (0..len).map(|i| h(100 - i as u64, 1 + i as u64)).collect();
            for k in [1usize, 2, 3, 4, 7] {
                let mut joined = Vec::new();
                for j in 0..k {
                    joined.extend_from_slice(subfragment_hits(&hits, j, k));
                }
                assert_eq!(joined, hits, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn owners_partition_batches_contiguously() {
        for (nb, m) in [(8usize, 2usize), (10, 4), (3, 8), (1, 2), (16, 1)] {
            let owner = initial_owners(nb, m);
            assert_eq!(owner.len(), nb);
            // Non-decreasing, all < m, and each shard's span matches the
            // [s*nb/m, (s+1)*nb/m) definition.
            for (b, &o) in owner.iter().enumerate() {
                let s = (0..m)
                    .find(|&s| (s * nb / m..(s + 1) * nb / m).contains(&b))
                    .expect("every batch falls in exactly one shard span");
                assert_eq!(o, s, "nb={nb} m={m} b={b}");
            }
        }
    }

    #[test]
    fn lend_takes_half_of_own_from_the_back() {
        let mut q: VecDeque<(usize, usize, usize)> = VecDeque::new();
        // me=1 owns 5 entries; two stolen entries (owner 2) interleaved.
        for i in 0..5 {
            q.push_back((i, 0, 1));
        }
        q.insert(2, (90, 0, 2));
        q.push_back((91, 0, 2));
        let lent = lend_half(&mut q, 1, false);
        assert_eq!(lent, vec![(3, 0), (4, 0)]);
        // Stolen entries survive, own front retains order.
        let rest: Vec<_> = q.iter().copied().collect();
        assert_eq!(
            rest,
            vec![(0, 0, 1), (1, 0, 1), (90, 0, 2), (2, 0, 1), (91, 0, 2)]
        );
        // Nothing to lend from a single own task.
        let mut q2: VecDeque<(usize, usize, usize)> = VecDeque::from([(0, 0, 1)]);
        assert!(lend_half(&mut q2, 1, false).is_empty());
        assert_eq!(q2.len(), 1);
        // A homeless victim lends every own task, its last one included.
        assert_eq!(lend_half(&mut q2, 1, true), vec![(0, 0)]);
        assert!(q2.is_empty());
    }
}
