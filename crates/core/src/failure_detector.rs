//! The heartbeat/silence failure detector shared by every detector in
//! the system: the master's worker detector and the sharded coordinator's
//! standby-master detector (both in `master.rs`). The strictly-exceeds
//! boundary rule (DESIGN.md §7), the last-heard table, the
//! receive-and-refresh drain and the heartbeat sender each exist in
//! exactly one place.

use s3a_des::{Flag, Sim, SimTime};
use s3a_mpi::{Comm, RecvRequest, Source, Tag};

use crate::protocol::HEARTBEAT_BYTES;

/// Spawn task `name`: proof of life to rank 0 (the master, or the
/// coordinator) on `tag` every `tick`, until `stop` is set (the sender
/// finished or fail-stopped).
pub(crate) fn spawn_heartbeat(
    sim: &Sim,
    comm: &Comm,
    name: String,
    tag: Tag,
    tick: SimTime,
    stop: Flag,
) {
    let (comm, hb_sim) = (comm.clone(), sim.clone());
    sim.spawn(name, async move {
        while !stop.is_set() {
            let _ = comm.isend(0, tag, (), HEARTBEAT_BYTES);
            hb_sim.sleep(tick).await;
        }
    });
}

/// The failure detector's one comparison: a peer is declared dead only
/// when its silence *strictly exceeds* the detection timeout. A
/// heartbeat that lands exactly at `last_seen + timeout` — e.g. after a
/// virtual-clock stall aligns the scan with the heartbeat tick — is
/// still proof of life, regardless of timer poll order. `saturating_sub`
/// keeps a refresh that raced ahead of the scan (`last_seen > now`)
/// from underflowing into a false positive.
pub(crate) fn silence_exceeds(now: SimTime, last_seen: SimTime, timeout: SimTime) -> bool {
    now.saturating_sub(last_seen) > timeout
}

/// Last-heard times for a set of ranks plus the detection rule bound to
/// one timeout. Indexing mirrors the caller's rank space (entries a
/// caller never refreshes, like its own rank, are simply never scanned).
#[derive(Debug, Clone)]
pub(crate) struct Liveness {
    last_seen: Vec<SimTime>,
    timeout: SimTime,
}

impl Liveness {
    /// A table of `n` ranks, all considered heard-from at `start`.
    pub(crate) fn new(n: usize, start: SimTime, timeout: SimTime) -> Self {
        Liveness {
            last_seen: vec![start; n],
            timeout,
        }
    }

    /// Record proof of life from `rank` at virtual time `now`.
    pub(crate) fn refresh(&mut self, rank: usize, now: SimTime) {
        self.last_seen[rank] = now;
    }

    /// True when `rank`'s silence strictly exceeds the timeout.
    pub(crate) fn silent(&self, rank: usize, now: SimTime) -> bool {
        silence_exceeds(now, self.last_seen[rank], self.timeout)
    }
}

/// A detector's heartbeat intake: one any-source receive on `tag`
/// feeding a [`Liveness`] table.
pub(crate) struct Heartbeats {
    pub(crate) liveness: Liveness,
    rx: RecvRequest,
    tag: Tag,
}

impl Heartbeats {
    /// Watch `n` ranks' heartbeats on `tag`, every rank heard-from now.
    pub(crate) fn new(comm: &Comm, tag: Tag, n: usize, timeout: SimTime) -> Heartbeats {
        Heartbeats {
            liveness: Liveness::new(n, comm.sim().now(), timeout),
            rx: comm.irecv(Source::Any, tag),
            tag,
        }
    }

    /// Consume every queued heartbeat, refreshing each sender at `now`.
    /// Detectors drain again right before scanning, because a loop
    /// iteration can block (a batch write) for longer than the timeout.
    pub(crate) fn drain(&mut self, comm: &Comm, now: SimTime) {
        while let Some(msg) = self.rx.test() {
            let (_, status) = msg.into_parts::<()>();
            self.liveness.refresh(status.source, now);
            self.rx = comm.irecv(Source::Any, self.tag);
        }
    }

    /// A heartbeat is waiting to be drained.
    pub(crate) fn ready(&self) -> bool {
        self.rx.ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the detection-boundary semantics: a heartbeat that lands
    /// exactly `detection_timeout` ago is still proof of life; only
    /// strictly longer silence is death. Also pins the saturating
    /// behaviour when a refresh races ahead of the scan.
    #[test]
    fn silence_boundary_is_exclusive() {
        let t0 = SimTime::from_secs(10);
        let timeout = SimTime::from_secs(3);
        assert!(!silence_exceeds(t0 + timeout, t0, timeout));
        assert!(silence_exceeds(
            t0 + timeout + SimTime::from_nanos(1),
            t0,
            timeout
        ));
        assert!(!silence_exceeds(t0, t0, timeout));
        // last_seen ahead of now (refresh raced the scan): never dead.
        assert!(!silence_exceeds(t0, t0 + SimTime::from_secs(100), timeout));
        assert!(!silence_exceeds(
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::ZERO
        ));
        assert!(silence_exceeds(
            SimTime::from_nanos(1),
            SimTime::ZERO,
            SimTime::ZERO
        ));
    }

    /// The table wrapper must apply the same boundary rule per rank.
    #[test]
    fn liveness_table_applies_the_boundary_per_rank() {
        let t0 = SimTime::from_secs(1);
        let timeout = SimTime::from_millis(400);
        let lv = Liveness::new(3, t0, timeout);
        let at_boundary = t0 + timeout;
        let past_boundary = at_boundary + SimTime::from_nanos(1);
        for r in 0..3 {
            assert!(!lv.silent(r, at_boundary));
            assert!(lv.silent(r, past_boundary));
        }
    }
}
