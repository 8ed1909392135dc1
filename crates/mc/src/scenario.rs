//! The scenario under check: a compact, JSON-serializable description of
//! one simulation configuration (strategy, topology, workload knobs,
//! crash schedule) that both `explore` and `replay` can reconstruct into
//! identical [`SimParams`]. Everything a schedule's meaning depends on
//! is in here — a counterexample file embeds its scenario, so replaying
//! it needs nothing but the file.

use s3a_des::SimTime;
use s3a_workload::WorkloadParams;
use s3asim::{FaultParams, SimParams, Strategy};

use s3a_obs::json::Value;

/// One model-checking scenario. Times are nanoseconds (the DES unit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// I/O strategy under test.
    pub strategy: Strategy,
    /// Master ranks; `procs - masters` ranks are workers.
    pub masters: usize,
    /// Total ranks.
    pub procs: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Database fragments.
    pub fragments: usize,
    /// Sub-fragment task decomposition factor.
    pub subfragment_factor: usize,
    /// Queries per write batch.
    pub write_every: usize,
    /// Result-count band per query.
    pub min_results: u64,
    /// Result-count band per query.
    pub max_results: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Arm the race sanitizer (its cleanliness is an oracle).
    pub sanitize: bool,
    /// Master crash schedule: `(rank, nanoseconds)`.
    pub crashes: Vec<(usize, u64)>,
    /// Heartbeat interval, ns.
    pub heartbeat_ns: u64,
    /// Detection timeout, ns.
    pub detection_ns: u64,
    /// Re-introduce the PR 10 stale-ownership failover bug for this
    /// scenario (see `s3asim::chaos`) — used by the self-validation
    /// tests that prove the checker catches a known-real bug.
    pub chaos_stale_ownership: bool,
}

impl Scenario {
    /// The acceptance scenario: a 2-master failover (one standby master
    /// killed mid-Search) over `masters + workers` ranks, with the
    /// heartbeat/detection timing the end-to-end failover tests pin.
    pub fn failover(strategy: Strategy, masters: usize, workers: usize) -> Scenario {
        Scenario {
            strategy,
            masters,
            procs: masters + workers,
            queries: 8,
            fragments: 8,
            subfragment_factor: 1,
            write_every: 2,
            min_results: 30,
            max_results: 80,
            seed: WorkloadParams::default().seed,
            sanitize: true,
            crashes: vec![(1, SimTime::from_millis(40).as_nanos())],
            heartbeat_ns: SimTime::from_millis(50).as_nanos(),
            detection_ns: SimTime::from_millis(400).as_nanos(),
            chaos_stale_ownership: false,
        }
    }

    /// The chained-failover scenario (3 masters, two crashes, the second
    /// after the first takeover lands) — the configuration that trips
    /// the PR 10 stale-ownership bug when the chaos knob re-introduces it.
    pub fn chained_failover(strategy: Strategy) -> Scenario {
        let mut s = Scenario::failover(strategy, 3, 7);
        s.crashes = vec![
            (1, SimTime::from_millis(40).as_nanos()),
            (2, SimTime::from_millis(520).as_nanos()),
        ];
        s
    }

    /// The crash schedule as fault parameters (variant 0 of the grid).
    pub fn fault_params(&self) -> FaultParams {
        FaultParams {
            master_crashes: self
                .crashes
                .iter()
                .map(|&(rank, ns)| (rank, SimTime::from_nanos(ns)))
                .collect(),
            heartbeat_interval: SimTime::from_nanos(self.heartbeat_ns),
            detection_timeout: SimTime::from_nanos(self.detection_ns),
            ..FaultParams::default()
        }
    }

    /// Full simulation parameters for one crash-grid variant.
    pub fn params(&self, faults: &FaultParams) -> SimParams {
        SimParams {
            procs: self.procs,
            num_masters: self.masters,
            strategy: self.strategy,
            write_every_n_queries: self.write_every,
            subfragment_factor: self.subfragment_factor,
            sanitize: self.sanitize,
            faults: faults.clone(),
            workload: WorkloadParams {
                queries: self.queries,
                fragments: self.fragments,
                min_results: self.min_results,
                max_results: self.max_results,
                seed: self.seed,
                ..WorkloadParams::default()
            },
            ..SimParams::default()
        }
    }

    /// Number of write batches the commit ledger must close.
    pub fn expected_batches(&self) -> usize {
        self.queries.div_ceil(self.write_every.max(1))
    }

    /// Short human label, e.g. `WW-List/3m×7w`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}m×{}w",
            self.strategy.label(),
            self.masters,
            self.procs - self.masters
        )
    }

    /// Serialize for embedding in a counterexample file.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("strategy".into(), Value::Str(self.strategy.label().into())),
            ("masters".into(), Value::Int(self.masters as u64)),
            ("procs".into(), Value::Int(self.procs as u64)),
            ("queries".into(), Value::Int(self.queries as u64)),
            ("fragments".into(), Value::Int(self.fragments as u64)),
            (
                "subfragment_factor".into(),
                Value::Int(self.subfragment_factor as u64),
            ),
            ("write_every".into(), Value::Int(self.write_every as u64)),
            ("min_results".into(), Value::Int(self.min_results)),
            ("max_results".into(), Value::Int(self.max_results)),
            ("seed".into(), Value::Int(self.seed)),
            ("sanitize".into(), Value::Bool(self.sanitize)),
            (
                "crashes".into(),
                pairs_to_json(self.crashes.iter().map(|&(r, ns)| (r as u64, ns))),
            ),
            ("heartbeat_ns".into(), Value::Int(self.heartbeat_ns)),
            ("detection_ns".into(), Value::Int(self.detection_ns)),
            (
                "chaos_stale_ownership".into(),
                Value::Bool(self.chaos_stale_ownership),
            ),
        ])
    }

    /// Reconstruct from the embedded form. Every field is required — a
    /// counterexample that omits one would replay a different system.
    /// Every number is a count, index or nanosecond time, so any number
    /// that is not an unsigned integer ([`Value::Int`]) is refused rather
    /// than rounded.
    pub fn from_json(j: &Value) -> Result<Scenario, String> {
        fn num(j: &Value, key: &str) -> Result<u64, String> {
            j.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("scenario field '{key}' missing or not a u64"))
        }
        fn flag(j: &Value, key: &str) -> Result<bool, String> {
            j.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("scenario field '{key}' missing or not a bool"))
        }
        let strategy_label = j
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or("scenario field 'strategy' missing or not a string")?;
        let strategy = strategy_from_label(strategy_label)
            .ok_or_else(|| format!("unknown strategy '{strategy_label}'"))?;
        Ok(Scenario {
            strategy,
            masters: num(j, "masters")? as usize,
            procs: num(j, "procs")? as usize,
            queries: num(j, "queries")? as usize,
            fragments: num(j, "fragments")? as usize,
            subfragment_factor: num(j, "subfragment_factor")? as usize,
            write_every: num(j, "write_every")? as usize,
            min_results: num(j, "min_results")?,
            max_results: num(j, "max_results")?,
            seed: num(j, "seed")?,
            sanitize: flag(j, "sanitize")?,
            crashes: pairs_from_json(j, "crashes")?
                .into_iter()
                .map(|(r, ns)| (r as usize, ns))
                .collect(),
            heartbeat_ns: num(j, "heartbeat_ns")?,
            detection_ns: num(j, "detection_ns")?,
            chaos_stale_ownership: flag(j, "chaos_stale_ownership")?,
        })
    }
}

/// A pair list as `[[a, b], ...]`, the form of every pair list in a
/// counterexample file.
pub(crate) fn pairs_to_json(pairs: impl IntoIterator<Item = (u64, u64)>) -> Value {
    let pair = |(a, b)| Value::Arr(vec![Value::Int(a), Value::Int(b)]);
    Value::Arr(pairs.into_iter().map(pair).collect())
}

/// The pair list at `key`; both elements of each pair must be `u64`s.
pub(crate) fn pairs_from_json(j: &Value, key: &str) -> Result<Vec<(u64, u64)>, String> {
    j.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("field '{key}' missing or not an array"))?
        .iter()
        .map(|p| match p.as_arr() {
            Some([a, b]) => a.as_u64().zip(b.as_u64()),
            _ => None,
        })
        .map(|p| p.ok_or_else(|| format!("'{key}' entry is not a pair of u64s")))
        .collect()
}

/// Inverse of [`Strategy::label`] for the strategies the checker drives.
pub fn strategy_from_label(label: &str) -> Option<Strategy> {
    Some(match label {
        "MW" => Strategy::Mw,
        "WW-POSIX" => Strategy::WwPosix,
        "WW-List" => Strategy::WwList,
        "WW-Coll" => Strategy::WwColl,
        "WW-CollList" => Strategy::WwCollList,
        "WW-DS" => Strategy::WwSieve,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3a_obs::json;

    #[test]
    fn scenario_round_trips_through_json() {
        for s in [
            Scenario::failover(Strategy::Mw, 2, 8),
            Scenario::chained_failover(Strategy::WwList),
            {
                let mut s = Scenario::failover(Strategy::WwSieve, 2, 8);
                s.chaos_stale_ownership = true;
                s
            },
            // Neither value survives a trip through f64.
            {
                let mut s = Scenario::failover(Strategy::Mw, 2, 8);
                s.seed = u64::MAX;
                s.crashes = vec![(1, u64::MAX - 1)];
                s
            },
        ] {
            let text = s.to_json().pretty();
            assert_eq!(Scenario::from_json(&json::parse(&text).unwrap()), Ok(s));
        }
    }

    #[test]
    fn scenario_refuses_numbers_that_are_not_unsigned_integers() {
        let s = Scenario::failover(Strategy::Mw, 2, 8);
        let text = s.to_json().pretty();
        assert!(Scenario::from_json(&json::parse(&text).unwrap()).is_ok());
        let field = format!("\"seed\": {},", s.seed);
        for bad in ["1.5", "-1", "1e3", "18446744073709551616"] {
            let edited = text.replace(&field, &format!("\"seed\": {bad},"));
            assert_ne!(edited, text, "the edit must hit the seed field");
            let err = Scenario::from_json(&json::parse(&edited).unwrap()).unwrap_err();
            assert!(err.contains("'seed'"), "{bad}: {err}");
        }
    }

    #[test]
    fn every_strategy_label_parses_back() {
        for s in [
            Strategy::Mw,
            Strategy::WwPosix,
            Strategy::WwList,
            Strategy::WwColl,
            Strategy::WwCollList,
            Strategy::WwSieve,
        ] {
            assert_eq!(strategy_from_label(s.label()), Some(s));
        }
    }

    #[test]
    fn failover_scenario_counts_batches() {
        let s = Scenario::failover(Strategy::Mw, 2, 8);
        assert_eq!(s.expected_batches(), 4);
        assert_eq!(s.procs, 10);
        assert_eq!(s.label(), "MW/2m×8w");
    }
}
