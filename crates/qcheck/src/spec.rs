//! Scenario specifications: the knob vector a seed expands into.
//!
//! A scenario is fully determined by `(seed, knobs)`. The default path
//! derives the knobs from the seed itself ([`ScenarioSpec::from_seed`]),
//! but the two are kept separate so the shrinker can lower individual
//! knobs without perturbing any other dimension's random draws — every
//! generator forks its own child stream from the seed in a fixed order,
//! so "fewer UDP flows" never changes which hosts the TCP flows picked.

use mpichgq_obs::{JsonValue, JsonWriter};
use mpichgq_sim::SimRng;

/// A named mutable accessor for one [`Knobs`] field (shrinker plumbing).
pub(crate) type KnobField = fn(&mut Knobs) -> &mut u64;

/// Scenario size/shape parameters. Every field is a count or a duration;
/// the shrinker only ever lowers them (toward `Knobs::min`), which keeps
/// a shrunk spec inside the space the generator can expand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Simulated run length, milliseconds.
    pub duration_ms: u64,
    /// Hosts attached to the router line (≥ 2; host 0 and host 1 are
    /// pinned to opposite ends so cross-network paths always exist).
    pub hosts: u64,
    /// Routers in the core line (≥ 1).
    pub(crate) routers: u64,
    pub tcp_flows: u64,
    pub udp_flows: u64,
    /// Two-rank MPI ping-pong jobs.
    pub mpi_pairs: u64,
    /// GARA operations (reserve / modify / cancel / revoke) scheduled
    /// through a scenario-script controller.
    pub gara_ops: u64,
    /// Injected fault windows (link outage, loss burst, corruption burst).
    pub faults: u64,
    /// Crash/restart cycles: each draws a victim host, a crash time, and
    /// a downtime; the restart may land past the end of the run, leaving
    /// the host dead at quiescence (the never-restarted case the
    /// `mpi_failure_progress` invariant audits). Zero draws nothing from
    /// the `"hostfaults"` stream, keeping pre-fault corpora bit-identical.
    pub host_faults: u64,
    /// Core-link queue discipline selector. Zero is the legacy
    /// strict-priority drop-tail configuration (bit-identical to
    /// pre-qdisc corpora); 1..=6 picks a scheduler (SP/WFQ/DRR) and
    /// dropper (drop-tail, RED/WRED) combination whose thresholds and
    /// weights are drawn from the scenario's `"qdisc"` RNG stream.
    pub qdisc: u64,
}

impl Knobs {
    /// The smallest scenario the generator accepts: two hosts, one router,
    /// no traffic, no faults.
    pub(crate) fn min() -> Knobs {
        Knobs {
            duration_ms: 100,
            hosts: 2,
            routers: 1,
            tcp_flows: 0,
            udp_flows: 0,
            mpi_pairs: 0,
            gara_ops: 0,
            faults: 0,
            host_faults: 0,
            qdisc: 0,
        }
    }

    /// Draw a knob vector from `rng` (the seed's stream 0 fork). New knobs
    /// are always drawn *after* the existing ones so every pre-existing
    /// dimension keeps its historical value for a given seed.
    pub(crate) fn sample(rng: &mut SimRng) -> Knobs {
        Knobs {
            duration_ms: rng.range(150, 900),
            hosts: rng.range(2, 7),
            routers: rng.range(1, 5),
            tcp_flows: rng.range(0, 4),
            udp_flows: rng.range(0, 4),
            mpi_pairs: rng.range(0, 2),
            gara_ops: rng.range(0, 6),
            faults: rng.range(0, 3),
            qdisc: rng.range(0, 7),
            // Drawn last (newest knob) so every older dimension keeps its
            // historical value for a given seed.
            host_faults: rng.range(0, 3),
        }
    }

    /// Named accessors used by the shrinker, in shrink-priority order:
    /// cheapest dimensions to remove first.
    pub(crate) fn fields() -> &'static [(&'static str, KnobField)] {
        &[
            ("host_faults", |k| &mut k.host_faults),
            ("qdisc", |k| &mut k.qdisc),
            ("faults", |k| &mut k.faults),
            ("mpi_pairs", |k| &mut k.mpi_pairs),
            ("gara_ops", |k| &mut k.gara_ops),
            ("udp_flows", |k| &mut k.udp_flows),
            ("tcp_flows", |k| &mut k.tcp_flows),
            ("hosts", |k| &mut k.hosts),
            ("routers", |k| &mut k.routers),
            ("duration_ms", |k| &mut k.duration_ms),
        ]
    }

    /// Floor for the named field.
    pub(crate) fn floor(name: &str) -> u64 {
        let min = Knobs::min();
        match name {
            "duration_ms" => min.duration_ms,
            "hosts" => min.hosts,
            "routers" => min.routers,
            _ => 0,
        }
    }

    /// Append this knob vector as a JSON object under the writer's current
    /// position (caller opens/keys the object).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("duration_ms");
        w.u64(self.duration_ms);
        w.key("hosts");
        w.u64(self.hosts);
        w.key("routers");
        w.u64(self.routers);
        w.key("tcp_flows");
        w.u64(self.tcp_flows);
        w.key("udp_flows");
        w.u64(self.udp_flows);
        w.key("mpi_pairs");
        w.u64(self.mpi_pairs);
        w.key("gara_ops");
        w.u64(self.gara_ops);
        w.key("faults");
        w.u64(self.faults);
        w.key("host_faults");
        w.u64(self.host_faults);
        w.key("qdisc");
        w.u64(self.qdisc);
        w.end_object();
    }

    /// Parse a knob vector from a JSON object.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Knobs, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("knobs: missing or non-integer field {name:?}"))
        };
        Ok(Knobs {
            duration_ms: field("duration_ms")?,
            hosts: field("hosts")?,
            routers: field("routers")?,
            tcp_flows: field("tcp_flows")?,
            udp_flows: field("udp_flows")?,
            mpi_pairs: field("mpi_pairs")?,
            gara_ops: field("gara_ops")?,
            faults: field("faults")?,
            // Absent in pre-qdisc repro artifacts: default to the legacy
            // strict-priority discipline they were recorded under.
            qdisc: v.get("qdisc").and_then(|x| x.as_u64()).unwrap_or(0),
            // Likewise absent in pre-host-fault artifacts.
            host_faults: v.get("host_faults").and_then(|x| x.as_u64()).unwrap_or(0),
        })
    }
}

/// A fully replayable scenario identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    pub seed: u64,
    pub knobs: Knobs,
}

impl ScenarioSpec {
    /// The fuzzer's default path: the seed also picks the knobs.
    pub fn from_seed(seed: u64) -> ScenarioSpec {
        let mut rng = SimRng::new(seed);
        let mut knob_rng = rng.fork_labeled("knobs");
        ScenarioSpec {
            seed,
            knobs: Knobs::sample(&mut knob_rng),
        }
    }
}

/// Deliberate bug switches the fuzzer can arm to prove it would catch the
/// corresponding regression (the acceptance test re-introduces the Karn
/// bug this way without patching source).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inject {
    /// Disable Karn's algorithm in every generated TCP connection
    /// (`TcpCfg::karn_disable`): RTT samples may be armed on retransmitted
    /// segments, which the `karn` invariant convicts.
    pub karn: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_roundtrip_json() {
        let spec = ScenarioSpec::from_seed(17);
        let mut w = JsonWriter::new();
        spec.knobs.write_json(&mut w);
        let v = mpichgq_obs::parse(&w.finish()).unwrap();
        assert_eq!(Knobs::from_json(&v).unwrap(), spec.knobs);
    }

    #[test]
    fn from_seed_is_deterministic_and_varied() {
        let a = ScenarioSpec::from_seed(3);
        let b = ScenarioSpec::from_seed(3);
        assert_eq!(a, b);
        let distinct = (0..32)
            .map(|s| ScenarioSpec::from_seed(s).knobs)
            .collect::<Vec<_>>();
        assert!(distinct.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn sampled_knobs_respect_floors() {
        for seed in 0..64 {
            let k = ScenarioSpec::from_seed(seed).knobs;
            let min = Knobs::min();
            assert!(k.duration_ms >= min.duration_ms);
            assert!(k.hosts >= min.hosts);
            assert!(k.routers >= min.routers);
        }
    }
}
