//! `expected.json`: the physics pinned at the default seed — per workload
//! its `physics_fp` and exact results (delivered packets, application
//! results, GARA decision counts). `--bless` rewrites it; a run at the
//! default seed checks against it, so a commit that changes simulated
//! results fails the benchmark instead of being timed.

use mpichgq_obs::JsonValue;
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct Pinned {
    pub physics_fp: u64,
    pub facts: Vec<(String, u64)>,
}

impl Pinned {
    pub fn fact(&self, name: &str) -> Option<u64> {
        self.facts.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct Expected {
    workloads: Vec<(String, Pinned)>,
}

/// A fingerprint as `to_json` writes it (`0x` + 16 hex digits).
pub fn parse_fp(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

pub fn path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json"))
}

impl Expected {
    pub fn get(&self, workload: &str) -> Option<&Pinned> {
        self.workloads
            .iter()
            .find(|(k, _)| k == workload)
            .map(|(_, v)| v)
    }

    pub fn set(&mut self, workload: &str, pin: Pinned) {
        match self.workloads.iter_mut().find(|(k, _)| k == workload) {
            Some((_, v)) => *v = pin,
            None => self.workloads.push((workload.to_string(), pin)),
        }
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = mpichgq_obs::parse(text)?;
        let members = doc
            .get("workloads")
            .and_then(JsonValue::members)
            .ok_or("expected.json: no \"workloads\" object")?;
        let mut workloads = Vec::new();
        for (name, w) in members {
            let fp = w
                .get("physics_fp")
                .and_then(JsonValue::as_str)
                .and_then(parse_fp)
                .ok_or(format!("expected.json: {name}: bad physics_fp"))?;
            let mut facts = Vec::new();
            for (k, v) in w.get("facts").and_then(JsonValue::members).unwrap_or(&[]) {
                let v = v
                    .as_u64()
                    .ok_or(format!("expected.json: {name}.{k}: not a count"))?;
                facts.push((k.clone(), v));
            }
            workloads.push((
                name.clone(),
                Pinned {
                    physics_fp: fp,
                    facts,
                },
            ));
        }
        Ok(Expected { workloads })
    }

    pub fn load() -> Result<Expected, String> {
        let text = std::fs::read_to_string(path()).map_err(|e| format!("expected.json: {e}"))?;
        Expected::parse(&text)
    }

    /// One workload per block, one fact per line: blessing shows as a diff
    /// of exactly the numbers that moved.
    pub fn to_json(&self) -> String {
        let blocks: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, pin)| {
                let facts: Vec<String> = pin
                    .facts
                    .iter()
                    .map(|(k, v)| format!("        \"{k}\": {v}"))
                    .collect();
                format!(
                    "    \"{name}\": {{\n      \"physics_fp\": \"{:#018x}\",\n      \
                     \"facts\": {{\n{}\n      }}\n    }}",
                    pin.physics_fp,
                    facts.join(",\n")
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            crate::workloads::DEFAULT_SEED,
            blocks.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_including_fingerprints_above_2_pow_53() {
        let mut e = Expected::default();
        e.set(
            "pingpong_qos",
            Pinned {
                physics_fp: 0xfedc_ba98_7654_3210,
                facts: vec![("rounds".into(), 42), ("pkts_delivered".into(), 7)],
            },
        );
        e.set(
            "gara_broker",
            Pinned {
                physics_fp: 1,
                facts: vec![("granted".into(), 3)],
            },
        );
        let back = Expected::parse(&e.to_json()).expect("parses");
        assert_eq!(back, e);
        assert_eq!(back.get("pingpong_qos").unwrap().fact("rounds"), Some(42));
        assert!(back.get("absent").is_none());
    }

    #[test]
    fn committed_expected_json_parses_and_names_every_workload() {
        let e = Expected::load().expect("benchmark/expected.json");
        for w in crate::catalog::WORKLOADS {
            assert!(e.get(w.name).is_some(), "{} is not pinned", w.name);
        }
    }
}
