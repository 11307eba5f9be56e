//! Snapshot-level audit: run the conservation battery against a metrics
//! JSON document rather than a live simulation.
//!
//! This is what the pinned-corpus tests apply to the canonical figure and
//! chaos runs: every `results/<experiment>/metrics.json` the repo ships —
//! and every snapshot a future experiment produces — must satisfy the same
//! per-interface and global identities the live auditor enforces, using
//! only the published counters and gauges.

use crate::run::Violation;
use mpichgq_obs::{parse, JsonValue};

fn counter(counters: &JsonValue, name: &str) -> u64 {
    counters.get(name).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn gauge(gauges: &JsonValue, name: &str) -> Option<f64> {
    gauges
        .get(name)
        .and_then(|g| g.get("value"))
        .and_then(JsonValue::as_f64)
}

/// Audit a full metrics snapshot (the string from `Net::metrics_json` or a
/// `results/*/metrics.json` file). Returns the violations found.
pub fn audit_metrics_json(s: &str) -> Result<Vec<Violation>, String> {
    let doc = parse(s).map_err(|e| format!("metrics audit: bad JSON: {e}"))?;
    let counters = doc
        .get("counters")
        .ok_or("metrics audit: no counters section")?;
    let gauges = doc
        .get("gauges")
        .ok_or("metrics audit: no gauges section")?;
    let members = counters
        .members()
        .ok_or("metrics audit: counters is not an object")?;

    let mut out = Vec::new();
    let mut queued = 0u64;
    let mut wire = 0u64;
    let mut shaper = 0u64;

    // Per-interface ledger rows, discovered by their `.dequeued` counter.
    for (name, _) in members {
        let Some(p) = name.strip_suffix(".dequeued") else {
            continue;
        };
        if !p.starts_with("iface") {
            continue;
        }
        let c = |suffix: &str| counter(counters, &format!("{p}.{suffix}"));
        let enq = c("enq_ef") + c("enq_be") + c("enq_af");
        let deq = c("dequeued");
        let tx = c("tx_packets");
        let rx = c("rx_packets");
        let backlog = gauge(gauges, &format!("{p}.backlog_pkts")).unwrap_or(0.0) as u64;
        queued += backlog;
        wire += tx.saturating_sub(rx);
        if enq != deq + backlog {
            out.push(Violation {
                invariant: "chan_conservation".into(),
                detail: format!("{p}: enq {enq} != dequeued {deq} + backlog {backlog}"),
            });
        }
        if deq != tx {
            out.push(Violation {
                invariant: "chan_conservation".into(),
                detail: format!("{p}: dequeued {deq} != tx_packets {tx}"),
            });
        }
        if rx > tx {
            out.push(Violation {
                invariant: "chan_conservation".into(),
                detail: format!("{p}: rx_packets {rx} > tx_packets {tx}"),
            });
        }
        let inversions = c("prio_inversions");
        if inversions > 0 {
            out.push(Violation {
                invariant: "prio_inversion".into(),
                detail: format!("{p}: {inversions} strict-priority inversions"),
            });
        }
        let sched = c("sched_violations");
        if sched > 0 {
            out.push(Violation {
                invariant: "sched_violation".into(),
                detail: format!("{p}: {sched} scheduler self-audit violations"),
            });
        }
    }

    // Shaper backlogs and token-bucket levels (gauges).
    if let Some(gm) = gauges.members() {
        for (name, g) in gm {
            if name.ends_with(".backlog_pkts") && name.contains(".shaper") {
                shaper += g.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
            }
            if name.ends_with(".bucket_level_bytes") {
                if let Some(level) = g.get("value").and_then(JsonValue::as_f64) {
                    if level < 0.0 {
                        out.push(Violation {
                            invariant: "token_bucket".into(),
                            detail: format!("{name}: negative bucket level {level}"),
                        });
                    }
                }
            }
        }
    }

    // The global identity, from published counters + gauges alone.
    let sent = counter(counters, "net.pkts.sent");
    let delivered = counter(counters, "net.pkts.delivered");
    // Every published drop cause is a ledger column, whatever its name —
    // except `red_early`, the informational sub-count of `queue_full`.
    let drops: u64 = members
        .iter()
        .filter(|(name, _)| name.starts_with("net.drops.") || name.starts_with("faults.drops."))
        .filter(|(name, _)| name != "net.drops.red_early")
        .filter_map(|(_, v)| v.as_u64())
        .sum();
    let accounted = delivered + drops + queued + shaper + wire;
    if sent != accounted {
        out.push(Violation {
            invariant: "conservation".into(),
            detail: format!(
                "sent {sent} != accounted {accounted} \
                 (delivered {delivered} drops {drops} queued {queued} shaper {shaper} wire {wire})"
            ),
        });
    }
    Ok(out)
}
