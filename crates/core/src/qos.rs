//! Application-level QoS specification (paper Figure 3).
//!
//! ```c
//! struct qos_attribute {
//!     u_int32_t qosclass;
//!     double bandwidth;        /* Peak bandwidth in kbps */
//!     int max_message_size;    /* Max size used in MPI_Send */
//! } QoS, *Qos_p;
//! ...
//! MPI_Attr_put( comm, MPICH_ATM_QOS, &QoS);
//! MPI_Attr_get( comm, MPICH_ATM_QOS, &Qos_p, &flag );
//! ```

/// "The QoS class may be 'best-effort' (i.e., no QoS), 'low-latency'
/// (suitable for small message traffic: e.g., certain collective
/// operations), or 'premium'." (§4.1)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    #[default]
    BestEffort,
    LowLatency,
    Premium,
}

/// The attribute value an application stores on a communicator with
/// `attr_put(comm, MPICH_QOS, ...)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosAttribute {
    pub class: QosClass,
    /// Peak application bandwidth in kb/s.
    pub bandwidth_kbps: f64,
    /// Maximum size used in `MPI_Send`, in bytes — "allows us to translate
    /// application reservation sizes to network reservation sizes, because
    /// it is possible to calculate the amount of protocol overhead" (§4.1).
    pub max_message_size: u32,
}

impl QosAttribute {
    pub fn best_effort() -> QosAttribute {
        QosAttribute {
            class: QosClass::BestEffort,
            bandwidth_kbps: 0.0,
            max_message_size: 0,
        }
    }

    pub fn premium(bandwidth_kbps: f64, max_message_size: u32) -> QosAttribute {
        QosAttribute {
            class: QosClass::Premium,
            bandwidth_kbps,
            max_message_size,
        }
    }

    pub fn low_latency(bandwidth_kbps: f64, max_message_size: u32) -> QosAttribute {
        QosAttribute {
            class: QosClass::LowLatency,
            bandwidth_kbps,
            max_message_size,
        }
    }

    /// Application bandwidth in bits per second.
    pub(crate) fn bandwidth_bps(&self) -> u64 {
        (self.bandwidth_kbps * 1000.0).round() as u64
    }
}

/// Outcome of a QoS request, readable back through `attr_get` on the
/// status keyval ("MPI_Attr_get to see whether the requested QoS is
/// available", §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QosOutcome {
    /// No QoS requested (best-effort class).
    None,
    /// Reservations granted; the network reservation rate actually
    /// installed (bits/s, after protocol-overhead translation).
    Granted { network_rate_bps: u64 },
    /// A reservation holds, but at less than the requested rate — the
    /// adaptation loop renegotiated downward after a revocation.
    Degraded { network_rate_bps: u64 },
    /// The request was denied (admission control or no route).
    Denied { reason: String },
}

impl QosOutcome {
    /// Whether the *full requested* rate is installed.
    pub fn is_granted(&self) -> bool {
        matches!(self, QosOutcome::Granted { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_units() {
        let q = QosAttribute::premium(40_000.0, 100 * 1024);
        assert_eq!(q.class, QosClass::Premium);
        assert_eq!(q.bandwidth_bps(), 40_000_000);
        assert_eq!(QosAttribute::best_effort().class, QosClass::BestEffort);
        let l = QosAttribute::low_latency(64.0, 1000);
        assert_eq!(l.bandwidth_bps(), 64_000);
    }

    #[test]
    fn outcome_predicates() {
        assert!(QosOutcome::Granted {
            network_rate_bps: 1
        }
        .is_granted());
        assert!(!QosOutcome::None.is_granted());
        assert!(!QosOutcome::Denied { reason: "x".into() }.is_granted());
        assert!(!QosOutcome::Degraded {
            network_rate_bps: 5,
        }
        .is_granted());
    }
}
