//! # mpichgq-core — MPICH-GQ itself
//!
//! The paper's contribution: QoS for message-passing programs, expressed
//! through the standard MPI attribute mechanism and implemented by an MPI
//! QoS Agent that drives GARA reservations over a Differentiated-Services
//! network and a DSRT CPU scheduler.
//!
//! * [`QosAttribute`] — the application-level QoS specification (paper
//!   Figure 3): class (best-effort / low-latency / premium), peak
//!   bandwidth, maximum message size.
//! * [`wire_overhead_factor`] and its kin — translating application rates
//!   to network reservation rates from protocol overhead (the paper's
//!   ~1.06 factor, §5.3).
//! * [`enable_qos`] — the MPI QoS Agent: hooked `MPICH_QOS` keyval, endpoint
//!   extraction, token-bucket sizing (§4.3), co-reservation via GARA, and
//!   the `MPICH_QOS_STATUS` result attribute.
//! * [`AdaptiveFlow`] — the agent's adaptation loop: retry-with-backoff on
//!   rejection, renegotiation to a smaller rate on revocation, graceful
//!   degradation to best-effort, and probing recovery.
//!
//! Quick start: build a job, attach the agent, put an attribute:
//!
//! ```text
//! let (builder, qos_env) = enable_qos(JobBuilder::new()..., QosAgentCfg::default());
//! // in a rank program:
//! mpi.attr_put(comm, qos_env.keyval(),
//!              Rc::new(QosAttribute::premium(8_000.0, 120_000 / 8)));
//! assert!(qos_env.outcome(&mpi, comm).is_granted());
//! ```

#![warn(unreachable_pub)]

pub(crate) mod adapt;
pub(crate) mod agent;
pub(crate) mod overhead;
pub(crate) mod qos;

pub use adapt::{AdaptPolicy, AdaptState, AdaptiveFlow};
pub use agent::{enable_qos, QosAgentCfg, QosEnv};
pub use overhead::{ip_overhead_factor, wire_overhead_factor, DEFAULT_MSS};
pub use qos::{QosAttribute, QosClass, QosOutcome};
