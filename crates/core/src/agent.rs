//! The MPI QoS Agent.
//!
//! "An MPI QoS Agent incorporates the rules used to translate
//! application-level QoS specifications into the lower-level commands and
//! parameters required to implement QoS." (§4) This is the component the
//! paper had not finished building ("The major component that we have not
//! yet constructed is the MPI QoS Agent"); here it is implemented in full:
//!
//! * a hooked keyval (`MPICH_QOS`) whose `attr_put` triggers the request —
//!   the paper's standards-compliant extension mechanism (§4.1);
//! * endpoint extraction from the communicator (host/port pairs);
//! * translation of application rates to network rates using the
//!   protocol-overhead model ([`crate::overhead`]);
//! * token-bucket depth selection per §4.3 (`bandwidth/40` by default);
//! * atomic co-reservation through GARA for every link the communicator's
//!   flows traverse;
//! * a status keyval (`MPICH_QOS_STATUS`) whose `attr_get` reports whether
//!   the requested QoS is available.

use crate::overhead::path_overhead_factor;
use crate::qos::{QosAttribute, QosClass, QosOutcome};
use mpichgq_gara::{Gara, NetworkRequest, Request, ResvId, StartSpec};
use mpichgq_mpi::{CommId, InitHook, JobBuilder, Keyval, Mpi};
use mpichgq_netsim::{DepthRule, NodeId, PolicingAction, Proto};
use std::cell::RefCell;
use std::rc::Rc;

/// Agent policy configuration.
#[derive(Debug, Clone, Copy)]
pub struct QosAgentCfg {
    /// Token-bucket depth rule for premium flows ("we currently use
    /// bandwidth/40", §4.3).
    pub depth_rule: DepthRule,
    /// What edge policers do with out-of-profile packets.
    pub action: PolicingAction,
    /// Install an end-system shaper in the globus-io layer (§5.4's
    /// "alternative approach").
    pub shape_at_source: bool,
    /// TCP maximum segment size used in overhead computation.
    pub mss: u32,
    /// Translate the application rate to a network rate using the
    /// protocol-overhead model. Disable to install the attribute bandwidth
    /// verbatim (how the paper's prototype bound "QoS parameters directly
    /// to application-level flows", §4 — its reservation sweeps are in raw
    /// network Kb/s).
    pub translate_overhead: bool,
}

impl Default for QosAgentCfg {
    fn default() -> Self {
        QosAgentCfg {
            depth_rule: DepthRule::Normal,
            action: PolicingAction::Drop,
            shape_at_source: false,
            mss: crate::overhead::DEFAULT_MSS,
            translate_overhead: true,
        }
    }
}

/// The result object stored under the status keyval.
#[derive(Debug)]
pub(crate) struct QosGrant {
    pub outcome: QosOutcome,
    /// GARA handles backing this grant (empty for best-effort/denied).
    pub(crate) resvs: Vec<ResvId>,
}

/// Shared handles to the QoS keyvals, filled in at rank initialization.
#[derive(Clone)]
pub struct QosEnv {
    qos: Rc<RefCell<Option<Keyval>>>,
    status: Rc<RefCell<Option<Keyval>>>,
}

impl QosEnv {
    /// The `MPICH_QOS` keyval (valid once ranks initialized).
    pub fn keyval(&self) -> Keyval {
        self.qos.borrow().expect("QoS keyval not yet registered")
    }

    /// The `MPICH_QOS_STATUS` keyval.
    pub(crate) fn status_keyval(&self) -> Keyval {
        self.status
            .borrow()
            .expect("QoS status keyval not yet registered")
    }

    /// Convenience: read the grant stored on `comm` (after a put).
    pub fn outcome(&self, mpi: &Mpi, comm: CommId) -> QosOutcome {
        match mpi.attr_get(comm, self.status_keyval()) {
            Some(v) => v
                .downcast_ref::<QosGrant>()
                .map(|g| g.outcome.clone())
                .unwrap_or(QosOutcome::None),
            None => QosOutcome::None,
        }
    }
}

/// Attach the MPI QoS Agent to a job: registers the hooked `MPICH_QOS`
/// keyval on every rank. Requires a [`Gara`] service installed in the
/// stack (see [`mpichgq_gara::install`]).
pub fn enable_qos(builder: JobBuilder, cfg: QosAgentCfg) -> (JobBuilder, QosEnv) {
    let env = QosEnv {
        qos: Rc::new(RefCell::new(None)),
        status: Rc::new(RefCell::new(None)),
    };
    let env2 = env.clone();
    let init: InitHook = Rc::new(RefCell::new(move |mpi: &mut Mpi| {
        let env3 = env2.clone();
        let status_kv = mpi.keyval_create(); // MPICH_QOS_STATUS
        *env2.status.borrow_mut() = Some(status_kv);
        let hook = Rc::new(RefCell::new(
            move |mpi: &mut Mpi, comm: CommId, value: &mpichgq_mpi::AttrValue| {
                on_qos_put(mpi, comm, value, cfg, status_kv, &env3);
            },
        ));
        let kv = mpi.keyval_create_with_hook(hook); // MPICH_QOS
        *env2.qos.borrow_mut() = Some(kv);
    }));
    (builder.init_hook(init), env)
}

/// The put-trigger: translate and reserve.
fn on_qos_put(
    mpi: &mut Mpi,
    comm: CommId,
    value: &mpichgq_mpi::AttrValue,
    cfg: QosAgentCfg,
    status_kv: Keyval,
    _env: &QosEnv,
) {
    let attr = *value
        .downcast_ref::<QosAttribute>()
        .expect("MPICH_QOS attribute must be a QosAttribute");

    // Release any previous grant on this communicator (re-put semantics:
    // the new specification replaces the old reservation).
    if let Some(prev) = mpi.attr_get(comm, status_kv) {
        if let Some(grant) = prev.downcast_ref::<QosGrant>() {
            let ids = grant.resvs.clone();
            mpi.ctx.with_service::<Gara, _>(|gara, ctx| {
                for id in ids {
                    gara.cancel(ctx.net, id);
                }
            });
        }
    }

    let outcome = match attr.class {
        QosClass::BestEffort => QosGrant {
            outcome: QosOutcome::None,
            resvs: Vec::new(),
        },
        QosClass::Premium | QosClass::LowLatency => request_reservations(mpi, comm, &attr, cfg),
    };
    mpi.attr_put(comm, status_kv, Rc::new(outcome));
}

fn request_reservations(
    mpi: &mut Mpi,
    comm: CommId,
    attr: &QosAttribute,
    cfg: QosAgentCfg,
) -> QosGrant {
    // Endpoint extraction: "basically port and machine names" (§4.1).
    let endpoints = mpi.comm_endpoints(comm);
    let my_host = mpi.host();
    let peers: Vec<NodeId> = endpoints
        .local
        .iter()
        .chain(endpoints.remote.iter())
        .map(|&(_, h, _)| h)
        .filter(|&h| h != my_host)
        .collect();
    if peers.is_empty() {
        return QosGrant {
            outcome: QosOutcome::Denied {
                reason: "communicator has no remote endpoints".into(),
            },
            resvs: Vec::new(),
        };
    }

    let result = mpi.ctx.with_service::<Gara, _>(|gara, ctx| {
        // Build one network request per outgoing host pair; reserve all of
        // them atomically (GARA co-reservation). The attribute bandwidth is
        // the application's peak rate toward each peer.
        let mut rate_installed = 0u64;
        let reqs: Vec<_> = peers
            .iter()
            .map(|&peer| {
                let factor = if cfg.translate_overhead {
                    path_overhead_factor(ctx.net, my_host, peer, attr.max_message_size, cfg.mss)
                } else {
                    1.0
                };
                let rate = (attr.bandwidth_bps() as f64 * factor).ceil() as u64;
                rate_installed = rate_installed.max(rate);
                let depth = match attr.class {
                    // Low-latency flows get a shallow bucket — bandwidth ×
                    // path delay, floored at a few messages' worth so
                    // back-to-back request/reply rounds never trip the
                    // policer — keeping the EF queue short.
                    QosClass::LowLatency => {
                        let delay = ctx
                            .net
                            .path_delay(my_host, peer)
                            .unwrap_or(mpichgq_sim::SimDelta::from_millis(2));
                        let bw_delay = mpichgq_netsim::depth_for(
                            DepthRule::BandwidthDelay {
                                delay_ns: delay.as_nanos().max(1_000_000),
                            },
                            rate,
                        );
                        let msg_floor = 4 * crate::overhead::ip_bytes_for_message(
                            attr.max_message_size,
                            cfg.mss,
                        );
                        DepthRule::Bytes(bw_delay.max(msg_floor))
                    }
                    _ => cfg.depth_rule,
                };
                (
                    Request::Network(NetworkRequest {
                        src: my_host,
                        dst: peer,
                        proto: Proto::Tcp,
                        src_port: None,
                        dst_port: None,
                        rate_bps: rate,
                        depth,
                        action: cfg.action,
                        shape_at_source: cfg.shape_at_source,
                    }),
                    StartSpec::Now,
                    None,
                )
            })
            .collect();
        gara.co_reserve(ctx.net, reqs)
            .map(|ids| (ids, rate_installed))
    });

    match result {
        Some(Ok((ids, rate))) => QosGrant {
            outcome: QosOutcome::Granted {
                network_rate_bps: rate,
            },
            resvs: ids,
        },
        Some(Err(e)) => QosGrant {
            outcome: QosOutcome::Denied {
                reason: e.to_string(),
            },
            resvs: Vec::new(),
        },
        None => QosGrant {
            outcome: QosOutcome::Denied {
                reason: "GARA service not installed".into(),
            },
            resvs: Vec::new(),
        },
    }
}

// ---------------------------------------------------------------------
// Adaptive negotiation (the paper's §4.2 future work: "select from among
// alternative resources, according to their availability, and adapt
// execution strategies or change reservations if reservations cannot be
// satisfied")
// ---------------------------------------------------------------------

impl QosEnv {
    /// Premium bandwidth (bits/s) currently available along this
    /// communicator's paths, as reported by the bandwidth broker: the
    /// minimum across all peers. Programs use this to pick an execution
    /// strategy before committing to a reservation.
    pub fn available_bandwidth(&self, mpi: &mut Mpi, comm: CommId) -> Option<u64> {
        let endpoints = mpi.comm_endpoints(comm);
        let my_host = mpi.host();
        let peers: Vec<NodeId> = endpoints
            .local
            .iter()
            .chain(endpoints.remote.iter())
            .map(|&(_, h, _)| h)
            .filter(|&h| h != my_host)
            .collect();
        mpi.ctx.with_service::<Gara, _>(|gara, ctx| {
            let now = ctx.net.now();
            let horizon = now + mpichgq_sim::SimDelta::from_secs(3600);
            peers
                .iter()
                .map(|&p| gara.available_on_path(ctx.net, my_host, p, now, horizon))
                .try_fold(u64::MAX, |acc, a| a.map(|v| acc.min(v)))
        })?
    }

    /// Try a preference-ordered list of QoS specifications, committing to
    /// the first one the system grants. Returns the index granted, or
    /// `None` if every alternative was denied (in which case the
    /// communicator is left best-effort and the program should adapt its
    /// execution strategy).
    pub fn negotiate(
        &self,
        mpi: &mut Mpi,
        comm: CommId,
        alternatives: &[QosAttribute],
    ) -> Option<usize> {
        for (i, attr) in alternatives.iter().enumerate() {
            mpi.attr_put(comm, self.keyval(), Rc::new(*attr));
            if self.outcome(mpi, comm).is_granted() {
                return Some(i);
            }
        }
        // Nothing fit: clear any residual request explicitly.
        mpi.attr_put(comm, self.keyval(), Rc::new(QosAttribute::best_effort()));
        None
    }
}
