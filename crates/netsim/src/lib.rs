//! # mpichgq-netsim — a packet network with Differentiated Services
//!
//! The substitute for the paper's GARNET testbed (Figure 4): hosts and
//! store-and-forward routers joined by bandwidth/delay/framing-modeled
//! links, with the full DiffServ edge tool-kit the paper's Cisco 7500 MQC
//! configuration used (§5.1):
//!
//! * a **packet classifier** on edge-ingress interfaces ([`classifier`]);
//! * **token-bucket** marking and policing of premium flows ([`tokenbucket`]);
//! * **per-interface queue disciplines** ([`queue`]): the paper's strict-
//!   priority EF queuing by default, drop-tail, and WFQ/DRR schedulers
//!   with RED/WRED droppers and an Assured Forwarding class, selected by
//!   [`QueueCfg`] and dispatched by one concrete [`Queue`] type (an enum
//!   inside, no trait objects);
//! * optional **end-system traffic shaping** ([`shaper`]) — the paper's
//!   proposed remedy for bursty MPI traffic (§5.4);
//! * a per-host **CPU model** (via `mpichgq-dsrt`) so CPU contention and
//!   reservations (Figures 8–9) live in the same event timeline;
//! * deterministic **fault injection** ([`faults`]) — scripted link
//!   outages, loss/corruption bursts, and CPU throttling, replayable
//!   bit-identically from a seed (the chaos experiments).
//!
//! Transport protocols (TCP/UDP state machines) and applications sit above
//! this crate behind the [`net::NetHandler`] trait.

pub mod classifier;
pub mod faults;
pub mod lifecycle;
pub mod link;
pub mod net;
pub mod packet;
pub mod queue;
pub mod shaper;
pub mod shard;
pub mod tokenbucket;
pub mod topology;

pub use classifier::{Classifier, FlowSpec, PolicingAction, Verdict};
pub use faults::{FaultAction, FaultPlan, FaultStats};
pub use lifecycle::{FlowRec, PacketTracer, Span, SpanKind};
pub use link::{Chan, ChanId, Framing, LinkCfg};
/// The handle [`Net::obs`]'s registry hands out and the sink timeline
/// probes write to, for layers that use them without depending on the obs
/// crate.
pub use mpichgq_obs::{CounterId, MetricSink, Scope};
pub use net::{
    ChanAudit, DropStats, Net, NetAudit, NetHandler, Node, NodeKind, TimelineSource, TopoBuilder,
};
pub use packet::{AfPrec, Dscp, FlowKey, NodeId, Packet, Proto, TcpFlags, TcpHeader, L4};
pub use queue::{
    ClassCfg, DropperCfg, Enqueue, Queue, QueueCfg, QueueStats, RedCfg, SchedCfg, SchedKind,
};
pub use shaper::{ShapeOutcome, Shaper, ShaperStats};
pub use shard::{run_partitioned, run_windowed, Partition, PartitionError};
pub use tokenbucket::{depth_for, DepthRule, TokenBucket};
pub use topology::{Dumbbell, Garnet, GarnetCfg};
