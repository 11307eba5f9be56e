//! # mpichgq-apps — the paper's workloads
//!
//! * [`PingPong`] — the §5.2 ping-pong benchmark (Figure 5);
//! * [`VizSender`] / [`VizReceiver`] — the §5.3 distance-visualization
//!   pipeline with configurable frame rate, frame size, and per-frame CPU
//!   work (Figures 6–9, Table 1);
//! * [`UdpBlaster`], [`UdpSink`], [`PacedTcpSender`] — the UDP contention
//!   generator, its sink, and the paced TCP sender of Figure 1;
//! * [`GarnetLab`] / [`TwoSites`] — GARNET lab assembly and mid-run action
//!   scripting (the reservation timelines of Figures 8–9);
//! * [`StencilRank`] — the §3 motivating finite-difference application:
//!   halo exchange across two sites through a two-party intercommunicator;
//! * [`qtrace`] — offline analysis of packet-lifecycle Chrome traces (the
//!   `qtrace` binary: flow latency tables, per-hop delay decomposition,
//!   SLO reports);
//! * [`qtop`] — offline analysis of sampled timeline documents (the
//!   `qtop` binary: per-series summary tables, SLO burn-rate report,
//!   peak attribution, and the `--check` CI shape gate).

#![warn(unreachable_pub)]

pub(crate) mod pingpong;
pub mod qtop;
pub mod qtrace;
pub(crate) mod scenario;
pub(crate) mod stencil;
pub(crate) mod traffic;
pub(crate) mod viz;

pub use pingpong::{PingPong, PingPongResult};
pub use scenario::{GarnetLab, Scheduler, TwoSites};
pub use stencil::{steady_iteration_rate, StencilCfg, StencilRank};
pub use traffic::{MeteredTcpReceiver, PacedTcpSender, UdpBlaster, UdpSink};
pub use viz::{finish_viz, VizCfg, VizReceiver, VizRun, VizSendStats, VizSender};
