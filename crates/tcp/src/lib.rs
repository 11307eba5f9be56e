//! # mpichgq-tcp — TCP Reno and the socket/application layer
//!
//! The reliable transport the paper's MPI traffic rides on. [`Connection`]
//! is a sans-io TCP Reno state machine (slow start, congestion avoidance,
//! fast retransmit/recovery, RTO with backoff, flow control); [`Stack`] is
//! the socket layer that demultiplexes packets, applies connection outputs to
//! the network, and hosts applications behind the [`App`] trait.
//!
//! The paper's central observations — TCP collapse when a reservation is
//! slightly too small (Figures 1 and 6), the slow-start sawtooth, the
//! sensitivity of bursty flows to token-bucket depth (Table 1) — all emerge
//! from this layer interacting with the DiffServ mechanisms in
//! `mpichgq-netsim`.

#![warn(unreachable_pub)]

pub(crate) mod conn;
#[cfg(test)]
mod conn_tests;
pub(crate) mod stack;

pub use conn::{ConnStats, Connection, Out, SegFlags, SegIn, SegOut, TcpCfg};
pub use stack::{
    control_token, App, AppId, Controller, ControllerId, Ctx, DataMode, Sim, SockId, Stack,
};
