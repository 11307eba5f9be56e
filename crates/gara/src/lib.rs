//! # mpichgq-gara — the GARA reservation architecture
//!
//! The General-purpose Architecture for Reservation and Allocation (§4.2):
//! slot-table admission control (the bandwidth-broker role), a uniform
//! reservation API over heterogeneous resources (DiffServ network flows,
//! DSRT CPU shares, DPSS-style storage bandwidth), immediate and advance
//! reservations, atomic co-reservation, and reservation handles with
//! modify/cancel/monitor operations.
//!
//! In the paper, MPICH-GQ "can use GARA mechanisms to reserve shared
//! resources, such as networks and CPUs, and then to bind specific flows
//! (sockets) and processes to those reservations"; the binding happens in
//! `mpichgq-core`'s QoS agent, which translates communicator-level QoS
//! attributes into [`Request`]s.

#![warn(unreachable_pub)]

pub(crate) mod gara;
pub(crate) mod slot_table;

pub use gara::{
    install, CpuRequest, Gara, NetworkRequest, Request, ReserveError, ResvId, StartSpec, Status,
    StorageRequest,
};
pub use slot_table::{RejectReason, Rejected, SlotId, SlotTable};
