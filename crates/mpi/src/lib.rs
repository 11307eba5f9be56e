//! # mpichgq-mpi — the MPI subset MPICH-GQ extends
//!
//! A from-scratch MPI implementation over the simulated TCP stack, modeled
//! on MPICH's layering: groups and communicators with context isolation
//! ([`Group`], [`Comm`]), the standard *attribute* mechanism with
//! put-triggered hooks — the paper's standards-compliant extension point
//! (§4.1) — eager/rendezvous point-to-point with envelope matching
//! ([`Mpi::isend`], [`Mpi::irecv`]), the poll-able binomial-tree
//! collectives [`Bcast`] and [`Reduce`] with [`Allreduce`] built on them,
//! and a job launcher ([`JobBuilder`]).
//!
//! Programs implement [`MpiProgram`] as explicit state machines driven by
//! the engine's progress events, using the nonblocking [`Mpi`] API
//! (`isend`/`irecv`/`test`) — the same structure an `MPI_Isend`/`MPI_Test`
//! application has.

#![warn(unreachable_pub)]

pub(crate) mod coll;
pub(crate) mod comm;
pub(crate) mod engine;
pub(crate) mod group;
pub(crate) mod job;
pub(crate) mod wire;

pub use coll::{Allreduce, Bcast, CollState, Reduce};
pub use comm::{AttrValue, Comm, CommEndpoints, CommId, CommKind, Keyval, COMM_WORLD};
pub use engine::{ErrorHandler, InitHook, Mpi, MpiCfg, MpiError, MpiProgram, MsgInfo, Poll, ReqId};
pub use group::Group;
pub use job::{JobBuilder, JobHandle, ProgramFactory};
pub use wire::HEADER_BYTES;
