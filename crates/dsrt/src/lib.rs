//! # mpichgq-dsrt — Dynamic Soft Real-Time CPU scheduler model
//!
//! The paper (§5.5) combines network reservations with CPU reservations made
//! through DSRT, a user-level soft real-time scheduler that overrides the
//! Unix scheduler for selected processes. A CPU-intensive competitor on the
//! sending host halves the visualization application's frame rate; a 90% CPU
//! reservation restores it (Figures 8 and 9).
//!
//! This crate models one host CPU:
//!
//! * processes are *best-effort* by default and split the residual CPU
//!   equally (an idealized fair-share Unix scheduler);
//! * a process may hold a *reservation* for a fraction of the CPU, which it
//!   receives whenever it is runnable (soft real-time: unused reserved
//!   capacity is returned to the pool, i.e. the model is work-conserving);
//! * admission control caps total reservations at [`MAX_RESERVABLE`], as
//!   DSRT does to keep the host responsive.
//!
//! The model is *sans-io*: it never schedules events itself. Every mutation
//! returns the new estimated completion times ([`Update`]) for affected work
//! items, each tagged with a generation number; the caller schedules events
//! and ignores stale generations (lazy cancellation). This keeps the crate
//! independently testable and free of event-engine coupling.

#![warn(unreachable_pub)]

pub(crate) mod cpu;

pub use cpu::{AdmissionError, CompleteOutcome, Cpu, ProcId, Update, WorkId, MAX_RESERVABLE};
