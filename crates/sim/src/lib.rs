//! # mpichgq-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the MPICH-GQ reproduction: an integer-nanosecond clock,
//! a generic time-ordered event queue with deterministic tie-breaking, a
//! reproducible PRNG, and time-series recording utilities used to regenerate
//! the paper's figures.
//!
//! Higher layers (network, TCP, MPI, GARA) define their own event enums and
//! drive [`Engine`] with a pop-dispatch loop; this crate knows nothing about
//! networks.

#![warn(unreachable_pub)]

pub(crate) mod engine;
pub(crate) mod fxhash;
pub(crate) mod rng;
pub(crate) mod series;
pub mod time;

pub use engine::{CalendarStats, Engine};
pub use fxhash::FxHashMap;
pub use rng::{fnv1a, Fnv, SimRng};
pub use series::{Recorder, ThroughputMeter, TimeSeries};
pub use time::{SimDelta, SimTime};
