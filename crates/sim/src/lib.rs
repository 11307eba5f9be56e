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

pub mod engine;
pub mod fxhash;
pub mod rng;
pub mod series;
pub mod time;

pub use engine::{CalendarStats, Engine};
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use rng::{fnv1a, SimRng};
pub use series::{Recorder, ThroughputMeter, TimeSeries};
pub use time::{SimDelta, SimTime};
