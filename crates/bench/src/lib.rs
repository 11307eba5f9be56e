//! # mpichgq-bench — experiment harnesses for every table and figure
//!
//! Each `figN_*`/`table1_*` function regenerates one piece of the paper's
//! evaluation (§5) on the simulated GARNET testbed, observed as its
//! [`Observe`] argument says; the `figs` binary prints the same
//! series/rows the paper reports, and the integration tests in the
//! workspace root assert the qualitative shapes.
//! Absolute numbers differ from the paper (its substrate was a physical
//! Cisco/ATM testbed); the shapes — who wins, where the knees fall, the
//! burstiness penalty — are the reproduction targets (see EXPERIMENTS.md).

#![warn(unreachable_pub)]

pub(crate) mod experiments;
pub mod output;
mod par;

pub use experiments::*;
pub use par::par_map;
