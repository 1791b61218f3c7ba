//! The repository benchmark: four closed-loop workloads over the `cil`
//! crates, an end-to-end run that prints the user-visible metrics, and a
//! traced run that times calls into each crate from outside.
//!
//! Every workload calls the same public entry points the `cil` CLI calls,
//! with the CLI's default settings, so its numbers are the ones `cil` users
//! get. See `README.md` in this directory for the metric tables and how to
//! run it.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod args;
pub mod gate;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
