//! The ft-coma benchmark: named workloads run in one process against the
//! simulator's library crates, end-to-end metrics from untraced runs and a
//! per-layer split from a traced run.
//!
//! Every number is taken from outside the program: the benchmark times its
//! own calls into each layer's public functions ([`spans`]), replays each
//! layer's share of a run in isolation ([`layers`]) and reads the
//! simulator's deterministic counters. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod args;
pub mod host;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workloads;

pub use args::{Args, Workload};
pub use report::{Digest, Report, END_TO_END, PER_LAYER};
