//! dgs-ledger: the repo's end-to-end DGS training benchmark.
//!
//! Times whole training rounds through the real stack (forward/backward →
//! Top-R % select → encode → TCP → server apply + `make_diff` → decode →
//! worker apply) and attributes time and bytes per layer, measuring every
//! layer from outside through its public functions. See `README.md` for
//! the metric glossary, the workloads and how to read a trace.
//!
//! Layout: [`seam`] is the only module that names a workspace item;
//! [`trial`] drives one trial; [`run`] repeats trials inside the time box
//! and checks outputs; [`probe`] is the host-speed yardstick every trial's
//! clock is corrected by; [`metrics`] reduces trials to numbers; [`suite`]
//! runs everything and [`compare`] judges two suite documents.

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod seam;
pub mod span;
pub mod stats;
pub mod suite;
pub mod trial;
pub mod workload;
