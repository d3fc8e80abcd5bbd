//! # dmc-bench — experiment harness
//!
//! One module per paper artefact (see `DESIGN.md`'s per-experiment index
//! and `EXPERIMENTS.md` for recorded outputs). Every experiment returns a
//! formatted table so the `repro` binary and the criterion benches share
//! the exact same code paths.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::*;
