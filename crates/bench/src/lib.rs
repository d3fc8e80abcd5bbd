//! # dmc-bench — experiment harness
//!
//! One function per paper artefact (see `DESIGN.md`'s per-experiment
//! index). Every experiment returns a formatted table, which the `repro`
//! binary prints. Wall-clock performance is measured by the separate
//! `perfbench` harness.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::*;
