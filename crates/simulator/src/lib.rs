//! # dmc-sim — execution-driven memory-hierarchy simulator
//!
//! Where `dmc-core` plays formal pebble games, this crate *measures*: it
//! executes a CDAG schedule against a simulated fast memory, or a whole
//! machine hierarchy, and counts the words that actually cross each
//! boundary and the node interconnect. The measurements sit between the
//! certified lower bounds and the game-derived upper bounds:
//!
//! ```text
//! LB (Theorems 5-7)  ≤  simulated traffic  ≤  certified schedule UB
//! ```
//!
//! * [`simulation`] — the single-level RBW-semantics simulator:
//!   [`Simulation::run`] measures one schedule at one capacity under LRU
//!   or Belady (OPT) eviction — the vertical words of the paper's
//!   red-blue-white game — and [`simulation::sweep`] fans an S-sweep
//!   over scoped workers with a deterministic index-ordered merge;
//! * [`hierarchy_sim`] — the machine-hierarchy extension of
//!   [`simulation`]: [`HierarchySimulation`] measures one schedule at
//!   *every* boundary of a [`dmc_machine::MemoryHierarchy`] with
//!   write-back accounting, and [`hierarchy_sim::split_by_owner`] deals
//!   the schedule across P processors (round-robin or by a data
//!   decomposition) with barrier semantics, counting the horizontal
//!   words of the P-RBW model for the Lemma-2 comparison;
//! * [`schedule`] — schedule & ownership builders: level-order
//!   schedules, block ownership for Jacobi, and the skewed
//!   (parallelogram) tilings for 1-D/2-D Jacobi that realize the
//!   `(2S)^{1/d}` reuse the paper's Theorem 10 proves optimal.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hierarchy_sim;
pub mod schedule;
pub mod simulation;

pub use hierarchy_sim::{
    HierarchySimError, HierarchySimulation, HierarchyTrace, Inclusion, LevelTrace, ParallelSplit,
};
pub use simulation::{CachePolicy, SimError, Simulation, Trace};
