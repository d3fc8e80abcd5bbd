//! An independent per-`S` reference for the pipeline's certified lower
//! bound, rebuilt at every capacity from public members: the trivial
//! bound, the Lemma-2 wavefront bound on the untagged graph (through the
//! Theorem-3 untagging transfer when the graph has tagged inputs), the
//! Lemma-1 2S-partition bound, and the Theorem-2 sum over components.
//!
//! The validation paths compute the `S`-free parts once per graph and
//! only the arithmetic per `S`; this reference runs the wavefront engine
//! afresh at each `S`, so a bound carried over from the wrong `S` shows
//! up as a mismatch.

use dmc::cdag::components::weakly_connected_components;
use dmc::cdag::subgraph::decompose;
use dmc::cdag::Cdag;
use dmc::core::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use dmc::core::bounds::mincut::{auto_wavefront_bound_with, AnchorStrategy};
use dmc::core::bounds::{best_lower_bound, IoBound};
use dmc::core::pipeline::partition2s_bound;

/// The method portfolio's winner on `g` at capacity `s`.
fn portfolio(g: &Cdag, s: u64) -> IoBound {
    let wf = auto_wavefront_bound_with(&untag_inputs(g), s, AnchorStrategy::Adaptive, 1);
    let wf = if g.num_inputs() > 0 {
        untagging_transfer(&wf)
    } else {
        wf
    };
    best_lower_bound([IoBound::trivial(g), wf, partition2s_bound(g, s)]).expect("three candidates")
}

/// The certified lower bound of the default `Analyzer` on `g` at `s`:
/// the composed per-component bound when `g` has several components
/// (it wins ties), otherwise the whole-graph portfolio's winner.
pub fn certified_lower(g: &Cdag, s: u64) -> IoBound {
    let whole = portfolio(g, s);
    let comps = weakly_connected_components(g);
    if comps.count < 2 {
        return whole;
    }
    let pieces = decompose(g, &comps.assignment, comps.count);
    let winners: Vec<IoBound> = pieces.iter().map(|p| portfolio(&p.cdag, s)).collect();
    best_lower_bound([decomposition_sum(&winners), whole]).expect("two candidates")
}

/// `(value, method)` of [`certified_lower`], the pair a report's
/// `certified_lower` and `lower_method` columns carry.
pub fn lower_columns(g: &Cdag, s: u64) -> (f64, String) {
    let b = certified_lower(g, s);
    (b.value, b.method.to_string())
}
