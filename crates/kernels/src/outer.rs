//! Vector outer products `A = p · qᵀ`.
//!
//! Section 3 of the paper uses the outer product as the canonical example
//! of an I/O-bound-but-capacity-independent kernel: computing and storing
//! `A` costs `2N` loads + `N²` stores, *independent of S*, because every
//! result element is used exactly once.

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Builds the CDAG of `A = p·qᵀ` for vectors of length `n`:
/// `2n` inputs, `n²` multiply vertices, all tagged outputs.
pub fn outer_product(n: usize) -> Cdag {
    let mut b = CdagBuilder::with_capacity(2 * n + n * n, 2 * n * n);
    let p: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("p{i}"))).collect();
    let q: Vec<VertexId> = (0..n).map(|j| b.add_input(format_args!("q{j}"))).collect();
    for (i, &pi) in p.iter().enumerate() {
        for (j, &qj) in q.iter().enumerate() {
            let a = b.add_op(format_args!("A{i}_{j}"), &[pi, qj]);
            b.tag_output(a);
        }
    }
    b.build_valid("outer product is acyclic")
}

/// The exact I/O cost of the outer product under the RBW game with
/// `S ≥ 3` red pebbles: `2n` input loads plus `n²` output stores
/// (Section 3 of the paper: "total I/O of 2N + N², independent of S").
pub fn outer_product_exact_io(n: usize) -> u64 {
    2 * n as u64 + (n as u64) * (n as u64)
}

/// Catalog entry for the outer product: `outer(n)` builds
/// [`outer_product`]; its I/O is exactly `2N + N²` independent of `S`
/// (the Section-3 capacity-independence example).
pub struct OuterProductKernel;

impl Kernel for OuterProductKernel {
    fn name(&self) -> &'static str {
        "outer"
    }

    fn description(&self) -> &'static str {
        "vector outer product A = p·q^T (2N + N^2 I/O, independent of S)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint("n", "input vector length", 1, 2048, 8)];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        outer_product(p.usize("n"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let n = p.uint("n");
        n.checked_mul(n).and_then(|v| v.checked_add(2 * n))
    }

    fn analytic_lower_bound(&self, p: &ParamValues, _s: u64) -> Option<AnalyticBound> {
        let n = p.usize("n");
        Some(AnalyticBound::new(
            outer_product_exact_io(n) as f64,
            format!("Section 3 (exact): 2N loads + N^2 stores with N = {n}"),
        ))
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Achieved by keeping one full input vector resident: row-major
        // sweep holds p_i, all of q, and the current result.
        let n = p.uint("n");
        (s >= n + 2).then(|| {
            AnalyticBound::new(
                outer_product_exact_io(p.usize("n")) as f64,
                format!("row sweep with q resident (needs S >= N + 2, N = {n}, S = {s})"),
            )
        })
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        let n = p.uint("n") as f64;
        Some(n * n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let g = outer_product(4);
        assert_eq!(g.num_vertices(), 8 + 16);
        assert_eq!(g.num_edges(), 32);
        assert_eq!(g.num_inputs(), 8);
        assert_eq!(g.num_outputs(), 16);
        assert!(g.is_hong_kung_form());
    }

    #[test]
    fn every_result_has_two_preds() {
        let g = outer_product(3);
        for v in g.vertices().filter(|&v| !g.is_input(v)) {
            assert_eq!(g.in_degree(v), 2);
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn io_formula() {
        assert_eq!(outer_product_exact_io(10), 120);
        assert_eq!(outer_product_exact_io(1), 3);
    }
}
