//! Vector-operation CDAG fragments: reduction trees, dot products, saxpy.
//!
//! These are both standalone kernels and the building blocks the CG/GMRES
//! generators compose (one iteration of CG is one SpMV + three dot products
//! + three saxpies, Figure 3 of the paper).

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Appends a balanced binary reduction over `items` to `b`; returns the
/// root vertex. Single-item reductions return the item unchanged.
pub fn reduce_tree(b: &mut CdagBuilder, items: &[VertexId], tag: &str) -> VertexId {
    assert!(!items.is_empty(), "cannot reduce an empty sequence");
    let mut frontier = items.to_vec();
    let mut level = 0;
    while frontier.len() > 1 {
        level += 1;
        frontier = frontier
            .chunks(2)
            .enumerate()
            .map(|(i, pair)| {
                if pair.len() == 2 {
                    b.add_op(format_args!("{tag}+L{level}_{i}"), pair)
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    frontier[0]
}

/// Appends a dot product `⟨x, y⟩`: elementwise multiplies then a reduction
/// tree; returns the scalar result vertex. When `x[i] == y[i]` (a squared
/// norm) the duplicate edge is collapsed by the builder's dedup pass if
/// enabled, or kept as a 2-edge multiply otherwise.
pub fn dot(b: &mut CdagBuilder, x: &[VertexId], y: &[VertexId], tag: &str) -> VertexId {
    assert_eq!(x.len(), y.len(), "dot product of unequal lengths");
    let prods: Vec<VertexId> = x
        .iter()
        .zip(y)
        .enumerate()
        .map(|(i, (&a, &c))| {
            if a == c {
                b.add_op(format_args!("{tag}*sq{i}"), &[a])
            } else {
                b.add_op(format_args!("{tag}*{i}"), &[a, c])
            }
        })
        .collect();
    reduce_tree(b, &prods, tag)
}

/// Appends a fused `z_i = x_i + s·y_i` (saxpy); returns the result vector.
pub fn saxpy(
    b: &mut CdagBuilder,
    x: &[VertexId],
    s: VertexId,
    y: &[VertexId],
    tag: &str,
) -> Vec<VertexId> {
    assert_eq!(x.len(), y.len(), "saxpy of unequal lengths");
    x.iter()
        .zip(y)
        .enumerate()
        .map(|(i, (&a, &c))| b.add_op(format_args!("{tag}{i}"), &[a, s, c]))
        .collect()
}

/// Appends an elementwise scale `z_i = x_i · s`; returns the result vector.
pub fn scale(b: &mut CdagBuilder, x: &[VertexId], s: VertexId, tag: &str) -> Vec<VertexId> {
    x.iter()
        .enumerate()
        .map(|(i, &a)| b.add_op(format_args!("{tag}{i}"), &[a, s]))
        .collect()
}

/// A standalone dot-product CDAG over two input vectors of length `n`.
pub fn dot_product_cdag(n: usize) -> Cdag {
    let mut b = CdagBuilder::new();
    let x: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
    let y: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("y{i}"))).collect();
    let r = dot(&mut b, &x, &y, "xy");
    b.tag_output(r);
    b.build_valid("dot product is acyclic")
}

/// A standalone saxpy CDAG `z = x + s·y` over inputs of length `n`.
pub fn saxpy_cdag(n: usize) -> Cdag {
    let mut b = CdagBuilder::new();
    let x: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
    let y: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("y{i}"))).collect();
    let s = b.add_input("s");
    let z = saxpy(&mut b, &x, s, &y, "z");
    for v in z {
        b.tag_output(v);
    }
    b.build_valid("saxpy is acyclic")
}

/// Catalog entry for the standalone dot product: `dot(n)` builds
/// [`dot_product_cdag`].
pub struct DotProductKernel;

impl Kernel for DotProductKernel {
    fn name(&self) -> &'static str {
        "dot"
    }

    fn description(&self) -> &'static str {
        "dot product <x, y> over two n-vectors (multiplies + reduction tree)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint("n", "vector length", 1, 1 << 20, 8)];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        dot_product_cdag(p.usize("n"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // 2n inputs, n multiplies, ~n−1 tree adds.
        p.uint("n").checked_mul(4)
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Left-to-right over the balanced tree: one partial per level plus
        // the two operands of the current multiply.
        let n = p.uint("n");
        let depth = 64 - n.leading_zeros() as u64; // ceil(log2(n)) + 1-ish
        (s >= depth + 3).then(|| {
            AnalyticBound::new(
                (2 * n + 1) as f64,
                format!("streaming reduction: 2n loads + 1 store, n = {n}"),
            )
        })
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        Some(2.0 * p.uint("n") as f64 - 1.0)
    }
}

/// Catalog entry for the standalone saxpy: `saxpy(n)` builds
/// [`saxpy_cdag`].
pub struct SaxpyKernel;

impl Kernel for SaxpyKernel {
    fn name(&self) -> &'static str {
        "saxpy"
    }

    fn description(&self) -> &'static str {
        "fused z = x + s·y over n-vectors"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint("n", "vector length", 1, 1 << 20, 8)];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        saxpy_cdag(p.usize("n"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // 2n + 1 inputs, n fused ops.
        p.uint("n").checked_mul(3).and_then(|v| v.checked_add(1))
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Stream x and y with the scalar resident: 2n + 1 loads, n stores.
        let n = p.uint("n");
        (s >= 4).then(|| {
            AnalyticBound::new(
                (3 * n + 1) as f64,
                format!("streaming: 2n + 1 loads + n stores, n = {n} (S >= 4)"),
            )
        })
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        Some(2.0 * p.uint("n") as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_tree_sizes() {
        // n leaves -> n-1 internal adds, also for non-powers of two.
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut b = CdagBuilder::new();
            let xs: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
            let root = reduce_tree(&mut b, &xs, "s");
            let g = b.build().unwrap();
            assert_eq!(g.num_vertices(), n + n.saturating_sub(1), "n = {n}");
            if n > 1 {
                assert_eq!(g.in_degree(root), 2);
            }
        }
    }

    #[test]
    fn dot_product_shape() {
        let g = dot_product_cdag(8);
        // 16 inputs + 8 mults + 7 adds.
        assert_eq!(g.num_vertices(), 31);
        assert_eq!(g.num_inputs(), 16);
        assert_eq!(g.num_outputs(), 1);
        assert!(g.is_hong_kung_form());
    }

    #[test]
    fn self_dot_uses_single_pred() {
        let mut b = CdagBuilder::new();
        let x: Vec<VertexId> = (0..4).map(|i| b.add_input(format_args!("x{i}"))).collect();
        let r = dot(&mut b, &x.clone(), &x, "rr");
        b.tag_output(r);
        let g = b.build().unwrap();
        // Square vertices have in-degree 1.
        assert_eq!(g.in_degree(VertexId(4)), 1);
    }

    #[test]
    fn saxpy_shape() {
        let g = saxpy_cdag(6);
        // 13 inputs (x, y, s) + 6 fused ops.
        assert_eq!(g.num_vertices(), 19);
        assert_eq!(g.num_outputs(), 6);
        // Every output depends on x_i, s, y_i.
        assert_eq!(g.in_degree(VertexId(13)), 3);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_reduction_panics() {
        let mut b = CdagBuilder::new();
        reduce_tree(&mut b, &[], "s");
    }
}
