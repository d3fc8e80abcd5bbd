//! Small synthetic CDAG shapes with hand-computable optimal I/O, used to
//! validate the pebble-game engines and lower-bound machinery.

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// A simple chain `x_0 → x_1 → … → x_{k-1}` with `x_0` an input and the
/// last vertex an output. Optimal Hong–Kung I/O with `S ≥ 2` pebbles is
/// exactly 2 (load the input, store the output).
pub fn chain(k: usize) -> Cdag {
    assert!(k >= 1);
    let mut b = CdagBuilder::with_capacity(k, k.saturating_sub(1));
    let mut prev = b.add_input("x0");
    for i in 1..k {
        prev = b.add_op(format_args!("x{i}"), &[prev]);
    }
    b.tag_output(prev);
    b.build_valid("chain is acyclic")
}

/// The 4-vertex diamond `a → {b, c} → d`.
pub fn diamond() -> Cdag {
    let mut b = CdagBuilder::new();
    let a = b.add_input("a");
    let x = b.add_op("b", &[a]);
    let y = b.add_op("c", &[a]);
    let d = b.add_op("d", &[x, y]);
    b.tag_output(d);
    b.build_valid("diamond is acyclic")
}

/// A complete binary reduction tree over `leaves` inputs (`leaves` must be
/// a power of two); the root is the only output. `2·leaves − 1` vertices.
pub fn binary_reduction(leaves: usize) -> Cdag {
    assert!(leaves.is_power_of_two() && leaves >= 1);
    let mut b = CdagBuilder::with_capacity(2 * leaves - 1, 2 * (leaves - 1));
    let mut frontier: Vec<VertexId> = (0..leaves)
        .map(|i| b.add_input(format_args!("x{i}")))
        .collect();
    let mut level = 0;
    while frontier.len() > 1 {
        level += 1;
        frontier = frontier
            .chunks(2)
            .enumerate()
            .map(|(i, pair)| b.add_op(format_args!("s{level}_{i}"), pair))
            .collect();
    }
    b.tag_output(frontier[0]);
    b.build_valid("reduction tree is acyclic")
}

/// `k` completely independent chains of length `len` — the canonical case
/// where CDAG decomposition (Theorem 2) is exact: total I/O is the sum of
/// per-chain I/O.
pub fn independent_chains(k: usize, len: usize) -> Cdag {
    let mut b = CdagBuilder::with_capacity(k * len, k * (len - 1));
    for c in 0..k {
        let mut prev = b.add_input(format_args!("c{c}_x0"));
        for i in 1..len {
            prev = b.add_op(format_args!("c{c}_x{i}"), &[prev]);
        }
        b.tag_output(prev);
    }
    b.build_valid("chains are acyclic")
}

/// A 2-D dependence ladder of width `w` and height `h`: vertex `(i, j)`
/// depends on `(i-1, j)` and `(i, j-1)`. Row 0 are inputs, the final
/// corner is the output. This is the classic "diamond DAG".
pub fn ladder(w: usize, h: usize) -> Cdag {
    assert!(w >= 1 && h >= 1);
    let mut b = CdagBuilder::with_capacity(w * h, 2 * w * h);
    let mut ids = vec![VertexId(0); w * h];
    for j in 0..h {
        for i in 0..w {
            let mut preds = Vec::with_capacity(2);
            if i > 0 {
                preds.push(ids[j * w + i - 1]);
            }
            if j > 0 {
                preds.push(ids[(j - 1) * w + i]);
            }
            let v = if preds.is_empty() {
                b.add_input("g0_0")
            } else {
                b.add_op(format_args!("g{i}_{j}"), &preds)
            };
            ids[j * w + i] = v;
        }
    }
    b.tag_output(ids[w * h - 1]);
    b.build_valid("ladder is acyclic")
}

/// The "shared value" two-stage graph used to demonstrate why sub-DAG
/// bounds cannot simply be added under the Hong–Kung model: stage 1
/// computes `m` values from one input; stage 2 consumes all of them.
pub fn two_stage(m: usize) -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.add_input("x");
    let stage1: Vec<VertexId> = (0..m)
        .map(|i| b.add_op(format_args!("f{i}"), &[x]))
        .collect();
    let out = b.add_op("g", &stage1);
    b.tag_output(out);
    b.build_valid("two-stage is acyclic")
}

/// Catalog entry for [`chain`]: `chain(k)`.
pub struct ChainKernel;

impl Kernel for ChainKernel {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn description(&self) -> &'static str {
        "single dependence chain of k vertices (optimal I/O = 2)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint("k", "chain length", 1, 1 << 20, 8)];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        chain(p.usize("k"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        Some(p.uint("k"))
    }

    fn analytic_upper_bound(&self, _p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        (s >= 2).then(|| AnalyticBound::new(2.0, "load the input, store the output (S >= 2)"))
    }
}

/// Catalog entry for [`diamond`]: `diamond` (no parameters).
pub struct DiamondKernel;

impl Kernel for DiamondKernel {
    fn name(&self) -> &'static str {
        "diamond"
    }

    fn description(&self) -> &'static str {
        "the 4-vertex diamond a -> {b,c} -> d"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }

    fn build(&self, _p: &ParamValues) -> Cdag {
        diamond()
    }

    fn approx_vertices(&self, _p: &ParamValues) -> Option<u64> {
        Some(4)
    }

    fn analytic_upper_bound(&self, _p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        (s >= 3).then(|| AnalyticBound::new(2.0, "load a, store d (S >= 3)"))
    }
}

/// Catalog entry for [`binary_reduction`]: `reduction(leaves)`.
pub struct ReductionKernel;

impl Kernel for ReductionKernel {
    fn name(&self) -> &'static str {
        "reduction"
    }

    fn description(&self) -> &'static str {
        "complete binary reduction tree over `leaves` inputs"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint(
            "leaves",
            "input count (power of two)",
            1,
            1 << 20,
            16,
        )];
        PARAMS
    }

    fn validate(&self, p: &ParamValues) -> Result<(), String> {
        let leaves = p.uint("leaves");
        if leaves.is_power_of_two() {
            Ok(())
        } else {
            Err(format!("leaves = {leaves} must be a power of two"))
        }
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        binary_reduction(p.usize("leaves"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // A complete binary tree over `leaves` inputs: 2·leaves − 1.
        p.uint("leaves").checked_mul(2)
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Depth-first left-to-right holds at most one partial per level.
        let leaves = p.uint("leaves");
        let depth = leaves.trailing_zeros() as u64;
        (s >= depth + 2).then(|| {
            AnalyticBound::new(
                (leaves + 1) as f64,
                format!("depth-first sweep: {leaves} loads + 1 store (needs S >= depth + 2)"),
            )
        })
    }
}

/// Catalog entry for [`independent_chains`]: `chains(k,len)`.
pub struct IndependentChainsKernel;

impl Kernel for IndependentChainsKernel {
    fn name(&self) -> &'static str {
        "chains"
    }

    fn description(&self) -> &'static str {
        "k independent chains of length len (Theorem-2 decomposition is exact)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("k", "number of chains", 1, 4096, 3),
            ParamSpec::uint("len", "length of each chain", 1, 4096, 4),
        ];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        independent_chains(p.usize("k"), p.usize("len"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        p.uint("k").checked_mul(p.uint("len"))
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let k = p.uint("k");
        (s >= 2).then(|| AnalyticBound::new((2 * k) as f64, format!("2 I/Os per chain, k = {k}")))
    }
}

/// Catalog entry for [`ladder`]: `ladder(w,h)`.
pub struct LadderKernel;

impl Kernel for LadderKernel {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn description(&self) -> &'static str {
        "w x h dependence ladder (the classic diamond DAG)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("w", "ladder width", 1, 4096, 6),
            ParamSpec::uint("h", "ladder height", 1, 4096, 6),
        ];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        ladder(p.usize("w"), p.usize("h"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        p.uint("w").checked_mul(p.uint("h"))
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Row-major sweep keeps the previous row's live suffix resident.
        let w = p.uint("w");
        (s >= w + 2).then(|| {
            AnalyticBound::new(
                2.0,
                format!("row sweep with one row resident (needs S >= w + 2, w = {w})"),
            )
        })
    }
}

/// Catalog entry for [`two_stage`]: `two_stage(m)`.
pub struct TwoStageKernel;

impl Kernel for TwoStageKernel {
    fn name(&self) -> &'static str {
        "two_stage"
    }

    fn description(&self) -> &'static str {
        "shared-value two-stage graph (why Hong-Kung sub-DAG bounds cannot be added)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint("m", "stage-1 fan-out", 1, 1 << 20, 5)];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        two_stage(p.usize("m"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // x, m stage-1 values, g.
        p.uint("m").checked_add(2)
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let m = p.uint("m");
        (s > m).then(|| {
            AnalyticBound::new(
                2.0,
                format!("load x, hold all {m} stage-1 values, store g (needs S >= m + 1)"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain(10);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.num_inputs(), 1);
        assert_eq!(g.num_outputs(), 1);
        assert!(g.is_hong_kung_form());
    }

    #[test]
    fn binary_reduction_shape() {
        let g = binary_reduction(8);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.num_inputs(), 8);
        assert_eq!(g.num_outputs(), 1);
        assert_eq!(dmc_cdag::topo::critical_path_len(&g), 4);
    }

    #[test]
    fn independent_chains_shape() {
        let g = independent_chains(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_inputs(), 3);
        assert_eq!(g.num_outputs(), 3);
    }

    #[test]
    fn ladder_shape() {
        let g = ladder(3, 3);
        assert_eq!(g.num_vertices(), 9);
        // Edges: horizontal 2 per row * 3 rows + vertical 3 per col * 2.
        assert_eq!(g.num_edges(), 12);
        assert_eq!(dmc_cdag::topo::critical_path_len(&g), 5);
    }

    #[test]
    fn two_stage_shape() {
        let g = two_stage(5);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 10);
        let out = VertexId(6);
        assert_eq!(g.in_degree(out), 5);
    }
}
