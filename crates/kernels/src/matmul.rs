//! Dense matrix-multiplication CDAGs.
//!
//! `C = A·B` for `N×N` matrices is the original Hong–Kung example: its
//! sequential I/O lower bound is `Θ(N³/√S)` — specifically
//! `N³/(2√(2S))` under the 2S-partition argument (Section 3 of the paper
//! cites `N³/2√(2S)`; see also Irony–Toledo–Tiskin).

use crate::catalog::{AnalyticBound, Kernel, KernelSchedule, ParamSpec, ParamValues};
use crate::vecops::reduce_tree;
use dmc_cdag::topo::complete_order;
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Builds the CDAG of `C = A·B` for `n×n` matrices with per-element
/// multiply vertices and balanced-tree accumulations:
/// `2n²` inputs, `n³` multiplies, `n²(n−1)` adds, outputs on the `n²`
/// accumulation roots.
pub fn matmul(n: usize) -> Cdag {
    assert!(n >= 1);
    let mut b = CdagBuilder::with_capacity(2 * n * n + n * n * n * 2, 4 * n * n * n);
    let a: Vec<VertexId> = (0..n * n)
        .map(|k| b.add_input(format_args!("A{}_{}", k / n, k % n)))
        .collect();
    let bb: Vec<VertexId> = (0..n * n)
        .map(|k| b.add_input(format_args!("B{}_{}", k / n, k % n)))
        .collect();
    for i in 0..n {
        for j in 0..n {
            let prods: Vec<VertexId> = (0..n)
                .map(|k| b.add_op(format_args!("m{i}_{j}_{k}"), &[a[i * n + k], bb[k * n + j]]))
                .collect();
            let c = reduce_tree(&mut b, &prods, &format!("C{i}_{j}"));
            b.tag_output(c);
        }
    }
    b.build_valid("matmul is acyclic")
}

/// Builds the matmul CDAG with *sequential* (chain) accumulation instead of
/// balanced trees — the textbook triple loop. Same asymptotic I/O, deeper
/// critical path; used by the ablation benches.
pub fn matmul_chain_accumulate(n: usize) -> Cdag {
    assert!(n >= 1);
    let mut b = CdagBuilder::with_capacity(2 * n * n + 2 * n * n * n, 4 * n * n * n);
    let a: Vec<VertexId> = (0..n * n)
        .map(|k| b.add_input(format_args!("A{}_{}", k / n, k % n)))
        .collect();
    let bb: Vec<VertexId> = (0..n * n)
        .map(|k| b.add_input(format_args!("B{}_{}", k / n, k % n)))
        .collect();
    for i in 0..n {
        for j in 0..n {
            let mut acc: Option<VertexId> = None;
            for k in 0..n {
                let m = b.add_op(format_args!("m{i}_{j}_{k}"), &[a[i * n + k], bb[k * n + j]]);
                acc = Some(match acc {
                    None => m,
                    Some(prev) => b.add_op(format_args!("s{i}_{j}_{k}"), &[prev, m]),
                });
            }
            // dmc-lint: allow(s1) -- the inner reduction loop runs n >= 1 times (asserted at entry), so acc is Some
            b.tag_output(acc.expect("n >= 1"));
        }
    }
    b.build_valid("matmul is acyclic")
}

/// The asymptotic sequential I/O lower bound for `n×n` matmul with `s` fast
/// words: `n³ / (2·√(2s))` (paper Section 3, after Hong–Kung / Irony et
/// al.).
pub fn matmul_io_lower_bound(n: usize, s: u64) -> f64 {
    let n = n as f64;
    n * n * n / (2.0 * (2.0 * s as f64).sqrt())
}

/// Output-tile side for a blocked sweep at capacity `s`: a `b×b` tile of
/// `C` touches `b` rows of `A` and `b` columns of `B`, so `b ≈ √(S/2)`
/// amortizes the tile's A/B traffic. Shared by the matmul and composite
/// schedule hooks.
pub(crate) fn block_side(s: u64, n: usize) -> usize {
    (((s / 2) as f64).sqrt().floor() as usize).clamp(1, n)
}

/// Blocked sweep over `n×n` output elements: emits, tile by tile (`b×b`
/// output elements, row-major within a tile), the `block`-vertex id range
/// of each element, laid out consecutively from `base + (i·n + j)·block`.
/// The traversal behind the matmul and composite schedule hooks — feed it
/// to [`dmc_cdag::topo::complete_order`] to pull inputs (and any other
/// ancestors) in on first use.
pub(crate) fn blocked_output_sweep(n: usize, b: usize, base: usize, block: usize) -> Vec<VertexId> {
    let mut preferred = Vec::with_capacity(n * n * block);
    for bi in (0..n).step_by(b) {
        for bj in (0..n).step_by(b) {
            for i in bi..(bi + b).min(n) {
                for j in bj..(bj + b).min(n) {
                    let start = base + (i * n + j) * block;
                    preferred.extend((start..start + block).map(|k| VertexId(k as u32)));
                }
            }
        }
    }
    preferred
}

/// Catalog entry for dense matmul: `matmul(n,accumulate)` builds
/// [`matmul`] (balanced-tree accumulation) or
/// [`matmul_chain_accumulate`], and surfaces the `N³/(2√(2S))` bound.
pub struct MatmulKernel;

impl Kernel for MatmulKernel {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn description(&self) -> &'static str {
        "dense n x n matrix multiplication (Hong-Kung N^3/(2*sqrt(2S)) example)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("n", "matrix extent", 1, 256, 6),
            ParamSpec::choice(
                "accumulate",
                "inner-product accumulation shape",
                &["tree", "chain"],
                "tree",
            ),
        ];
        PARAMS
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        p.uint("n").checked_pow(3).and_then(|v| v.checked_mul(2))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        match p.choice("accumulate") {
            "chain" => matmul_chain_accumulate(p.usize("n")),
            _ => matmul(p.usize("n")),
        }
    }

    fn analytic_lower_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let n = p.usize("n");
        Some(AnalyticBound::new(
            matmul_io_lower_bound(n, s),
            format!("Hong-Kung/Irony et al.: n^3/(2·sqrt(2S)) with n = {n}, S = {s}"),
        ))
    }

    fn schedule_source(&self, p: &ParamValues, g: &Cdag, s: u64) -> KernelSchedule {
        let n = p.usize("n");
        let b = block_side(s, n);
        // Both accumulation shapes lay each C element's subgraph out as
        // 2n−1 consecutive vertices after the 2n² inputs (n products,
        // then n−1 accumulations) — see [`matmul`] /
        // [`matmul_chain_accumulate`].
        let preferred = blocked_output_sweep(n, b, 2 * n * n, 2 * n - 1);
        KernelSchedule::new(
            complete_order(g, preferred),
            format!("blocked C-output sweep ({b}x{b} tiles), inputs on first use"),
        )
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        // n^3 multiplies + n^2(n-1) adds.
        let n = p.uint("n") as f64;
        Some(2.0 * n * n * n - n * n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape() {
        let n = 3;
        let g = matmul(n);
        // 2n² inputs + n³ mults + n²(n−1) adds.
        assert_eq!(g.num_vertices(), 2 * n * n + n * n * n + n * n * (n - 1));
        assert_eq!(g.num_inputs(), 2 * n * n);
        assert_eq!(g.num_outputs(), n * n);
        assert!(g.is_hong_kung_form());
    }

    #[test]
    fn chain_shape_matches_tree_vertex_count() {
        let n = 4;
        let t = matmul(n);
        let c = matmul_chain_accumulate(n);
        assert_eq!(t.num_vertices(), c.num_vertices());
        assert_eq!(t.num_inputs(), c.num_inputs());
        assert_eq!(t.num_outputs(), c.num_outputs());
        // Chain accumulation has a longer critical path.
        assert!(dmc_cdag::topo::critical_path_len(&c) >= dmc_cdag::topo::critical_path_len(&t));
    }

    #[test]
    fn every_input_feeds_n_products() {
        let n = 3;
        let g = matmul(n);
        for v in g.vertices().filter(|&v| g.is_input(v)) {
            assert_eq!(g.out_degree(v), n, "each A/B element used n times");
        }
    }

    #[test]
    fn lower_bound_decreases_with_s() {
        assert!(matmul_io_lower_bound(64, 8) > matmul_io_lower_bound(64, 512));
        let expected = 64f64.powi(3) / (2.0 * (16.0f64).sqrt());
        assert!((matmul_io_lower_bound(64, 8) - expected).abs() < 1e-9);
    }

    #[test]
    fn n_equals_one() {
        let g = matmul(1);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_outputs(), 1);
    }

    #[test]
    fn schedule_hook_is_topological_for_both_accumulations() {
        use crate::catalog::Registry;
        use dmc_cdag::topo::is_valid_topological_order;
        for acc in ["tree", "chain"] {
            for s in [2u64, 8, 32] {
                let spec = Registry::shared()
                    .parse(&format!("matmul(n=4,accumulate={acc})"))
                    .expect("valid spec");
                let g = spec.build();
                let sched = spec.schedule_source(&g, s);
                assert_eq!(sched.order.len(), g.num_vertices());
                assert!(
                    is_valid_topological_order(&g, &sched.order),
                    "{acc} S={s}: '{}' not topological",
                    sched.note
                );
                assert!(sched.note.contains("blocked"), "{}", sched.note);
            }
        }
    }
}
