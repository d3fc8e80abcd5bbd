//! FFT butterfly-network CDAGs.
//!
//! The `n`-point FFT graph has `log₂ n` stages of `n` vertices; vertex
//! `(s, i)` depends on `(s−1, i)` and `(s−1, i ⊕ 2^{s−1})`. Hong & Kung
//! showed its I/O complexity is `Θ(n·log n / log S)`; the paper's related
//! work (Ranjan–Savage–Zubair) sharpens the constants.

use crate::catalog::{AnalyticBound, Kernel, KernelSchedule, ParamSpec, ParamValues};
use dmc_cdag::topo::complete_order;
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Builds the `n`-point FFT butterfly CDAG (`n` must be a power of two).
/// Inputs: the `n` leaves; outputs: the `n` final-stage vertices.
pub fn fft(n: usize) -> Cdag {
    assert!(
        n.is_power_of_two() && n >= 2,
        "FFT size must be a power of two >= 2"
    );
    let stages = n.trailing_zeros() as usize;
    let mut b = CdagBuilder::with_capacity(n * (stages + 1), 2 * n * stages);
    let mut prev: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
    for s in 1..=stages {
        let stride = 1usize << (s - 1);
        let cur: Vec<VertexId> = (0..n)
            .map(|i| b.add_op(format_args!("f{s}_{i}"), &[prev[i], prev[i ^ stride]]))
            .collect();
        prev = cur;
    }
    for &v in &prev {
        b.tag_output(v);
    }
    b.build_valid("FFT butterfly is acyclic")
}

/// The Hong–Kung style asymptotic I/O lower bound for the `n`-point FFT
/// with `s` fast words: `Ω(n·log n / log s)`, with the classical constant
/// `n·log₂ n / (2·log₂ s)` (valid for `s ≥ 2`).
pub fn fft_io_lower_bound(n: usize, s: u64) -> f64 {
    assert!(s >= 2);
    let n_f = n as f64;
    n_f * n_f.log2() / (2.0 * (s as f64).log2())
}

/// Catalog entry for the FFT butterfly family: `fft(n)` builds [`fft`]
/// and surfaces the Hong–Kung-style `n·log n / (2·log S)` bound.
pub struct FftKernel;

impl Kernel for FftKernel {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn description(&self) -> &'static str {
        "n-point FFT butterfly network (Hong-Kung n·log n/log S family)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[ParamSpec::uint(
            "n",
            "transform size (power of two)",
            2,
            1 << 20,
            16,
        )];
        PARAMS
    }

    fn validate(&self, p: &ParamValues) -> Result<(), String> {
        let n = p.uint("n");
        if n.is_power_of_two() {
            Ok(())
        } else {
            Err(format!("n = {n} must be a power of two"))
        }
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        fft(p.usize("n"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // n vertices per butterfly stage plus the input layer.
        let n = p.uint("n");
        let stages = if n.is_power_of_two() {
            n.trailing_zeros() as u64
        } else {
            64 - n.leading_zeros() as u64
        };
        n.checked_mul(stages + 1)
    }

    fn analytic_lower_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        (s >= 2).then(|| {
            let n = p.usize("n");
            AnalyticBound::new(
                fft_io_lower_bound(n, s),
                format!("Hong-Kung: n·log2(n)/(2·log2(S)) with n = {n}, S = {s}"),
            )
        })
    }

    fn schedule_source(&self, p: &ParamValues, g: &Cdag, s: u64) -> KernelSchedule {
        let n = p.usize("n");
        let stages = n.trailing_zeros() as usize;
        // The classic I/O-efficient factorization: group q consecutive
        // stages with 2^q ≈ S/2, so one 2^q-point sub-butterfly fits in
        // fast memory. Within a stage group [lo, hi] a vertex at stage
        // `st` depends only on indices agreeing outside bit range
        // [lo−1, hi−1], so indices split into independent blocks of
        // 2^(hi−lo+1); each block is swept stage-ascending.
        let q = (s.max(4) / 2).ilog2().min(stages.max(1) as u32) as usize;
        let mut preferred = Vec::with_capacity(n * stages);
        let mut lo = 1usize;
        while lo <= stages {
            let hi = (lo + q - 1).min(stages);
            let width = hi - lo + 1;
            let mask = ((1usize << width) - 1) << (lo - 1);
            for base in (0..n).filter(|i| i & mask == 0) {
                for st in lo..=hi {
                    for k in 0..(1usize << width) {
                        let i = base | (k << (lo - 1));
                        preferred.push(VertexId((st * n + i) as u32));
                    }
                }
            }
            lo = hi + 1;
        }
        KernelSchedule::new(
            complete_order(g, preferred),
            format!("staged sub-transforms ({q} stages per pass), inputs on first use"),
        )
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        let n = p.uint("n") as f64;
        Some(n * n.log2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let g = fft(8);
        assert_eq!(g.num_vertices(), 8 * 4);
        assert_eq!(g.num_edges(), 2 * 8 * 3);
        assert_eq!(g.num_inputs(), 8);
        assert_eq!(g.num_outputs(), 8);
        assert!(g.is_hong_kung_form());
    }

    #[test]
    fn butterfly_connectivity() {
        // Every output depends on every input.
        let g = fft(8);
        let outputs: Vec<_> = g.vertices().filter(|&v| g.is_output(v)).collect();
        for &o in &outputs {
            let anc = dmc_cdag::reach::ancestors(&g, o);
            let input_ancestors = (0..8).filter(|&i| anc.contains(i)).count();
            assert_eq!(input_ancestors, 8, "output {o} must reach all inputs");
        }
    }

    #[test]
    fn every_stage_vertex_has_two_preds() {
        let g = fft(16);
        for v in g.vertices().filter(|&v| !g.is_input(v)) {
            assert_eq!(g.in_degree(v), 2);
        }
    }

    #[test]
    fn lower_bound_shrinks_with_s() {
        assert!(fft_io_lower_bound(1024, 4) > fft_io_lower_bound(1024, 256));
        // n log n / (2 log s) with n = 16, s = 4: 16·4/(2·2) = 16.
        assert!((fft_io_lower_bound(16, 4) - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = fft(12);
    }

    #[test]
    fn schedule_hook_is_topological_across_sizes_and_budgets() {
        use crate::catalog::Registry;
        use dmc_cdag::topo::is_valid_topological_order;
        for n in [2usize, 8, 16, 32] {
            for s in [2u64, 4, 8, 64, 1024] {
                let spec = Registry::shared()
                    .parse(&format!("fft(n={n})"))
                    .expect("valid spec");
                let g = spec.build();
                let sched = spec.schedule_source(&g, s);
                assert_eq!(sched.order.len(), g.num_vertices());
                assert!(
                    is_valid_topological_order(&g, &sched.order),
                    "n={n} S={s}: '{}' not topological",
                    sched.note
                );
            }
        }
    }
}
