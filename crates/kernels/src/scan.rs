//! Parallel-prefix (scan) network CDAGs.
//!
//! Prefix sums are the canonical example of a work/depth/I-O trade-off:
//! the sequential scan is work-optimal (`n−1` ops) but depth `n`, while
//! Sklansky's divide-and-conquer network halves the depth to `log₂ n` at
//! the cost of `Θ(n log n)` work and fan-out. Both shapes stress the
//! lower-bound machinery differently (chains vs high-fan-out layers), and
//! the pair forms a natural work-vs-wavefront ablation.

use crate::catalog::{Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Sequential (chain) inclusive scan over `n` inputs: `n−1` adds, depth
/// `n`, every prefix tagged as an output.
pub fn sequential_scan(n: usize) -> Cdag {
    assert!(n >= 1);
    let mut b = CdagBuilder::with_capacity(2 * n, 2 * n);
    let xs: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
    let mut acc = xs[0];
    b.tag_output(acc);
    for (i, &x) in xs.iter().enumerate().skip(1) {
        acc = b.add_op(format_args!("s{i}"), &[acc, x]);
        b.tag_output(acc);
    }
    b.build_valid("scan chain is acyclic")
}

/// Sklansky's minimum-depth inclusive scan over `n = 2^k` inputs:
/// depth `log₂ n`, `(n/2)·log₂ n` adds, outputs on all `n` prefixes.
pub fn sklansky_scan(n: usize) -> Cdag {
    assert!(n.is_power_of_two() && n >= 2);
    let mut b = CdagBuilder::with_capacity(n * 2, n * 2);
    let mut cur: Vec<VertexId> = (0..n).map(|i| b.add_input(format_args!("x{i}"))).collect();
    let stages = n.trailing_zeros() as usize;
    for s in 0..stages {
        let block = 1usize << (s + 1);
        let half = block / 2;
        let mut next = cur.clone();
        for start in (0..n).step_by(block) {
            let pivot = cur[start + half - 1];
            for i in (start + half)..(start + block) {
                next[i] = b.add_op(format_args!("p{s}_{i}"), &[pivot, cur[i]]);
            }
        }
        cur = next;
    }
    for &v in &cur {
        b.tag_output(v);
    }
    b.build_valid("Sklansky network is acyclic")
}

/// Catalog entry for the prefix-sum networks: `scan(n,kind)` builds
/// [`sequential_scan`] (`kind=seq`) or [`sklansky_scan`]
/// (`kind=sklansky`, `n` a power of two).
pub struct ScanKernel;

impl Kernel for ScanKernel {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn description(&self) -> &'static str {
        "inclusive prefix sum: sequential chain or Sklansky minimum-depth network"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint(
                "n",
                "input count (power of two for sklansky)",
                1,
                1 << 20,
                8,
            ),
            ParamSpec::choice("kind", "network shape", &["seq", "sklansky"], "seq"),
        ];
        PARAMS
    }

    fn validate(&self, p: &ParamValues) -> Result<(), String> {
        let n = p.uint("n");
        if p.choice("kind") == "sklansky" && (!n.is_power_of_two() || n < 2) {
            return Err(format!(
                "n = {n} must be a power of two >= 2 for kind=sklansky"
            ));
        }
        Ok(())
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let n = p.uint("n");
        if p.choice("kind") == "sklansky" {
            // n inputs + (n/2)·log2(n) internal adds.
            let stages = if n.is_power_of_two() {
                n.trailing_zeros() as u64
            } else {
                64 - n.leading_zeros() as u64
            };
            (n / 2)
                .checked_mul(stages)
                .and_then(|adds| adds.checked_add(n))
        } else {
            // n inputs + n − 1 sequential adds.
            n.checked_mul(2)
        }
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        match p.choice("kind") {
            "sklansky" => sklansky_scan(p.usize("n")),
            _ => sequential_scan(p.usize("n")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::reach::ancestors;
    use dmc_cdag::topo::critical_path_len;

    #[test]
    fn sequential_shape() {
        let g = sequential_scan(8);
        assert_eq!(g.num_vertices(), 8 + 7);
        assert_eq!(g.num_outputs(), 8);
        assert_eq!(critical_path_len(&g), 8);
    }

    #[test]
    fn sklansky_shape() {
        let n = 8;
        let g = sklansky_scan(n);
        // (n/2)·log2(n) adds.
        assert_eq!(g.num_vertices(), n + n / 2 * 3);
        assert_eq!(g.num_outputs(), n);
        assert_eq!(critical_path_len(&g), 1 + 3);
    }

    #[test]
    fn both_compute_all_prefixes() {
        // Output k must depend on exactly inputs 0..=k.
        for g in [sequential_scan(8), sklansky_scan(8)] {
            let outputs: Vec<_> = g.vertices().filter(|&v| g.is_output(v)).collect();
            assert_eq!(outputs.len(), 8);
            // Sort outputs by their input-ancestor count; the k-th prefix
            // has k+1 input ancestors (counting itself if it is an input).
            let mut counts: Vec<usize> = outputs
                .iter()
                .map(|&o| {
                    let mut anc = ancestors(&g, o);
                    anc.insert(o.index());
                    (0..g.num_vertices())
                        .filter(|&i| g.is_input(dmc_cdag::VertexId(i as u32)) && anc.contains(i))
                        .count()
                })
                .collect();
            counts.sort_unstable();
            assert_eq!(counts, (1..=8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sklansky_trades_work_for_depth() {
        let n = 32;
        let seq = sequential_scan(n);
        let skl = sklansky_scan(n);
        assert!(skl.num_compute_vertices() > seq.num_compute_vertices());
        assert!(critical_path_len(&skl) < critical_path_len(&seq));
    }

    #[test]
    #[should_panic(expected = "power_of_two")]
    fn sklansky_rejects_non_power() {
        let _ = sklansky_scan(12);
    }
}
