//! r-pyramid CDAGs (Ranjan–Savage–Zubair, cited as \[20\] by the paper).
//!
//! A 2-pyramid of height `h` is the triangular reduction: level 0 has
//! `h+1` vertices, level `k` has `h+1−k`, and vertex `(k, i)` depends on
//! `(k−1, i)` and `(k−1, i+1)`. The r-pyramid generalizes to `r`
//! predecessors per vertex.

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Builds an `r`-pyramid of height `h`: level `k` has `r·(h−k) + 1`
/// vertices; vertex `(k, i)` depends on `(k−1, i), …, (k−1, i+r)`.
/// The apex is the unique output; level-0 vertices are the inputs.
pub fn pyramid(r: usize, h: usize) -> Cdag {
    assert!(r >= 1 && h >= 1);
    let base = r * h + 1;
    let mut b = CdagBuilder::with_capacity(base * (h + 1), base * h * r);
    let mut prev: Vec<VertexId> = (0..base)
        .map(|i| b.add_input(format_args!("p0_{i}")))
        .collect();
    for k in 1..=h {
        let width = r * (h - k) + 1;
        let cur: Vec<VertexId> = (0..width)
            .map(|i| {
                let preds: Vec<VertexId> = (0..=r).map(|off| prev[i + off]).collect();
                b.add_op(format_args!("p{k}_{i}"), &preds)
            })
            .collect();
        prev = cur;
    }
    debug_assert_eq!(prev.len(), 1);
    b.tag_output(prev[0]);
    b.build_valid("pyramid is acyclic")
}

/// Ranjan–Savage–Zubair style I/O lower bound for pebbling an r-pyramid of
/// height `h` with `s` pebbles: `Ω(r·h² / s)` once `h ≫ s` — we use the
/// conservative constant `r·h²/(8·s)` suitable for bound sandwiches.
pub fn pyramid_io_lower_bound(r: usize, h: usize, s: u64) -> f64 {
    (r as f64) * (h as f64) * (h as f64) / (8.0 * s as f64)
}

/// Catalog entry for the r-pyramid family: `pyramid(r,h)` builds
/// [`pyramid`] and surfaces the Ranjan–Savage–Zubair-style bound.
pub struct PyramidKernel;

impl Kernel for PyramidKernel {
    fn name(&self) -> &'static str {
        "pyramid"
    }

    fn description(&self) -> &'static str {
        "r-pyramid reduction of height h (Ranjan-Savage-Zubair family)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("r", "predecessors per vertex", 1, 16, 2),
            ParamSpec::uint("h", "pyramid height", 1, 4096, 8),
        ];
        PARAMS
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        pyramid(p.usize("r"), p.usize("h"))
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let (r, h) = (p.uint("r"), p.uint("h"));
        // Levels 0..=h of width r(h-k)+1: ~ (h+1)(rh/2 + 1) vertices.
        r.checked_mul(h)
            .and_then(|rh| rh.checked_add(2))
            .and_then(|base| base.checked_mul(h + 1))
    }

    fn analytic_lower_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let (r, h) = (p.usize("r"), p.usize("h"));
        Some(AnalyticBound::new(
            pyramid_io_lower_bound(r, h, s),
            format!("Ranjan-Savage-Zubair style: r·h^2/(8S) with r = {r}, h = {h}, S = {s}"),
        ))
    }

    fn analytic_upper_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        // Level-by-level left-to-right with the live window resident:
        // load the r·h + 1 base values once, store the apex.
        let (r, h) = (p.uint("r"), p.uint("h"));
        let base = r * h + 1;
        (s > base).then(|| {
            AnalyticBound::new(
                (base + 1) as f64,
                format!(
                    "level sweep with base resident (needs S >= {}, S = {s})",
                    base + 1
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pyramid_shape() {
        let g = pyramid(2, 3);
        // Levels: 7, 5, 3, 1 vertices.
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.num_inputs(), 7);
        assert_eq!(g.num_outputs(), 1);
        assert_eq!(dmc_cdag::topo::critical_path_len(&g), 4);
    }

    #[test]
    fn one_pyramid_is_triangle() {
        let g = pyramid(1, 4);
        assert_eq!(g.num_inputs(), 5);
        // Every op has exactly 2 predecessors.
        for v in g.vertices().filter(|&v| !g.is_input(v)) {
            assert_eq!(g.in_degree(v), 2);
        }
    }

    #[test]
    fn apex_reaches_all_inputs() {
        let g = pyramid(2, 4);
        let apex = g.vertices().find(|&v| g.is_output(v)).unwrap();
        let anc = dmc_cdag::reach::ancestors(&g, apex);
        assert_eq!(
            (0..g.num_vertices()).filter(|&i| anc.contains(i)).count(),
            g.num_vertices() - 1
        );
    }

    #[test]
    fn bound_grows_with_height() {
        assert!(pyramid_io_lower_bound(2, 100, 16) > pyramid_io_lower_bound(2, 50, 16));
    }
}
