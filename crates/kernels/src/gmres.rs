//! GMRES iteration CDAGs (paper Figure 4, Theorem 9).
//!
//! Each outer iteration `i` of modified-Gram–Schmidt GMRES performs:
//!
//! 1. `w ← A·v_i`                         — SpMV;
//! 2. `h_{j,i} ← ⟨w, v_j⟩` for `j ≤ i`    — `i+1` dot products;
//! 3. `v' ← w − Σ_j h_{j,i}·v_j`          — saxpy chain;
//! 4. `h_{i+1,i} ← ‖v'‖₂`                 — the vertex `υ_y` of Theorem 9;
//! 5. `v_{i+1} ← v' / h_{i+1,i}`          — elementwise scale.
//!
//! The marked `υ_x` of Theorem 9 is the last inner product `h_{i,i}`
//! (reduction over `w` and `v_i`, both of which have disjoint paths into
//! the saxpy of step 3).

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues, ProfileContext};
use crate::grid::{Grid, Stencil};
use crate::profile::{gmres_profile, AlgorithmProfile};
use crate::vecops::{dot, scale};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Handles to the analytically-marked vertices of one GMRES iteration.
#[derive(Debug, Clone)]
pub struct GmresIterationMarks {
    /// The final inner product `h_{i,i} = ⟨w, v_i⟩` — Theorem 9's `υ_x`.
    pub upsilon_x: VertexId,
    /// The norm `h_{i+1,i} = ‖v'_{i+1}‖` — Theorem 9's `υ_y`.
    pub upsilon_y: VertexId,
}

/// A GMRES CDAG plus marked vertices.
#[derive(Debug, Clone)]
pub struct GmresCdag {
    /// The full CDAG over `m` iterations.
    pub cdag: Cdag,
    /// Marked scalars per iteration.
    pub marks: Vec<GmresIterationMarks>,
    /// Grid geometry.
    pub grid: Grid,
    /// Krylov dimension `m`.
    pub iterations: usize,
}

/// Builds the CDAG of `m` modified-Gram–Schmidt GMRES iterations on an
/// `n^d` grid. Inputs: `v_0`. Outputs: the final basis vector `v_m`.
pub fn gmres_cdag(n: usize, d: usize, m: usize, stencil: Stencil) -> GmresCdag {
    assert!(m >= 1);
    let grid = Grid::new(n, d);
    let npts = grid.len();
    let mut b = CdagBuilder::with_capacity((1 + 6 * m) * npts, (1 + 12 * m) * npts);

    let v0: Vec<VertexId> = (0..npts)
        .map(|i| b.add_input(format_args!("v0_{i}")))
        .collect();
    let mut basis: Vec<Vec<VertexId>> = vec![v0];
    let mut marks = Vec::with_capacity(m);

    // The SpMV stencil is the same every iteration: resolve it once.
    let neighbors: Vec<Vec<usize>> = (0..npts).map(|i| grid.neighbors(i, stencil)).collect();
    let mut preds: Vec<VertexId> = Vec::new();
    for it in 0..m {
        // dmc-lint: allow(s1) -- basis starts with v0 and only grows inside the loop
        let vi = basis.last().expect("basis non-empty").clone();
        // 1. w = A v_i.
        let mut w: Vec<VertexId> = (0..npts)
            .map(|i| {
                preds.clear();
                preds.push(vi[i]);
                preds.extend(neighbors[i].iter().map(|&j| vi[j]));
                b.add_op(format_args!("w{it}_{i}"), &preds)
            })
            .collect();
        // 2 & 3 fused per MGS: for each j, h = <w, v_j>; w = w − h v_j.
        let mut last_h = None;
        for (j, vj) in basis.clone().iter().enumerate() {
            let h = dot(&mut b, &w, vj, &format!("h{j}_{it}"));
            last_h = Some(h);
            w = w
                .iter()
                .zip(vj)
                .enumerate()
                .map(|(i, (&wi, &vji))| b.add_op(format_args!("w{it}_{j}_{i}"), &[wi, h, vji]))
                .collect();
        }
        // dmc-lint: allow(s1) -- the m >= 1 range check at parse time guarantees the loop ran at least once
        let upsilon_x = last_h.expect("m >= 1 so at least one h");
        // 4. h_{i+1,i} = ||w||.
        let norm = dot(&mut b, &w, &w, &format!("nrm{it}"));
        // 5. v_{i+1} = w / norm.
        let vnext = scale(&mut b, &w, norm, &format!("v{}_", it + 1));
        basis.push(vnext);
        marks.push(GmresIterationMarks {
            upsilon_x,
            upsilon_y: norm,
        });
    }
    // dmc-lint: allow(s1) -- basis starts with v0 and only grows inside the loop
    for &vtx in basis.last().expect("non-empty") {
        b.tag_output(vtx);
    }
    let cdag = b.build_valid("GMRES CDAG is acyclic");
    GmresCdag {
        cdag,
        marks,
        grid,
        iterations: m,
    }
}

/// Theorem 9's lower bound: `Q ≥ 6·n^d·m / P` as `n ≫ S`.
pub fn gmres_io_lower_bound(n: usize, d: usize, m: usize, p: usize) -> f64 {
    6.0 * (n as f64).powi(d as i32) * m as f64 / p as f64
}

/// The paper's operation count for 3-D GMRES: `20·n³·m + n³·m²` FLOPs
/// (Section 5.3.3), generalized to dimension `d`.
pub fn gmres_flops_estimate(n: usize, d: usize, m: usize) -> f64 {
    let nd = (n as f64).powi(d as i32);
    20.0 * nd * m as f64 + nd * (m as f64) * (m as f64)
}

/// The vertical balance ratio of Section 5.3.3:
/// `LB·N_nodes/|V| = 6/(m + 20)`.
pub fn gmres_vertical_ratio(m: usize) -> f64 {
    6.0 / (m as f64 + 20.0)
}

/// Catalog entry for the GMRES family: `gmres(n,d,m,stencil)` builds
/// [`gmres_cdag`] and surfaces the Theorem-9 bound and Section-5.3
/// profile.
pub struct GmresKernel;

impl Kernel for GmresKernel {
    fn name(&self) -> &'static str {
        "gmres"
    }

    fn description(&self) -> &'static str {
        "GMRES with modified Gram-Schmidt on an n^d grid (Theorem 9, Section 5.3)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("n", "grid extent per dimension", 1, 4096, 5),
            ParamSpec::uint("d", "grid dimensions", 1, 4, 1),
            ParamSpec::uint("m", "Krylov dimension (outer iterations)", 1, 512, 2),
            ParamSpec::choice("stencil", "SpMV operator shape", Stencil::CHOICES, "star"),
        ];
        PARAMS
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let npts = p.uint("n").checked_pow(p.uint("d") as u32);
        // Iteration i adds ~ (3i + 6) n^d vertices (MGS is quadratic in m).
        let m = p.uint("m");
        let per_grid_point = m
            .checked_mul(m + 1)
            .and_then(|mm| mm.checked_mul(3))
            .and_then(|v| v.checked_add(6 * m + 1));
        npts.and_then(|v| per_grid_point.and_then(|p| v.checked_mul(p)))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        // dmc-lint: allow(s1) -- the choice value was validated against the stencil enum by the catalog parser before the factory runs
        let stencil = Stencil::from_choice(p.choice("stencil")).expect("validated choice");
        gmres_cdag(p.usize("n"), p.usize("d"), p.usize("m"), stencil).cdag
    }

    fn analytic_lower_bound(&self, p: &ParamValues, _s: u64) -> Option<AnalyticBound> {
        let (n, d, m) = (p.usize("n"), p.usize("d"), p.usize("m"));
        Some(AnalyticBound::new(
            gmres_io_lower_bound(n, d, m, 1),
            format!("Theorem 9 (asymptotic, n >> S): 6·n^d·m with n = {n}, d = {d}, m = {m}"),
        ))
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        Some(gmres_flops_estimate(
            p.usize("n"),
            p.usize("d"),
            p.usize("m"),
        ))
    }

    fn profile(&self, p: &ParamValues, ctx: &ProfileContext) -> Option<AlgorithmProfile> {
        Some(gmres_profile(p.usize("n"), p.usize("m"), ctx.nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::cut::min_wavefront;

    #[test]
    fn shape_single_iteration() {
        let g = gmres_cdag(4, 1, 1, Stencil::VonNeumann);
        assert_eq!(g.cdag.num_inputs(), 4);
        assert_eq!(g.cdag.num_outputs(), 4);
        assert_eq!(g.marks.len(), 1);
    }

    #[test]
    fn basis_grows_quadratically() {
        // Iteration i performs i+1 orthogonalizations, so total vertices
        // grow ~ m²·n^d for large m.
        let small = gmres_cdag(4, 1, 2, Stencil::VonNeumann).cdag.num_vertices();
        let large = gmres_cdag(4, 1, 8, Stencil::VonNeumann).cdag.num_vertices();
        assert!(large as f64 > 6.0 * small as f64);
    }

    #[test]
    fn upsilon_x_wavefront_at_least_papers_2nd() {
        // Theorem 9: the last inner product has wavefront ≥ 2n^d from the
        // disjoint paths of w and v_i into the following saxpy.
        let (n, d) = (5usize, 1usize);
        let g = gmres_cdag(n, d, 1, Stencil::VonNeumann);
        let w = min_wavefront(&g.cdag, g.marks[0].upsilon_x);
        assert!(w.size >= 2 * n, "{} < {}", w.size, 2 * n);
    }

    #[test]
    fn upsilon_y_wavefront_at_least_papers_nd() {
        // Theorem 9: the norm vertex has wavefront ≥ n^d from v'.
        let (n, d) = (5usize, 1usize);
        let g = gmres_cdag(n, d, 1, Stencil::VonNeumann);
        let w = min_wavefront(&g.cdag, g.marks[0].upsilon_y);
        assert!(w.size >= n, "{} < {n}", w.size);
    }

    #[test]
    fn vertical_ratio_series() {
        // Section 5.3.3: 6/(m+20); for m = 10 this is 0.2, above BG/Q's
        // 0.052; for m = 100 it is 0.05, right at the boundary.
        assert!((gmres_vertical_ratio(10) - 0.2).abs() < 1e-12);
        assert!(gmres_vertical_ratio(100) < 0.052);
        assert!(gmres_vertical_ratio(95) > 0.05);
    }

    #[test]
    fn flops_and_bound_formulas() {
        assert_eq!(gmres_io_lower_bound(10, 2, 5, 1), 3000.0);
        assert_eq!(gmres_io_lower_bound(10, 2, 5, 10), 300.0);
        let f = gmres_flops_estimate(10, 3, 4);
        assert_eq!(f, 20.0 * 1000.0 * 4.0 + 1000.0 * 16.0);
    }
}
