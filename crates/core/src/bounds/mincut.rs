//! Min-cut / wavefront lower bounds (Section 3.3, Lemma 2).
//!
//! Lemma 2: for a CDAG `C = (∅, V, E, O)` *without tagged inputs*,
//! `IO(C) ≥ 2·(|W^min_G(x)| − S)` for every vertex `x` — any schedule must
//! at some point keep `|W^min(x)|` values live, and all but `S` of them
//! must take a store/reload round trip through slow memory.
//!
//! For CDAGs *with* inputs we first apply Theorem 3 (untagging): removing
//! the input tags can only lower the optimal I/O, so the Lemma-2 bound on
//! the untagged CDAG is also valid for the tagged one.
//!
//! The per-anchor `|W^min(x)|` solves are delegated to
//! [`WavefrontEngine`], which batches reachability 64 anchors at a time
//! (word-parallel OR-sweeps), solves each anchor's vertex min-cut on a
//! warm-started unit-capacity flow network restricted to the frontier
//! vertices, and prunes anchors lexicographically against the running
//! best — see the "Flow core" section of `DESIGN.md`. The engine's
//! result (winning size, anchor, and witness) is bit-identical at any
//! thread count, so the bound's `detail` strings never vary between
//! runs.

use super::{IoBound, Method};
use dmc_cdag::cut::min_wavefront;
use dmc_cdag::engine::WavefrontEngine;
use dmc_cdag::topo::depths;
use dmc_cdag::{Cdag, VertexId};

/// Lemma 2 for one anchor: `2·(w − S)`, clamped at zero.
pub fn lemma2_bound(wavefront: usize, s: u64) -> f64 {
    2.0 * (wavefront as f64 - s as f64).max(0.0)
}

/// Computes the Lemma-2 bound anchored at a specific vertex.
pub fn wavefront_bound_at(g: &Cdag, x: VertexId, s: u64) -> IoBound {
    let w = min_wavefront(g, x);
    IoBound::new(
        lemma2_bound(w.size, s),
        Method::Wavefront,
        format!("2·(|W^min({x})| − S) = 2·({} − {s})", w.size),
    )
}

/// Anchor-selection strategy for the automated wavefront heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorStrategy {
    /// Every vertex — exact `w^max` but `|V|` max-flow runs.
    All,
    /// One vertex per depth level (the midpoint of each level) plus the
    /// deepest vertex: cheap and effective on layered CDAGs.
    PerLevel,
    /// Two-phase sampling: a `PerLevel` coarse pass, then exhaustive
    /// refinement of every vertex within one depth level of the coarse
    /// winner. Dominates `PerLevel` at a fraction of `All`'s cost.
    Adaptive,
}

/// Picks anchor vertices per the strategy.
///
/// `Adaptive` is dynamic — its refinement anchors depend on intermediate
/// results — so this returns only its coarse-phase (`PerLevel`) seeds; the
/// full adaptive schedule lives in
/// [`WavefrontEngine::run_adaptive`](dmc_cdag::engine::WavefrontEngine::run_adaptive).
pub fn select_anchors(g: &Cdag, strategy: AnchorStrategy) -> Vec<VertexId> {
    match strategy {
        AnchorStrategy::All => g.vertices().collect(),
        AnchorStrategy::PerLevel | AnchorStrategy::Adaptive => {
            let depth = depths(g);
            let max_d = depth.iter().copied().max().unwrap_or(0) as usize;
            let mut per_level: Vec<Vec<VertexId>> = vec![Vec::new(); max_d + 1];
            for v in g.vertices() {
                per_level[depth[v.index()] as usize].push(v);
            }
            per_level
                .into_iter()
                .filter(|l| !l.is_empty())
                .map(|l| l[l.len() / 2])
                .collect()
        }
    }
}

/// The automated Lemma-2 lower bound: `2·(max_x |W^min(x)| − S)` over the
/// sampled anchors. Every anchor yields a valid bound, so sampling only
/// weakens (never invalidates) the result.
///
/// Runs on the parallel batched [`WavefrontEngine`] with automatic thread
/// count; see [`auto_wavefront_bound_with`] to pin the worker count. The
/// result is deterministic — bit-identical at any thread count.
pub fn auto_wavefront_bound(g: &Cdag, s: u64, strategy: AnchorStrategy) -> IoBound {
    auto_wavefront_bound_with(g, s, strategy, 0)
}

/// [`auto_wavefront_bound`] with an explicit engine worker count
/// (`threads == 0` selects `std::thread::available_parallelism`).
pub fn auto_wavefront_bound_with(
    g: &Cdag,
    s: u64,
    strategy: AnchorStrategy,
    threads: usize,
) -> IoBound {
    let engine = WavefrontEngine::new(g).with_threads(threads);
    if let AnchorStrategy::Adaptive = strategy {
        let run = engine.run_adaptive();
        return match run.best {
            Some(w) => IoBound::new(
                lemma2_bound(w.size, s),
                Method::Wavefront,
                // Note: only the deterministic anchor count goes into the
                // detail string — `anchors_evaluated` can vary with thread
                // timing (see `EngineRun`), and this bound is documented
                // as bit-identical at any thread count.
                format!(
                    "2·(w^max − S) with w^max = {} at anchor {} (adaptive: {} anchors)",
                    w.size, w.anchor, run.anchors_considered
                ),
            ),
            None => IoBound::new(0.0, Method::Wavefront, "no anchors".to_string()),
        };
    }
    let anchors = select_anchors(g, strategy);
    match engine.run(&anchors).best {
        Some(w) => IoBound::new(
            lemma2_bound(w.size, s),
            Method::Wavefront,
            format!(
                "2·(w^max − S) with w^max = {} at anchor {} ({} anchors)",
                w.size,
                w.anchor,
                anchors.len()
            ),
        ),
        None => IoBound::new(0.0, Method::Wavefront, "no anchors".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::optimal::{optimal_io, GameKind};
    use dmc_cdag::BitSet;
    use dmc_kernels::chains;

    #[test]
    fn lemma2_clamps() {
        assert_eq!(lemma2_bound(10, 3), 14.0);
        assert_eq!(lemma2_bound(2, 5), 0.0);
    }

    /// Lemma 2 requires no tagged inputs; untag first (Theorem 3 says the
    /// untagged bound carries over).
    fn untagged(g: &Cdag) -> Cdag {
        let n = g.num_vertices();
        g.retag(BitSet::new(n), g.outputs().clone())
    }

    #[test]
    fn wavefront_bound_sound_vs_optimal_on_reduction() {
        let g = untagged(&chains::binary_reduction(8));
        for s in 2..6u64 {
            let lb = auto_wavefront_bound(&g, s, AnchorStrategy::All);
            if let Some(opt) = optimal_io(&g, s as usize, GameKind::Rbw) {
                assert!(
                    lb.value <= opt as f64,
                    "S={s}: lemma2 {} > optimal {opt}",
                    lb.value
                );
            }
        }
    }

    #[test]
    fn wavefront_bound_sound_vs_optimal_on_ladder() {
        let g = untagged(&chains::ladder(3, 3));
        for s in 3..7u64 {
            let lb = auto_wavefront_bound(&g, s, AnchorStrategy::All);
            if let Some(opt) = optimal_io(&g, s as usize, GameKind::Rbw) {
                assert!(lb.value <= opt as f64, "S={s}");
            }
        }
    }

    #[test]
    fn per_level_subset_of_all() {
        let g = chains::ladder(4, 4);
        let all = select_anchors(&g, AnchorStrategy::All);
        let pl = select_anchors(&g, AnchorStrategy::PerLevel);
        assert!(pl.len() <= all.len());
        assert!(!pl.is_empty());
        for a in &pl {
            assert!(all.contains(a));
        }
        // Per-level bound never exceeds the all-anchors bound.
        let b_all = auto_wavefront_bound(&g, 2, AnchorStrategy::All);
        let b_pl = auto_wavefront_bound(&g, 2, AnchorStrategy::PerLevel);
        assert!(b_pl.value <= b_all.value);
    }

    /// The engine-backed bound must be *bit-identical* to the serial
    /// baseline — value and derivation detail — at every thread count, on
    /// each family of test graphs (chains, jacobi, random).
    #[test]
    fn engine_bound_bit_identical_to_serial_at_any_thread_count() {
        use dmc_cdag::cut::max_min_wavefront;
        use dmc_kernels::grid::Stencil;
        use dmc_kernels::random::{random_layered, RandomDagConfig};
        let graphs: Vec<(&str, Cdag)> = vec![
            ("ladder", untagged(&chains::ladder(5, 4))),
            ("reduction", untagged(&chains::binary_reduction(16))),
            ("two_stage", untagged(&chains::two_stage(6))),
            (
                "jacobi",
                untagged(&dmc_kernels::jacobi::jacobi_cdag(6, 1, 3, Stencil::VonNeumann).cdag),
            ),
            (
                "random",
                untagged(&random_layered(RandomDagConfig {
                    layers: 5,
                    width: 6,
                    deg: 0,
                    edge_prob: 0.35,
                    seed: 1234,
                })),
            ),
        ];
        for (name, g) in &graphs {
            for strategy in [AnchorStrategy::All, AnchorStrategy::PerLevel] {
                // The pre-refactor serial implementation, verbatim.
                let anchors = select_anchors(g, strategy);
                let expected = match max_min_wavefront(g, &anchors) {
                    Some(w) => (
                        lemma2_bound(w.size, 2),
                        format!(
                            "2·(w^max − S) with w^max = {} at anchor {} ({} anchors)",
                            w.size,
                            w.anchor,
                            anchors.len()
                        ),
                    ),
                    None => (0.0, "no anchors".to_string()),
                };
                for threads in [1usize, 2, 4] {
                    let b = auto_wavefront_bound_with(g, 2, strategy, threads);
                    assert_eq!(b.value, expected.0, "{name}/{strategy:?} @ {threads}t");
                    assert_eq!(
                        b.provenance.note, expected.1,
                        "{name}/{strategy:?} @ {threads}t"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_dominates_per_level_never_exceeds_all() {
        let g = untagged(&chains::ladder(6, 6));
        let b_all = auto_wavefront_bound(&g, 2, AnchorStrategy::All);
        let b_pl = auto_wavefront_bound(&g, 2, AnchorStrategy::PerLevel);
        let b_ad = auto_wavefront_bound(&g, 2, AnchorStrategy::Adaptive);
        assert!(b_pl.value <= b_ad.value, "{} > {}", b_pl.value, b_ad.value);
        assert!(
            b_ad.value <= b_all.value,
            "{} > {}",
            b_ad.value,
            b_all.value
        );
        // Deterministic across thread counts.
        for threads in [1usize, 2, 4] {
            let b = auto_wavefront_bound_with(&g, 2, AnchorStrategy::Adaptive, threads);
            assert_eq!(b.value, b_ad.value);
            assert_eq!(b.provenance.note, b_ad.provenance.note);
        }
    }

    #[test]
    fn ladder_wavefront_grows_with_width() {
        // The 2-D dependence ladder carries a full anti-diagonal of live
        // values: w^max grows with the ladder width.
        let b3 = auto_wavefront_bound(&untagged(&chains::ladder(3, 3)), 1, AnchorStrategy::All);
        let b6 = auto_wavefront_bound(&untagged(&chains::ladder(6, 6)), 1, AnchorStrategy::All);
        assert!(
            b6.value > b3.value,
            "ladder(6): {} !> ladder(3): {}",
            b6.value,
            b3.value
        );
    }

    #[test]
    fn two_stage_wavefront_is_constant() {
        // Counter-intuitive but correct: the collector's fan-in is NOT a
        // wavefront — a schedule may fire the middles lazily, so the
        // minimum wavefront through any middle vertex is 2 ({x, f_i})
        // regardless of width. (The fan-in cost shows up as the minimum
        // pebble budget, not as Lemma-2 I/O.)
        let b4 = auto_wavefront_bound(&untagged(&chains::two_stage(4)), 0, AnchorStrategy::All);
        let b8 = auto_wavefront_bound(&untagged(&chains::two_stage(8)), 0, AnchorStrategy::All);
        assert_eq!(b4.value, b8.value);
        assert_eq!(b4.value, 4.0); // 2·(2 − 0)
    }
}
