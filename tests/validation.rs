//! Acceptance tests for the empirical validation subsystem: measured I/O
//! from the cache simulator sandwiched between certified bounds for the
//! catalog kernels, thread-count-invariant byte-identical reports, a
//! registry-wide property test of the sandwich invariant, and a
//! differential wall that ties every point's certified lower bound to an
//! independent per-`S` reference.

mod reference;

use dmc::cdag::components::weakly_connected_components;
use dmc::cdag::textio::from_text;
use dmc::cdag::topo::topological_order;
use dmc::cdag::Cdag;
use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::{KernelSpec, Registry};
use dmc::sim::simulation::{min_feasible_capacity, CachePolicy, Simulation};
use proptest::prelude::*;
use std::path::PathBuf;

fn analyzer(threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    })
}

// The four schedule-hook kernels on a 3-point S-sweep each — the same
// table the E15 experiment renders, so the `repro` output and this
// acceptance suite cannot drift apart.
use dmc_bench::E15_CASES as CASES;

#[test]
fn sandwich_holds_for_four_kernels_on_three_point_sweeps() {
    for (spec, srams) in CASES {
        let r = analyzer(1).validate_spec(spec, &srams, None).expect(spec);
        assert_eq!(r.points.len(), 3, "{spec}");
        for p in &r.points {
            assert!(p.infeasible.is_none(), "{spec} S={}", p.sram);
            let (opt, lru) = (
                p.measured_opt.as_ref().expect("measured"),
                p.measured_lru.as_ref().expect("measured"),
            );
            let ub = p.certified_upper.expect("feasible");
            assert!(
                p.certified_lower <= opt.io() as f64 && opt.io() <= lru.io() && lru.io() <= ub,
                "{spec} S={}: {} !<= {} !<= {} !<= {ub}",
                p.sram,
                p.certified_lower,
                opt.io(),
                lru.io()
            );
        }
        assert!(r.sandwich_holds(), "{spec}");
    }
}

#[test]
fn validation_reports_are_byte_identical_at_any_thread_count() {
    for (spec, srams) in CASES {
        let base = analyzer(1).validate_spec(spec, &srams, None).expect(spec);
        let base_text = base.to_string();
        let base_json = serde::json::to_string(&base);
        for threads in [2usize, 4] {
            let r = analyzer(threads)
                .validate_spec(spec, &srams, None)
                .expect(spec);
            assert_eq!(r.to_string(), base_text, "{spec} @ {threads} threads");
            assert_eq!(
                serde::json::to_string(&r),
                base_json,
                "{spec} @ {threads} threads"
            );
        }
    }
}

/// The schedule hooks earn their keep: under cache pressure the kernel's
/// tiled/blocked schedule moves measurably fewer words than the default
/// Kahn order on the same CDAG — here by more than 2x.
#[test]
fn kernel_schedules_beat_the_default_order_under_pressure() {
    let registry = Registry::shared();
    let mut sim = Simulation::new();
    // (spec, S, required improvement factor ×100): the skewed stencil
    // tiling wins big; the blocked matmul sweep wins a solid fraction.
    for (spec_str, s, factor_pct) in [
        ("jacobi(n=64,d=1,t=16)", 20u64, 200u64),
        ("matmul(n=8)", 18, 125),
    ] {
        let spec = registry.parse(spec_str).expect("valid spec");
        let g = spec.build();
        let tuned = spec.schedule_source(&g, s);
        let tuned_io = sim
            .run(&g, &tuned.order, CachePolicy::Lru, s)
            .expect("feasible")
            .io();
        let default_io = sim
            .run(&g, &topological_order(&g), CachePolicy::Lru, s)
            .expect("feasible")
            .io();
        assert!(
            tuned_io * factor_pct < default_io * 100,
            "{spec_str} S={s}: tuned {tuned_io} ('{}') not {factor_pct}% better \
             than default {default_io}",
            tuned.note
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The sandwich invariant across the whole kernel registry: any
    /// registered kernel at its defaults, any feasible S, measured under
    /// both policies, lands between the certified bounds.
    #[test]
    fn sandwich_across_the_registry(
        idx in 0usize..Registry::shared().len(),
        extra in 0u64..12
    ) {
        let registry = Registry::shared();
        let name = registry.names()[idx];
        let spec = registry.defaults(name).expect("registered");
        let g = spec.build();
        let smin = dmc::sim::simulation::min_feasible_capacity(&g) as u64;
        let s = smin + extra;
        let r = analyzer(1).validate_kernel(&spec, &[s], None);
        let p = &r.points[0];
        prop_assert!(p.infeasible.is_none(), "{} S={} infeasible", name, s);
        prop_assert_eq!(p.sandwich_ok(), Some(true), "{} S={}: {:?}", name, s, p);
    }
}

/// Every point's `certified_lower` and `lower_method` equal the per-`S`
/// reference, at 1, 2 and 4 analyzer threads. Returns the reference
/// columns, one per point.
fn assert_points_match_reference(
    spec: &KernelSpec<'_>,
    g: &Cdag,
    srams: &[u64],
) -> Vec<(f64, String)> {
    let want: Vec<(f64, String)> = srams
        .iter()
        .map(|&s| reference::lower_columns(g, s))
        .collect();
    for threads in [1usize, 2, 4] {
        let r = analyzer(threads).validate_built(spec, g, srams, None);
        let got: Vec<(f64, String)> = r
            .points
            .iter()
            .map(|p| (p.certified_lower, p.lower_method.clone()))
            .collect();
        assert_eq!(got, want, "{} @ {threads} threads, S = {srams:?}", r.spec);
    }
    want
}

/// Below, at and above the default sweep: small capacities are where
/// the wavefront member wins (infeasible points still carry a bound).
fn wide_sweep(g: &Cdag) -> Vec<u64> {
    let req = min_feasible_capacity(g) as u64;
    vec![1, 2, req, 2 * req, 4 * req]
}

#[test]
fn certified_lower_matches_a_per_s_reference_across_the_registry() {
    let registry = Registry::shared();
    for name in registry.names() {
        let spec = registry.defaults(name).expect("registered");
        let g = spec.build();
        assert_points_match_reference(&spec, &g, &wide_sweep(&g));
    }
}

/// The wall can only catch a bound carried over from another `S` on a
/// graph whose winning member changes value with `S`: the wavefront
/// member wins on the ladder at S = 1 and 2, with different values.
#[test]
fn reference_wall_covers_a_wavefront_win_that_moves_with_s() {
    let spec = Registry::shared().parse("ladder(w=6,h=6)").expect("valid");
    let g = spec.build();
    let cols = assert_points_match_reference(&spec, &g, &[1, 2]);
    assert_ne!(cols[0].0, cols[1].0, "{cols:?}");
    for s in [1, 2] {
        let b = reference::certified_lower(&g, s);
        assert!(
            b.to_string().contains("w^max"),
            "S={s}: the wavefront member must win:\n{b}"
        );
    }
}

/// The two-component graph file with tagged inputs. `random` has no
/// schedule hook, so it replays the Kahn order of whatever graph it is
/// handed; only the bound columns of the report are compared.
#[test]
fn certified_lower_matches_the_reference_on_the_composite_graph_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/graphs/composite.cdag");
    let g = from_text(&std::fs::read_to_string(path).expect("composite.cdag ships with the repo"))
        .expect("composite.cdag parses");
    assert_eq!(weakly_connected_components(&g).count, 2);
    assert!(g.num_inputs() > 0);
    let spec = Registry::shared().defaults("random").expect("registered");
    assert_points_match_reference(&spec, &g, &wide_sweep(&g));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sparse layered DAGs with several components: the
    /// Theorem-2 composition at every point equals the reference.
    #[test]
    fn certified_lower_matches_the_reference_on_random_multi_component_dags(
        layers in 2u64..5,
        width in 2u64..6,
        edge_pct in 5u64..30,
        seed in 0u64..1_000_000
    ) {
        let spec = Registry::shared()
            .parse(&format!("random(layers={layers},width={width},edge_pct={edge_pct},seed={seed})"))
            .expect("valid");
        let g = spec.build();
        prop_assume!(weakly_connected_components(&g).count > 1);
        assert_points_match_reference(&spec, &g, &wide_sweep(&g));
    }
}
