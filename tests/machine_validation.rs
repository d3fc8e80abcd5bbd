//! Acceptance tests for machine-hierarchy validation: every registry
//! kernel on every catalog machine yields a certified sandwich at every
//! cache boundary — pipeline lower bound ≤ measured per-level traffic ≤
//! RBW upper bound — with byte-identical text and JSON reports at any
//! thread count — and every level's certified lower bound equals an
//! independent per-`S` reference.

mod reference;

use dmc::cdag::components::weakly_connected_components;
use dmc::cdag::textio::from_text;
use dmc::cdag::Cdag;
use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::{KernelSpec, Registry};
use dmc::machine::specs::{ibm_bgq, machine_catalog};
use dmc::machine::MachineSpec;
use dmc::sim::simulation::min_feasible_capacity;
use proptest::prelude::*;
use std::path::PathBuf;

fn analyzer(threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    })
}

/// The registry-wide machine sandwich: every kernel at its defaults, on
/// every catalog machine, at the schedule's minimum feasible per-core
/// S1, is sandwiched at every simulated boundary.
#[test]
fn machine_sandwich_holds_across_registry_and_catalog() {
    let registry = Registry::shared();
    let a = analyzer(1);
    for machine in machine_catalog() {
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered kernel");
            let g = spec.build();
            let s1 = min_feasible_capacity(&g) as u64;
            let r = a.validate_machine_built(&spec, &g, &machine, s1, None);
            assert_eq!(
                r.levels.len(),
                2,
                "{name} on {}: registers + LLC boundaries",
                machine.name
            );
            for p in &r.levels {
                assert!(
                    p.infeasible.is_none(),
                    "{name} on {} level {} infeasible: {:?}",
                    machine.name,
                    p.level,
                    p.infeasible
                );
                assert_eq!(
                    p.sandwich_ok(),
                    Some(true),
                    "{name} on {} level {} ({}): LB {} OPT {:?} LRU {:?} UB {:?}",
                    machine.name,
                    p.level,
                    p.name,
                    p.certified_lower,
                    p.measured_opt.map(|t| t.io()),
                    p.measured_lru.map(|t| t.io()),
                    p.certified_upper
                );
            }
            assert!(r.sandwich_holds(), "{name} on {}:\n{r}", machine.name);
            // Every row carries a roofline verdict; only the DRAM
            // boundary gets a measured balance.
            assert!(
                r.levels.iter().all(|p| !p.verdict.is_empty()),
                "{name} on {}: empty verdict",
                machine.name
            );
            assert!(
                !r.network_verdict.is_empty(),
                "{name} on {}: no network verdict",
                machine.name
            );
        }
    }
}

/// Text and JSON renders are pure functions of (kernel, machine, S1):
/// byte-identical at 1, 2 and 4 analyzer threads.
#[test]
fn machine_reports_are_byte_identical_across_thread_counts() {
    for (spec, s1) in [("fft(n=8)", 8u64), ("jacobi(n=8,d=1,t=8)", 8)] {
        for machine in machine_catalog() {
            let base = analyzer(1)
                .validate_machine_spec(spec, &machine, s1, None)
                .expect("valid spec");
            let base_text = base.to_string();
            let base_json = serde::json::to_string(&base);
            for threads in [2usize, 4] {
                let r = analyzer(threads)
                    .validate_machine_spec(spec, &machine, s1, None)
                    .expect("valid spec");
                assert_eq!(
                    r.to_string(),
                    base_text,
                    "{spec} on {} @ {threads} threads (text)",
                    machine.name
                );
                assert_eq!(
                    serde::json::to_string(&r),
                    base_json,
                    "{spec} on {} @ {threads} threads (json)",
                    machine.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sandwich survives S1 slack: any registered kernel, any
    /// catalog machine, any feasible S1 at or above the schedule's
    /// minimum stays sandwiched at every boundary.
    #[test]
    fn machine_sandwich_survives_s1_slack(
        kernel_idx in 0usize..Registry::shared().len(),
        machine_idx in 0usize..3,
        extra in 0u64..12
    ) {
        let registry = Registry::shared();
        let name = registry.names()[kernel_idx];
        let spec = registry.defaults(name).expect("registered kernel");
        let g = spec.build();
        let machine = &machine_catalog()[machine_idx];
        let s1 = min_feasible_capacity(&g) as u64 + extra;
        let r = analyzer(1).validate_machine_built(&spec, &g, machine, s1, None);
        for p in &r.levels {
            prop_assert!(p.infeasible.is_none(), "{} on {} level {}", name, machine.name, p.level);
            prop_assert_eq!(
                p.sandwich_ok(), Some(true),
                "{} on {} level {}: {:?}", name, machine.name, p.level, p
            );
        }
        prop_assert!(r.sandwich_holds());
    }
}

/// Every level's `certified_lower` and `lower_method` equal the per-`S`
/// reference at the level's effective capacity, at 1, 2 and 4 analyzer
/// threads. Returns the reference columns, one per level.
fn assert_levels_match_reference(
    spec: &KernelSpec<'_>,
    g: &Cdag,
    machine: &MachineSpec,
    s1: u64,
) -> Vec<(f64, String)> {
    let mut want = None;
    for threads in [1usize, 2, 4] {
        let r = analyzer(threads).validate_machine_built(spec, g, machine, s1, None);
        let want = want.get_or_insert_with(|| {
            r.levels
                .iter()
                .map(|l| reference::lower_columns(g, l.effective_words))
                .collect::<Vec<_>>()
        });
        let got: Vec<(f64, String)> = r
            .levels
            .iter()
            .map(|l| (l.certified_lower, l.lower_method.clone()))
            .collect();
        assert_eq!(
            &got, want,
            "{} on {} (s1 = {s1}) @ {threads} threads",
            r.spec, machine.name
        );
    }
    want.expect("three thread counts ran")
}

/// One core, `s1` register words and a one-word LLC: both boundaries sit
/// at capacities small enough for the wavefront member to win.
fn tiny_machine() -> MachineSpec {
    MachineSpec {
        name: "Tiny".into(),
        nodes: 1,
        cores_per_node: 1,
        gflops_per_core: 1.0,
        memory_gb: 1.0,
        llc_mb: 0.0,
        dram_bandwidth_gbs: 10.0,
        network_bandwidth_gbs: 5.0,
        word_bytes: 8.0,
    }
}

#[test]
fn certified_lower_matches_a_per_s_reference_across_registry_and_catalog() {
    let registry = Registry::shared();
    for machine in machine_catalog() {
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered kernel");
            let g = spec.build();
            let s1 = min_feasible_capacity(&g) as u64;
            assert_levels_match_reference(&spec, &g, &machine, s1);
        }
    }
}

/// The wall can only catch a bound carried over from another capacity
/// on a graph whose winning member changes value with it: on the tiny
/// machine the ladder's two boundaries (2 and 1 words) are both won by
/// the wavefront member, with different values.
#[test]
fn reference_wall_covers_a_wavefront_win_that_moves_with_capacity() {
    let spec = Registry::shared().parse("ladder(w=6,h=6)").expect("valid");
    let g = spec.build();
    let cols = assert_levels_match_reference(&spec, &g, &tiny_machine(), 2);
    assert_eq!(cols.len(), 2);
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
/// schedule hook, so the split deals whatever graph it is handed; only
/// the bound columns of the report are compared.
#[test]
fn certified_lower_matches_the_reference_on_the_composite_graph_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/graphs/composite.cdag");
    let g = from_text(&std::fs::read_to_string(path).expect("composite.cdag ships with the repo"))
        .expect("composite.cdag parses");
    assert_eq!(weakly_connected_components(&g).count, 2);
    assert!(g.num_inputs() > 0);
    let spec = Registry::shared().defaults("random").expect("registered");
    let s1 = min_feasible_capacity(&g) as u64;
    for machine in [ibm_bgq(), tiny_machine()] {
        assert_levels_match_reference(&spec, &g, &machine, s1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sparse layered DAGs with several components, on the tiny
    /// machine and on IBM BG/Q: every level equals the reference.
    #[test]
    fn certified_lower_matches_the_reference_on_random_multi_component_dags(
        layers in 2u64..5,
        width in 2u64..6,
        edge_pct in 5u64..30,
        seed in 0u64..1_000_000,
        s1_extra in 0u64..4
    ) {
        let spec = Registry::shared()
            .parse(&format!("random(layers={layers},width={width},edge_pct={edge_pct},seed={seed})"))
            .expect("valid");
        let g = spec.build();
        prop_assume!(weakly_connected_components(&g).count > 1);
        let s1 = min_feasible_capacity(&g) as u64 + s1_extra;
        for machine in [ibm_bgq(), tiny_machine()] {
            assert_levels_match_reference(&spec, &g, &machine, s1);
        }
    }
}
