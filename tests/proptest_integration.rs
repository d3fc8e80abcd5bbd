//! Cross-crate property tests: random CDAGs and random schedules must
//! respect every invariant the theory promises, end to end.

use dmc::cdag::cut::max_min_wavefront;
use dmc::cdag::engine::WavefrontEngine;
use dmc::cdag::flow::is_separating_vertex_set;
use dmc::cdag::reach::{ancestors, descendants};
use dmc::cdag::topo::{is_valid_topological_order, topological_order};
use dmc::cdag::{Cdag, VertexId};
use dmc::core::bounds::decompose::untag_inputs;
use dmc::core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc::core::games::executor::{execute_rbw, EvictionPolicy};
use dmc::core::games::rbw;
use dmc::core::partition::construct::from_trace;
use dmc::core::partition::validate_rbw;
use dmc::kernels::random::{random_layered, RandomDagConfig};
use dmc::sim::hierarchy_sim::split_by_owner;
use dmc::sim::simulation::min_feasible_capacity;
use dmc::sim::{CachePolicy, Simulation};
use proptest::prelude::*;

fn arb_cdag() -> impl Strategy<Value = Cdag> {
    (2usize..5, 2usize..7, 0.1f64..0.7, 0u64..1000).prop_map(|(layers, width, p, seed)| {
        random_layered(RandomDagConfig {
            layers,
            width,
            deg: 0,
            edge_prob: p,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Executor games always replay cleanly through the rule validator
    /// and their traces always yield valid Theorem-1 2S-partitions.
    #[test]
    fn executor_traces_validate_and_partition(g in arb_cdag(), s_extra in 1usize..6) {
        let order = topological_order(&g);
        let min_s = g.vertices().map(|v| g.in_degree(v) + 1).max().unwrap_or(1);
        let s = min_s + s_extra;
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Belady, EvictionPolicy::Fifo] {
            let game = execute_rbw(&g, s, &order, policy).expect("budget suffices");
            let certified = rbw::validate(&g, s, &game.trace).expect("trace must be legal");
            prop_assert_eq!(certified, game.io);
            let tp = from_trace(&g, &game.trace, s);
            prop_assert_eq!(validate_rbw(&g, &tp.partition, 2 * s), Ok(()));
            prop_assert!((s as u64) * tp.intervals as u64 >= game.io);
        }
    }

    /// Lower bounds never exceed any executed game's I/O.
    #[test]
    fn bounds_below_every_execution(g in arb_cdag(), s_extra in 1usize..5) {
        let order = topological_order(&g);
        let min_s = g.vertices().map(|v| g.in_degree(v) + 1).max().unwrap_or(1);
        let s = min_s + s_extra;
        let game = execute_rbw(&g, s, &order, EvictionPolicy::Belady).expect("fits");
        let wavefront =
            auto_wavefront_bound(&untag_inputs(&g), s as u64, AnchorStrategy::PerLevel);
        let trivial = dmc::core::bounds::IoBound::trivial(&g).value;
        prop_assert!(wavefront.value <= game.io as f64,
            "wavefront {} > exec {}", wavefront.value, game.io);
        prop_assert!(trivial <= game.io as f64,
            "trivial {trivial} > exec {}", game.io);
    }

    /// The simulator accepts any owner-driven split and conserves work:
    /// computes equal compute-vertex count; every input is fetched.
    #[test]
    fn simulator_conserves_work(g in arb_cdag(), procs in 1usize..4, s1 in 4u64..64) {
        let split = split_by_owner(&g, procs, |v, _| v.index() % procs);
        prop_assert!(is_valid_topological_order(&g, &split.order));
        let total: u64 = split.per_proc_computes.iter().sum();
        prop_assert_eq!(total, g.num_compute_vertices() as u64);
        let s = s1.max(min_feasible_capacity(&g) as u64);
        let r = Simulation::new()
            .run(&g, &split.order, CachePolicy::Lru, s)
            .expect("valid order, feasible S");
        // At least every input crosses the DRAM link once.
        prop_assert!(r.loads >= g.num_inputs() as u64);
    }

    /// Text round-trip through the interchange format is lossless.
    #[test]
    fn text_round_trip(g in arb_cdag()) {
        let text = dmc::cdag::textio::to_text(&g);
        let g2 = dmc::cdag::textio::from_text(&text).expect("parses");
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        for v in g.vertices() {
            prop_assert_eq!(g.is_input(v), g2.is_input(v));
            prop_assert_eq!(g.is_output(v), g2.is_output(v));
        }
    }

    /// The parallel wavefront engine agrees with the serial baseline —
    /// same `w^max`, same winning anchor, and a valid witness cut — on
    /// random layered DAGs at 1, 2, and 4 worker threads.
    #[test]
    fn wavefront_engine_matches_serial_baseline(g in arb_cdag()) {
        let anchors: Vec<VertexId> = g.vertices().collect();
        let serial = max_min_wavefront(&g, &anchors).expect("non-empty graph");
        for threads in [1usize, 2, 4] {
            let run = WavefrontEngine::new(&g).with_threads(threads).run(&anchors);
            let best = run.best.expect("non-empty anchor set");
            prop_assert_eq!(best.size, serial.size, "w^max @ {} threads", threads);
            prop_assert_eq!(best.anchor, serial.anchor, "anchor @ {} threads", threads);
            prop_assert!(run.anchors_evaluated <= run.anchors_considered);
            // The witness cut really separates {x} ∪ Anc(x) from Desc(x).
            let mut sources = ancestors(&g, best.anchor);
            sources.insert(best.anchor.index());
            let sinks = descendants(&g, best.anchor);
            prop_assert!(
                is_separating_vertex_set(&g, &sources, &sinks, &best.cut.vertices),
                "witness cut fails to separate @ {} threads", threads
            );
            if !sinks.is_empty() {
                prop_assert_eq!(best.size, best.cut.vertices.len());
            }
        }
    }

    /// More cache never increases the executor's I/O under Belady.
    #[test]
    fn monotone_in_cache_size(g in arb_cdag()) {
        let order = topological_order(&g);
        let min_s = g.vertices().map(|v| g.in_degree(v) + 1).max().unwrap_or(1);
        let mut prev = u64::MAX;
        for s in [min_s, min_s + 2, min_s + 8, min_s + 32] {
            let game = execute_rbw(&g, s, &order, EvictionPolicy::Belady).expect("fits");
            prop_assert!(game.io <= prev, "S={s}: {} > {prev}", game.io);
            prev = game.io;
        }
    }
}
