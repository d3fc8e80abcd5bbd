//! Differential wall for the simulator's indexed victim selection: the
//! recency list (LRU) and the next-use ordered set (OPT) must reproduce
//! the scan simulator they replaced, trace for trace, on random DAGs at
//! every feasible capacity, on every registry kernel, and on hand-built
//! tie cases.

#[path = "reference/scan_simulation.rs"]
mod scan_simulation;

use dmc::cdag::topo::topological_order;
use dmc::cdag::{Cdag, CdagBuilder, VertexId};
use dmc::kernels::catalog::Registry;
use dmc::kernels::random::{random_layered, RandomDagConfig};
use dmc::sim::simulation::{min_feasible_capacity, CachePolicy, Simulation, Trace};
use proptest::prelude::*;
use scan_simulation::ScanSimulation;

const POLICIES: [CachePolicy; 2] = [CachePolicy::Lru, CachePolicy::Opt];

/// Runs both simulators on one arena each and returns the shared trace,
/// failing with `what` when they disagree.
fn same_trace(
    sim: &mut Simulation,
    scan: &mut ScanSimulation,
    g: &Cdag,
    order: &[VertexId],
    policy: CachePolicy,
    s: u64,
    what: &str,
) -> Trace {
    let indexed = sim.run(g, order, policy, s);
    let reference = scan.run(g, order, policy, s);
    assert_eq!(indexed, reference, "{what}: {policy} at S = {s}");
    indexed.expect("feasible capacity")
}

/// A topological order of `g` that picks among the ready vertices with
/// a seeded xorshift, so the wall sees schedules other than Kahn's.
fn shuffled_topological_order(g: &Cdag, seed: u64) -> Vec<VertexId> {
    let mut indeg: Vec<usize> = g.vertices().map(|v| g.in_degree(v)).collect();
    let mut ready: Vec<VertexId> = g.vertices().filter(|v| indeg[v.index()] == 0).collect();
    let mut state = seed | 1;
    let mut order = Vec::with_capacity(g.num_vertices());
    while !ready.is_empty() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = ready.swap_remove((state % ready.len() as u64) as usize);
        order.push(v);
        for &w in g.successors(v) {
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every capacity from the minimum feasible one to `n + 1` (where
    /// nothing is ever evicted), both policies, two schedules, through
    /// one pair of arenas so a stale field from the previous run shows.
    #[test]
    fn indexed_victims_match_the_scan_on_random_dags(
        layers in 2usize..6,
        width in 1usize..8,
        deg in 0usize..4,
        p in 0.1f64..0.8,
        seed in 0u64..10_000
    ) {
        let g = random_layered(RandomDagConfig { layers, width, deg, edge_prob: p, seed });
        let mut sim = Simulation::new();
        let mut scan = ScanSimulation::new();
        let n = g.num_vertices() as u64;
        for order in [topological_order(&g), shuffled_topological_order(&g, seed)] {
            for s in min_feasible_capacity(&g) as u64..=n + 1 {
                for policy in POLICIES {
                    let indexed = sim.run(&g, &order, policy, s);
                    let reference = scan.run(&g, &order, policy, s);
                    prop_assert_eq!(indexed, reference, "{} at S = {}", policy, s);
                }
            }
        }
    }
}

/// Every registry kernel at its defaults, on its own schedule, at the
/// minimum feasible capacity and a few multiples of it, and at the
/// capacities perfbench's `scale` workload measures.
#[test]
fn indexed_victims_match_the_scan_on_registry_kernels() {
    let registry = Registry::shared();
    let mut sim = Simulation::new();
    let mut scan = ScanSimulation::new();
    for name in registry.names() {
        let spec = registry.defaults(name).expect("registered kernel");
        let g = spec.build();
        let req = min_feasible_capacity(&g) as u64;
        for s in [req, 2 * req, 4 * req, 256, 1024] {
            let order = spec.schedule_source(&g, s).order;
            for policy in POLICIES {
                let _ = same_trace(&mut sim, &mut scan, &g, &order, policy, s, name);
            }
        }
    }
}

/// OPT tie at a finite next use. `b` (id 1, an input) and `x` (id 2,
/// computed and never stored) are both next used by `w`; when `z` needs
/// room the tie goes to the smaller id, so `b` leaves for free. Ties
/// toward the larger id would spill `x` and cost one more store.
#[test]
fn opt_tie_on_next_use_evicts_the_smaller_id() {
    let mut b = CdagBuilder::new();
    let a = b.add_input("a");
    let inb = b.add_input("b");
    let x = b.add_op("x", &[a]);
    let c = b.add_input("c");
    let z = b.add_op("z", &[c]);
    let w = b.add_op("w", &[x, inb]);
    b.tag_output(z);
    b.tag_output(w);
    let g = b.build().expect("valid DAG");
    let order: Vec<VertexId> = g.vertices().collect();
    let t = same_trace(
        &mut Simulation::new(),
        &mut ScanSimulation::new(),
        &g,
        &order,
        CachePolicy::Opt,
        3,
        "finite OPT tie",
    );
    // Loads: a, b, c, and b again for w. Stores: z (spilled for w's
    // room) and w at the end.
    assert_eq!((t.loads, t.stores, t.hits, t.evictions), (4, 2, 3, 2));
}

/// LRU with a pinned predecessor at the head of the recency list: `w`
/// reads `b` (spilled) before `a` (resident, least recently touched),
/// so making room for `b` must skip `a` and spill `y` instead.
#[test]
fn lru_skips_a_pinned_predecessor_at_the_head() {
    let mut b = CdagBuilder::new();
    let a = b.add_input("a");
    let inb = b.add_input("b");
    let x = b.add_op("x", &[a]);
    let y = b.add_op("y", &[x]);
    let c = b.add_input("c");
    let w = b.add_op("w", &[inb, a]);
    let z = b.add_op("z", &[c]);
    for out in [y, w, z] {
        b.tag_output(out);
    }
    let g = b.build().expect("valid DAG");
    let order: Vec<VertexId> = g.vertices().collect();
    let t = same_trace(
        &mut Simulation::new(),
        &mut ScanSimulation::new(),
        &g,
        &order,
        CachePolicy::Lru,
        3,
        "pinned LRU head",
    );
    // Loads: a, b, c, then b and c again. Stores: y (spilled), w, z.
    assert_eq!((t.loads, t.stores, t.hits, t.evictions), (5, 3, 3, 3));
}
