//! Measured traffic must respect certified bounds: the simulator sits
//! between lower bounds and real machines.

use dmc::cdag::{Cdag, VertexId};
use dmc::kernels::grid::Stencil;
use dmc::kernels::jacobi::{jacobi_cdag, jacobi_io_lower_bound};
use dmc::sim::hierarchy_sim::split_by_owner;
use dmc::sim::schedule::{by_level, jacobi_block_owner, tiled_jacobi_1d};
use dmc::sim::{CachePolicy, Simulation, Trace};
use dmc_core::parallel::horizontal::ghost_cell_upper_bound;

fn lru(g: &Cdag, order: &[VertexId], s1: u64) -> Trace {
    Simulation::new()
        .run(g, order, CachePolicy::Lru, s1)
        .expect("valid schedule, feasible S")
}

#[test]
fn jacobi_reads_never_beat_theorem_10() {
    let (n, t, s1) = (256usize, 32usize, 32u64);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    let lb = jacobi_io_lower_bound(n, 1, t, 1, s1);
    for (name, sched) in [
        ("untiled", by_level(&j.cdag)),
        ("tiled8", tiled_jacobi_1d(&j, 8)),
        ("tiled16", tiled_jacobi_1d(&j, 16)),
    ] {
        let r = lru(&j.cdag, &sched, s1);
        // Total traffic (loads + stores) dominates the I/O bound.
        assert!(r.io() as f64 >= lb, "{name}: measured {} < LB {lb}", r.io());
    }
}

#[test]
fn tiling_cuts_read_traffic() {
    let (n, t, s1) = (256usize, 32usize, 32u64);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    let untiled = lru(&j.cdag, &by_level(&j.cdag), s1);
    let tiled = lru(&j.cdag, &tiled_jacobi_1d(&j, 12), s1);
    assert!(
        (tiled.loads as f64) < untiled.loads as f64 / 4.0,
        "tiled reads {} vs untiled {}",
        tiled.loads,
        untiled.loads
    );
    // Dead values are freed, so tiling also cuts the spills: total
    // traffic drops, not just the reads.
    assert!(
        tiled.io() < untiled.io(),
        "tiled io {} vs untiled {}",
        tiled.io(),
        untiled.io()
    );
}

#[test]
fn halo_traffic_bounded_by_ghost_formula() {
    let (n, t) = (64usize, 4usize);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    for procs in [2usize, 4, 8] {
        let owner = jacobi_block_owner(&j, procs);
        let halo = split_by_owner(&j.cdag, procs, |v, _| owner[v.index()]).remote_reads;
        let formula_total = ghost_cell_upper_bound(n, 1, procs, t) * procs as f64;
        assert!(
            halo as f64 <= formula_total + 1e-9,
            "procs={procs}: measured {halo} > ghost formula {formula_total}"
        );
        assert!(halo > 0, "block runs must exchange halos");
    }
}

#[test]
fn more_cache_never_increases_reads() {
    let j = jacobi_cdag(128, 1, 16, Stencil::VonNeumann);
    let sched = tiled_jacobi_1d(&j, 8);
    let mut prev = u64::MAX;
    for s1 in [16u64, 32, 64, 256] {
        let loads = lru(&j.cdag, &sched, s1).loads;
        assert!(loads <= prev, "S={s1}: reads {loads} > previous {prev}");
        prev = loads;
    }
}
