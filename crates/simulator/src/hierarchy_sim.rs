//! Machine-hierarchy simulation — the P-RBW machine model of Section 5.
//!
//! The single-cache [`Simulation`] of the
//! red-blue-white game measures traffic across *one* fast/slow boundary.
//! Real machines (the paper's Table 1) are `(N_l, S_l)` *hierarchies*:
//! `N_1` register files over a shared LLC over node DRAM. This module
//! runs one schedule through every boundary of a
//! [`MemoryHierarchy`] at once:
//!
//! 1. [`effective_capacities`] converts the hierarchy into one aggregate
//!    word capacity per *cache* level (the topmost level is the backing
//!    store and is never simulated). Inclusive hierarchies use `N_l·S_l`
//!    per level; exclusive hierarchies the cumulative sum `Σ_{k≤l}
//!    N_k·S_k`, since a value evicted from a faster level may still live
//!    in the slower one.
//! 2. [`HierarchySimulation`] replays the schedule once per boundary
//!    with a reset-and-reuse [`Simulation`] arena at that effective capacity. Both LRU and Belady's OPT are
//!    *stack algorithms* (Mattson's inclusion property): the contents of
//!    a cache of capacity `C` are a superset of any smaller cache on the
//!    same reference stream, so the traffic that crosses boundary `l` of
//!    an inclusive hierarchy is exactly the miss traffic of a standalone
//!    cache of the level's aggregate capacity. Write-back accounting
//!    falls out of the same identity: a dirty (unsaved live) value
//!    evicted at level `l` is the `stores` column of that level's
//!    [`Trace`] — the words written *into* level `l+1`.
//! 3. [`split_by_owner`] adds the parallel dimension: a deterministic
//!    P-processor schedule (the Kahn wavefronts of the DAG, barrier
//!    between wavefronts, each vertex on the processor an ownership rule
//!    names) whose cross-processor word count is comparable against the
//!    Lemma-2 parallel wavefront bound and the ghost-cell formula.
//!    [`split_round_robin`] is the rule-free default: round-robin within
//!    each wavefront.
//!
//! The 1-level special case is pinned by a differential oracle test: a
//! hierarchy built by
//! [`MachineSpec::single_level_hierarchy`](dmc_machine::MachineSpec::single_level_hierarchy)
//! must reproduce the single-cache `Simulation::run` trace *exactly*.

use crate::simulation::{CachePolicy, SimError, Simulation, Trace};
use dmc_cdag::topo::levels as kahn_levels;
use dmc_cdag::{Cdag, VertexId};
use dmc_machine::MemoryHierarchy;

/// Whether slower levels replicate the contents of faster ones.
///
/// Determines the aggregate capacity backing each boundary in
/// [`effective_capacities`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inclusion {
    /// Level `l+1` holds a superset of level `l` (the common case; the
    /// BG/Q L2 is inclusive). Boundary `l` sees capacity `N_l · S_l`.
    Inclusive,
    /// Levels hold disjoint contents; a victim of level `l` may still be
    /// resident in `l+1`. Boundary `l` sees capacity `Σ_{k≤l} N_k · S_k`.
    Exclusive,
}

impl std::fmt::Display for Inclusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inclusion::Inclusive => write!(f, "inclusive"),
            Inclusion::Exclusive => write!(f, "exclusive"),
        }
    }
}

/// The aggregate word capacity backing each *cache* boundary of `h`.
///
/// Returns one `(level name, effective words)` pair per level `1..L`
/// (1-based, fastest first); the topmost level `L` is the backing store
/// of the simulation and gets no entry. Arithmetic saturates so
/// `u64::MAX` sentinel capacities stay infinite.
///
/// ```
/// use dmc_machine::MemoryHierarchy;
/// use dmc_sim::hierarchy_sim::{effective_capacities, Inclusion};
///
/// let h = MemoryHierarchy::cluster(1, 4, 64, 4_000_000, 2_000_000_000);
/// let caps = effective_capacities(&h, Inclusion::Inclusive);
/// assert_eq!(caps.len(), 2); // registers, LLC — DRAM is the backing store
/// assert_eq!(caps[0], ("registers".to_string(), 4 * 64));
/// assert_eq!(caps[1], ("L2".to_string(), 4_000_000));
/// ```
pub fn effective_capacities(h: &MemoryHierarchy, inclusion: Inclusion) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(h.num_levels().saturating_sub(1));
    let mut cumulative: u64 = 0;
    for l in 1..h.num_levels() {
        let level = h.level(l);
        let aggregate = (level.units as u64).saturating_mul(level.capacity_words);
        cumulative = cumulative.saturating_add(aggregate);
        let effective = match inclusion {
            Inclusion::Inclusive => aggregate,
            Inclusion::Exclusive => cumulative,
        };
        out.push((level.name.clone(), effective));
    }
    out
}

/// Traffic observed at one hierarchy boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTrace {
    /// 1-based level index (1 = fastest).
    pub level: usize,
    /// Level name from the [`MemoryHierarchy`].
    pub name: String,
    /// Units `N_l` at this level.
    pub units: usize,
    /// Per-unit capacity `S_l` in words.
    pub capacity_words: u64,
    /// Aggregate capacity the boundary was simulated at (see
    /// [`effective_capacities`]).
    pub effective_words: u64,
    /// Traffic across the boundary between this level and level `l+1`:
    /// `loads` are misses serviced from below, `stores` the write-back of
    /// dirty victims into level `l+1`, `hits` and `evictions` the
    /// internal bookkeeping of the level itself.
    pub trace: Trace,
}

/// Per-boundary traffic of one schedule through a full hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyTrace {
    /// One entry per cache boundary, fastest first.
    pub levels: Vec<LevelTrace>,
}

impl HierarchyTrace {
    /// Total words moved across every boundary — the hierarchy-wide cost
    /// a multi-level roofline compares against.
    pub fn total_io(&self) -> u64 {
        self.levels.iter().map(|l| l.trace.io()).sum()
    }

    /// The trace at 1-based boundary `l`; panics if out of range like a
    /// slice index would.
    pub fn boundary(&self, l: usize) -> &LevelTrace {
        &self.levels[l - 1]
    }
}

/// A [`Simulation`] failure lifted to a hierarchy level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchySimError {
    /// 1-based level whose simulation failed.
    pub level: usize,
    /// Name of that level.
    pub name: String,
    /// The underlying single-cache failure.
    pub source: SimError,
}

impl std::fmt::Display for HierarchySimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hierarchy level {} ({}): {}",
            self.level, self.name, self.source
        )
    }
}

impl std::error::Error for HierarchySimError {}

/// Reset-and-reuse engine that measures a schedule's traffic at every
/// boundary of a [`MemoryHierarchy`].
///
/// Holds one [`Simulation`] arena per boundary so repeated runs (sweeps,
/// policy comparisons) reuse their allocations, mirroring the arena
/// discipline of the single-cache engine.
///
/// ```
/// use dmc_cdag::topo::topological_order;
/// use dmc_kernels::chains::chain;
/// use dmc_machine::MemoryHierarchy;
/// use dmc_sim::hierarchy_sim::{HierarchySimulation, Inclusion};
/// use dmc_sim::simulation::CachePolicy;
///
/// // A 10-vertex chain through 4 registers → 16-word LLC → DRAM: the
/// // rolling value stays register-resident, so both boundaries see just
/// // the compulsory input load and the final output store.
/// let g = chain(10);
/// let order = topological_order(&g);
/// let h = MemoryHierarchy::cluster(1, 2, 2, 16, 1 << 30);
/// let mut sim = HierarchySimulation::new();
/// let ht = sim
///     .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
///     .unwrap();
/// assert_eq!(ht.levels.len(), 2);
/// for lt in &ht.levels {
///     assert_eq!((lt.trace.loads, lt.trace.stores), (1, 1));
/// }
/// // Inclusive traffic is monotone: deeper boundaries see no more misses.
/// assert!(ht.boundary(1).trace.loads >= ht.boundary(2).trace.loads);
/// ```
#[derive(Debug, Default)]
pub struct HierarchySimulation {
    arenas: Vec<Simulation>,
}

impl HierarchySimulation {
    /// Creates an engine with no retained arenas.
    pub fn new() -> Self {
        HierarchySimulation::default()
    }

    /// Runs `schedule` on `g` through every cache boundary of `h`,
    /// returning the per-boundary [`Trace`] vector (fastest first).
    ///
    /// Each boundary is simulated at its [`effective_capacities`] entry;
    /// errors carry the failing level. A boundary whose effective
    /// capacity is below the schedule's feasible minimum surfaces as
    /// [`SimError::BudgetTooSmall`] at that level.
    pub fn run(
        &mut self,
        g: &Cdag,
        schedule: &[VertexId],
        policy: CachePolicy,
        h: &MemoryHierarchy,
        inclusion: Inclusion,
    ) -> Result<HierarchyTrace, HierarchySimError> {
        let caps = effective_capacities(h, inclusion);
        if self.arenas.len() < caps.len() {
            self.arenas.resize_with(caps.len(), Simulation::new);
        }
        let mut out = Vec::with_capacity(caps.len());
        for (i, (name, effective)) in caps.iter().enumerate() {
            let level = i + 1;
            let trace = self.arenas[i]
                .run(g, schedule, policy, *effective)
                .map_err(|source| HierarchySimError {
                    level,
                    name: name.clone(),
                    source,
                })?;
            out.push(LevelTrace {
                level,
                name: name.clone(),
                units: h.units(level),
                capacity_words: h.capacity(level),
                effective_words: *effective,
                trace,
            });
        }
        Ok(HierarchyTrace { levels: out })
    }
}

/// A deterministic P-processor split of a DAG schedule.
///
/// Built by [`split_by_owner`]: vertices are taken wavefront by wavefront
/// (Kahn depth levels, an implicit barrier between them) and each is
/// assigned to the processor its ownership rule names.
/// [`split_round_robin`] deals each wavefront round-robin; a data
/// decomposition such as
/// [`jacobi_block_owner`](crate::schedule::jacobi_block_owner) pins every
/// vertex to its grid point's slab. Every field is a pure function of the
/// graph and the rule, so the split is bit-identical across runs and
/// thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelSplit {
    /// Number of processors the schedule was dealt across.
    pub procs: usize,
    /// The flattened level-order schedule — a valid topological order,
    /// suitable for [`Simulation::run`].
    pub order: Vec<VertexId>,
    /// `owner[v]` = processor that executes (or, for an input, first
    /// reads) vertex `v`.
    pub owner: Vec<u32>,
    /// Number of wavefronts, i.e. barrier-separated supersteps.
    pub supersteps: usize,
    /// Non-input vertices executed by each processor.
    pub per_proc_computes: Vec<u64>,
    /// Distinct `(value, remote consumer-processor)` pairs: the words
    /// that must cross the network under an owner-computes rule (each
    /// value is sent at most once to each processor that reads it), the
    /// measured side of the Lemma-2 horizontal comparison.
    pub remote_reads: u64,
}

/// Splits `g` across `procs` processors: round-robin within each Kahn
/// wavefront, barrier between wavefronts.
///
/// Vertices in one wavefront share a depth, so no edge connects them and
/// the deal order is irrelevant to correctness; the flattened order is
/// always a valid topological order. `procs` is clamped to at least 1.
///
/// ```
/// use dmc_cdag::topo::is_valid_topological_order;
/// use dmc_kernels::chains::chain;
/// use dmc_sim::hierarchy_sim::split_round_robin;
///
/// let g = chain(6);
/// let split = split_round_robin(&g, 4);
/// assert!(is_valid_topological_order(&g, &split.order));
/// // A chain has no parallelism: every wavefront holds one vertex, so
/// // processor 0 does all the work and every handoff stays local.
/// assert_eq!(split.supersteps, g.num_vertices());
/// assert_eq!(split.remote_reads, 0);
/// ```
pub fn split_round_robin(g: &Cdag, procs: usize) -> ParallelSplit {
    let procs = procs.max(1);
    split_by_owner(g, procs, |_, k| k % procs)
}

/// Splits `g` across `procs` processors by an ownership rule, in Kahn
/// wavefront order with a barrier between wavefronts.
///
/// `owner_of(v, k)` names the processor of vertex `v`, the `k`-th
/// vertex of its wavefront; it is called once per vertex, in schedule
/// order, and the split panics if it returns a value not below `procs`
/// (clamped to at least 1). The flattened order is the level-by-level
/// schedule ([`schedule::by_level`](crate::schedule::by_level)), so the split's
/// [`ParallelSplit::order`] can be handed straight to [`Simulation::run`]
/// for the vertical side of the same execution.
///
/// ```
/// use dmc_kernels::grid::Stencil;
/// use dmc_kernels::jacobi::jacobi_cdag;
/// use dmc_sim::hierarchy_sim::split_by_owner;
/// use dmc_sim::schedule::jacobi_block_owner;
///
/// // 1-D Jacobi on 16 points cut into 4 slabs: each of the 3 inner slab
/// // faces sends one value each way per time step, 3 · 2 · T = 12.
/// let j = jacobi_cdag(16, 1, 2, Stencil::VonNeumann);
/// let owner = jacobi_block_owner(&j, 4);
/// let split = split_by_owner(&j.cdag, 4, |v, _| owner[v.index()]);
/// assert_eq!(split.remote_reads, 12);
/// ```
pub fn split_by_owner(
    g: &Cdag,
    procs: usize,
    mut owner_of: impl FnMut(VertexId, usize) -> usize,
) -> ParallelSplit {
    let procs = procs.max(1);
    let wavefronts = kahn_levels(g);
    let n = g.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut owner = vec![0u32; n];
    let mut per_proc_computes = vec![0u64; procs];
    for wave in &wavefronts {
        for (k, &v) in wave.iter().enumerate() {
            let p = owner_of(v, k);
            assert!(p < procs, "owner {p} of {v} out of range for {procs} procs");
            owner[v.0 as usize] = p as u32;
            if !g.is_input(v) {
                per_proc_computes[p] += 1;
            }
            order.push(v);
        }
    }
    // Count distinct (value, remote consumer-owner) pairs: each value is
    // sent at most once to each processor that reads it remotely.
    let mut remote_reads = 0u64;
    let mut consumer_owners: Vec<u32> = Vec::new();
    for u in g.vertices() {
        consumer_owners.clear();
        consumer_owners.extend(g.successors(u).iter().map(|&c| owner[c.0 as usize]));
        consumer_owners.sort_unstable();
        consumer_owners.dedup();
        let home = owner[u.0 as usize];
        remote_reads += consumer_owners.iter().filter(|&&p| p != home).count() as u64;
    }
    ParallelSplit {
        procs,
        order,
        owner,
        supersteps: wavefronts.len(),
        per_proc_computes,
        remote_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::topo::{is_valid_topological_order, topological_order};
    use dmc_kernels::chains::chain;
    use dmc_kernels::grid::Stencil;
    use dmc_kernels::jacobi::jacobi_cdag;
    use dmc_machine::{specs, Level};

    #[test]
    fn effective_capacities_inclusive_vs_exclusive() {
        let h = MemoryHierarchy::cluster(1, 4, 8, 100, 1 << 40);
        let inc = effective_capacities(&h, Inclusion::Inclusive);
        let exc = effective_capacities(&h, Inclusion::Exclusive);
        assert_eq!(inc, [("registers".into(), 32), ("L2".into(), 100)]);
        assert_eq!(exc, [("registers".into(), 32), ("L2".into(), 132)]);
    }

    #[test]
    fn effective_capacities_saturate_on_sentinel() {
        let h = MemoryHierarchy::two_level(u64::MAX);
        let inc = effective_capacities(&h, Inclusion::Inclusive);
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].1, u64::MAX);
        let exc = effective_capacities(&h, Inclusion::Exclusive);
        assert_eq!(exc[0].1, u64::MAX);
    }

    fn jacobi_1d(n: usize, t: usize) -> Cdag {
        jacobi_cdag(n, 1, t, Stencil::VonNeumann).cdag
    }

    #[test]
    fn single_level_hierarchy_matches_single_cache_sim() {
        // The differential oracle in miniature (the registry-wide version
        // lives in tests/hierarchy_sim.rs): boundary 1 of a 1-cache-level
        // hierarchy is exactly the standalone simulation.
        let g = jacobi_1d(16, 4);
        let order = topological_order(&g);
        let m = specs::ibm_bgq();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            for s in [8u64, 16, 64] {
                let h = m.single_level_hierarchy(s);
                let mut hier = HierarchySimulation::new();
                let ht = hier
                    .run(&g, &order, policy, &h, Inclusion::Inclusive)
                    .unwrap();
                let mut flat = Simulation::new();
                let t = flat.run(&g, &order, policy, s).unwrap();
                assert_eq!(ht.levels.len(), 1);
                assert_eq!(ht.boundary(1).trace, t, "policy {policy} s {s}");
            }
        }
    }

    #[test]
    fn budget_too_small_names_the_level() {
        let g = jacobi_1d(16, 2);
        let order = topological_order(&g);
        // Registers of 1 word each can never hold a stencil point's
        // operands; the error must blame level 1 by name.
        let h = MemoryHierarchy::cluster(1, 1, 1, 1 << 20, 1 << 40);
        let mut hier = HierarchySimulation::new();
        let err = hier
            .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
            .unwrap_err();
        assert_eq!(err.level, 1);
        assert_eq!(err.name, "registers");
        assert!(matches!(err.source, SimError::BudgetTooSmall { .. }));
        assert!(err.to_string().contains("level 1 (registers)"));
    }

    #[test]
    fn inclusive_traffic_is_monotone_down_the_hierarchy() {
        let g = jacobi_1d(32, 8);
        let order = topological_order(&g);
        let h = MemoryHierarchy::cluster(1, 4, 8, 64, 1 << 40);
        let mut hier = HierarchySimulation::new();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let ht = hier
                .run(&g, &order, policy, &h, Inclusion::Inclusive)
                .unwrap();
            for w in ht.levels.windows(2) {
                assert!(
                    w[0].trace.loads >= w[1].trace.loads,
                    "{policy}: loads not monotone: {:?}",
                    ht.levels
                );
                assert!(w[0].trace.io() >= w[1].trace.io());
            }
        }
    }

    #[test]
    fn arenas_are_reused_across_runs() {
        let g = chain(12);
        let order = topological_order(&g);
        let h = MemoryHierarchy::cluster(1, 2, 2, 8, 1 << 30);
        let mut hier = HierarchySimulation::new();
        let a = hier
            .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
            .unwrap();
        let b = hier
            .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
            .unwrap();
        assert_eq!(a, b, "reset-and-reuse must not leak state between runs");
    }

    #[test]
    fn round_robin_split_is_deterministic_and_balanced() {
        let g = jacobi_1d(16, 4);
        let a = split_round_robin(&g, 4);
        let b = split_round_robin(&g, 4);
        assert_eq!(a, b);
        assert!(is_valid_topological_order(&g, &a.order));
        assert_eq!(a.per_proc_computes.len(), 4);
        let total: u64 = a.per_proc_computes.iter().sum();
        assert_eq!(total, g.num_compute_vertices() as u64);
        // Round-robin within a 16-wide wavefront keeps the imbalance
        // within one vertex per superstep.
        let max = a.per_proc_computes.iter().max().copied().unwrap_or(0);
        let min = a.per_proc_computes.iter().min().copied().unwrap_or(0);
        assert!(max - min <= a.supersteps as u64);
    }

    #[test]
    fn one_processor_split_has_no_remote_traffic() {
        let g = jacobi_1d(16, 4);
        let s = split_round_robin(&g, 1);
        assert_eq!(s.procs, 1);
        assert_eq!(s.remote_reads, 0);
        assert!(s.owner.iter().all(|&p| p == 0));
    }

    #[test]
    fn remote_reads_count_distinct_value_processor_pairs() {
        // Fan-out: one input feeding 4 compute vertices in one wavefront,
        // dealt to 2 processors. The input (wavefront 0) lives on proc 0;
        // consumers land on procs {0, 1, 0, 1}, so exactly one remote
        // (value, proc) pair exists no matter how many consumers proc 1
        // got.
        let mut b = dmc_cdag::CdagBuilder::new();
        let x = b.add_input("x");
        for i in 0..4 {
            let v = b.add_op(format!("c{i}"), &[x]);
            b.tag_output(v);
        }
        let g = b.build_valid("fan-out");
        let s = split_round_robin(&g, 2);
        assert_eq!(s.supersteps, 2);
        assert_eq!(s.remote_reads, 1);
    }

    #[test]
    fn block_owner_split_counts_the_jacobi_halo() {
        // 1-D Jacobi, n = 64, T = 4, cut into slabs: every inner face
        // sends one value each way per time step, (P − 1) · 2 · T words.
        let j = jacobi_cdag(64, 1, 4, Stencil::VonNeumann);
        for (procs, halo) in [(2usize, 8u64), (4, 24), (8, 56)] {
            let owner = crate::schedule::jacobi_block_owner(&j, procs);
            let s = split_by_owner(&j.cdag, procs, |v, _| owner[v.index()]);
            assert_eq!(s.remote_reads, halo, "procs={procs}");
            let total: u64 = s.per_proc_computes.iter().sum();
            assert_eq!(total, j.cdag.num_compute_vertices() as u64);
            assert!(is_valid_topological_order(&j.cdag, &s.order));
        }
    }

    #[test]
    fn alternating_owners_make_every_chain_edge_remote() {
        let g = chain(6);
        let s = split_by_owner(&g, 2, |v, _| v.index() % 2);
        assert_eq!(s.remote_reads, 5);
        assert_eq!(s.per_proc_computes, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_beyond_procs_is_rejected() {
        let _ = split_by_owner(&chain(3), 2, |_, _| 2);
    }

    #[test]
    fn single_owner_split_has_no_remote_traffic() {
        // Two processors, but the rule pins every vertex to processor 0:
        // every value is read where it lives, so nothing crosses the
        // network and processor 1 stays idle.
        let g = chain(6);
        let s = split_by_owner(&g, 2, |_, _| 0);
        assert_eq!(s.procs, 2);
        assert_eq!(s.remote_reads, 0);
        assert_eq!(s.per_proc_computes, [5, 0]);
    }

    #[test]
    fn three_level_hierarchy_measures_both_boundaries() {
        let g = jacobi_1d(32, 8);
        let order = topological_order(&g);
        let h = MemoryHierarchy::new(vec![
            Level::new("L1", 1, 4),
            Level::new("L2", 1, 64),
            Level::new("mem", 1, u64::MAX),
        ])
        .unwrap();
        let ht = HierarchySimulation::new()
            .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
            .unwrap();
        assert_eq!(ht.levels.len(), 2);
        let (l1, l2) = (ht.boundary(1).trace, ht.boundary(2).trace);
        // Two 32-wide rows fit in L2, so it sees only the compulsory
        // traffic; the 4-word L1 thrashes on every row.
        let compulsory = (g.num_inputs() + g.num_outputs()) as u64;
        assert_eq!(l2.io(), compulsory, "{:?}", ht.levels);
        assert!(l1.io() > l2.io(), "{:?}", ht.levels);
        assert_eq!(ht.total_io(), l1.io() + l2.io());
    }

    #[test]
    fn owner_split_and_hierarchy_trace_repeat_bit_identically() {
        // Horizontal and vertical sides of one parallel execution: the
        // split and the traces of its order are identical run to run.
        let j = jacobi_cdag(48, 1, 6, Stencil::VonNeumann);
        let g = &j.cdag;
        let owner = crate::schedule::jacobi_block_owner(&j, 4);
        let split = || split_by_owner(g, 4, |v, _| owner[v.index()]);
        let (a, b) = (split(), split());
        assert_eq!(a, b);
        assert!(a.remote_reads > 0, "multi-processor path exercised");
        let h = MemoryHierarchy::cluster(1, 4, 4, 32, 1 << 30);
        let trace = |order: &[VertexId]| {
            HierarchySimulation::new()
                .run(g, order, CachePolicy::Lru, &h, Inclusion::Inclusive)
                .unwrap()
        };
        assert_eq!(trace(&a.order), trace(&b.order));
    }

    #[test]
    fn hierarchy_run_rejects_a_reversed_schedule() {
        let g = chain(3);
        let mut order = topological_order(&g);
        order.reverse();
        let h = MemoryHierarchy::cluster(1, 1, 4, 16, 1 << 30);
        let err = HierarchySimulation::new()
            .run(&g, &order, CachePolicy::Lru, &h, Inclusion::Inclusive)
            .unwrap_err();
        assert_eq!(err.level, 1);
        assert_eq!(err.source, SimError::InvalidSchedule);
    }

    #[test]
    fn split_order_grows_no_vertices() {
        let g = jacobi_1d(8, 3);
        for p in [1, 2, 3, 7] {
            let s = split_round_robin(&g, p);
            assert_eq!(s.order.len(), g.num_vertices());
        }
    }
}
