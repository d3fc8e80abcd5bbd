//! Single-level schedule simulation under Red-Blue-White semantics.
//!
//! This module measures the quantity the paper's bounds actually
//! constrain: the I/O of one fast memory of `S` words playing the
//! no-recomputation RBW game along a fixed schedule. Dead values are deleted for free (rule R4), values
//! evicted while still live are stored once, and outputs are flushed at
//! the end — so a measured [`Trace`] sits *between* the certified bounds:
//!
//! ```text
//! certified lower bound  ≤  Trace::io()  ≤  certified schedule upper bound
//! ```
//!
//! for any [`CachePolicy`], because every run corresponds to a valid RBW
//! game. `dmc_core`'s validation pipeline exploits exactly this sandwich.
//!
//! [`Simulation`] is a reset-and-reuse arena (the same pattern as the
//! wavefront engine's `FlowNetwork`): all per-run state lives in retained
//! vectors indexed by vertex id, so sweeping hundreds of `S` values
//! allocates nothing after the first run. [`sweep`] fans an S-sweep over
//! `std::thread::scope` workers — one arena per worker, index-ordered
//! merge — so sweep reports are bit-identical at any thread count.
//!
//! # Determinism
//!
//! Every eviction decision is total-ordered and documented:
//!
//! * [`CachePolicy::Lru`] evicts the unpinned resident value touched
//!   least recently. Residents sit in an intrusive doubly-linked
//!   recency list over vertex ids, and a touch moves a value to its
//!   tail, so the victim is the first unpinned entry from the head.
//!   There are never ties. A touch, a free and a victim pick are O(1);
//!   the pick skips at most the firing vertex's `in_degree` pinned
//!   predecessors.
//! * [`CachePolicy::Opt`] evicts the resident value whose next use in the
//!   schedule is furthest away (values never used again are infinitely
//!   far); ties are broken toward the smaller vertex id. Residents sit
//!   in an indexed binary heap ordered by `(next use, smaller id)`; a
//!   value is re-keyed only when its use cursor moves. Placing, freeing
//!   and re-keying are O(log S), and a pick is O(1) plus the pinned
//!   entries it looks past.
//!
//! No hash-map iteration is involved anywhere, so traces are reproducible
//! across runs, processes, and thread counts.

use dmc_cdag::fanout::fan_out_indexed;
use dmc_cdag::{Cdag, VertexId};
use std::fmt;

/// Words of fast memory firing `v` needs resident at once: one for an
/// input, `in_degree + 1` for a compute vertex (itself plus every
/// predecessor, which are pinned while it fires).
pub fn vertex_footprint(g: &Cdag, v: VertexId) -> usize {
    if g.is_input(v) {
        1
    } else {
        g.in_degree(v) + 1
    }
}

/// The smallest capacity *any* schedule of `g` can execute in:
/// `max_v` [`vertex_footprint`]. [`Simulation::run`] (and the RBW game
/// executors in `dmc-core`) reject capacities below this; sweep drivers
/// use it to pick always-feasible default sweeps.
pub fn min_feasible_capacity(g: &Cdag) -> usize {
    g.vertices()
        .map(|v| vertex_footprint(g, v))
        .max()
        .unwrap_or(1)
}

/// Victim-selection rule of a [`Simulation`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used eviction — what a hardware cache approximates.
    Lru,
    /// Furthest-next-use eviction (Belady/MIN) for the fixed schedule —
    /// the offline *replacement* optimum, a proxy for the best the
    /// hierarchy could do on this schedule.
    Opt,
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Opt => "opt",
        })
    }
}

/// Traffic measured by one [`Simulation::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a simulated trace is the measurement; dropping it wastes the run"]
pub struct Trace {
    /// Words fetched from slow memory (input firings + reloads of
    /// spilled values).
    pub loads: u64,
    /// Words written to slow memory (live evictions + the final output
    /// flush).
    pub stores: u64,
    /// Predecessor reads served from fast memory.
    pub hits: u64,
    /// Capacity evictions (free deletions of dead values are not
    /// counted — they model the RBW delete rule R4).
    pub evictions: u64,
}

impl Trace {
    /// Total I/O — the `q` of the underlying RBW game: `loads + stores`.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Why a [`Simulation::run`] was rejected before simulating anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The schedule is not a topological order of the CDAG.
    InvalidSchedule,
    /// `S` is too small: firing some vertex needs `in_degree + 1` words
    /// resident at once.
    BudgetTooSmall {
        /// The vertex that cannot be fired.
        vertex: VertexId,
        /// Minimum capacity required for it.
        required: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSchedule => write!(f, "schedule is not a topological order"),
            SimError::BudgetTooSmall { vertex, required } => {
                write!(
                    f,
                    "capacity too small: firing {vertex} needs {required} words"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The "no vertex" link of the LRU recency list.
const NIL: u32 = u32::MAX;

/// OPT's heap key of resident `u` with next use `next_use`: ordered by
/// next use, then by *descending* id, so the maximum is the furthest
/// next use with ties toward the smaller id. Keys are unique.
fn opt_key(next_use: u32, u: u32) -> u64 {
    (u64::from(next_use) << 32) | u64::from(u32::MAX - u)
}

/// The vertex an [`opt_key`] belongs to.
fn key_vertex(key: u64) -> u32 {
    u32::MAX - key as u32
}

/// Reusable single-level RBW cache simulator.
///
/// All working state is retained between runs and reset in place, so one
/// arena amortizes across a whole S-sweep. A run visits each scheduled
/// vertex once, reads its predecessors through the simulated fast memory
/// (hit or reload), places its result, and evicts by the chosen
/// [`CachePolicy`] under capacity pressure — exactly the moves of a valid
/// RBW game, which is what makes [`Trace::io`] comparable to the
/// certified bounds.
///
/// Victim selection is indexed, never a scan of the resident words:
/// under LRU a recency list makes a touch, a free and a victim pick O(1)
/// (the pick skips at most the firing vertex's `in_degree` pinned
/// predecessors); under OPT an indexed max-heap on next use makes each
/// placement, free and re-key O(log S). See the module's
/// "Determinism" section for the exact order.
///
/// ```
/// use dmc_cdag::topo::topological_order;
/// use dmc_kernels::chains::chain;
/// use dmc_sim::simulation::{CachePolicy, Simulation};
///
/// // A 10-vertex chain in 2 words of fast memory: load the input, keep
/// // the rolling value resident (each link a hit, dead values deleted
/// // for free), store the output — 2 words of I/O total.
/// let g = chain(10);
/// let order = topological_order(&g);
/// let mut sim = Simulation::new();
/// let t = sim.run(&g, &order, CachePolicy::Lru, 2).unwrap();
/// assert_eq!((t.loads, t.stores, t.hits, t.evictions), (1, 1, 9, 0));
/// assert_eq!(t.io(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Simulation {
    resident: Vec<bool>,
    saved: Vec<bool>,
    remaining: Vec<u32>,
    /// CSR over consumer positions: vertex `u`'s uses (schedule steps of
    /// its consumers, ascending) live at
    /// `use_pos[use_start[u] .. use_start[u + 1]]`.
    use_start: Vec<u32>,
    use_pos: Vec<u32>,
    cursor: Vec<u32>,
    pos: Vec<u32>,
    /// `pinned[u] == step + 1` while schedule step `step` fires `u` or a
    /// consumer of `u`: victim selection skips `u` then.
    pinned: Vec<u32>,
    /// LRU recency list over the resident ids, least recently touched at
    /// `head`: `prev`/`next` are intrusive links, [`NIL`]-terminated.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// OPT residents as a binary max-heap of [`opt_key`]s — furthest
    /// next use first, ties toward the smaller id — with each resident's
    /// slot in `heap_pos`.
    heap: Vec<u64>,
    heap_pos: Vec<u32>,
    /// Slots still to visit while looking past pinned heap entries.
    heap_stack: Vec<usize>,
    resident_count: usize,
}

impl Simulation {
    /// A fresh arena (allocates nothing until the first run).
    pub fn new() -> Self {
        Simulation::default()
    }

    /// Simulates `schedule` on `g` with `s` words of fast memory.
    ///
    /// Rejects schedules that are not topological orders of `g` and
    /// capacities below `max_v (in_degree(v) + 1)` — the executor needs a
    /// vertex and all its predecessors resident at once.
    pub fn run(
        &mut self,
        g: &Cdag,
        schedule: &[VertexId],
        policy: CachePolicy,
        s: u64,
    ) -> Result<Trace, SimError> {
        let n = g.num_vertices();
        self.reset(n);

        // Schedule validation against the retained position scratch.
        if schedule.len() != n {
            return Err(SimError::InvalidSchedule);
        }
        for (i, &v) in schedule.iter().enumerate() {
            if v.index() >= n || self.pos[v.index()] != u32::MAX {
                return Err(SimError::InvalidSchedule);
            }
            self.pos[v.index()] = i as u32;
        }
        for v in g.vertices() {
            for &p in g.predecessors(v) {
                if self.pos[p.index()] >= self.pos[v.index()] {
                    return Err(SimError::InvalidSchedule);
                }
            }
        }
        // Feasibility: firing needs the vertex plus all predecessors.
        for v in g.vertices() {
            let required = vertex_footprint(g, v);
            if (required as u64) > s {
                return Err(SimError::BudgetTooSmall {
                    vertex: v,
                    required,
                });
            }
        }
        // Capacities beyond |V| never evict; clamp so the comparison
        // below stays in usize.
        let cap = s.min(n as u64 + 1) as usize;

        // Consumer positions (CSR, ascending because the fill walks the
        // schedule in step order) and live-use counts.
        for v in g.vertices() {
            self.use_start[v.index() + 1] = g.out_degree(v) as u32;
            self.remaining[v.index()] = g.out_degree(v) as u32;
            if g.is_input(v) {
                self.saved[v.index()] = true; // inputs start in slow memory
            }
        }
        for i in 0..n {
            self.use_start[i + 1] += self.use_start[i];
        }
        self.use_pos.resize(self.use_start[n] as usize, 0);
        {
            let mut fill = self.use_start.clone();
            for (step, &v) in schedule.iter().enumerate() {
                for &p in g.predecessors(v) {
                    self.use_pos[fill[p.index()] as usize] = step as u32;
                    fill[p.index()] += 1;
                }
            }
        }

        let mut trace = Trace::default();
        for (step, &v) in schedule.iter().enumerate() {
            let preds = g.predecessors(v);
            // `n <= u32::MAX` vertices, so the stamp never wraps to 0.
            let stamp = step as u32 + 1;
            self.pinned[v.index()] = stamp;
            for &p in preds {
                self.pinned[p.index()] = stamp;
            }
            // 1. Predecessors resident (pinned while firing).
            for &p in preds {
                if self.resident[p.index()] {
                    trace.hits += 1;
                } else {
                    self.make_room(g, stamp, cap, policy, &mut trace);
                    debug_assert!(self.saved[p.index()], "spilled {p} lost without a store");
                    trace.loads += 1;
                    self.place(p, policy);
                }
                self.touch(p, policy);
            }
            // 2. The fired vertex itself: inputs load, computes are free.
            if !self.resident[v.index()] {
                self.make_room(g, stamp, cap, policy, &mut trace);
                if g.is_input(v) {
                    trace.loads += 1;
                }
                self.place(v, policy);
            }
            self.touch(v, policy);
            // 3. Retire uses; delete dead values for free (rule R4).
            for &p in preds {
                self.remaining[p.index()] -= 1;
                self.advance_cursor(p, step as u32, policy);
                if self.remaining[p.index()] == 0 && (!g.is_output(p) || self.saved[p.index()]) {
                    self.drop_resident(p, policy);
                }
            }
            if self.remaining[v.index()] == 0 && !g.is_output(v) {
                self.drop_resident(v, policy);
            }
        }
        // 4. Outputs must end up in slow memory.
        for v in g.vertices() {
            if g.is_output(v) && !self.saved[v.index()] {
                debug_assert!(
                    self.resident[v.index()],
                    "output {v} neither resident nor saved"
                );
                trace.stores += 1;
                self.saved[v.index()] = true;
            }
        }
        Ok(trace)
    }

    fn reset(&mut self, n: usize) {
        self.resident.clear();
        self.resident.resize(n, false);
        self.saved.clear();
        self.saved.resize(n, false);
        self.remaining.clear();
        self.remaining.resize(n, 0);
        self.use_start.clear();
        self.use_start.resize(n + 1, 0);
        self.use_pos.clear();
        self.cursor.clear();
        self.cursor.resize(n, 0);
        self.pos.clear();
        self.pos.resize(n, u32::MAX);
        self.pinned.clear();
        self.pinned.resize(n, 0);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        self.head = NIL;
        self.tail = NIL;
        self.heap.clear();
        self.heap_pos.clear();
        self.heap_pos.resize(n, 0);
        self.resident_count = 0;
    }

    /// Marks `v` as just used. Under LRU it moves to the recency list's
    /// tail; every [`Simulation::place`] is followed at once by a touch,
    /// so list order is exactly "least recently touched first".
    fn touch(&mut self, v: VertexId, policy: CachePolicy) {
        if policy == CachePolicy::Lru && self.tail != v.0 {
            self.unlink(v.0);
            self.link_tail(v.0);
        }
    }

    fn place(&mut self, v: VertexId, policy: CachePolicy) {
        debug_assert!(!self.resident[v.index()]);
        self.resident[v.index()] = true;
        self.resident_count += 1;
        match policy {
            CachePolicy::Lru => self.link_tail(v.0),
            CachePolicy::Opt => {
                let slot = self.heap.len();
                self.heap.push(opt_key(self.next_use(v), v.0));
                self.heap_pos[v.index()] = slot as u32;
                self.sift_up(slot);
            }
        }
    }

    fn drop_resident(&mut self, v: VertexId, policy: CachePolicy) {
        if !self.resident[v.index()] {
            return;
        }
        self.resident[v.index()] = false;
        self.resident_count -= 1;
        match policy {
            CachePolicy::Lru => self.unlink(v.0),
            CachePolicy::Opt => {
                let slot = self.heap_pos[v.index()] as usize;
                debug_assert_eq!(self.heap[slot], opt_key(self.next_use(v), v.0));
                self.heap.swap_remove(slot);
                if let Some(&moved) = self.heap.get(slot) {
                    self.heap_pos[key_vertex(moved) as usize] = slot as u32;
                    self.sift_down(slot);
                    self.sift_up(slot);
                }
            }
        }
    }

    fn link_tail(&mut self, u: u32) {
        self.prev[u as usize] = self.tail;
        self.next[u as usize] = NIL;
        match self.tail {
            NIL => self.head = u,
            t => self.next[t as usize] = u,
        }
        self.tail = u;
    }

    fn unlink(&mut self, u: u32) {
        let (p, nx) = (self.prev[u as usize], self.next[u as usize]);
        match p {
            NIL => self.head = nx,
            p => self.next[p as usize] = nx,
        }
        match nx {
            NIL => self.tail = p,
            nx => self.prev[nx as usize] = p,
        }
    }

    /// Moves `p`'s use cursor past `step`; a resident's OPT key follows.
    fn advance_cursor(&mut self, p: VertexId, step: u32, policy: CachePolicy) {
        let before = self.next_use(p);
        let (lo, hi) = (self.use_start[p.index()], self.use_start[p.index() + 1]);
        let c = &mut self.cursor[p.index()];
        while lo + *c < hi && self.use_pos[(lo + *c) as usize] <= step {
            *c += 1;
        }
        let after = self.next_use(p);
        if policy == CachePolicy::Opt && self.resident[p.index()] && after != before {
            // Cursors only move forward, so the key only grows.
            let slot = self.heap_pos[p.index()] as usize;
            self.heap[slot] = opt_key(after, p.0);
            self.sift_up(slot);
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[parent] > self.heap[slot] {
                break;
            }
            self.swap_slots(slot, parent);
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let (left, right) = (2 * slot + 1, 2 * slot + 2);
            let mut top = slot;
            if left < self.heap.len() && self.heap[left] > self.heap[top] {
                top = left;
            }
            if right < self.heap.len() && self.heap[right] > self.heap[top] {
                top = right;
            }
            if top == slot {
                break;
            }
            self.swap_slots(slot, top);
            slot = top;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[key_vertex(self.heap[a]) as usize] = a as u32;
        self.heap_pos[key_vertex(self.heap[b]) as usize] = b as u32;
    }

    fn next_use(&self, u: VertexId) -> u32 {
        let (lo, hi) = (self.use_start[u.index()], self.use_start[u.index() + 1]);
        let c = lo + self.cursor[u.index()];
        if c < hi {
            self.use_pos[c as usize]
        } else {
            u32::MAX
        }
    }

    /// Frees capacity until a new word fits, never evicting a vertex
    /// pinned by `stamp` (the firing vertex and its predecessors). Live
    /// victims are stored once; dead victims (fully consumed,
    /// saved-or-untagged) leave for free.
    fn make_room(
        &mut self,
        g: &Cdag,
        stamp: u32,
        cap: usize,
        policy: CachePolicy,
        trace: &mut Trace,
    ) {
        while self.resident_count >= cap {
            let victim = self.choose_victim(stamp, policy);
            let live = self.remaining[victim.index()] > 0 || g.is_output(victim);
            if live && !self.saved[victim.index()] {
                trace.stores += 1;
                self.saved[victim.index()] = true;
            }
            trace.evictions += 1;
            self.drop_resident(victim, policy);
        }
    }

    /// The first unpinned resident in policy order: the least recently
    /// touched under LRU, the furthest next use (ties toward the smaller
    /// id) under OPT.
    fn choose_victim(&mut self, stamp: u32, policy: CachePolicy) -> VertexId {
        let victim = match policy {
            CachePolicy::Lru => {
                let mut u = self.head;
                while u != NIL && self.pinned[u as usize] == stamp {
                    u = self.next[u as usize];
                }
                (u != NIL).then_some(u)
            }
            CachePolicy::Opt => {
                // An unpinned entry outranks its whole subtree, so only
                // the children of pinned entries need a look.
                let mut best: Option<u64> = None;
                self.heap_stack.clear();
                if !self.heap.is_empty() {
                    self.heap_stack.push(0);
                }
                while let Some(slot) = self.heap_stack.pop() {
                    let key = self.heap[slot];
                    if self.pinned[key_vertex(key) as usize] != stamp {
                        best = best.max(Some(key));
                        continue;
                    }
                    for child in [2 * slot + 1, 2 * slot + 2] {
                        if child < self.heap.len() {
                            self.heap_stack.push(child);
                        }
                    }
                }
                best.map(key_vertex)
            }
        };
        // dmc-lint: allow(s1) -- the feasibility check at entry guarantees at least one unpinned resident exists
        let victim = VertexId(victim.expect("feasibility check guarantees an unpinned resident"));
        debug_assert!(
            self.resident[victim.index()],
            "victim {victim} not resident"
        );
        victim
    }
}

/// One point of an S-sweep: the capacity and the outcome at it.
pub type SweepPoint = (u64, Result<Trace, SimError>);

/// Runs `schedule` at every capacity in `srams`, fanning the points over
/// `threads` scoped workers (`0` = `std::thread::available_parallelism`),
/// each with its own [`Simulation`] arena.
///
/// Workers pull point indices from a shared atomic queue and the merge
/// reassembles results by index, so the report is **bit-identical at any
/// thread count** — the same guarantee the wavefront engine and the
/// analysis pipeline give.
///
/// ```
/// use dmc_cdag::topo::topological_order;
/// use dmc_kernels::chains::two_stage;
/// use dmc_sim::simulation::{sweep, CachePolicy};
///
/// let g = two_stage(8);
/// let order = topological_order(&g);
/// let points = sweep(&g, &order, CachePolicy::Lru, &[10, 12, 16], 2);
/// let io: Vec<u64> = points
///     .iter()
///     .map(|(_, t)| t.as_ref().unwrap().io())
///     .collect();
/// // More fast memory never hurts on a fixed schedule + policy here.
/// assert!(io.windows(2).all(|w| w[0] >= w[1]), "{io:?}");
/// assert_eq!(points, sweep(&g, &order, CachePolicy::Lru, &[10, 12, 16], 1));
/// ```
pub fn sweep(
    g: &Cdag,
    schedule: &[VertexId],
    policy: CachePolicy,
    srams: &[u64],
    threads: usize,
) -> Vec<SweepPoint> {
    fan_out_indexed(srams.len(), threads, Simulation::new, |sim, i| {
        (srams[i], sim.run(g, schedule, policy, srams[i]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::topo::topological_order;
    use dmc_kernels::chains;

    fn run(g: &Cdag, policy: CachePolicy, s: u64) -> Trace {
        Simulation::new()
            .run(g, &topological_order(g), policy, s)
            .expect("feasible")
    }

    #[test]
    fn chain_hand_computed_accounting() {
        // chain(4): in -> a -> b -> c(out). S = 2: the rolling frontier
        // always fits; dead values are deleted for free.
        let g = chains::chain(4);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, 2);
            assert_eq!(t.loads, 1, "{policy}: one input fetch");
            assert_eq!(t.stores, 1, "{policy}: one output store");
            assert_eq!(t.hits, 3, "{policy}: each link is a hit");
            assert_eq!(t.evictions, 0, "{policy}");
        }
    }

    #[test]
    fn diamond_tight_budget_hand_computed() {
        // diamond: a -> {b, c} -> d, S = 3. After c fires, a is fully
        // consumed and leaves via the free delete (not an eviction), so
        // b, c, d fit without pressure: load a + store d only.
        let g = chains::diamond();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, 3);
            assert_eq!(t.io(), 2, "{policy}: load a + store d");
            assert_eq!(t.hits, 4, "{policy}: a twice, then b and c");
            assert_eq!(t.evictions, 0, "{policy}: dead drops are free");
        }
    }

    #[test]
    fn fft_spills_under_pressure() {
        // fft(8): every stage vertex has in-degree 2, so S = 3 is the
        // minimum feasible budget — and far below the butterfly's working
        // set, so stage values spill (stores) and reload (loads).
        let g = dmc_kernels::fft::fft(8);
        let roomy = run(&g, CachePolicy::Lru, 64);
        assert_eq!(roomy.io(), 16, "compulsory: 8 loads + 8 stores");
        let tight = run(&g, CachePolicy::Lru, 3);
        assert!(tight.loads > 8 && tight.stores > 8, "{tight:?}");
        assert!(tight.evictions > 0);
        // OPT (Belady replacement) never does worse than LRU here.
        let opt = run(&g, CachePolicy::Opt, 3);
        assert!(opt.io() <= tight.io(), "opt {opt:?} vs lru {tight:?}");
    }

    #[test]
    fn infinite_capacity_is_compulsory_traffic_only() {
        let g = chains::ladder(5, 5);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, u64::MAX);
            assert_eq!(t.loads, g.num_inputs() as u64, "{policy}");
            assert_eq!(t.stores, g.num_outputs() as u64, "{policy}");
            assert_eq!(t.evictions, 0, "{policy}");
        }
    }

    #[test]
    fn rejects_invalid_schedules_and_tiny_budgets() {
        let g = chains::diamond();
        let mut order = topological_order(&g);
        let mut sim = Simulation::new();
        assert_eq!(
            sim.run(&g, &order[..2], CachePolicy::Lru, 8),
            Err(SimError::InvalidSchedule)
        );
        order.reverse();
        assert_eq!(
            sim.run(&g, &order, CachePolicy::Lru, 8),
            Err(SimError::InvalidSchedule)
        );
        order.reverse();
        // Firing d needs 3 words.
        assert!(matches!(
            sim.run(&g, &order, CachePolicy::Lru, 2),
            Err(SimError::BudgetTooSmall { required: 3, .. })
        ));
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_runs() {
        let g = chains::ladder(6, 6);
        let order = topological_order(&g);
        let mut reused = Simulation::new();
        for s in [4u64, 6, 8, 12, 4, 6] {
            for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                let a = reused.run(&g, &order, policy, s).unwrap();
                let b = Simulation::new().run(&g, &order, policy, s).unwrap();
                assert_eq!(a, b, "S = {s} {policy}");
            }
        }
    }

    #[test]
    fn chain_in_a_roomy_cache_moves_only_its_endpoints() {
        // chain(10) in 4 words: the rolling value stays resident and dead
        // values are deleted for free, so only the input fetch and the
        // output store reach slow memory — the RBW optimum of 2 for a
        // chain, at any capacity that fits a link.
        let g = chains::chain(10);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, 4);
            assert_eq!((t.loads, t.stores), (1, 1), "{policy}");
            assert_eq!(t.hits, 9, "{policy}: every link is a hit");
            assert_eq!(t.evictions, 0, "{policy}");
        }
    }

    #[test]
    fn shrinking_the_cache_grows_traffic() {
        // ladder(8, 8) in its minimum feasible capacity spills live
        // values that a roomy cache keeps resident.
        let g = chains::ladder(8, 8);
        let tight = run(&g, CachePolicy::Lru, min_feasible_capacity(&g) as u64);
        let roomy = run(&g, CachePolicy::Lru, 64);
        assert!(
            tight.io() > roomy.io(),
            "tight {tight:?} !> roomy {roomy:?}"
        );
        assert!(tight.evictions > 0 && roomy.evictions == 0);
        assert_eq!(roomy.io(), (g.num_inputs() + g.num_outputs()) as u64);
    }

    #[test]
    fn opt_breaks_a_never_used_again_tie_toward_the_smaller_id() {
        // x and y are outputs nobody reads, so both sit at "next use
        // infinitely far" once z fires; with z and its predecessor c
        // pinned, the pick must be x, the smaller id. No trace can tell
        // the two apart (each costs its one store either way), so the
        // victim itself is checked.
        let mut b = dmc_cdag::CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("x", &[a]);
        let bb = b.add_input("b");
        let y = b.add_op("y", &[bb]);
        let c = b.add_input("c");
        let z = b.add_op("z", &[c]);
        for out in [x, y, z] {
            b.tag_output(out);
        }
        let g = b.build().unwrap();
        let order: Vec<VertexId> = g.vertices().collect();
        let mut sim = Simulation::new();
        let _ = sim.run(&g, &order, CachePolicy::Opt, 8).unwrap();
        let z_stamp = order.len() as u32;
        assert_eq!(sim.choose_victim(z_stamp, CachePolicy::Opt), x);
        // The same residents under LRU: x was touched least recently.
        let _ = sim.run(&g, &order, CachePolicy::Lru, 8).unwrap();
        assert_eq!(sim.choose_victim(z_stamp, CachePolicy::Lru), x);
        assert!(sim.resident[y.index()] && sim.resident[z.index()]);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let g = chains::ladder(8, 8);
        let order = topological_order(&g);
        let srams: Vec<u64> = (4..24).collect();
        let base = sweep(&g, &order, CachePolicy::Lru, &srams, 1);
        for threads in [2usize, 4, 7] {
            assert_eq!(
                base,
                sweep(&g, &order, CachePolicy::Lru, &srams, threads),
                "@ {threads} threads"
            );
        }
    }

    mod properties {
        use super::*;
        use dmc_kernels::random::{random_layered, RandomDagConfig};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// At S = ∞ the measured traffic is exactly the compulsory
            /// traffic: one load per input, one store per pure output —
            /// the trivial bound `|I| + |O \ I|`.
            #[test]
            fn infinite_sram_measures_compulsory_misses(
                layers in 2usize..5,
                width in 2usize..6,
                p in 0.1f64..0.7,
                seed in 0u64..500
            ) {
                let g = random_layered(RandomDagConfig { layers, width, deg: 0, edge_prob: p, seed });
                let order = topological_order(&g);
                let mut pure_outputs = g.outputs().clone();
                pure_outputs.difference_with(g.inputs());
                for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                    let t = Simulation::new()
                        .run(&g, &order, policy, g.num_vertices() as u64 + 1)
                        .expect("S covers every in-degree");
                    prop_assert_eq!(t.loads, g.num_inputs() as u64);
                    prop_assert_eq!(t.stores, pure_outputs.len() as u64);
                    prop_assert_eq!(t.evictions, 0);
                }
            }

            /// Shrinking S never reduces I/O for a fixed schedule+policy.
            #[test]
            fn io_is_monotone_in_capacity(
                layers in 2usize..5,
                width in 2usize..6,
                p in 0.1f64..0.7,
                seed in 0u64..500
            ) {
                let g = random_layered(RandomDagConfig { layers, width, deg: 0, edge_prob: p, seed });
                let order = topological_order(&g);
                let min_s = min_feasible_capacity(&g) as u64;
                let mut sim = Simulation::new();
                let mut prev = u64::MAX;
                for s in [min_s, min_s + 1, min_s + 2, min_s + 4, min_s + 16] {
                    let t = sim.run(&g, &order, CachePolicy::Lru, s).expect("feasible");
                    prop_assert!(t.io() <= prev, "S = {}: {} > {}", s, t.io(), prev);
                    prev = t.io();
                }
            }
        }
    }
}
