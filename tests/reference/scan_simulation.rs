//! The scan simulator this crate measured with before victim selection
//! was indexed, kept verbatim as a test-only differential reference:
//! every eviction walks the whole resident list, LRU by the smallest
//! last-touch tick and OPT by the furthest next use (ties toward the
//! smaller id), and every free searches the list for the dead value.
//! The indexed [`Simulation`](dmc::sim::Simulation) must reproduce its
//! [`Trace`] exactly, for both policies, at every capacity.

use dmc::cdag::{Cdag, VertexId};
use dmc::sim::simulation::{vertex_footprint, CachePolicy, SimError, Trace};

#[derive(Debug, Default)]
pub struct ScanSimulation {
    resident: Vec<bool>,
    saved: Vec<bool>,
    remaining: Vec<u32>,
    /// CSR over consumer positions: vertex `u`'s uses (schedule steps of
    /// its consumers, ascending) live at
    /// `use_pos[use_start[u] .. use_start[u + 1]]`.
    use_start: Vec<u32>,
    use_pos: Vec<u32>,
    cursor: Vec<u32>,
    last_touch: Vec<u64>,
    pos: Vec<u32>,
    resident_list: Vec<VertexId>,
    clock: u64,
}

impl ScanSimulation {
    /// A fresh arena (allocates nothing until the first run).
    pub fn new() -> Self {
        ScanSimulation::default()
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
            // 1. Predecessors resident (pinned while firing).
            for &p in preds {
                if self.resident[p.index()] {
                    trace.hits += 1;
                } else {
                    self.make_room(g, preds, v, cap, policy, &mut trace);
                    debug_assert!(self.saved[p.index()], "spilled {p} lost without a store");
                    trace.loads += 1;
                    self.place(p);
                }
                self.touch(p);
            }
            // 2. The fired vertex itself: inputs load, computes are free.
            if !self.resident[v.index()] {
                self.make_room(g, preds, v, cap, policy, &mut trace);
                if g.is_input(v) {
                    trace.loads += 1;
                }
                self.place(v);
            }
            self.touch(v);
            // 3. Retire uses; delete dead values for free (rule R4).
            for &p in preds {
                self.remaining[p.index()] -= 1;
                self.advance_cursor(p, step as u32);
                if self.remaining[p.index()] == 0 && (!g.is_output(p) || self.saved[p.index()]) {
                    self.drop_resident(p);
                }
            }
            if self.remaining[v.index()] == 0 && !g.is_output(v) {
                self.drop_resident(v);
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
        self.last_touch.clear();
        self.last_touch.resize(n, 0);
        self.pos.clear();
        self.pos.resize(n, u32::MAX);
        self.resident_list.clear();
        self.clock = 0;
    }

    fn touch(&mut self, v: VertexId) {
        self.clock += 1;
        self.last_touch[v.index()] = self.clock;
    }

    fn place(&mut self, v: VertexId) {
        debug_assert!(!self.resident[v.index()]);
        self.resident[v.index()] = true;
        self.resident_list.push(v);
        self.clock += 1;
    }

    fn drop_resident(&mut self, v: VertexId) {
        if !self.resident[v.index()] {
            return;
        }
        self.resident[v.index()] = false;
        let at = self
            .resident_list
            .iter()
            .position(|&u| u == v)
            // dmc-lint: allow(s1) -- victim was drawn from the resident list by the selection above; absence is a bookkeeping bug
            .expect("resident list consistent");
        self.resident_list.swap_remove(at);
    }

    fn advance_cursor(&mut self, p: VertexId, step: u32) {
        let (lo, hi) = (self.use_start[p.index()], self.use_start[p.index() + 1]);
        let c = &mut self.cursor[p.index()];
        while lo + *c < hi && self.use_pos[(lo + *c) as usize] <= step {
            *c += 1;
        }
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

    /// Frees capacity until a new word fits, never evicting `v` or its
    /// pinned predecessors. Live victims are stored once; dead victims
    /// (fully consumed, saved-or-untagged) leave for free.
    fn make_room(
        &mut self,
        g: &Cdag,
        pinned: &[VertexId],
        v: VertexId,
        cap: usize,
        policy: CachePolicy,
        trace: &mut Trace,
    ) {
        while self.resident_list.len() >= cap {
            let victim = self.choose_victim(pinned, v, policy);
            let live = self.remaining[victim.index()] > 0 || g.is_output(victim);
            if live && !self.saved[victim.index()] {
                trace.stores += 1;
                self.saved[victim.index()] = true;
            }
            trace.evictions += 1;
            self.drop_resident(victim);
        }
    }

    fn choose_victim(&self, pinned: &[VertexId], v: VertexId, policy: CachePolicy) -> VertexId {
        let mut best: Option<VertexId> = None;
        for &u in &self.resident_list {
            if u == v || pinned.contains(&u) {
                continue;
            }
            let better = match (policy, best) {
                (_, None) => true,
                // LRU: smallest last-touch tick; ticks are unique.
                (CachePolicy::Lru, Some(b)) => {
                    self.last_touch[u.index()] < self.last_touch[b.index()]
                }
                // OPT: furthest next use, ties toward the smaller id.
                (CachePolicy::Opt, Some(b)) => {
                    let (nu, nb) = (self.next_use(u), self.next_use(b));
                    nu > nb || (nu == nb && u < b)
                }
            };
            if better {
                best = Some(u);
            }
        }
        // dmc-lint: allow(s1) -- the feasibility check at entry guarantees at least one unpinned resident exists
        best.expect("feasibility check guarantees an unpinned resident")
    }
}
