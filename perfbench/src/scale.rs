//! `scale`: a sparse `random` DAG above the 2¹⁷-vertex whole-graph
//! wavefront limit gets a hierarchical certified bound at one S, then
//! its schedule is simulated under LRU and OPT at two fast-memory sizes
//! and through one catalog machine's hierarchy over the round-robin
//! split.
//!
//! Why: the wavefront engine is bypassed here (only the small coarse
//! diagnostic runs it); the costs are graph build, coarsening, the
//! per-cluster portfolio and above all the simulator, whose victim
//! choice scans every resident word, so its cost grows with S.
//!
//! One operation is one call: `analyze_hierarchical`, one
//! `Simulation::run`, or the machine hierarchy (`split_round_robin` plus
//! `HierarchySimulation::run`). One pass is every operation once.

use crate::calibrate::Calibration;
use crate::replay::{self, Counts, Hierarchical};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Outcome, ANALYSIS_THREADS};
use dmc_cdag::Cdag;
use dmc_core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
use dmc_kernels::catalog::{KernelSpec, Registry};
use dmc_machine::MachineSpec;
use dmc_sim::hierarchy_sim::{split_round_robin, HierarchyTrace, Inclusion};
use dmc_sim::{CachePolicy, HierarchySimulation, Simulation, Trace};
use std::time::Instant;

/// Fast-memory sizes simulated; the bound is certified at the largest,
/// which makes it a valid lower bound at every smaller size too.
const SRAMS: [u64; 2] = [256, 1024];
const MACHINE: &str = "IBM BG/Q";
/// Per-core S1 of the machine hierarchy: 16 cores × 16 words of
/// registers put the innermost boundary in the hundreds of words.
const S1: u64 = 16;
/// Graph seeds cycle through this many pinned graphs.
const GRAPHS: u64 = 16;
/// Anchors of the coarse diagnostic: every vertex of the 3-cluster DAG.
const COARSE_ANCHORS: u64 = 3;

/// 139,264 vertices: just above the 2¹⁷ whole-graph wavefront limit,
/// small enough for about ten passes in a run. `--size small` runs the
/// same graph, since no smaller one takes the hierarchical path this
/// workload measures.
fn spec_text(graph_seed: u64) -> String {
    format!("random(layers=136,width=1024,deg=2,seed={graph_seed})")
}

/// Per pinned graph at the seed commit: the certified bound and the
/// exact counts of one pass (loads and evictions summed over the four
/// simulations and the hierarchy levels).
#[derive(Debug, Clone, Copy)]
struct Pin {
    bound: f64,
    loads: u64,
    evictions: u64,
    remote_words: u64,
}

const PINS: [Pin; GRAPHS as usize] = [
    pin(20513.0, 569596, 658162, 243652), // graph seed 0
    pin(20727.0, 569454, 659098, 244026), // graph seed 1
    pin(20663.0, 568658, 657980, 243935), // graph seed 2
    pin(20540.0, 569040, 657750, 243810), // graph seed 3
    pin(20605.0, 568433, 657474, 243727), // graph seed 4
    pin(20464.0, 569475, 657801, 244049), // graph seed 5
    pin(20519.0, 569128, 657722, 243863), // graph seed 6
    pin(20631.0, 568891, 658064, 243692), // graph seed 7
    pin(20748.0, 568476, 658226, 243877), // graph seed 8
    pin(20718.0, 569040, 658624, 243550), // graph seed 9
    pin(20616.0, 568070, 657165, 243867), // graph seed 10
    pin(20560.0, 569203, 658029, 244099), // graph seed 11
    pin(20682.0, 568451, 657841, 243948), // graph seed 12
    pin(20602.0, 568466, 657491, 243839), // graph seed 13
    pin(20710.0, 568309, 657861, 243723), // graph seed 14
    pin(20530.0, 569101, 657758, 243929), // graph seed 15
];

const fn pin(bound: f64, loads: u64, evictions: u64, remote_words: u64) -> Pin {
    Pin {
        bound,
        loads,
        evictions,
        remote_words,
    }
}

struct Input {
    spec: KernelSpec<'static>,
    g: Cdag,
}

fn build(text: &str) -> Input {
    let spec = Registry::shared().parse(text).expect("catalog spec");
    let g = spec.build();
    Input { spec, g }
}

/// One pass's results, checked together.
struct Pass {
    hierarchical: Hierarchical,
    /// `(policy, S, trace, seconds)` per simulation.
    sims: Vec<(CachePolicy, u64, Trace, f64)>,
    hierarchy: HierarchyTrace,
    remote_words: u64,
    /// Seconds per operation, in pass order.
    ops: Vec<f64>,
}

impl Pass {
    fn counts(&self) -> Counts {
        let mut c = Counts {
            remote_words: self.remote_words,
            ..Counts::default()
        };
        for (_, _, t, _) in &self.sims {
            c.add_trace(t);
        }
        for l in &self.hierarchy.levels {
            c.add_trace(&l.trace);
        }
        c
    }

    /// LB ≤ OPT ≤ LRU at every S, and inclusive hierarchy traffic is
    /// monotone (deeper boundaries see no more loads).
    fn sandwich_ok(&self) -> bool {
        let io = |p: CachePolicy, s: u64| {
            self.sims
                .iter()
                .find(|(q, t, _, _)| *q == p && *t == s)
                .map(|(_, _, tr, _)| tr.io())
        };
        let sims_ok =
            SRAMS.iter().all(
                |&s| match (io(CachePolicy::Opt, s), io(CachePolicy::Lru, s)) {
                    (Some(opt), Some(lru)) => self.hierarchical.bound <= opt as f64 && opt <= lru,
                    _ => false,
                },
            );
        let levels = &self.hierarchy.levels;
        let monotone = levels
            .windows(2)
            .all(|w| w[0].trace.loads >= w[1].trace.loads);
        sims_ok && monotone && !levels.is_empty()
    }
}

/// Simulator arenas, reused from pass to pass as a long-running caller
/// would.
#[derive(Default)]
struct Arenas {
    sim: Simulation,
    hierarchy: HierarchySimulation,
}

/// Runs one pass. With `tr` on, the hierarchical analysis is the traced
/// replay (engine anchors go to `counts`); with it off, the opaque call.
fn pass(
    tr: &Tracer,
    input: &Input,
    machine: &MachineSpec,
    arenas: &mut Arenas,
    counts: &mut Counts,
) -> Pass {
    let (g, spec) = (&input.g, &input.spec);
    let config = AnalyzerConfig {
        sram: SRAMS[SRAMS.len() - 1],
        threads: ANALYSIS_THREADS,
        ..AnalyzerConfig::default()
    };
    let mut ops = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        ops.push(s);
        s
    };
    let mut hierarchical = None;
    timed(&mut || {
        hierarchical = Some(if tr.is_on() {
            replay::hierarchical(tr, g, &config, counts)
        } else {
            let report = Analyzer::new(config.clone())
                .analyze_hierarchical(g, &HierarchicalOptions::default());
            Hierarchical::of(&report).expect("a hierarchical report")
        });
    });
    let order = tr.span("kernels.schedule", || {
        spec.schedule_source(g, config.sram).order
    });
    let mut sims = Vec::new();
    for &s in &SRAMS {
        for p in [CachePolicy::Lru, CachePolicy::Opt] {
            let name = if p == CachePolicy::Lru {
                "sim.lru"
            } else {
                "sim.opt"
            };
            let mut trace = None;
            let seconds = timed(&mut || {
                trace = Some(tr.span(name, || arenas.sim.run(g, &order, p, s).expect("feasible")));
            });
            sims.push((p, s, trace.expect("ran"), seconds));
        }
    }
    let mut hierarchy = None;
    let mut remote_words = 0;
    timed(&mut || {
        let split = tr.span("hierarchy_sim.split", || {
            split_round_robin(g, machine.cores_per_node)
        });
        remote_words = split.remote_reads;
        hierarchy = Some(tr.span("hierarchy_sim.run", || {
            arenas
                .hierarchy
                .run(
                    g,
                    &split.order,
                    CachePolicy::Lru,
                    &machine.node_hierarchy(S1),
                    Inclusion::Inclusive,
                )
                .expect("feasible hierarchy")
        }));
    });
    Pass {
        hierarchical: hierarchical.expect("ran"),
        sims,
        hierarchy: hierarchy.expect("ran"),
        remote_words,
        ops,
    }
}

fn check(out: &mut Outcome, p: &Pass, want: Pin) {
    let c = p.counts();
    let bound = p.hierarchical.bound;
    out.check(bound == want.bound, || {
        format!("bound {bound} differs from the pinned {}", want.bound)
    });
    out.check(p.sandwich_ok(), || {
        "LB <= OPT <= LRU or hierarchy monotonicity violated".to_string()
    });
    out.check(
        (c.loads, c.evictions, c.remote_words) == (want.loads, want.evictions, want.remote_words),
        || format!("counts {c:?} differ from the pinned {want:?}"),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let graph_seed = ctx.seed % GRAPHS;
    let text = spec_text(graph_seed);
    let machine = dmc_machine::specs::find_machine(MACHINE).expect("catalog machine");
    out.detail("spec", &text);
    out.detail("srams", format!("{SRAMS:?}"));
    out.detail("analysis_threads", ANALYSIS_THREADS);
    out.detail("machine", format!("{MACHINE} s1={S1}"));
    let want = PINS[graph_seed as usize];
    if ctx.trace {
        traced(&mut out, &text, &machine, want);
    } else {
        untraced(ctx, &mut out, &text, &machine, want);
    }
    out
}

fn untraced(ctx: &Ctx, out: &mut Outcome, text: &str, machine: &MachineSpec, want: Pin) {
    let mut setup = Vec::new();
    let mut input = None;
    for _ in 0..9 {
        let t = Instant::now();
        input = Some(build(text));
        setup.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("built");
    let off = Tracer::off();
    let mut arenas = Arenas::default();
    let mut passes = Vec::new();
    let mut cal = Calibration::new();
    let pass_times = crate::timed_passes(ctx.seconds, &mut cal, || {
        passes.push(pass(
            &off,
            &input,
            machine,
            &mut arenas,
            &mut Counts::default(),
        ));
    });
    for p in &passes {
        check(out, p, want);
    }
    out.detail("counts", format!("{:?}", passes[0].counts()));
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.ops.iter().copied()).collect();
    crate::set_batch_metrics(out, &setup, &pass_times, &ops, passes[0].ops.len(), &cal);
}

fn traced(out: &mut Outcome, text: &str, machine: &MachineSpec, want: Pin) {
    // Untraced reference: the same pass through the opaque entry points.
    let t = Instant::now();
    let reference = pass(
        &Tracer::off(),
        &build(text),
        machine,
        &mut Arenas::default(),
        &mut Counts::default(),
    );
    let untraced_wall = t.elapsed().as_secs_f64();
    check(out, &reference, want);

    let tr = Tracer::new(Instant::now(), 0);
    let t = Instant::now();
    let input = tr.span("kernels.build", || build(text));
    let mut counts = Counts::default();
    let replayed = pass(&tr, &input, machine, &mut Arenas::default(), &mut counts);
    let traced_wall = t.elapsed().as_secs_f64();
    out.check(replayed.hierarchical == reference.hierarchical, || {
        format!(
            "traced replay {:?} differs from analyze_hierarchical {:?}",
            replayed.hierarchical, reference.hierarchical
        )
    });
    check(out, &replayed, want);
    if counts.engine_anchors != COARSE_ANCHORS {
        out.problem(format!(
            "engine anchors {} differ from the pinned {COARSE_ANCHORS}",
            counts.engine_anchors
        ));
    }
    out.set_layer_times(&tr, traced_wall, untraced_wall);
    for (p, s, trace, seconds) in &replayed.sims {
        let name: &'static str = match (p, s) {
            (CachePolicy::Lru, 256) => "sim.ns_per_eviction.lru.256",
            (CachePolicy::Lru, _) => "sim.ns_per_eviction.lru.1024",
            (CachePolicy::Opt, 256) => "sim.ns_per_eviction.opt.256",
            (CachePolicy::Opt, _) => "sim.ns_per_eviction.opt.1024",
        };
        out.set(
            name,
            Metric::one(seconds * 1e9 / trace.evictions.max(1) as f64),
        );
    }
    // One graph, analyzed hierarchically only: no flat analyze call.
    out.set(
        "pipeline.analyze_calls_per_graph",
        Metric::one(tr.count("pipeline.analyze") as f64),
    );
    out.set_counts(&Counts {
        engine_anchors: counts.engine_anchors,
        ..replayed.counts()
    });
}
