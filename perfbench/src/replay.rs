//! Traced replays of the program's entry points, built from their
//! public members.
//!
//! The untraced passes call `Analyzer::validate_built`,
//! `Analyzer::validate_machine_built` and `Analyzer::analyze_hierarchical`
//! as users do. Those calls are opaque from outside, so the traced pass
//! re-runs the same steps one public function at a time, each inside a
//! span named after its layer, single-threaded so that self times add up
//! to the traced wall. Every replay's result is compared with the opaque
//! call's result: a replay that drifts from the program is a failed
//! check, not a silently wrong breakdown.

use crate::trace::Tracer;
use dmc_cdag::coarsen::coarsen;
use dmc_cdag::components::weakly_connected_components;
use dmc_cdag::engine::WavefrontEngine;
use dmc_cdag::subgraph;
use dmc_cdag::topo::{is_valid_topological_order, topological_order};
use dmc_cdag::{Cdag, VertexId};
use dmc_core::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use dmc_core::bounds::mincut::auto_wavefront_bound_with;
use dmc_core::bounds::{best_lower_bound, IoBound};
use dmc_core::games::executor::{certified_upper_bound, EvictionPolicy};
use dmc_core::partition::construct::topological_clusters;
use dmc_core::pipeline::{
    partition2s_bound, AnalysisReport, Analyzer, AnalyzerConfig, HierarchicalOptions,
};
use dmc_core::{MachineValidationReport, ValidationPoint, ValidationReport};
use dmc_kernels::catalog::KernelSpec;
use dmc_machine::MachineSpec;
use dmc_sim::hierarchy_sim::{effective_capacities, split_round_robin, Inclusion};
use dmc_sim::simulation::{min_feasible_capacity, CachePolicy, Simulation, Trace};

/// Work counts a replay observed. All are exact and repeat run to run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `EngineRun::anchors_considered`, summed over engine runs.
    pub engine_anchors: u64,
    pub loads: u64,
    pub evictions: u64,
    pub remote_words: u64,
}

impl Counts {
    pub fn add_trace(&mut self, t: &Trace) {
        self.loads += t.loads;
        self.evictions += t.evictions;
    }
}

/// The anchor count the wavefront member printed into its note:
/// `EngineRun::anchors_considered` of the adaptive run, or the sampled
/// anchor count of a fixed strategy.
fn anchors_in_note(b: &IoBound) -> u64 {
    let note = &b.provenance.note;
    let Some(open) = note.rfind('(') else {
        return 0;
    };
    note[open + 1..]
        .trim_start_matches("adaptive: ")
        .split(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// `Analyzer::analyze(g).bound` for a connected graph under `config`
/// (the configuration the validation paths use), one member at a time.
/// Graphs with several components are analyzed by the opaque call
/// inside the same span.
pub fn analyze(tr: &Tracer, g: &Cdag, config: &AnalyzerConfig, counts: &mut Counts) -> IoBound {
    tr.span("pipeline.analyze", || {
        let comps = tr.span("cdag.components", || weakly_connected_components(g));
        if comps.count > 1 && config.decompose {
            return Analyzer::new(config.clone()).analyze(g).bound;
        }
        let trivial = IoBound::trivial(g);
        let wavefront = tr.span("cdag.engine", || {
            let untagged = untag_inputs(g);
            let wf = auto_wavefront_bound_with(
                &untagged,
                config.sram,
                config.anchor_strategy,
                config.threads,
            );
            counts.engine_anchors += anchors_in_note(&wf);
            if g.num_inputs() > 0 {
                untagging_transfer(&wf)
            } else {
                wf
            }
        });
        let p2s = tr.span("pipeline.partition2s", || partition2s_bound(g, config.sram));
        best_lower_bound([trivial, wavefront, p2s]).expect("three candidates")
    })
}

/// The per-point configuration `validate_built` and
/// `validate_machine_built` analyze with.
fn point_config(sram: u64) -> AnalyzerConfig {
    AnalyzerConfig {
        sram,
        threads: 1,
        verdicts: false,
        ..AnalyzerConfig::default()
    }
}

fn executor_bound(tr: &Tracer, g: &Cdag, s: u64, order: &[VertexId]) -> Option<u64> {
    tr.span("executor.upper_bound", || {
        certified_upper_bound(
            g,
            usize::try_from(s).unwrap_or(usize::MAX),
            order,
            EvictionPolicy::Lru,
        )
        .ok()
    })
}

fn simulate(
    tr: &Tracer,
    sim: &mut Simulation,
    g: &Cdag,
    order: &[VertexId],
    p: CachePolicy,
    s: u64,
) -> Trace {
    let name = match p {
        CachePolicy::Lru => "sim.lru",
        CachePolicy::Opt => "sim.opt",
    };
    tr.span(name, || {
        sim.run(g, order, p, s).expect("feasibility pre-checked")
    })
}

/// `Analyzer::validate_built(spec, g, srams, None)`, replayed.
pub fn validate(
    tr: &Tracer,
    spec: &KernelSpec<'_>,
    g: &Cdag,
    srams: &[u64],
    counts: &mut Counts,
) -> ValidationReport {
    let mut sim = Simulation::new();
    let points = tr.span("validate", || {
        srams
            .iter()
            .map(|&s| {
                let sched = tr.span("kernels.schedule", || spec.schedule_source(g, s));
                assert!(is_valid_topological_order(g, &sched.order));
                let lower = analyze(tr, g, &point_config(s), counts);
                let analytic_upper = spec
                    .kernel()
                    .analytic_upper_bound(spec.values(), s)
                    .map(|a| a.value);
                let mut point = ValidationPoint {
                    sram: s,
                    certified_lower: lower.value,
                    lower_method: lower.method.to_string(),
                    measured_opt: None,
                    measured_lru: None,
                    certified_upper: None,
                    analytic_upper,
                    schedule_note: sched.note,
                    infeasible: None,
                };
                let required = min_feasible_capacity(g);
                if required as u64 > s {
                    point.infeasible = Some(format!(
                        "S < {required} words (largest in-degree + 1 of the schedule)"
                    ));
                    return point;
                }
                let opt = simulate(tr, &mut sim, g, &sched.order, CachePolicy::Opt, s);
                let lru = simulate(tr, &mut sim, g, &sched.order, CachePolicy::Lru, s);
                counts.add_trace(&opt);
                counts.add_trace(&lru);
                point.measured_opt = Some(opt);
                point.measured_lru = Some(lru);
                point.certified_upper = executor_bound(tr, g, s, &sched.order);
                point
            })
            .collect()
    });
    ValidationReport {
        spec: spec.render(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        inputs: g.num_inputs(),
        outputs: g.num_outputs(),
        points,
    }
}

/// One hierarchy level of a machine validation, as the replay compares
/// it with `validate_machine_built`'s report.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub effective_words: u64,
    pub certified_lower: f64,
    pub lower_method: String,
    pub measured_opt: Option<Trace>,
    pub measured_lru: Option<Trace>,
    pub certified_upper: Option<u64>,
}

/// The comparable part of a `MachineValidationReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineLevels {
    pub spec: String,
    pub remote_words: u64,
    pub levels: Vec<Level>,
}

impl MachineLevels {
    pub fn of(r: &MachineValidationReport) -> MachineLevels {
        MachineLevels {
            spec: r.spec.clone(),
            remote_words: r.remote_words,
            levels: r
                .levels
                .iter()
                .map(|l| Level {
                    effective_words: l.effective_words,
                    certified_lower: l.certified_lower,
                    lower_method: l.lower_method.clone(),
                    measured_opt: l.measured_opt,
                    measured_lru: l.measured_lru,
                    certified_upper: l.certified_upper,
                })
                .collect(),
        }
    }

    /// The certified sandwich at every measured level:
    /// `lower ≤ OPT ≤ LRU ≤ upper`.
    pub fn sandwich_holds(&self) -> bool {
        self.levels
            .iter()
            .all(|l| match (&l.measured_opt, &l.measured_lru) {
                (Some(opt), Some(lru)) => {
                    l.certified_lower <= opt.io() as f64
                        && opt.io() <= lru.io()
                        && l.certified_upper.is_none_or(|ub| lru.io() <= ub)
                }
                _ => true,
            })
    }
}

/// `Analyzer::validate_machine_built(spec, g, machine, s1, None)`,
/// replayed.
pub fn machine_validate(
    tr: &Tracer,
    spec: &KernelSpec<'_>,
    g: &Cdag,
    machine: &MachineSpec,
    s1: u64,
    counts: &mut Counts,
) -> MachineLevels {
    let mut sim = Simulation::new();
    tr.span("machine_validate", || {
        let split = tr.span("hierarchy_sim.split", || {
            split_round_robin(g, machine.cores_per_node.max(1))
        });
        counts.remote_words += split.remote_reads;
        let caps = effective_capacities(&machine.node_hierarchy(s1), Inclusion::Inclusive);
        let levels = caps
            .iter()
            .map(|&(_, effective)| {
                let lower = analyze(tr, g, &point_config(effective), counts);
                let mut level = Level {
                    effective_words: effective,
                    certified_lower: lower.value,
                    lower_method: lower.method.to_string(),
                    measured_opt: None,
                    measured_lru: None,
                    certified_upper: None,
                };
                if min_feasible_capacity(g) as u64 <= effective {
                    let opt = simulate(tr, &mut sim, g, &split.order, CachePolicy::Opt, effective);
                    let lru = simulate(tr, &mut sim, g, &split.order, CachePolicy::Lru, effective);
                    counts.add_trace(&opt);
                    counts.add_trace(&lru);
                    level.measured_opt = Some(opt);
                    level.measured_lru = Some(lru);
                    level.certified_upper = executor_bound(tr, g, effective, &split.order);
                }
                level
            })
            .collect();
        MachineLevels {
            spec: spec.render(),
            remote_words: split.remote_reads,
            levels,
        }
    })
}

/// Auto cluster count of `analyze_hierarchical`: `⌈|V| / 2¹⁶⌉` clamped
/// to `2..=1024` (mirrors the pipeline's private constants).
fn auto_clusters(n: usize) -> usize {
    n.div_ceil(1 << 16).clamp(2, 1024)
}

/// Largest coarse DAG the hierarchical diagnostic sweeps with every
/// vertex as an anchor (mirrors the pipeline's private constant).
const COARSE_SWEEP_LIMIT: usize = 2048;

/// What the hierarchical replay compares with the opaque call's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchical {
    pub bound: f64,
    pub method: String,
    pub clusters: usize,
    pub coarse_w_max: Option<usize>,
}

impl Hierarchical {
    pub fn of(report: &AnalysisReport) -> Option<Hierarchical> {
        let h = report.hierarchy.as_ref()?;
        Some(Hierarchical {
            bound: report.bound.value,
            method: report.bound.method.to_string(),
            clusters: h.cluster_count,
            coarse_w_max: h.coarse.w_max,
        })
    }
}

/// `Analyzer::analyze_hierarchical(g, &HierarchicalOptions::default())`
/// for a graph above every size gate of the default options (no
/// whole-graph wavefront, no flat comparison, no per-cluster wavefront),
/// replayed.
pub fn hierarchical(
    tr: &Tracer,
    g: &Cdag,
    config: &AnalyzerConfig,
    counts: &mut Counts,
) -> Hierarchical {
    let opts = HierarchicalOptions::default();
    let n = g.num_vertices();
    assert!(
        n > opts.whole_wavefront_limit
            && n > opts.flat_compare_limit
            && opts.cluster_wavefront_limit == 0,
        "the replay covers graphs above the default size gates only"
    );
    tr.span("pipeline.hierarchical", || {
        let _comps = tr.span("cdag.components", || weakly_connected_components(g));
        let order = topological_order(g);
        let assignment = topological_clusters(g, &order, auto_clusters(n));
        let count = assignment.iter().max().map_or(0, |&m| m + 1);
        let coarse = tr.span("cdag.coarsen", || {
            coarsen(g, &assignment, count).expect("interval clustering is acyclic")
        });
        let pieces = subgraph::decompose(g, &assignment, count);
        let best: Vec<IoBound> = pieces
            .iter()
            .map(|piece| {
                let p2s = tr.span("pipeline.partition2s", || {
                    partition2s_bound(&piece.cdag, config.sram)
                });
                best_lower_bound([IoBound::trivial(&piece.cdag), p2s]).expect("two candidates")
            })
            .collect();
        let composed = decomposition_sum(&best);
        let coarse_w_max = tr.span("cdag.engine", || {
            let cg = &coarse.graph;
            let engine = WavefrontEngine::new(cg).with_threads(config.threads);
            let anchors: Vec<VertexId> = if cg.num_vertices() <= COARSE_SWEEP_LIMIT {
                cg.vertices().collect()
            } else {
                engine.per_level_anchors()
            };
            let run = engine.run(&anchors);
            counts.engine_anchors += run.anchors_considered as u64;
            run.best.map(|b| b.size)
        });
        Hierarchical {
            bound: composed.value,
            method: composed.method.to_string(),
            clusters: count,
            coarse_w_max,
        }
    })
}
