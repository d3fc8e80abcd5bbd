//! Empirical validation: measured I/O sandwiched between certified bounds.
//!
//! The paper's central claim is that its lower bounds and schedule-derived
//! upper bounds *bracket* the data movement a real memory hierarchy
//! performs. This module closes that loop for every kernel in the catalog:
//!
//! 1. the kernel's [`schedule_source`](dmc_kernels::catalog::Kernel::schedule_source)
//!    hook emits an executable topological schedule (tiled where the
//!    family has a known cache-friendly traversal, the deterministic Kahn
//!    order otherwise);
//! 2. the `dmc-sim` [`Simulation`] measures that schedule at each `S` of a
//!    sweep under both [`CachePolicy::Opt`] (Belady replacement) and
//!    [`CachePolicy::Lru`];
//! 3. the bound machinery supplies the two certified sides: the
//!    [`Analyzer`] pipeline's lower bound at the same `S`, and the RBW
//!    game executor's validated upper bound for the *same schedule*
//!    ([`certified_upper_bound`]).
//!
//! The lower side is split the way the paper's bounds are: the graph's
//! `S`-free facts — the Theorem-2 component split and the wavefront
//! engine's Lemma-2 witnesses on the untagged graph (Theorem 3) — are
//! computed once per graph, before the sweep fans out, with the
//! analyzer's full thread budget; each point then does only the per-`S`
//! arithmetic and the 2S-partition member. The same facts serve every
//! level of a machine validation ([`crate::machine_validate`]).
//!
//! Because every simulated run corresponds to a valid RBW game, the
//! sandwich invariant
//!
//! ```text
//! certified lower ≤ measured(OPT) ≤ measured(LRU) ≤ certified upper
//! ```
//!
//! must hold at every feasible sweep point; [`ValidationReport`] records
//! it per point (text and JSON) and [`ValidationReport::sandwich_holds`]
//! asserts it wholesale. The kernel's closed-form analytic upper bound is
//! rendered next to the measurements when the catalog provides one, but —
//! like the analytic lower bound in [`crate::pipeline`] — it is never
//! merged into the certified sandwich.
//!
//! Sweep points fan out over `std::thread::scope` workers (one simulator
//! arena per worker) with an index-ordered merge, so reports are
//! **bit-identical at any thread count**.

use crate::bounds::IoBound;
use crate::games::executor::{certified_upper_bound, EvictionPolicy};
use crate::pipeline::{Analyzer, GraphFacts};
use dmc_cdag::fanout::fan_out_indexed;
use dmc_cdag::topo::is_valid_topological_order;
use dmc_cdag::{Cdag, VertexId};
use dmc_kernels::catalog::{KernelSpec, Registry, SpecError};
use dmc_sim::simulation::{min_feasible_capacity, CachePolicy, Simulation, Trace};
use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// Default per-core level-1 capacity `S1` (words) of a machine
/// simulation when the caller gives none (`repro simulate --machine`
/// without `--sram`, `POST /simulate?machine=...` without `sram`).
pub const DEFAULT_MACHINE_S1: u64 = 64;

/// Most capacities one explicit `lo:hi:step` sweep may span.
const MAX_SWEEP_POINTS: u64 = 256;

/// The capacities a `simulate` run visits: an explicit `lo:hi:step`
/// range, checked by [`SramSweep::new`] before any graph is built, or
/// the default three octaves up from the schedule's minimum feasible
/// capacity (`[req, 2·req, 4·req]`), which needs the graph and so is
/// expanded by [`SramSweep::points`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramSweep(Option<(u64, u64, u64)>);

impl SramSweep {
    /// Validates a `lo:hi:step` triple (`None` = the default sweep). The
    /// error names the parameter as `sram-sweep`; the CLI prefixes its
    /// flag dashes, the daemon appends a newline.
    ///
    /// ```
    /// use dmc_core::validate::SramSweep;
    ///
    /// let g = dmc_kernels::fft::fft(8);
    /// assert_eq!(SramSweep::new(Some((4, 12, 4))).unwrap().points(&g), [4, 8, 12]);
    /// assert!(SramSweep::new(Some((8, 4, 1))).is_err());
    /// assert!(SramSweep::new(Some((1, 10_000, 1))).is_err());
    /// ```
    pub fn new(range: Option<(u64, u64, u64)>) -> Result<Self, String> {
        let Some((lo, hi, step)) = range else {
            return Ok(SramSweep(None));
        };
        if lo == 0 || step == 0 || hi < lo {
            return Err("sram-sweep needs lo:hi:step with 1 <= lo <= hi and step >= 1".into());
        }
        let points = (hi - lo) / step + 1;
        if points > MAX_SWEEP_POINTS {
            return Err(format!(
                "sram-sweep spans {points} points (limit {MAX_SWEEP_POINTS}); widen the step"
            ));
        }
        Ok(SramSweep(range))
    }

    /// The sweep's capacities for `g`, the graph the sweep will simulate.
    pub fn points(&self, g: &Cdag) -> Vec<u64> {
        match self.0 {
            Some((lo, hi, step)) => (lo..=hi).step_by(step as usize).collect(),
            None => {
                let required = min_feasible_capacity(g) as u64;
                vec![required, 2 * required, 4 * required]
            }
        }
    }
}

/// One sweep point of a [`ValidationReport`]: everything the sandwich
/// needs at a single fast-memory capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationPoint {
    /// Fast-memory capacity `S` in words.
    pub sram: u64,
    /// The pipeline's certified lower bound at this `S`.
    pub certified_lower: f64,
    /// Which method won the lower-bound portfolio.
    pub lower_method: String,
    /// Measured traffic under Belady (OPT) replacement, when measured
    /// and feasible.
    pub measured_opt: Option<Trace>,
    /// Measured traffic under LRU replacement, when measured and
    /// feasible.
    pub measured_lru: Option<Trace>,
    /// The RBW executor's certified upper bound for the same schedule
    /// (LRU eviction, validated game).
    pub certified_upper: Option<u64>,
    /// The kernel's closed-form achievable bound at this `S`, when the
    /// catalog provides one (displayed, never part of the sandwich).
    pub analytic_upper: Option<f64>,
    /// Which schedule was executed (the hook's provenance note; tilings
    /// may pick different parameters at different `S`).
    pub schedule_note: String,
    /// Why the point could not be simulated (`S` below the schedule's
    /// minimum footprint), `None` when feasible.
    pub infeasible: Option<String>,
}

impl ValidationPoint {
    /// The sandwich verdict at this point: `None` when nothing was
    /// measured (infeasible `S`), otherwise whether every available link
    /// of `lower ≤ measured(OPT) ≤ measured(LRU) ≤ upper` holds.
    pub fn sandwich_ok(&self) -> Option<bool> {
        let (opt, lru) = (self.measured_opt.as_ref(), self.measured_lru.as_ref());
        if opt.is_none() && lru.is_none() {
            return None;
        }
        let mut ok = true;
        for t in [opt, lru].into_iter().flatten() {
            ok &= self.certified_lower <= t.io() as f64;
            if let Some(ub) = self.certified_upper {
                ok &= t.io() <= ub;
            }
        }
        if let (Some(o), Some(l)) = (opt, lru) {
            ok &= o.io() <= l.io();
        }
        Some(ok)
    }
}

pub(crate) fn trace_json(t: &Trace) -> Value {
    Value::object([
        ("loads", t.loads.to_json()),
        ("stores", t.stores.to_json()),
        ("hits", t.hits.to_json()),
        ("evictions", t.evictions.to_json()),
        ("io", t.io().to_json()),
    ])
}

impl Serialize for ValidationPoint {
    fn to_json(&self) -> Value {
        Value::object([
            ("sram", self.sram.to_json()),
            ("certified_lower", self.certified_lower.to_json()),
            ("lower_method", self.lower_method.to_json()),
            (
                "measured_opt",
                self.measured_opt
                    .as_ref()
                    .map(trace_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "measured_lru",
                self.measured_lru
                    .as_ref()
                    .map(trace_json)
                    .unwrap_or(Value::Null),
            ),
            ("certified_upper", self.certified_upper.to_json()),
            ("analytic_upper", self.analytic_upper.to_json()),
            ("schedule_note", self.schedule_note.to_json()),
            (
                "infeasible",
                self.infeasible
                    .as_ref()
                    .map(|r| r.to_json())
                    .unwrap_or(Value::Null),
            ),
            ("sandwich_ok", self.sandwich_ok().to_json()),
        ])
    }
}

/// The empirical-validation report of one kernel spec: measured I/O per
/// sweep point, sandwiched between the certified lower and upper bounds.
/// Produced by [`Analyzer::validate_spec`] / [`Analyzer::validate_kernel`].
#[derive(Debug, Clone, PartialEq)]
#[must_use = "validation verdicts must be inspected, not dropped"]
pub struct ValidationReport {
    /// Canonical spec string of the validated kernel.
    pub spec: String,
    /// `|V|` of the built CDAG.
    pub vertices: usize,
    /// `|E|` of the built CDAG.
    pub edges: usize,
    /// `|I|` of the built CDAG.
    pub inputs: usize,
    /// `|O|` of the built CDAG.
    pub outputs: usize,
    /// One entry per requested `S`, in request order.
    pub points: Vec<ValidationPoint>,
}

impl ValidationReport {
    /// `true` when every feasible point's sandwich verdict is positive
    /// and at least one point was actually measured.
    pub fn sandwich_holds(&self) -> bool {
        let verdicts: Vec<bool> = self.points.iter().filter_map(|p| p.sandwich_ok()).collect();
        !verdicts.is_empty() && verdicts.into_iter().all(|ok| ok)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel: {}", self.spec)?;
        writeln!(
            f,
            "CDAG: |V| = {}, |E| = {}, |I| = {}, |O| = {}",
            self.vertices, self.edges, self.inputs, self.outputs
        )?;
        writeln!(
            f,
            "sandwich: certified LB <= measured OPT <= measured LRU <= certified UB \
             (RBW executor, same schedule)"
        )?;
        writeln!(
            f,
            "{:<8} {:<13} {:<9} {:<9} {:<13} {:<12} {:<4} schedule",
            "S", "LB(cert)", "OPT(io)", "LRU(io)", "UB(cert)", "UB(analytic)", "ok"
        )?;
        for p in &self.points {
            let fmt_trace = |t: &Option<Trace>| {
                t.as_ref()
                    .map(|t| t.io().to_string())
                    .unwrap_or_else(|| "-".into())
            };
            let ok = match p.sandwich_ok() {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            };
            let analytic = p
                .analytic_upper
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into());
            let upper = p
                .certified_upper
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{:<8} {:<13} {:<9} {:<9} {:<13} {:<12} {:<4} {}{}",
                p.sram,
                p.certified_lower,
                fmt_trace(&p.measured_opt),
                fmt_trace(&p.measured_lru),
                upper,
                analytic,
                ok,
                p.schedule_note,
                p.infeasible
                    .as_ref()
                    .map(|r| format!("  [skipped: {r}]"))
                    .unwrap_or_default(),
            )?;
        }
        Ok(())
    }
}

impl Serialize for ValidationReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("spec", self.spec.to_json()),
            ("vertices", self.vertices.to_json()),
            ("edges", self.edges.to_json()),
            ("inputs", self.inputs.to_json()),
            ("outputs", self.outputs.to_json()),
            ("points", self.points.to_json()),
            ("sandwich_holds", self.sandwich_holds().to_json()),
        ])
    }
}

impl Analyzer {
    /// Parses `spec` against the shared catalog [`Registry`], builds the
    /// CDAG once, and validates it empirically at every capacity in
    /// `srams`: the kernel's schedule is simulated under the requested
    /// cache policies and sandwiched between this analyzer's certified
    /// lower bound and the RBW executor's certified upper bound.
    ///
    /// `policy` restricts the measurement (`None` = both policies — the
    /// full sandwich). Sweep points fan out over the analyzer's
    /// configured worker threads; the report is bit-identical at any
    /// thread count.
    ///
    /// ```
    /// use dmc_core::pipeline::Analyzer;
    ///
    /// let report = Analyzer::with_defaults()
    ///     .validate_spec("fft(n=8)", &[3, 6, 12], None)
    ///     .expect("valid spec");
    /// assert_eq!(report.points.len(), 3);
    /// assert!(report.sandwich_holds(), "{report}");
    /// ```
    pub fn validate_spec(
        &self,
        spec: &str,
        srams: &[u64],
        policy: Option<CachePolicy>,
    ) -> Result<ValidationReport, SpecError> {
        Ok(self.validate_kernel(&Registry::shared().parse(spec)?, srams, policy))
    }

    /// [`Analyzer::validate_spec`] for an already-parsed catalog spec.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's
    /// [`schedule_source`](dmc_kernels::catalog::Kernel::schedule_source)
    /// hook emits an order that is not a topological order of its own
    /// CDAG — that is a kernel implementation bug, not an input error.
    pub fn validate_kernel(
        &self,
        spec: &KernelSpec<'_>,
        srams: &[u64],
        policy: Option<CachePolicy>,
    ) -> ValidationReport {
        self.validate_built(spec, &spec.build(), srams, policy)
    }

    /// [`Analyzer::validate_kernel`] against an already-built CDAG. `g`
    /// must be the graph `spec` builds — callers that need the graph up
    /// front (e.g. to derive a default sweep from
    /// [`min_feasible_capacity`]) use this to avoid building it twice.
    pub fn validate_built(
        &self,
        spec: &KernelSpec<'_>,
        g: &Cdag,
        srams: &[u64],
        policy: Option<CachePolicy>,
    ) -> ValidationReport {
        let threads = self.config().threads;
        let facts = GraphFacts::new(g, self.config());
        let points = fan_out_indexed(srams.len(), threads, Simulation::new, |sim, i| {
            validation_point(spec, &facts, srams[i], policy, sim)
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

    /// The sandwich at one capacity `s`, shared by [`ValidationPoint`]
    /// and [`MachineLevelPoint`](crate::MachineLevelPoint): the
    /// pipeline's certified lower bound from the per-`S` step over the
    /// graph's `S`-free `facts`, then — when `s` is feasible — `order`
    /// replayed under the policies `policy` admits and the RBW executor's
    /// certified upper bound for the same order.
    pub(crate) fn sandwich(
        facts: &GraphFacts<'_>,
        order: &[VertexId],
        s: u64,
        policy: Option<CachePolicy>,
        sim: &mut Simulation,
    ) -> Sandwich {
        let g = facts.graph();
        // Single-threaded inside the per-point worker: the outer fan-out
        // owns the parallelism, and the bound is thread-invariant.
        let lower = facts.bounds_at(s, 1).bound;
        let required = min_feasible_capacity(g);
        let mut sw = Sandwich {
            lower,
            required: None,
            opt: None,
            lru: None,
            upper: None,
        };
        if (required as u64) > s {
            sw.required = Some(required);
            return sw;
        }
        let mut measure = |p: CachePolicy| {
            (policy.is_none() || policy == Some(p)).then(|| {
                sim.run(g, order, p, s)
                    // dmc-lint: allow(s1) -- feasibility of this S was established by the pre-check above before the schedule replay
                    .expect("feasibility pre-checked")
            })
        };
        sw.opt = measure(CachePolicy::Opt);
        sw.lru = measure(CachePolicy::Lru);
        sw.upper = certified_upper_bound(
            g,
            usize::try_from(s).unwrap_or(usize::MAX),
            order,
            EvictionPolicy::Lru,
        )
        .ok();
        sw
    }
}

fn validation_point(
    spec: &KernelSpec<'_>,
    facts: &GraphFacts<'_>,
    s: u64,
    policy: Option<CachePolicy>,
    sim: &mut Simulation,
) -> ValidationPoint {
    let g = facts.graph();
    let sched = spec.schedule_source(g, s);
    assert!(
        is_valid_topological_order(g, &sched.order),
        "kernel '{}' emitted a schedule ('{}') that is not a topological order",
        spec.render(),
        sched.note
    );
    let sw = Analyzer::sandwich(facts, &sched.order, s, policy, sim);
    ValidationPoint {
        sram: s,
        certified_lower: sw.lower.value,
        lower_method: sw.lower.method.to_string(),
        measured_opt: sw.opt,
        measured_lru: sw.lru,
        certified_upper: sw.upper,
        analytic_upper: spec
            .kernel()
            .analytic_upper_bound(spec.values(), s)
            .map(|a| a.value),
        schedule_note: sched.note,
        infeasible: sw.required.map(|required| {
            format!("S < {required} words (largest in-degree + 1 of the schedule)")
        }),
    }
}

/// What [`Analyzer::sandwich`] measured at one capacity.
pub(crate) struct Sandwich {
    /// The pipeline's certified lower bound.
    pub(crate) lower: IoBound,
    /// The schedule's minimum feasible capacity when the capacity was
    /// below it (then nothing was measured), `None` when feasible.
    pub(crate) required: Option<usize>,
    /// Measured traffic under OPT, when the policy filter admits it.
    pub(crate) opt: Option<Trace>,
    /// Measured traffic under LRU, when the policy filter admits it.
    pub(crate) lru: Option<Trace>,
    /// The RBW executor's certified upper bound for the same order.
    pub(crate) upper: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalyzerConfig;

    fn analyzer(threads: usize) -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        })
    }

    #[test]
    fn sandwich_holds_on_the_four_schedule_kernels() {
        // Crate-local smoke of the invariant; the canonical shared case
        // table (E15_CASES) lives in dmc-bench, which depends on this
        // crate and so cannot be imported here.
        for (spec, srams) in [
            ("jacobi(n=8,d=1,t=8)", [6u64, 12, 24]),
            ("matmul(n=4)", [4, 8, 16]),
            ("fft(n=8)", [3, 6, 12]),
            ("composite(n=3)", [4, 8, 16]),
        ] {
            let r = analyzer(1).validate_spec(spec, &srams, None).expect(spec);
            assert_eq!(r.points.len(), 3);
            for p in &r.points {
                assert!(p.infeasible.is_none(), "{spec} S={}: {:?}", p.sram, p);
                assert_eq!(p.sandwich_ok(), Some(true), "{spec} S={}: {p:?}", p.sram);
            }
            assert!(r.sandwich_holds());
        }
    }

    #[test]
    fn measured_lru_matches_the_certified_executor_exactly() {
        // The fast arena simulator and the trace-validated game executor
        // are independent implementations of the same LRU semantics —
        // they must agree to the word.
        let registry = Registry::shared();
        for name in ["jacobi", "matmul", "fft", "composite", "ladder", "scan"] {
            let spec = registry.defaults(name).expect("registered");
            let r = analyzer(1).validate_kernel(&spec, &[8, 16, 64], None);
            for p in &r.points {
                if p.infeasible.is_some() {
                    continue;
                }
                assert_eq!(
                    p.measured_lru.as_ref().map(|t| t.io()),
                    p.certified_upper,
                    "{name} @ S={}",
                    p.sram
                );
            }
        }
    }

    #[test]
    fn infeasible_points_are_reported_not_dropped() {
        // jacobi d=2 star stencil: interior in-degree 5 → S must be ≥ 6.
        let r = analyzer(1)
            .validate_spec("jacobi(n=4,d=2,t=2)", &[2, 4, 16], None)
            .expect("valid spec");
        assert_eq!(r.points.len(), 3);
        assert!(r.points[0].infeasible.is_some());
        assert!(r.points[1].infeasible.is_some());
        assert_eq!(r.points[2].sandwich_ok(), Some(true));
        assert!(r.sandwich_holds(), "feasible points still judged");
        let text = r.to_string();
        assert!(text.contains("skipped"), "{text}");
    }

    #[test]
    fn policy_filter_restricts_measurement() {
        let a = analyzer(1);
        let lru_only = a
            .validate_spec("fft(n=8)", &[6], Some(CachePolicy::Lru))
            .expect("valid");
        assert!(lru_only.points[0].measured_opt.is_none());
        assert!(lru_only.points[0].measured_lru.is_some());
        assert_eq!(lru_only.points[0].sandwich_ok(), Some(true));
        let opt_only = a
            .validate_spec("fft(n=8)", &[6], Some(CachePolicy::Opt))
            .expect("valid");
        assert!(opt_only.points[0].measured_opt.is_some());
        assert!(opt_only.points[0].measured_lru.is_none());
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let base = analyzer(1)
            .validate_spec("jacobi(n=8,d=1,t=8)", &[6, 8, 12, 16, 24], None)
            .expect("valid");
        for threads in [2usize, 4, 5] {
            let r = analyzer(threads)
                .validate_spec("jacobi(n=8,d=1,t=8)", &[6, 8, 12, 16, 24], None)
                .expect("valid");
            assert_eq!(r, base, "@ {threads} threads");
            assert_eq!(r.to_string(), base.to_string(), "@ {threads} threads");
            assert_eq!(
                serde::json::to_string(&r),
                serde::json::to_string(&base),
                "@ {threads} threads"
            );
        }
    }

    #[test]
    fn bad_spec_is_loud() {
        let err = analyzer(1)
            .validate_spec("warp_drive(n=4)", &[4], None)
            .unwrap_err();
        assert!(err.to_string().contains("unknown kernel"), "{err}");
    }
}
