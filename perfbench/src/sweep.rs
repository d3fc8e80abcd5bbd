//! `sweep`: mid-size connected catalog kernels, each validated over the
//! CLI's default 3-point S sweep, plus one catalog-machine validation.
//!
//! Why: the wavefront engine runs once per S and per hierarchy level
//! although its result does not depend on S, so this workload exercises
//! the flow core and any S-independent reuse of graph facts. It bypasses
//! the simulator's victim-selection cost at large S and the daemon.
//!
//! One operation is one `validate_built` or `validate_machine_built`
//! call, what `repro simulate` runs once the graph is built; one pass
//! is every operation once, in a seed-chosen kernel order.

use crate::calibrate::Calibration;
use crate::replay::{self, Counts, MachineLevels};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Outcome, Rng, Size, ANALYSIS_THREADS};
use dmc_cdag::Cdag;
use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
use dmc_core::ValidationReport;
use dmc_kernels::catalog::{KernelSpec, Registry};
use dmc_machine::MachineSpec;
use dmc_sim::simulation::min_feasible_capacity;
use std::time::Instant;

/// Kernels of the full and small sizes (4–8·10³ vertices at full size).
/// The last one is also the machine-validation kernel.
const FULL: [&str; 3] = ["jacobi(n=24,d=2,t=6)", "fft(n=512)", "matmul(n=16)"];
const SMALL: [&str; 3] = ["jacobi(n=8,d=2,t=4)", "fft(n=64)", "matmul(n=4)"];
const MACHINE: &str = "IBM BG/Q";
/// The CLI's default per-core S1 for `simulate --machine`.
const S1: u64 = 64;

/// Certified lower bounds at the seed commit: per kernel, one per sweep
/// point; for the machine validation, one per hierarchy level.
const PINNED_LOWER: &[(&str, &[f64])] = &[
    ("jacobi(n=24,d=2,t=6,stencil=star)", &[1152.0; 3]),
    ("fft(n=512)", &[1024.0; 3]),
    ("matmul(n=16,accumulate=tree)", &[768.0; 3]),
    ("jacobi(n=8,d=2,t=4,stencil=star)", &[128.0; 3]),
    ("fft(n=64)", &[128.0; 3]),
    ("matmul(n=4,accumulate=tree)", &[48.0; 3]),
];
const PINNED_MACHINE_LOWER: &[(&str, &[f64])] = &[
    ("matmul(n=16,accumulate=tree)", &[768.0; 2]),
    ("matmul(n=4,accumulate=tree)", &[48.0; 2]),
];

/// Exact work counts of one pass at the seed commit (`engine_anchors`
/// is counted by the traced replay only).
fn pinned_counts(size: Size, traced: bool) -> Counts {
    let (anchors, loads, evictions, remote_words) = match size {
        Size::Full => (18800, 169232, 165553, 7440),
        Size::Small => (1735, 6255, 5936, 150),
    };
    Counts {
        engine_anchors: if traced { anchors } else { 0 },
        loads,
        evictions,
        remote_words,
    }
}

fn pinned(table: &[(&str, &'static [f64])], spec: &str) -> &'static [f64] {
    table
        .iter()
        .find(|(s, _)| *s == spec)
        .map_or(&[], |(_, v)| v)
}

struct Input {
    spec: KernelSpec<'static>,
    g: Cdag,
    srams: Vec<u64>,
}

/// Parses and builds `spec` and picks the CLI's default sweep: three
/// octaves up from the schedule's minimum feasible S.
fn build(spec: &str) -> Input {
    let spec = Registry::shared().parse(spec).expect("catalog spec");
    let g = spec.build();
    let r = min_feasible_capacity(&g) as u64;
    Input {
        spec,
        g,
        srams: vec![r, 2 * r, 4 * r],
    }
}

/// One pass's results.
struct Pass {
    reports: Vec<ValidationReport>,
    machine: MachineLevels,
    /// Seconds per operation, in pass order.
    ops: Vec<f64>,
    counts: Counts,
}

/// Runs one pass. With `tr` on, every call is the traced replay; with it
/// off, the opaque entry point.
fn pass(tr: &Tracer, inputs: &[Input; 3], order: &[usize], machine: &MachineSpec) -> Pass {
    let analyzer = Analyzer::new(AnalyzerConfig {
        threads: ANALYSIS_THREADS,
        ..AnalyzerConfig::default()
    });
    let mut counts = Counts::default();
    let mut ops = Vec::new();
    let mut reports = Vec::new();
    for &k in order {
        let Input { spec, g, srams } = &inputs[k];
        let t = Instant::now();
        reports.push(if tr.is_on() {
            replay::validate(tr, spec, g, srams, &mut counts)
        } else {
            analyzer.validate_built(spec, g, srams, None)
        });
        ops.push(t.elapsed().as_secs_f64());
    }
    let Input { spec, g, .. } = &inputs[inputs.len() - 1];
    let t = Instant::now();
    let machine = if tr.is_on() {
        replay::machine_validate(tr, spec, g, machine, S1, &mut counts)
    } else {
        MachineLevels::of(&analyzer.validate_machine_built(spec, g, machine, S1, None))
    };
    ops.push(t.elapsed().as_secs_f64());
    if !tr.is_on() {
        counts.remote_words = machine.remote_words;
        let levels = machine.levels.iter();
        let traces = reports
            .iter()
            .flat_map(|r| r.points.iter().map(|p| (&p.measured_opt, &p.measured_lru)))
            .chain(levels.map(|l| (&l.measured_opt, &l.measured_lru)));
        for (opt, lru) in traces {
            opt.iter().chain(lru).for_each(|t| counts.add_trace(t));
        }
    }
    Pass {
        reports,
        machine,
        ops,
        counts,
    }
}

/// Every sandwich holds, every certified bound equals its pin, and the
/// pass's exact counts equal theirs.
fn check(out: &mut Outcome, p: &Pass, want: &Counts) {
    for r in &p.reports {
        let lower: Vec<f64> = r.points.iter().map(|p| p.certified_lower).collect();
        let pin = pinned(PINNED_LOWER, &r.spec);
        out.check(r.sandwich_holds() && lower == pin, || {
            format!(
                "{}: sandwich {} lower {lower:?}, pinned {pin:?}",
                r.spec,
                r.sandwich_holds()
            )
        });
    }
    let m = &p.machine;
    let lower: Vec<f64> = m.levels.iter().map(|l| l.certified_lower).collect();
    let pin = pinned(PINNED_MACHINE_LOWER, &m.spec);
    out.check(m.sandwich_holds() && lower == pin, || {
        format!(
            "{} on {MACHINE}: sandwich {} lower {lower:?}, pinned {pin:?}",
            m.spec,
            m.sandwich_holds()
        )
    });
    if p.counts != *want {
        out.problem(format!(
            "pass counts {:?} differ from the pinned {want:?}",
            p.counts
        ));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let specs = if ctx.size == Size::Full { FULL } else { SMALL };
    let mut order: Vec<usize> = (0..specs.len()).collect();
    Rng::new(ctx.seed).shuffle(&mut order);
    let machine = dmc_machine::specs::find_machine(MACHINE).expect("catalog machine");
    out.detail("kernels", specs.join(" "));
    out.detail("order", format!("{order:?}"));
    out.detail("analysis_threads", ANALYSIS_THREADS);
    out.detail("machine", MACHINE);
    if ctx.trace {
        traced(ctx, &mut out, specs, &order, &machine);
    } else {
        untraced(ctx, &mut out, specs, &order, &machine);
    }
    out
}

fn untraced(
    ctx: &Ctx,
    out: &mut Outcome,
    specs: [&str; 3],
    order: &[usize],
    machine: &MachineSpec,
) {
    // Set-up: parse and build every kernel, several times.
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..21 {
        let t = Instant::now();
        inputs = Some(specs.map(build));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("built");
    let off = Tracer::off();
    let mut passes = Vec::new();
    let mut cal = Calibration::new();
    let pass_times = crate::timed_passes(ctx.seconds, &mut cal, || {
        passes.push(pass(&off, &inputs, order, machine));
    });
    let want = pinned_counts(ctx.size, false);
    for p in &passes {
        check(out, p, &want);
    }
    out.detail("counts", format!("{:?}", passes[0].counts));
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.ops.iter().copied()).collect();
    crate::set_batch_metrics(out, &setup, &pass_times, &ops, passes[0].ops.len(), &cal);
}

fn traced(ctx: &Ctx, out: &mut Outcome, specs: [&str; 3], order: &[usize], machine: &MachineSpec) {
    // Untraced reference: the same pass through the opaque entry points.
    let t = Instant::now();
    let reference = pass(&Tracer::off(), &specs.map(build), order, machine);
    let untraced_wall = t.elapsed().as_secs_f64();
    check(out, &reference, &pinned_counts(ctx.size, false));

    let tr = Tracer::new(Instant::now(), 0);
    let t = Instant::now();
    let inputs = specs.map(|s| tr.span("kernels.build", || build(s)));
    let replayed = pass(&tr, &inputs, order, machine);
    let traced_wall = t.elapsed().as_secs_f64();
    check(out, &replayed, &pinned_counts(ctx.size, true));
    out.check(
        replayed.reports == reference.reports && replayed.machine == reference.machine,
        || "the traced replay differs from the opaque calls".to_string(),
    );
    out.set_layer_times(&tr, traced_wall, untraced_wall);
    out.set(
        "pipeline.analyze_calls_per_graph",
        Metric::one(tr.count("pipeline.analyze") as f64 / specs.len() as f64),
    );
    out.set_counts(&replayed.counts);
}
