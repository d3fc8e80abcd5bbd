//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|scale|serve --seed N --seconds T --trace 0|1 [--size full|small]
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every output, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! ([`E2E`]); with `--trace 1` a separate traced run gives the per-layer
//! ones ([`LAYERS`]). A stamp line with host and build details comes
//! just before it, and the full report (sample counts, spreads, exact
//! counts) and the trace's spans are written under `perfbench/out/`.
//! `--size small` shrinks the `sweep` and `serve` inputs for the smoke
//! tests (`scale` has no smaller graph on its hierarchical path).

mod calibrate;
mod replay;
mod scale;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every untraced run reports all of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports all of them. A layer the
/// workload does not reach from outside reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("kernels.build_s", "s"),
    ("kernels.schedule_s", "s"),
    ("pipeline.analyze_s", "s"),
    ("pipeline.analyze_calls_per_graph", "count"),
    ("pipeline.hierarchical_s", "s"),
    ("pipeline.partition2s_s", "s"),
    ("cdag.components_s", "s"),
    ("cdag.engine_s", "s"),
    ("cdag.engine_anchors", "count"),
    ("cdag.coarsen_s", "s"),
    ("sim.lru_s", "s"),
    ("sim.opt_s", "s"),
    ("sim.loads", "count"),
    ("sim.evictions", "count"),
    ("sim.ns_per_eviction.lru.256", "ns"),
    ("sim.ns_per_eviction.lru.1024", "ns"),
    ("sim.ns_per_eviction.opt.256", "ns"),
    ("sim.ns_per_eviction.opt.1024", "ns"),
    ("hierarchy_sim.split_s", "s"),
    ("hierarchy_sim.run_s", "s"),
    ("hierarchy_sim.remote_words", "count"),
    ("executor.upper_bound_s", "s"),
    ("validate.s", "s"),
    ("machine_validate.s", "s"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.analyses_performed", "count"),
    ("serve.coalesced", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Span name → per-layer self-time metric.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("kernels.build", "kernels.build_s"),
    ("kernels.schedule", "kernels.schedule_s"),
    ("pipeline.analyze", "pipeline.analyze_s"),
    ("pipeline.hierarchical", "pipeline.hierarchical_s"),
    ("pipeline.partition2s", "pipeline.partition2s_s"),
    ("cdag.components", "cdag.components_s"),
    ("cdag.engine", "cdag.engine_s"),
    ("cdag.coarsen", "cdag.coarsen_s"),
    ("sim.lru", "sim.lru_s"),
    ("sim.opt", "sim.opt_s"),
    ("hierarchy_sim.split", "hierarchy_sim.split_s"),
    ("hierarchy_sim.run", "hierarchy_sim.run_s"),
    ("executor.upper_bound", "executor.upper_bound_s"),
    ("validate", "validate.s"),
    ("machine_validate", "machine_validate.s"),
];

/// Analysis thread budget of `sweep` and `scale` (the host has 2 cores;
/// `serve` uses both for its 2 workers and 2 clients). On a shared
/// 2-vCPU host a 2-thread `sweep` pass spread 19% (interquartile range
/// over median, 5 seeds) where a single thread spread about 3%.
pub const ANALYSIS_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// A measured metric with the number of samples behind it and, for
/// timings over several samples, their interquartile spread over the
/// median.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
    pub spread: f64,
}

impl Metric {
    pub fn one(value: f64) -> Metric {
        Metric {
            value,
            samples: 1,
            spread: 0.0,
        }
    }

    pub fn median_of(xs: &[f64]) -> Metric {
        Metric {
            value: stats::median(xs),
            samples: xs.len(),
            spread: stats::iqr_over_median(xs),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks of the run as a whole (e.g. counts that must repeat) that
    /// are not tied to one operation.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Exact counts and other details for the side report.
    pub details: BTreeMap<String, String>,
    /// Spans of the traced pass, as JSON.
    pub spans: Option<String>,
}

impl Outcome {
    /// Records one operation and whether its output checked out.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {}", what());
        }
    }

    pub fn problem(&mut self, why: String) {
        eprintln!("[perfbench] {why}");
        self.problems.push(why);
    }

    pub fn set(&mut self, name: &'static str, m: Metric) {
        self.metrics.insert(name, m);
    }

    pub fn detail(&mut self, key: impl Into<String>, value: impl ToString) {
        self.details.insert(key.into(), value.to_string());
    }

    /// The exact work counts of a traced pass.
    pub fn set_counts(&mut self, c: &replay::Counts) {
        self.detail("counts", format!("{c:?}"));
        self.set("cdag.engine_anchors", Metric::one(c.engine_anchors as f64));
        self.set("sim.loads", Metric::one(c.loads as f64));
        self.set("sim.evictions", Metric::one(c.evictions as f64));
        self.set(
            "hierarchy_sim.remote_words",
            Metric::one(c.remote_words as f64),
        );
    }

    /// Per-layer self times, coverage and overhead of a traced pass.
    pub fn set_layer_times(&mut self, tr: &trace::Tracer, traced_wall: f64, untraced_wall: f64) {
        let self_times = tr.self_times();
        for (span, metric) in SPAN_METRICS {
            if let Some(&s) = self_times.get(span) {
                self.set(metric, Metric::one(s));
            }
        }
        self.set("trace.coverage", Metric::one(tr.covered_s() / traced_wall));
        self.set(
            "trace.overhead_frac",
            Metric::one(traced_wall / untraced_wall - 1.0),
        );
        self.detail("traced_wall_s", traced_wall);
        self.detail("untraced_wall_s", untraced_wall);
        self.spans = Some(tr.to_json());
    }
}

/// Deterministic generator for workload inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// End-to-end metrics of a batch workload (`sweep`, `scale`) whose
/// passes each make the same `per_pass` calls, in order. Times are in
/// reference seconds (see [`calibrate`]); set-up is reported raw. A
/// call's latency is its median over the passes and the percentiles run
/// over calls, so with few calls `p99_ms` is the slowest call's median
/// rather than the single slowest sample.
pub fn set_batch_metrics(
    out: &mut Outcome,
    setup: &[f64],
    passes: &[f64],
    ops: &[f64],
    per_pass: usize,
    cal: &calibrate::Calibration,
) {
    let k = cal.factor();
    let per_call: Vec<f64> = (0..per_pass)
        .map(|i| {
            let repeats: Vec<f64> = ops.iter().skip(i).step_by(per_pass).copied().collect();
            stats::median(&repeats) * 1e3 * k
        })
        .collect();
    let reference: Vec<f64> = passes.iter().map(|s| s * k).collect();
    let m = |value| Metric {
        value,
        samples: ops.len(),
        spread: 0.0,
    };
    out.set("setup_s", Metric::median_of(setup));
    out.set("wall_s", Metric::median_of(&reference));
    out.set("p50_ms", m(stats::median(&per_call)));
    out.set("p99_ms", m(stats::percentile(&per_call, 0.99)));
    out.set(
        "rps",
        m(ops.len() as f64 / (passes.iter().sum::<f64>() * k)),
    );
    out.detail("call_ms", format!("{per_call:?}"));
    out.detail("raw_pass_s", format!("{passes:?}"));
    out.detail("calibration_s", format!("{:?}", cal.samples()));
    out.detail("reference_factor", k);
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats `f` while less than `seconds` have passed, at least once,
/// returning each call's duration in seconds. A calibration sample is
/// taken before every call, outside the timed region.
pub fn timed_passes(
    seconds: f64,
    cal: &mut calibrate::Calibration,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        cal.sample();
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload sweep|scale|serve --seed N --seconds T --trace 0|1 [--size full|small]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(format!("bad --size {value:?} (full or small)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "scale", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Output of a helper program, or `unknown` when it cannot run.
/// `GIT_DIR` keeps `git` to the checkout's own repository, if any.
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let started = Instant::now();
    let mut out = match ctx.workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "scale" => scale::run(&ctx),
        _ => serve::run(&ctx),
    };
    if !ctx.trace {
        out.set("peak_rss_mb", Metric::one(peak_rss_mb()));
    }
    let wanted = if ctx.trace { LAYERS } else { E2E };
    for (name, _) in wanted {
        if !out.metrics.contains_key(name) {
            if ctx.trace {
                out.set(name, Metric::one(0.0));
            } else {
                out.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    if out.attempted == 0 {
        out.problem("no operation was attempted".to_string());
    }
    let correct = out.failed == 0 && out.problems.is_empty();

    let mut stamp = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    stamp.insert("workload", json_str(&ctx.workload));
    stamp.insert("seed", ctx.seed.to_string());
    stamp.insert("seconds", json_num(ctx.seconds));
    stamp.insert("trace", ctx.trace.to_string());
    stamp.insert(
        "size",
        json_str(if ctx.size == Size::Full {
            "full"
        } else {
            "small"
        }),
    );
    stamp.insert("nproc", nproc.to_string());
    stamp.insert("rustc", json_str(&tool_output("rustc", &["-V"])));
    stamp.insert(
        "profile",
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    stamp.insert(
        "git_rev",
        json_str(&tool_output("git", &["rev-parse", "HEAD"])),
    );
    for key in ["analysis_threads", "clients", "workers"] {
        if let Some(v) = out.details.get(key) {
            stamp.insert(key, v.clone());
        }
    }
    stamp.insert("run_s", json_num(started.elapsed().as_secs_f64()));
    let stamp_json = format!(
        "{{{}}}",
        stamp
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let units: BTreeMap<&str, &str> = E2E.iter().chain(LAYERS).copied().collect();
    let metric_entries: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(out.metrics[name].value),
                json_str(unit)
            )
        })
        .collect();
    let report = format!(
        "{{\"stamp\": {stamp_json}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}, \"details\": {{{}}}}}",
        out.attempted,
        out.failed,
        out.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        out.metrics
            .iter()
            .map(|(name, m)| format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"iqr_over_median\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(units.get(name).copied().unwrap_or("")),
                m.samples,
                json_num(m.spread)
            ))
            .collect::<Vec<_>>()
            .join(", "),
        out.details
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let dir = std::path::Path::new("perfbench").join("out");
    let base = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    let write = |name: String, body: &str| {
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), body))
        {
            eprintln!("[perfbench] cannot write {}: {e}", dir.join(name).display());
        }
    };
    write(format!("{base}.json"), &report);
    if let Some(spans) = &out.spans {
        write(format!("{base}-spans.json"), spans);
    }

    for (name, m) in &out.metrics {
        println!(
            "{name:<36} {:>16} {:<6} samples {:>6}  iqr/median {:.4}",
            json_num(m.value),
            units.get(name).copied().unwrap_or(""),
            m.samples,
            m.spread
        );
    }
    println!("{stamp_json}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metric_entries.join(", ")
    );
    ExitCode::SUCCESS
}
