//! `serve`: a closed loop of 2 clients against a fresh in-process
//! `dmc_serve::Server` with 2 workers. Each client sends its next
//! request only after the previous reply, as a CLI or script caller
//! does.
//!
//! Why: this workload exercises HTTP, the accept loop, the result
//! cache, single-flight and the service layer; cache hits bypass the
//! analysis. Each client works through blocks of 50 requests, in a
//! seed-shuffled order:
//!
//! - 45 hot repeats of four small specs (cache hits after warm-up);
//! - 2 requests for one mid-size spec at an `sram` never asked before,
//!   which miss but share one graph; they are the slowest requests, so
//!   the p99 falls on analysis work rather than on scheduler jitter;
//! - 1 cold spec, the same for both clients, so one analysis serves
//!   both (a coalesced wait or a later hit);
//! - 2 `POST /simulate?machine=...` at a fresh per-core S1.
//!
//! One request in ten misses the cache. The mid-size share is 4%, not
//! more, so that the p99 sits near the middle of the analysis latencies
//! instead of in their noisy tail. The two clients meet at a barrier
//! after every block, so every block runs exactly 9 analyses and the
//! count repeats from run to run.

use crate::trace::Tracer;
use crate::{stats, Ctx, Metric, Outcome, Rng, Size};
use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
use dmc_kernels::catalog::Registry;
use dmc_serve::http::Request;
use dmc_serve::{Limits, Outcome as CacheOutcome, Server, ServerConfig, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Analysis threads per request: two workers each analyzing on one
/// thread fill the two cores without oversubscribing them.
const SERVICE_THREADS: usize = 1;
const BLOCK: usize = 50;
const MID_PER_BLOCK: usize = 2;
const COLD_PER_BLOCK: usize = 1;
const MACHINE_PER_BLOCK: usize = 2;
/// Distinct analyses one block causes across both clients.
const ANALYSES_PER_BLOCK: u64 =
    (CLIENTS * (MID_PER_BLOCK + MACHINE_PER_BLOCK) + COLD_PER_BLOCK) as u64;
const MACHINE: &str = "IBM BG/Q";
/// Blocks at the start of a phase whose miss replies (client 0) are
/// re-computed in-process and compared byte for byte.
const SAMPLED_BLOCKS: u64 = 4;

/// Decoded query parameters of a fixed request.
type Query = &'static [(&'static str, &'static str)];

/// The hot set: `(path, query, body)`.
const HOT: [(&str, Query, &str); 4] = [
    ("/analyze", &[], "diamond"),
    ("/analyze", &[], "fft(n=8)"),
    ("/analyze", &[("sram", "8")], "reduction(leaves=16)"),
    ("/simulate", &[], "fft(n=8)"),
];

fn mid_spec(size: Size) -> &'static str {
    match size {
        Size::Full => "jacobi(n=16,d=2,t=4)",
        Size::Small => "jacobi(n=6,d=2,t=2)",
    }
}

fn machine_spec(size: Size) -> &'static str {
    match size {
        Size::Full => "fft(n=32)",
        Size::Small => "fft(n=8)",
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot(usize),
    Mid,
    Cold,
    Machine,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot(_) => "hot",
            Class::Mid => "mid",
            Class::Cold => "cold",
            Class::Machine => "machine",
        }
    }
}

/// One request of the mix, as sent and as the in-process replay sees it.
#[derive(Debug, Clone)]
struct Planned {
    class: Class,
    request: Request,
}

impl Planned {
    fn new(class: Class, path: &str, query: Vec<(String, String)>, body: String) -> Planned {
        Planned {
            class,
            request: Request {
                method: "POST".to_string(),
                path: path.to_string(),
                query,
                body,
            },
        }
    }

    fn target(&self) -> String {
        let q: Vec<String> = self
            .request
            .query
            .iter()
            .map(|(k, v)| format!("{k}={}", encode(v)))
            .collect();
        if q.is_empty() {
            self.request.path.clone()
        } else {
            format!("{}?{}", self.request.path, q.join("&"))
        }
    }
}

fn encode(v: &str) -> String {
    v.chars()
        .map(|c| match c {
            ' ' => "+".to_string(),
            c if c.is_ascii_alphanumeric() || "-_.()=,".contains(c) => c.to_string(),
            c => format!("%{:02X}", c as u32),
        })
        .collect()
}

fn hot(i: usize) -> Planned {
    let (path, query, body) = HOT[i];
    Planned::new(
        Class::Hot(i),
        path,
        query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body.to_string(),
    )
}

/// The 50 requests client `client` sends in block `block`.
fn plan_block(size: Size, seed: u64, block: u64, client: usize) -> Vec<Planned> {
    // Miss keys never repeat within a run. The seed shifts where they
    // start, within a band narrow enough that a request's work does not
    // depend on the seed (a cold `chain(k)` costs more as k grows).
    let base = seed % 16 * 16;
    let slot = block * CLIENTS as u64 + client as u64;
    let mut reqs = Vec::with_capacity(BLOCK);
    for j in 0..MID_PER_BLOCK as u64 {
        let sram = 64 + base + slot * MID_PER_BLOCK as u64 + j;
        reqs.push(Planned::new(
            Class::Mid,
            "/analyze",
            vec![("sram".into(), sram.to_string())],
            mid_spec(size).to_string(),
        ));
    }
    for j in 0..COLD_PER_BLOCK as u64 {
        let k = 16 + base + block * COLD_PER_BLOCK as u64 + j;
        reqs.push(Planned::new(
            Class::Cold,
            "/analyze",
            vec![],
            format!("chain(k={k})"),
        ));
    }
    for j in 0..MACHINE_PER_BLOCK as u64 {
        let s1 = 8 + base + slot * MACHINE_PER_BLOCK as u64 + j;
        reqs.push(Planned::new(
            Class::Machine,
            "/simulate",
            vec![
                ("machine".into(), MACHINE.into()),
                ("sram".into(), s1.to_string()),
            ],
            machine_spec(size).to_string(),
        ));
    }
    let mut i = 0;
    while reqs.len() < BLOCK {
        reqs.push(hot(i % HOT.len()));
        i += 1;
    }
    let mut rng = Rng::new(seed ^ (block << 8) ^ client as u64);
    rng.shuffle(&mut reqs);
    reqs
}

/// The body the daemon must return, computed in-process the way its
/// service layer does (and `repro analyze`/`simulate --format json`).
fn expected_body(p: &Planned) -> String {
    let req = &p.request;
    let spec = Registry::shared()
        .parse(req.body.trim())
        .expect("catalog spec");
    let analyzer = |sram: u64, verdicts: bool| {
        Analyzer::new(AnalyzerConfig {
            sram,
            threads: SERVICE_THREADS,
            verdicts,
            ..AnalyzerConfig::default()
        })
    };
    let param = |k: &str| {
        req.query_param(k)
            .map(|v| v.parse::<u64>().expect("numeric"))
    };
    let mut json = match (req.path.as_str(), req.query_param("machine")) {
        ("/analyze", _) => serde::json::to_string(
            &analyzer(param("sram").unwrap_or(4), true).analyze_kernel(&spec),
        ),
        (_, Some(m)) => {
            let machine = dmc_machine::specs::find_machine(m).expect("catalog machine");
            let s1 = param("sram").unwrap_or(64);
            serde::json::to_string(
                &analyzer(4, false).validate_machine_kernel(&spec, &machine, s1, None),
            )
        }
        _ => {
            let g = spec.build();
            let r = dmc_sim::simulation::min_feasible_capacity(&g) as u64;
            serde::json::to_string(&analyzer(4, false).validate_built(
                &spec,
                &g,
                &[r, 2 * r, 4 * r],
                None,
            ))
        }
    };
    json.push('\n');
    json
}

/// One raw HTTP round trip: status and body.
fn round_trip(addr: SocketAddr, p: &Planned) -> Result<(u16, String), String> {
    let raw = format!(
        "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        p.request.method,
        p.target(),
        p.request.body.len(),
        p.request.body
    );
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("recv: {e}"))?;
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable response {resp:?}"))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    round_trip(
        addr,
        &Planned {
            class: Class::Hot(0),
            request: Request {
                method: "GET".into(),
                path: path.into(),
                query: vec![],
                body: String::new(),
            },
        },
    )
}

fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}

/// A running daemon and the thread that runs its accept loop.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<dmc_serve::ServeSummary>>,
}

impl Daemon {
    /// Binds a fresh daemon and warms its cache with the hot set.
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            limits: Limits::default(),
            service: ServiceConfig {
                threads: SERVICE_THREADS,
                ..ServiceConfig::default()
            },
            log: false,
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon { addr, thread };
        let (status, _) = get(addr, "/healthz")?;
        if status != 200 {
            return Err(format!("healthz -> {status}"));
        }
        for (i, h) in HOT.iter().enumerate() {
            let (status, body) = round_trip(addr, &hot(i))?;
            if status != 200 {
                return Err(format!("warm-up {h:?} -> {status}: {body}"));
            }
        }
        Ok(daemon)
    }

    fn metrics(&self) -> String {
        get(self.addr, "/metrics")
            .map(|(_, b)| b)
            .unwrap_or_default()
    }

    /// Graceful shutdown; waits for the accept loop and its workers.
    fn stop(self) -> Result<(), String> {
        let (status, _) = round_trip(
            self.addr,
            &Planned::new(Class::Hot(0), "/shutdown", vec![], String::new()),
        )?;
        let joined = self.thread.join();
        match (status, joined) {
            (200, Ok(Ok(_))) => Ok(()),
            (s, j) => Err(format!("shutdown -> {s}, server loop {j:?}")),
        }
    }
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    blocks: u64,
    block_times: Vec<f64>,
    /// `(block, client, index in block, latency ms)`.
    latencies: Vec<(u64, usize, usize, f64)>,
    /// Latencies (ms) per request class.
    class_ms: BTreeMap<&'static str, Vec<f64>>,
    failures: Vec<String>,
    /// Sampled `(request, body)` pairs to compare with in-process output.
    samples: Vec<(Planned, String)>,
    hot_bodies: Vec<Option<String>>,
    hot_mismatch: u64,
    wall: f64,
    tracer: Option<Tracer>,
}

/// Runs blocks with both clients until `seconds` pass; `first_block`
/// numbers the blocks so miss keys never repeat across phases.
fn closed_loop(addr: SocketAddr, ctx: &Ctx, first_block: u64, seconds: f64, traced: bool) -> Phase {
    let barrier = Barrier::new(CLIENTS);
    let go_on = AtomicBool::new(true);
    let phase = Mutex::new(Phase {
        hot_bodies: vec![None; HOT.len()],
        tracer: traced.then(|| Tracer::new(Instant::now(), 0)),
        ..Phase::default()
    });
    let epoch = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (barrier, go_on, phase) = (&barrier, &go_on, &phase);
            s.spawn(move || {
                let tracer = Tracer::new(epoch, client + 1);
                let mut block = first_block;
                let mut block_start = Instant::now();
                loop {
                    let mut local = Vec::with_capacity(BLOCK);
                    for (i, p) in plan_block(ctx.size, ctx.seed, block, client)
                        .into_iter()
                        .enumerate()
                    {
                        let t = Instant::now();
                        let result = if traced {
                            tracer.span("serve.request", || round_trip(addr, &p))
                        } else {
                            round_trip(addr, &p)
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        local.push((p, i, ms, result));
                    }
                    {
                        let mut ph = phase
                            .lock()
                            .expect("no panics while holding the phase lock");
                        for (p, i, ms, result) in local {
                            ph.latencies.push((block, client, i, ms));
                            ph.class_ms.entry(p.class.name()).or_default().push(ms);
                            match result {
                                Ok((200, body)) => match p.class {
                                    Class::Hot(h) => match &ph.hot_bodies[h] {
                                        Some(b) if *b != body => ph.hot_mismatch += 1,
                                        Some(_) => {}
                                        None => ph.hot_bodies[h] = Some(body),
                                    },
                                    _ if client == 0 && block - first_block < SAMPLED_BLOCKS => {
                                        ph.samples.push((p, body))
                                    }
                                    _ => {}
                                },
                                Ok((status, body)) => ph.failures.push(format!(
                                    "{} {} -> {status}: {}",
                                    p.target(),
                                    p.request.body,
                                    body.trim()
                                )),
                                Err(e) => ph.failures.push(format!(
                                    "{} {}: {e}",
                                    p.target(),
                                    p.request.body
                                )),
                            }
                        }
                    }
                    if barrier.wait().is_leader() {
                        let mut ph = phase
                            .lock()
                            .expect("no panics while holding the phase lock");
                        ph.blocks += 1;
                        ph.block_times.push(block_start.elapsed().as_secs_f64());
                        go_on.store(epoch.elapsed().as_secs_f64() < seconds, Ordering::SeqCst);
                    }
                    barrier.wait();
                    block_start = Instant::now();
                    block += 1;
                    if !go_on.load(Ordering::SeqCst) {
                        break;
                    }
                }
                if let Some(t) = &phase
                    .lock()
                    .expect("no panics while holding the phase lock")
                    .tracer
                {
                    t.absorb(tracer);
                }
            });
        }
    });
    let mut ph = phase.into_inner().expect("clients joined");
    ph.wall = epoch.elapsed().as_secs_f64();
    ph
}

/// Checks a phase's replies: every non-200 fails, hot bodies must be
/// byte-identical to the in-process report, sampled miss bodies too.
fn check_phase(out: &mut Outcome, ph: &Phase) {
    out.attempted += ph.latencies.len() as u64;
    out.failed += ph.failures.len() as u64;
    for f in ph.failures.iter().take(5) {
        eprintln!("[perfbench] failed request: {f}");
    }
    out.failed += ph.hot_mismatch;
    for (i, body) in ph.hot_bodies.iter().enumerate() {
        if let Some(body) = body {
            let want = expected_body(&hot(i));
            if *body != want {
                out.problem(format!(
                    "hot body {:?} differs from the in-process report",
                    HOT[i]
                ));
            }
        }
    }
    for (p, body) in &ph.samples {
        if *body != expected_body(p) {
            out.problem(format!(
                "{} {} body differs from the in-process report",
                p.target(),
                p.request.body
            ));
        }
    }
    out.detail("samples_checked", ph.samples.len());
}

/// Cache counters over a phase, from `/metrics` before and after.
struct Delta {
    hits: u64,
    misses: u64,
    coalesced: u64,
    analyses: u64,
}

fn delta(before: &str, after: &str) -> Delta {
    let d = |name: &str| metric(after, name) - metric(before, name);
    Delta {
        hits: d("cache_hits "),
        misses: d("cache_misses "),
        coalesced: d("cache_coalesced "),
        analyses: d("analyses_performed "),
    }
}

fn check_analyses(out: &mut Outcome, d: &Delta, blocks: u64) {
    let per_block = d.analyses as f64 / blocks.max(1) as f64;
    if d.analyses != ANALYSES_PER_BLOCK * blocks {
        out.problem(format!(
            "{} analyses over {blocks} blocks; each block must run exactly {ANALYSES_PER_BLOCK}",
            d.analyses
        ));
    }
    out.detail("analyses_per_block", per_block);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.detail("clients", CLIENTS);
    out.detail("workers", WORKERS);
    out.detail("analysis_threads", SERVICE_THREADS);
    out.detail("mid_spec", mid_spec(ctx.size));
    let result = if ctx.trace {
        traced(ctx, &mut out)
    } else {
        untraced(ctx, &mut out)
    };
    if let Err(e) = result {
        out.check(false, || e);
    }
    out
}

fn untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    // Set-up: bind and warm up, five times; the last daemon serves.
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..5 {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        daemon = Some(Daemon::start()?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("started");
    let before = daemon.metrics();
    let ph = closed_loop(daemon.addr, ctx, 0, ctx.seconds, false);
    let d = delta(&before, &daemon.metrics());
    daemon.stop()?;
    check_phase(out, &ph);
    check_analyses(out, &d, ph.blocks);
    let ms: Vec<f64> = ph.latencies.iter().map(|l| l.3).collect();
    out.set("setup_s", Metric::median_of(&setup));
    out.set("wall_s", Metric::median_of(&ph.block_times));
    out.set("p50_ms", Metric::median_of(&ms));
    out.set(
        "p99_ms",
        Metric {
            value: stats::percentile(&ms, 0.99),
            samples: ms.len(),
            spread: 0.0,
        },
    );
    out.set(
        "rps",
        Metric {
            value: ms.len() as f64 / ph.wall,
            samples: ms.len(),
            spread: 0.0,
        },
    );
    out.detail("blocks", ph.blocks);
    out.detail(
        "hit_ratio",
        d.hits as f64 / (d.hits + d.misses + d.coalesced).max(1) as f64,
    );
    out.detail("coalesced", d.coalesced);
    for (name, ms) in &ph.class_ms {
        out.detail(
            format!("{name}_ms_p50_p90"),
            format!("{:.2} {:.2}", stats::median(ms), stats::percentile(ms, 0.9)),
        );
    }
    Ok(())
}

fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let daemon = Daemon::start()?;
    let half = ctx.seconds / 2.0;
    let plain = closed_loop(daemon.addr, ctx, 0, half, false);
    let before = daemon.metrics();
    let first_traced = plain.blocks;
    let ph = closed_loop(daemon.addr, ctx, first_traced, half, true);
    let d = delta(&before, &daemon.metrics());
    daemon.stop()?;
    check_phase(out, &plain);
    check_phase(out, &ph);
    check_analyses(out, &d, ph.blocks);

    // In-process replay of the traced phase through a fresh service.
    let service = Service::new(ServiceConfig {
        threads: SERVICE_THREADS,
        ..ServiceConfig::default()
    });
    for i in 0..HOT.len() {
        let _ = service.handle(&hot(i).request);
    }
    let tr = Tracer::new(Instant::now(), 0);
    let mut service_ms = BTreeMap::new();
    let mut miss_ms = Vec::new();
    for block in first_traced..first_traced + ph.blocks {
        for client in 0..CLIENTS {
            for (i, p) in plan_block(ctx.size, ctx.seed, block, client)
                .iter()
                .enumerate()
            {
                let t = Instant::now();
                let reply = tr.span("serve.service", || service.handle(&p.request));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                out.check(reply.status == 200, || {
                    format!("in-process {} -> {}", p.target(), reply.status)
                });
                if reply.outcome == Some(CacheOutcome::Miss) {
                    miss_ms.push(ms);
                }
                service_ms.insert((block, client, i), ms);
            }
        }
    }
    let all_service: Vec<f64> = service_ms.values().copied().collect();
    let transport: Vec<f64> = ph
        .latencies
        .iter()
        .filter_map(|(b, c, i, ms)| service_ms.get(&(*b, *c, *i)).map(|s| ms - s))
        .collect();
    let http = ph.tracer.as_ref().expect("traced phase");
    let covered = http.covered_s();
    out.set(
        "trace.coverage",
        Metric::one(covered / (CLIENTS as f64 * ph.wall)),
    );
    out.set(
        "trace.overhead_frac",
        Metric::one(stats::median(&ph.block_times) / stats::median(&plain.block_times) - 1.0),
    );
    out.set("serve.service_p50_ms", Metric::median_of(&all_service));
    out.set(
        "serve.service_p99_ms",
        Metric::one(stats::percentile(&all_service, 0.99)),
    );
    out.set("serve.transport_p50_ms", Metric::median_of(&transport));
    out.set("serve.miss_ms", Metric::median_of(&miss_ms));
    out.set(
        "serve.hit_ratio",
        Metric::one(d.hits as f64 / (d.hits + d.misses + d.coalesced).max(1) as f64),
    );
    out.set(
        "serve.analyses_performed",
        Metric::one(d.analyses as f64 / ph.blocks.max(1) as f64),
    );
    out.set("serve.coalesced", Metric::one(d.coalesced as f64));
    out.detail("blocks", ph.blocks);
    http.absorb(tr);
    out.spans = Some(http.to_json());
    Ok(())
}
