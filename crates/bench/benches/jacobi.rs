//! E6 — Theorem 10 + §5.4: prints the Jacobi analysis (tiling ablation +
//! critical dimensions) and benchmarks the tiled vs untiled simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_kernels::grid::Stencil;
use dmc_kernels::jacobi::jacobi_cdag;
use dmc_sim::{schedule, CachePolicy, Simulation};

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::jacobi_experiment());
    let mut group = c.benchmark_group("jacobi");
    let j = jacobi_cdag(256, 1, 32, Stencil::VonNeumann);
    let mut sim = Simulation::new();
    let untiled = schedule::by_level(&j.cdag);
    let tiled = schedule::tiled_jacobi_1d(&j, 16);
    group.bench_function("simulate/untiled", |b| {
        b.iter(|| {
            sim.run(&j.cdag, &untiled, CachePolicy::Lru, 48)
                .map(|t| t.io())
        })
    });
    group.bench_function("simulate/tiled_w16", |b| {
        b.iter(|| {
            sim.run(&j.cdag, &tiled, CachePolicy::Lru, 48)
                .map(|t| t.io())
        })
    });
    group.bench_function("stencil_sweep_2d/n128", |b| {
        let u = vec![1.0f64; 128 * 128];
        let mut out = vec![0.0f64; 128 * 128];
        b.iter(|| dmc_solvers::jacobi::stencil_sweep_2d(&u, 128, &mut out))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
