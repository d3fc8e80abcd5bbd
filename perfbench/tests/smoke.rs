//! Small-size smoke tests of the benchmark binary: every workload runs
//! clean on two seeds, in both modes, and prints exactly the metric names
//! `BENCHMARK.json` lists for that mode.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The `"name"` values of the flat objects in the `key` array of a
/// JSON document (enough for `BENCHMARK.json`'s fixed shape).
fn names_in(doc: &str, key: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {doc}"));
    let rest = &doc[start..];
    let section = &rest[..rest.find(']').expect("array closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The keys of the last line's `metrics` object.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    // Each metric's name ends the piece before its `{"value"`.
    let pieces: Vec<&str> = metrics.split("{\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dmc-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--size", "small"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let doc = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut workloads = names_in(&doc, "workloads");
    workloads.sort();
    assert_eq!(workloads, ["scale", "serve", "sweep"]);
    let mut e2e = names_in(&doc, "end_to_end");
    let mut layers = names_in(&doc, "per_layer");
    e2e.sort();
    layers.sort();
    for workload in &workloads {
        for seed in [1, 2] {
            for (trace, want) in [(0, &e2e), (1, &layers)] {
                let result = run(workload, seed, trace);
                assert!(
                    result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
                    "{workload} seed {seed} trace {trace}: {result}"
                );
                let mut got = metric_names(&result);
                got.sort();
                assert_eq!(&got, want, "{workload} trace {trace}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "sweep",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "sweep", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dmc-perfbench"))
            .current_dir(repo_root())
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
