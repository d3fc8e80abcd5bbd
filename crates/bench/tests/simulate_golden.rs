//! Pinned large-`S` simulator reports: `repro simulate` output must stay
//! byte-identical to the golden files under `tests/golden/`, which hold
//! the reports of the scan simulator the indexed one replaced. Every
//! point of the fft sweep evicts under both policies, and the machine
//! report runs one simulation per hierarchy level.

use std::process::Command;

fn assert_matches_golden(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro {args:?} failed: {out:?}");
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).expect("golden file present");
    assert!(
        out.stdout == want,
        "repro {args:?} differs from {path}:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn fft_sweep_report_matches_golden() {
    assert_matches_golden(
        &[
            "simulate",
            "--kernel",
            "fft(n=1024)",
            "--sram-sweep",
            "64:512:64",
            "--threads",
            "2",
            "--format",
            "json",
        ],
        "simulate_fft1024_sweep64-512.json",
    );
}

#[test]
fn machine_report_matches_golden() {
    assert_matches_golden(
        &[
            "simulate",
            "--machine",
            "IBM BG/Q",
            "--kernel",
            "jacobi(n=24,d=2,t=6)",
            "--threads",
            "2",
            "--format",
            "json",
        ],
        "simulate_bgq_jacobi24.json",
    );
}
