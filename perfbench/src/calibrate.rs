//! Host-speed calibration of the batch workloads.
//!
//! The benchmark host is shared: its speed drifts by 10–25% over
//! minutes, the same for every piece of code, so two runs of the same
//! program minutes apart differ by more than the medians inside one run
//! can absorb. A fixed piece of work owned by the benchmark — it calls
//! no program code, so no change to the program can move it — is timed
//! before every pass. `sweep` and `scale` report their timings in
//! reference seconds: measured time × [`REFERENCE_S`] / the run's median
//! calibration time. The raw timings stay in the side report.

use std::hint::black_box;
use std::time::Instant;

/// Typical calibration time on the host the benchmark was defined on
/// (2-vCPU x86-64 VM, release build), so that reference seconds stay
/// close to seconds there.
pub const REFERENCE_S: f64 = 0.028;

/// Calibration state: a 4 MB table and the timings taken so far.
pub struct Calibration {
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            table: (0..1u32 << 20).collect(),
            samples: Vec::new(),
        }
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(&mut self.table)));
        self.samples.push(t.elapsed().as_secs_f64());
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Converts this run's seconds into reference seconds.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / crate::stats::median(&self.samples)
    }
}

/// An LRU-style loop like the simulator's: a pseudo-random stream of
/// words from the table, each looked up in a 256-slot resident set that
/// is scanned for its oldest slot on a miss.
fn kernel(table: &mut [u32]) -> u64 {
    const SLOTS: usize = 256;
    let mask = table.len() - 1;
    let mut resident = [u32::MAX; SLOTS];
    let mut stamp = [0u64; SLOTS];
    let (mut x, mut misses) = (1u32, 0u64);
    for step in 0..60_000u64 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let word = table[(x as usize) & mask] & 0x3ff;
        table[(x as usize >> 7) & mask] ^= word;
        match resident.iter().position(|&w| w == word) {
            Some(i) => stamp[i] = step,
            None => {
                let victim = (0..SLOTS).min_by_key(|&i| stamp[i]).unwrap_or(0);
                resident[victim] = word;
                stamp[victim] = step;
                misses += 1;
            }
        }
    }
    misses
}
