//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed swings by a quarter within
//! seconds, as neighbours come and go. The benchmark therefore runs a
//! fixed calibration kernel, which uses no code of the simulator, right
//! before and right after every timed instance, and divides the
//! instance's host time by how much slower than [`REFERENCE_S`] the
//! kernel ran around it. Host-speed swings cancel; a change to the
//! simulator's speed does not, since the kernel does not run its code.
//!
//! The kernel is a random read-modify-write walk over a 2 MiB table with
//! data-dependent branches, like the simulator's lookups: the slowdowns a
//! busy neighbour causes (shared core, shared caches) hit both alike.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (the time normalized host
/// times are expressed in).
pub const REFERENCE_S: f64 = 0.004;

const TABLE_WORDS: usize = 1 << 18;
const STEPS: u32 = 1_000_000;

/// The calibration kernel and its table, allocated once.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocates and fills the table, and runs the kernel until its time
    /// settles (the first runs pay for cold caches).
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        };
        for _ in 0..5 {
            c.run();
        }
        c
    }

    /// Runs the kernel once; returns its host seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(self.table[i]);
            if acc & 3 == 1 {
                self.table[i] = acc;
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Host slowdown factor around an instance, from the kernel runs
    /// before (`before`) and after it: 1 on the reference host, 1.25 on a
    /// host running a quarter slower.
    pub fn factor(before: f64, after: f64) -> f64 {
        (before + after) / 2.0 / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        let mut c = Calibrator::new();
        let t = c.run();
        assert!(t > 0.0);
        assert_eq!(Calibrator::factor(REFERENCE_S, REFERENCE_S), 1.0);
    }
}
