//! A host-speed gauge: a fixed piece of host work, timed between
//! simulations, whose seconds say how fast the shared host is running
//! at that moment.
//!
//! On a shared host the same simulation takes anywhere from 1× to 2×
//! its quiet time, and the slow periods last from seconds to minutes,
//! so two ten-run sets of wall-clock medians can disagree by more than
//! any useful bound. The gauge runs the same instructions on the same
//! data every time and touches nothing of the simulator, so its time
//! moves only with the host. Dividing a run's simulation seconds by the
//! run's gauge seconds (and multiplying by [`REFERENCE_S`]) gives the
//! simulation's time at the reference host speed: a slower simulator
//! still reads slower, a busier host does not.

use std::hint::black_box;
use std::time::Instant;

/// About the gauge's typical seconds on the reference host (a 2-vCPU
/// KVM guest on a shared Intel Xeon, release build). Only a scale: it
/// turns the ratio of simulation to gauge time back into seconds.
pub const REFERENCE_S: f64 = 0.030;

/// Entries in the branchy table, 32 KiB: L1-resident.
const SMALL: usize = 8192;
/// Entries in the scattered table, 256 KiB: L2-resident.
const LARGE: usize = 1 << 15;
/// Iterations over the branchy table.
const SMALL_STEPS: u32 = 3_000_000;
/// Read-modify-writes over the scattered table.
const LARGE_STEPS: u32 = 600_000;

/// The gauge's working set, allocated once so that the simulator's heap
/// state cannot change the gauge's work.
pub struct Gauge {
    small: Vec<u32>,
    large: Vec<u64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Allocates the gauge's tables.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge {
            small: vec![0; SMALL],
            large: vec![0; LARGE],
        }
    }

    /// Runs the fixed work once and returns its host seconds.
    pub fn measure(&mut self) -> f64 {
        // Reset, so every measurement follows the same branches.
        for (i, t) in self.small.iter_mut().enumerate() {
            *t = (i as u32).wrapping_mul(2_654_435_761);
        }
        self.large.fill(0);
        let start = Instant::now();
        let mut x: u64 = 0x0139_408D_CBBF_7A44;
        let mut acc = 0u32;
        for _ in 0..SMALL_STEPS {
            x = xorshift(x);
            let i = (x as usize) % SMALL;
            if self.small[i] & 1 == 0 {
                acc = acc.wrapping_add(self.small[i]);
            } else {
                self.small[i] ^= acc;
            }
        }
        for i in 0..LARGE_STEPS {
            x = xorshift(x);
            let slot = &mut self.large[(x as usize) % LARGE];
            *slot = slot.wrapping_add(u64::from(i) ^ x);
        }
        black_box((acc, &self.small, &self.large));
        start.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
