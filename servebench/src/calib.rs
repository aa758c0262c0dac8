//! Host-speed calibration.
//!
//! On a shared host the speed of one CPU drifts by tens of percent within
//! seconds, far more than the changes the benchmark must resolve. The
//! measured window is therefore cut into slots, and before each slot every
//! client thread runs the same fixed kernel at once. A slot's time metrics
//! are scaled by `REFERENCE_NS / kernel time`: they are reported at the
//! speed of a host on which the kernel takes exactly [`REFERENCE_NS`].
//!
//! The kernel is the benchmark's own code and touches nothing of the
//! program under test, so no change to the program can move it. It mixes
//! what the serving path does: integer arithmetic, number formatting and
//! parsing, hash-map updates and small allocations.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in nanoseconds, of the reference host (about the median on
/// a shared two-CPU host under this benchmark's load).
pub const REFERENCE_NS: f64 = 8_000_000.0;

/// Kernel iterations.
const ITERS: u64 = 40_000;

/// The calibration kernel; returns a checksum so nothing is optimized out.
pub fn kernel() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut text = String::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        text.clear();
        let _ = write!(text, "{}/{}", x >> 40, (x >> 8) & 0xffff);
        let (a, b) = text.split_once('/').expect("written above");
        let v = a.parse::<u64>().unwrap_or(0) ^ b.parse::<u64>().unwrap_or(0);
        *map.entry(x % 4096).or_insert(0) += v;
        let cells = vec![v; 1 + (x % 7) as usize];
        acc ^= cells.iter().fold(0, |s, c| s ^ c.rotate_left(7));
    }
    acc ^ map.len() as u64
}

/// Nanoseconds one kernel run takes now.
pub fn measure() -> u64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_nanos() as u64
}

/// Mean nanoseconds of `threads` kernel runs started together, one per
/// thread: the host's speed while that many threads compete for it, as
/// the clients' do in the measured window.
pub fn measure_together(threads: usize) -> f64 {
    let ns: Vec<u64> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(measure)).collect();
        runs.into_iter()
            .map(|h| h.join().expect("kernel thread"))
            .collect()
    });
    ns.iter().sum::<u64>() as f64 / threads as f64
}

/// The factor that scales a time measured at kernel time `kernel_ns` to
/// the reference host.
pub fn to_reference(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns
}

/// Per-slot scale factors: each slot's kernel time is the median of its
/// own and its neighbours' runs, so one kernel run that caught a brief
/// stall does not rescale a whole slot.
pub fn slot_scales(kernel_ns: &[f64]) -> Vec<f64> {
    (0..kernel_ns.len())
        .map(|k| {
            let mut near = kernel_ns[k.saturating_sub(1)..(k + 2).min(kernel_ns.len())].to_vec();
            near.sort_by(f64::total_cmp);
            to_reference(near[near.len() / 2])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_scales_take_the_median_of_neighbours() {
        let r = REFERENCE_NS;
        let scales = slot_scales(&[r, 4.0 * r, r, 2.0 * r]);
        assert_eq!(scales, vec![0.25, 1.0, 0.5, 0.5]);
    }
}
