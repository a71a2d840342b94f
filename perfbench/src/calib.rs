//! Host-speed calibration.
//!
//! On a shared virtual machine the simulator's speed drifts by up to
//! ~2x between states that last from seconds to minutes, invisible from
//! inside the guest (steal time stays near zero). A fixed calibration
//! kernel, timed next to the measured work on the same thread, slows
//! with it. On a 2-vCPU x86-64 host, over 33 Paper-scale suite grids
//! taken 20 minutes apart, the IQR over the median of the grid's time was
//! 0.26 in host seconds; with each cell divided by the kernel's time next
//! to it, 0.08; with each grid divided by the kernel's time at its two
//! ends only, 0.13–0.17. So the benchmark calibrates between cells.
//!
//! Timings are therefore reported in *reference seconds*: host seconds
//! times [`NOMINAL_S`] over the kernel's time around the interval, what
//! the interval would have taken had the host run the kernel at its
//! nominal speed. The kernel is the benchmark's own code, so no change to
//! the program can speed it up or slow it down.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// The kernel: a mix of the work the simulator's host code does —
/// ordered and hashed maps, a queue, small allocations, formatting and
/// sorting — driven by xorshift, with data-dependent branches.
fn kernel(iters: u64) -> u64 {
    let mut x = 5u64;
    let mut acc = 0u64;
    let mut ordered: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut hashed: HashMap<u64, String> = HashMap::new();
    let mut queue: VecDeque<(u64, u64)> = VecDeque::new();
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.entry(x % 5000).or_default().push(i as u32);
        if x.is_multiple_of(3) {
            hashed.insert(x % 20_000, format!("{x:x}-{i}"));
        }
        if let Some(s) = hashed.get(&(x % 20_000)) {
            acc += s.len() as u64;
        }
        queue.push_back((x, i));
        if queue.len() > 256 {
            let (a, b) = queue.pop_front().unwrap_or_default();
            acc ^= a.wrapping_mul(b);
        }
        if i.is_multiple_of(4096) {
            let mut keys: Vec<u64> = ordered.keys().copied().collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            acc += keys[0];
            ordered.retain(|k, _| k % 7 != i % 7);
        }
    }
    acc + ordered.len() as u64
}

const ITERS: u64 = 40_000;

/// The kernel's time per call at the reference speed: its median on a
/// 2-vCPU x86-64 Xeon virtual machine.
pub const NOMINAL_S: f64 = 0.017;

/// Times one call of the kernel on this thread, s.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(ITERS)));
    t0.elapsed().as_secs_f64()
}

/// The median of three [`sample`]s, for intervals calibrated only at
/// their ends.
pub fn sample3() -> f64 {
    let mut t = [sample(), sample(), sample()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The median of three [`sample`]s on a thread pinned to `cpu`, so the
/// factor is that CPU's: the host's states differ from one vCPU to the
/// other.
pub fn sample3_on(cpu: usize) -> f64 {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin(0, cpu);
            sample3()
        })
        .join()
        .expect("calibration thread")
    })
}

/// Pins thread `tid` (0: the calling thread) to `cpu`; returns whether
/// it could. Only Linux pins.
#[cfg(target_os = "linux")]
pub fn pin(tid: i32, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised cpu_set_t of the size passed;
    // the call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_tid: i32, _cpu: usize) -> bool {
    false
}

/// Converts host seconds to reference seconds for an interval with
/// kernel samples `before` and `after` it.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

/// Times a sequence of intervals on this thread with a kernel sample
/// between each two, so each interval is calibrated at both ends.
pub struct Clock {
    last: f64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock { last: sample() }
    }

    /// Runs `work`; returns its result, its host seconds and its
    /// reference seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let t0 = Instant::now();
        let out = work();
        let host = t0.elapsed().as_secs_f64();
        let after = sample();
        let f = factor(self.last, after);
        self.last = after;
        (out, host, host * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_mean_kernel_time() {
        // A host running the kernel at half speed halves the times.
        let slow = 2.0 * NOMINAL_S;
        assert!((factor(slow, slow) - 0.5).abs() < 1e-12);
        assert!((factor(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((factor(0.5 * NOMINAL_S, 1.5 * NOMINAL_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clock_reports_host_and_reference_time() {
        let mut c = Clock::new();
        let (v, host, reference) = c.time(|| 7);
        assert_eq!(v, 7);
        assert!(host >= 0.0 && reference >= 0.0);
    }
}
