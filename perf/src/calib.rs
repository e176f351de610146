//! A clock for a noisy host.
//!
//! The benchmark runs on shared hardware whose speed drifts by 20–35 % over
//! tens of seconds (a neighbour on the sibling hyperthread, frequency
//! changes): longer than a run, so medians inside a run cannot average it
//! out, and a plain fixed-work loop shows the same drift. The calibrator
//! interleaves a fixed reference kernel with the workload — a dependent
//! chain of cache-resident loads and multiply-adds — and reports how much
//! slower than nominal the host ran *during any interval*. End-to-end
//! times are divided by that factor window by window (see
//! `harness::steady`), so a metric reads "at nominal host speed"; the raw
//! figures are printed beside them.
//!
//! The nominal shot time is a constant: both sides of a parent/change
//! comparison use the same one, so its absolute value only sets the units.

use std::sync::OnceLock;
use std::time::Instant;

/// Entries in the kernel's table: 16 Ki x 4 B = 64 KiB, resident in the
/// core's own caches, so a shot times the core, not DRAM. (A DRAM-bound
/// chase was tried first: it did not follow the drift at all.)
const TABLE_LEN: usize = 1 << 14;
/// Dependent load + multiply-add steps per shot (about 0.4 ms when quiet).
const SHOT_STEPS: usize = 100_000;
/// A shot's time on this class of host when it is quiet.
const NOMINAL_SHOT_NS: f64 = 400_000.0;
/// Minimum gap between shots: calibration stays under 2 % of a run.
const SHOT_GAP_NS: u64 = 25_000_000;

/// Nanoseconds since the process first asked: the one clock completion
/// times and calibration shots are both stamped with.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub struct Calibrator {
    table: Vec<u32>,
    at: u32,
    acc: u64,
    /// `(completion time, duration)` of every shot, in order.
    shots: Vec<(u64, u64)>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % TABLE_LEN as u64) as u32
            })
            .collect();
        Self {
            table,
            at: 0,
            acc: 1,
            shots: Vec::new(),
        }
    }

    /// Run the reference kernel once and record how long it took.
    pub fn shot(&mut self) {
        let t = Instant::now();
        let (mut at, mut acc) = (self.at, self.acc);
        for _ in 0..SHOT_STEPS {
            at = self.table[at as usize] ^ ((acc >> 50) as u32 & (TABLE_LEN as u32 - 1));
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(at));
        }
        self.at = at;
        self.acc = std::hint::black_box(acc);
        self.shots.push((now_ns(), t.elapsed().as_nanos() as u64));
    }

    /// Take a shot if the last one is old enough; call between steps.
    pub fn tick(&mut self) {
        let due = self
            .shots
            .last()
            .is_none_or(|&(at, _)| now_ns().saturating_sub(at) >= SHOT_GAP_NS);
        if due {
            self.shot();
        }
    }

    /// How many times slower than nominal the host ran between two instants
    /// of [`now_ns`]: the median shot in the interval over the nominal shot.
    /// An interval without a shot borrows the nearest one; 1.0 if there is
    /// none at all.
    pub fn slowdown_between(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut inside: Vec<u64> = self
            .shots
            .iter()
            .filter(|(at, _)| (from_ns..=to_ns).contains(at))
            .map(|&(_, ns)| ns)
            .collect();
        if inside.is_empty() {
            let mid = from_ns / 2 + to_ns / 2;
            match self.shots.iter().min_by_key(|(at, _)| at.abs_diff(mid)) {
                Some(&(_, ns)) => inside.push(ns),
                None => return 1.0,
            }
        }
        inside.sort_unstable();
        inside[inside.len() / 2] as f64 / NOMINAL_SHOT_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_shots(shots: &[(u64, u64)]) -> Calibrator {
        let mut c = Calibrator::new();
        c.shots = shots.to_vec();
        c
    }

    #[test]
    fn slowdown_is_the_median_shot_in_the_interval_over_nominal() {
        let c = with_shots(&[
            (10, 400_000),
            (20, 800_000),
            (30, 1_200_000),
            (90, 4_000_000),
        ]);
        assert_eq!(c.slowdown_between(0, 50), 2.0);
        assert_eq!(c.slowdown_between(25, 100), 10.0);
        // No shot inside: the nearest one stands in.
        assert_eq!(c.slowdown_between(40, 50), 3.0);
        assert_eq!(with_shots(&[]).slowdown_between(0, 100), 1.0);
    }

    #[test]
    fn tick_respects_the_gap() {
        let mut c = Calibrator::new();
        c.tick();
        c.tick();
        assert_eq!(c.shots.len(), 1, "the second tick came too soon");
        assert!(c.shots[0].1 > 0);
    }

    #[test]
    fn the_clock_is_monotone() {
        let a = now_ns();
        assert!(now_ns() >= a);
    }
}
