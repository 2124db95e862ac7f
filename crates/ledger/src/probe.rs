//! Host-speed probe: a fixed piece of arithmetic timed between rounds, so
//! a trial's clock can be corrected for how fast the machine was while
//! the trial ran.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by 10–25 % for seconds to minutes at a time (measured: the same binary
//! drifts 50→58 ms per `resnet_dgs` round within five minutes, with
//! nothing else running in the VM and no steal time). The probe is the
//! yardstick: it lives in this crate, touches no workspace code, does the
//! same work every time, and follows the host — per trial, `resnet_dgs`
//! round time tracks probe time with elasticity 0.96. A trial's times are
//! multiplied by [`REFERENCE_S`] ÷ the trial's typical probe time, i.e.
//! reported in the unit in which the probe takes exactly `REFERENCE_S`;
//! see [`speed_factor`].
//!
//! The probe runs outside every round span, at most once per
//! [`INTERVAL`], so it costs ≈2 % of wall time and none of a round's.

use crate::stats::sorted;
use std::time::{Duration, Instant};

/// Minimum wall time between two probes.
pub const INTERVAL: Duration = Duration::from_millis(25);

/// The probe time that defines the reported clock: about what the probe
/// takes on this repo's benchmark host when nothing disturbs it, so that
/// reported and wall-clock times agree there on a quiet day. A constant,
/// not a per-run estimate (the run's fastest samples were tried: their
/// 1st percentile flips between 0.40 and 0.46 ms from run to run).
pub const REFERENCE_S: f64 = 0.5e-3;

/// Elements per operand: 16 KiB each, both L1-resident.
const LEN: usize = 4096;

/// Elements between the two operands inside the one allocation. A fixed
/// distance that is not a multiple of 4 KiB: two separately allocated
/// operands run up to 9 % apart with the distance malloc happens to give
/// them (4 KiB aliasing of the load and store streams).
const GAP: usize = 64;

/// Passes over the operands per probe.
const PASSES: usize = 1200;

/// The probe's operands and the samples taken so far.
#[derive(Debug)]
pub struct Probe {
    /// `[a | gap | b]`: `a` is updated in place from `b`.
    buf: Vec<f32>,
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl Probe {
    /// A probe that is due immediately.
    pub fn new() -> Self {
        Probe {
            buf: (0..2 * LEN + GAP).map(|i| 1.0 + (i % 97) as f32 * 0.01).collect(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Runs and times the kernel if [`INTERVAL`] has passed since the last
    /// probe; otherwise costs one clock read.
    pub fn tick(&mut self) {
        let start = Instant::now();
        if self.last.is_some_and(|last| start - last < INTERVAL) {
            return;
        }
        let (a, b) = self.buf.split_at_mut(LEN + GAP);
        for _ in 0..PASSES {
            // Converges to `b`: normal numbers throughout.
            for (x, y) in a[..LEN].iter_mut().zip(&*b) {
                *x = *x * 0.5 + *y * 0.5;
            }
        }
        std::hint::black_box(&a);
        let end = Instant::now();
        self.last = Some(end);
        self.samples.push((end - start).as_secs_f64());
    }

    /// Every probe duration, in seconds, in the order taken.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

/// A trial's typical probe time: the mean of the middle 80 % of its
/// samples. Unlike the median it moves when interference covers a tenth
/// to a half of the trial — the regime that inflates p90 — and unlike the
/// plain mean it ignores a single descheduled probe. NaN without samples.
pub fn typical(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// What a trial's durations are multiplied by: above 1 when the machine
/// was faster than the reference while the trial ran, below 1 when it was
/// slower. A trial without probes (never the case outside unit tests) is
/// left as it is.
pub fn speed_factor(trial_samples: &[f64]) -> f64 {
    let f = REFERENCE_S / typical(trial_samples);
    if f.is_finite() && f > 0.0 {
        f
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_respects_its_interval_and_does_fixed_work() {
        let mut p = Probe::new();
        p.tick();
        p.tick(); // not due
        std::thread::sleep(INTERVAL);
        p.tick();
        let s = p.into_samples();
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn typical_trims_a_tenth_from_each_end() {
        // 20 samples: the two smallest and two largest are dropped.
        let mut v: Vec<f64> = vec![1.0; 16];
        v.extend([100.0, 100.0, 0.0, 0.0]);
        assert_eq!(typical(&v), 1.0);
        // Interference over a third of the trial does move it.
        let third: Vec<f64> = (0..30).map(|i| if i % 3 == 0 { 2.0 } else { 1.0 }).collect();
        assert!(typical(&third) > 1.2);
        assert_eq!(typical(&[3.0]), 3.0);
    }

    #[test]
    fn speed_factor_is_reference_over_typical() {
        assert_eq!(speed_factor(&[2.0 * REFERENCE_S; 10]), 0.5);
        assert_eq!(speed_factor(&[REFERENCE_S; 10]), 1.0);
        assert_eq!(speed_factor(&[]), 1.0);
    }
}
