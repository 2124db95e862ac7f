//! One benchmark run: repeat fixed-size trials of one workload until the
//! time box is used up, check the outputs, reduce to metrics.
//!
//! Round counts per trial are constants, so bytes, losses and CRCs are
//! exact functions of the seed; `--seconds` only decides how many
//! identical trials the medians are taken over. Every trial sets the
//! stack up afresh, which is what gives `setup_s` its samples. Before any
//! metric is computed, each trial's times are put on the reference
//! clock (`probe`): host speed is the one input `--seed` does not control.

use crate::json::Value;
use crate::metrics::{self, Measured, Metrics, Shares};
use crate::probe;
use crate::span;
use crate::trial::{self, TracedTrial, Trial};
use crate::workload::Workload;
use std::time::Instant;

/// How a run is invoked.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed for dataset synthesis, model init and the arrival schedule.
    pub seed: u64,
    /// Time box: no new trial starts after this many seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Tiny round counts, one trial: output checks only.
    pub smoke: bool,
    /// Where to write the last traced trial's spans.
    pub trace_out: Option<String>,
}

/// What identifies a run's outputs: equal for equal seeds, different for
/// different ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// CRC-32 of the final server model.
    pub server_crc: u32,
    /// CRC-32 of each final worker model.
    pub worker_crcs: Vec<u32>,
    /// Data bytes `(up, down)` over the whole trial.
    pub bytes: (u64, u64),
    /// Every round's training loss, bit for bit.
    pub loss_bits: Vec<u64>,
}

impl Fingerprint {
    /// The fingerprint of one finished trial.
    pub fn of(t: &Trial) -> Self {
        Fingerprint {
            server_crc: t.outcome.server_crc,
            worker_crcs: t.outcome.worker_crcs.clone(),
            bytes: (t.outcome.worker_wire.data_up, t.outcome.worker_wire.data_down),
            loss_bits: t.rounds.iter().map(|r| r.loss.to_bits()).collect(),
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Traced (per-layer) or untraced (end-to-end).
    pub traced: bool,
    /// The metrics of this mode, in table order.
    pub metrics: Metrics,
    /// Rounds attempted, all trials.
    pub attempted: u64,
    /// Rounds failed: all of them if any output check failed.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Things worth a look that are not failures.
    pub warnings: Vec<String>,
    /// Layer shares (traced runs).
    pub shares: Option<Shares>,
    /// Outputs of the (identical) trials.
    pub fingerprint: Option<Fingerprint>,
    /// Trials run.
    pub trials: usize,
}

impl RunReport {
    /// All output checks passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The last line of a contract run: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> Value {
        let metric = |(d, m): &(metrics::MetricDef, Measured)| {
            (d.name, Value::obj([("value", Value::from(m.value)), ("unit", Value::from(d.unit))]))
        };
        Value::obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::obj(self.metrics.iter().map(metric))),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_metrics(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("# {} ({mode}, {} trials, {} rounds)", self.workload, self.trials, self.attempted);
        for (d, m) in &self.metrics {
            let Measured { value, samples, spread } = *m;
            println!(
                "{:<14} {:<30} {:>16.6} {:<8} n={samples} spread={spread:.4}",
                self.workload, d.name, value, d.unit
            );
        }
        if let Some(s) = &self.shares {
            println!(
                "{:<14} self-time shares: nn {:.3} compress {:.3} server {:.3} codec {:.3} transport {:.3} apply {:.3} unattributed {:.3}",
                self.workload, s.nn, s.compress, s.server, s.codec, s.transport, s.apply, s.unattributed
            );
        }
        for w in &self.warnings {
            println!("{:<14} warning: {w}", self.workload);
        }
        for f in &self.failures {
            println!("{:<14} CHECK FAILED: {f}", self.workload);
        }
    }
}

/// Output checks every trial must pass, traced or not.
fn check_trial(t: &Trial, smoke: bool, failures: &mut Vec<String>) {
    let o = &t.outcome;
    let up: u64 = t.rounds.iter().map(|r| r.up_bytes as u64).sum();
    let down: u64 = t.rounds.iter().map(|r| r.down_bytes as u64).sum();
    for (what, sum, seen) in [
        ("up", up, [o.worker_wire.data_up, o.server_wire.data_up, o.logic_bytes.0]),
        ("down", down, [o.worker_wire.data_down, o.server_wire.data_down, o.logic_bytes.1]),
    ] {
        if seen.iter().any(|&b| b != sum) {
            failures.push(format!("byte ledger {what}: sum wire_bytes() {sum} vs worker/server/logic counters {seen:?}"));
        }
    }
    let retries = metrics::retries(t);
    if retries != 0 {
        failures.push(format!(
            "net.retries = {retries} (reconnects, resyncs or control traffic in a clean run)"
        ));
    }
    if t.rounds.iter().any(|r| !r.loss.is_finite()) {
        failures.push("non-finite training loss".to_string());
    }
    // A smoke trial is too short to demand progress (its last-64 window is
    // its first-32 window); finite losses are all it must show.
    let (first, last) = (metrics::first_loss(t, 32), metrics::final_loss(t));
    if !smoke && !(last < 0.7 * first) {
        failures.push(format!(
            "does not learn: final loss {last:.4} vs 0.7 x first-32 mean {first:.4}"
        ));
    }
}

/// Runs `w` under `opts` and reduces the trials to a report.
pub fn run(w: &'static Workload, opts: &RunOpts) -> RunReport {
    let started = Instant::now();
    let mut untraced: Vec<Trial> = Vec::new();
    let mut traced: Vec<TracedTrial> = Vec::new();
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let mut attempted = 0u64;
    let mut peak_rss_mb = f64::NAN;
    // Untraced runs repeat one trial kind; traced runs alternate the two
    // so tracing overhead is a same-process, same-minute comparison.
    loop {
        let want_traced = opts.traced && traced.len() < untraced.len();
        attempted += w.rounds_for(opts.smoke) as u64;
        let res = if want_traced {
            trial::traced(w, opts.seed, opts.smoke).map(|t| traced.push(t))
        } else {
            trial::untraced(w, opts.seed, opts.smoke).map(|t| untraced.push(t))
        };
        if let Err(e) = res {
            failures.push(format!("trial aborted: {e}"));
            break;
        }
        if peak_rss_mb.is_nan() {
            peak_rss_mb = metrics::peak_rss_mb();
        }
        // Stop when the next trial (or pair) would overshoot the time box
        // by more than it undershoots now, so runs centre on `--seconds`.
        let pair_done = !opts.traced || traced.len() == untraced.len();
        let elapsed = started.elapsed().as_secs_f64();
        let step =
            elapsed / (untraced.len() + traced.len()) as f64 * if opts.traced { 2.0 } else { 1.0 };
        if pair_done && (opts.smoke || elapsed + 0.5 * step >= opts.seconds) {
            break;
        }
    }

    for t in &mut untraced {
        t.rescale(probe::speed_factor(&t.probe_s));
    }
    for t in &mut traced {
        t.rescale(probe::speed_factor(&t.trial.probe_s));
    }

    let all = || untraced.iter().chain(traced.iter().map(|t| &t.trial));
    for t in all() {
        check_trial(t, opts.smoke, &mut failures);
    }
    let fingerprint = all().next().map(Fingerprint::of);
    if let Some(first) = &fingerprint {
        // Same seed, same bytes, losses and CRCs — across repeats, and
        // between the whole-call TCP run and its taken-apart traced twin.
        if all().any(|t| Fingerprint::of(t) != *first) {
            failures.push("trials of one seed disagree on CRCs, bytes or losses (untraced vs traced, or repeat vs repeat)".to_string());
        }
    }
    for t in &traced {
        let frames = |c: &trial::RoundCounts| {
            c.replay.map(|r| (r.codec.up_frame_bytes, r.codec.down_frame_bytes))
        };
        if t.counts
            .iter()
            .zip(&t.trial.rounds)
            .any(|(c, r)| frames(c).is_some_and(|f| f != (r.up_bytes, r.down_bytes)))
        {
            failures.push("encoded frame length differs from wire_bytes()".to_string());
        }
    }

    let mut shares = None;
    let metrics = if !failures.is_empty() || untraced.is_empty() {
        Vec::new()
    } else if opts.traced {
        let mut target_missed = false;
        let (m, s) = metrics::per_layer(w, &untraced, &traced, &mut target_missed);
        if target_missed && !opts.smoke {
            warnings.push(format!(
                "target loss {} not reached; train.time_to_target_s is the whole timed region",
                w.target_loss
            ));
        }
        for (limit, name) in [(0.05, "trace.overhead_share"), (0.10, "trace.unattributed_share")] {
            let v = m.iter().find(|(d, _)| d.name == name).map_or(f64::NAN, |(_, m)| m.value);
            if !(v < limit) && !opts.smoke {
                warnings.push(format!("{name} = {v:.4} (>= {limit}): per-layer table not trusted"));
            }
        }
        if !opts.smoke {
            if let Some(miss) = w.purpose.iter().find(|p| !p.holds(&s)) {
                warnings.push(format!("workload_drift: expected {}", miss.describe()));
            }
        }
        shares = Some(s);
        m
    } else {
        metrics::end_to_end(w, &untraced, peak_rss_mb)
    };
    if let (Some(path), Some(last)) = (&opts.trace_out, traced.last()) {
        if let Err(e) = std::fs::write(path, span::to_json(last.log.spans()).to_json()) {
            warnings.push(format!("could not write {path}: {e}"));
        }
    }
    RunReport {
        workload: w.name,
        traced: opts.traced,
        metrics,
        attempted,
        failed: if failures.is_empty() { 0 } else { attempted },
        failures,
        warnings,
        shares,
        fingerprint,
        trials: untraced.len() + traced.len(),
    }
}
