//! Metric tables and the arithmetic that turns trials into metric values.
//!
//! Every timing metric is computed per trial and reported as the median
//! over the run's trials, so one disturbed trial cannot move it. Trials
//! arrive here already on the reference clock (`probe`); `host.probe_us`
//! says by how much that differed from the wall clock. Bounds
//! live in `BENCHMARK.json` only; a unit test keeps the tables here and
//! that file in step.

use crate::probe;
use crate::seam;
use crate::span::{self_times_ns, Span};
use crate::stats::{block_median_rate, iqr_share, median, percentile, reportable_tail, sorted};
use crate::trial::{Replay, Round, RoundCounts, TracedTrial, Trial};
use crate::workload::Workload;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's identity: name, unit, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// End-to-end metrics: what a user of the system sees. Untraced runs only.
pub const END_TO_END: [MetricDef; 9] = [
    lower("setup_s", "s"),
    higher("samples_per_s", "1/s"),
    lower("round_ms_p50", "ms"),
    lower("round_ms_p90", "ms"),
    lower("wire_up_bytes_per_round", "B"),
    lower("wire_down_bytes_per_round", "B"),
    higher("samples_per_s_1gbps", "1/s"),
    higher("samples_per_s_10gbps", "1/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run. Layer = module name.
pub const PER_LAYER: [MetricDef; 45] = [
    lower("nn.loader_us", "us"),
    lower("nn.zero_grad_us", "us"),
    lower("nn.forward_us", "us"),
    lower("nn.loss_us", "us"),
    lower("nn.backward_us", "us"),
    lower("nn.scratch_misses", "count"),
    higher("nn.gflops", "Gflop/s"),
    lower("compress.us", "us"),
    lower("compress.nnz_up", "count"),
    lower("compress.achieved_ratio", "ratio"),
    lower("sparsify.topk_replay_us", "us"),
    lower("server.handle_us", "us"),
    lower("server.nnz_down", "count"),
    lower("server.down_density", "ratio"),
    lower("server.staleness_mean", "rounds"),
    lower("server.dense_replies", "count"),
    lower("codec.encode_up_us", "us"),
    lower("codec.decode_up_us", "us"),
    lower("codec.encode_down_us", "us"),
    lower("codec.decode_down_us", "us"),
    lower("codec.up_frame_bytes", "B"),
    lower("codec.down_frame_bytes", "B"),
    lower("net.exchange_us", "us"),
    lower("net.transport_self_us", "us"),
    lower("net.frames_per_round", "count"),
    lower("net.control_bytes_share", "ratio"),
    lower("net.retries", "count"),
    lower("worker.local_step_us", "us"),
    lower("worker.apply_reply_us", "us"),
    lower("psim.wire_s_1gbps_per_round", "s"),
    lower("psim.wire_s_10gbps_per_round", "s"),
    lower("train.final_loss", "nats"),
    lower("train.time_to_target_s", "s"),
    lower("round.ms_tail", "ms"),
    higher("round.tail_percentile", "%"),
    higher("round.samples", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    lower("share.nn", "ratio"),
    lower("share.compress", "ratio"),
    lower("share.server", "ratio"),
    lower("share.codec", "ratio"),
    lower("share.transport", "ratio"),
    lower("share.apply", "ratio"),
    lower("host.probe_us", "us"),
];

/// A reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Median over the run's trials of the per-trial value.
    pub value: f64,
    /// Samples behind it (rounds for round timings, trials otherwise).
    pub samples: usize,
    /// Interquartile range of the per-trial values as a share of their
    /// median; what `compare` uses to call a breach unresolved.
    pub spread: f64,
}

/// Values with their definitions, in table order.
pub type Metrics = Vec<(MetricDef, Measured)>;

fn over_trials(per_trial: &[f64], samples: usize) -> Measured {
    Measured { value: median(per_trial), samples, spread: iqr_share(per_trial) }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Mean training loss of the first `n` rounds of a trial.
pub fn first_loss(trial: &Trial, n: usize) -> f64 {
    mean(trial.rounds.iter().take(n).map(|r| r.loss))
}

/// Mean training loss of the last 64 rounds (fewer in a smoke trial).
pub fn final_loss(trial: &Trial) -> f64 {
    let n = trial.rounds.len().min(64);
    mean(trial.rounds[trial.rounds.len() - n..].iter().map(|r| r.loss))
}

/// Wall seconds from the first timed round until the trailing-32-round
/// mean training loss first reaches `target`; `None` if it never does.
pub fn time_to_target(trial: &Trial, target: f64) -> Option<f64> {
    let t0 = trial.rounds[trial.warmup].start;
    let mut sum = 0.0;
    for (i, r) in trial.rounds.iter().enumerate() {
        sum += r.loss;
        if i >= 32 {
            sum -= trial.rounds[i - 32].loss;
        }
        if i >= trial.warmup
            && i + 1 < trial.rounds.len()
            && sum / 32.0_f64.min((i + 1) as f64) <= target
        {
            return Some(r.end - t0);
        }
    }
    None
}

/// Throughput if every message also crossed a modelled link: measured
/// round time plus `psim::network` transfer time of the measured bytes.
/// Returns `(at 1 Gbps, at 10 Gbps)` in samples per second.
fn modelled_rates(batch: usize, timed: &[Round]) -> (f64, f64) {
    let (mut s1, mut s10) = (0.0, 0.0);
    for r in timed {
        let (u1, u10) = seam::wire_seconds(r.up_bytes);
        let (d1, d10) = seam::wire_seconds(r.down_bytes);
        s1 += r.dur() + u1 + d1;
        s10 += r.dur() + u10 + d10;
    }
    let work = (batch * timed.len()) as f64;
    (work / s1, work / s10)
}

fn durations_ms(rounds: &[Round]) -> Vec<f64> {
    sorted(&rounds.iter().map(|r| r.dur() * 1e3).collect::<Vec<_>>())
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end metrics of an untraced run. `peak_rss_mb` is the process's
/// `VmHWM` read right after the first trial: later trials only add the
/// harness's own retained samples, not memory the stack under test uses.
pub fn end_to_end(w: &Workload, trials: &[Trial], peak_rss_mb: f64) -> Metrics {
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut timed_rounds = 0;
    for t in trials {
        let timed = t.timed();
        timed_rounds += timed.len();
        let spans: Vec<(f64, f64)> = timed.iter().map(|r| (r.start, r.end)).collect();
        let ms = durations_ms(timed);
        let (r1, r10) = modelled_rates(w.batch, timed);
        let n = t.rounds.len() as f64;
        let row = [
            t.setup_s,
            block_median_rate(&spans, w.batch as f64, 5),
            percentile(&ms, 50.0),
            percentile(&ms, 90.0),
            t.outcome.worker_wire.data_up as f64 / n,
            t.outcome.worker_wire.data_down as f64 / n,
            r1,
            r10,
            peak_rss_mb,
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    END_TO_END
        .iter()
        .zip(&cols)
        .map(|(def, col)| {
            let samples = match def.name {
                "setup_s" | "peak_rss_mb" => trials.len(),
                _ => timed_rounds,
            };
            (*def, over_trials(col, samples))
        })
        .collect()
}

/// Self-time share of the round per layer, from one traced trial's timed
/// region. Codec time is what the replays measured; it is taken out of
/// the exchange's self time, the rest of which is transport.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shares {
    /// Loader, zero_grad, forward, loss, backward.
    pub nn: f64,
    /// `Compressor::compress`.
    pub compress: f64,
    /// Busy time at the `SharedUpdateHandler` seam.
    pub server: f64,
    /// The four codec replays.
    pub codec: f64,
    /// Exchange minus server minus codec: frames, CRC, syscalls, poller.
    pub transport: f64,
    /// `apply_reply`.
    pub apply: f64,
    /// Round time covered by no span.
    pub unattributed: f64,
}

impl Shares {
    /// Looks a share up by its layer name.
    pub fn get(&self, layer: &str) -> f64 {
        match layer {
            "nn" => self.nn,
            "compress" => self.compress,
            "server" => self.server,
            "codec" => self.codec,
            "transport" => self.transport,
            "apply" => self.apply,
            _ => f64::NAN,
        }
    }
}

fn in_timed(t: &Trial, s: &Span) -> bool {
    let r = s.round as usize;
    r >= t.warmup && r + 1 < t.rounds.len()
}

fn shares(t: &TracedTrial) -> Shares {
    let spans = t.log.spans();
    let selfs = self_times_ns(spans);
    let mut total = 0.0;
    let mut by = Shares::default();
    let mut exchange_self = 0.0;
    for (s, &own) in spans.iter().zip(&selfs).filter(|(s, _)| in_timed(&t.trial, s)) {
        let own = own as f64;
        match s.name {
            "round" => {
                total += s.dur_ns() as f64;
                by.unattributed += own;
            }
            "compress" => by.compress += own,
            "net.exchange" => exchange_self += own,
            "server.handle" => by.server += own,
            "worker.apply_reply" => by.apply += own,
            _ => by.nn += own,
        }
    }
    // Replays are sampled: charge every timed round the mean replay.
    let timed = &t.counts[t.trial.warmup..t.trial.rounds.len() - 1];
    let codec_ns: Vec<f64> =
        timed.iter().filter_map(|c| c.replay).map(|r| r.codec.total().as_nanos() as f64).collect();
    by.codec = (mean(codec_ns.iter().copied()) * timed.len() as f64).min(exchange_self);
    by.transport = exchange_self - by.codec;
    for v in [
        &mut by.nn,
        &mut by.compress,
        &mut by.server,
        &mut by.codec,
        &mut by.transport,
        &mut by.apply,
        &mut by.unattributed,
    ] {
        *v /= total;
    }
    by
}

/// Median duration in µs of the timed-region spans called `name`.
fn span_us(t: &TracedTrial, name: &str) -> f64 {
    let us: Vec<f64> = t
        .log
        .spans()
        .iter()
        .filter(|s| s.name == name && in_timed(&t.trial, s))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    median(&us)
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer metrics of a traced run: spans and counts from the traced
/// trials, whole-call timings and the tail from the untraced trials that
/// alternate with them in the same process. Also returns the layer shares
/// (median over traced trials) for the workload-validity report.
/// `target_missed` is set when a trial never reached the target loss; the
/// whole timed region is then charged as its time-to-target.
pub fn per_layer(
    w: &Workload,
    untraced: &[Trial],
    traced: &[TracedTrial],
    target_missed: &mut bool,
) -> (Metrics, Shares) {
    let mut cols: Vec<(MetricDef, Vec<f64>)> = PER_LAYER.iter().map(|d| (*d, Vec::new())).collect();
    let mut put = |name: &str, v: f64| {
        let col = cols.iter_mut().find(|(d, _)| d.name == name);
        debug_assert!(col.is_some(), "unknown per-layer metric {name}");
        if let Some((_, col)) = col {
            col.push(v);
        }
    };
    let untraced_p50 = median(
        &untraced.iter().map(|t| percentile(&durations_ms(t.timed()), 50.0)).collect::<Vec<_>>(),
    );
    let (mut timed_rounds, mut replay_rounds) = (0, 0);
    for t in traced {
        let timed = t.trial.warmup..t.trial.rounds.len() - 1;
        let counts = &t.counts[timed.clone()];
        timed_rounds += counts.len();
        let col =
            |f: &dyn Fn(&RoundCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        let replays: Vec<Replay> = counts.iter().filter_map(|c| c.replay).collect();
        replay_rounds += replays.len();
        let rep = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        let dim = t.trial.outcome.dim as f64;
        let n = t.trial.rounds.len() as f64;
        let wire = t.trial.outcome.worker_wire;

        for name in ["loader", "zero_grad", "forward", "loss", "backward"] {
            put(&format!("nn.{name}_us"), span_us(t, &format!("nn.{name}")));
        }
        put("nn.scratch_misses", t.scratch_misses as f64 / counts.len() as f64);
        let (exchange_us, handle_us) = (span_us(t, "net.exchange"), span_us(t, "server.handle"));
        let compute_s = (span_us(t, "nn.forward") + span_us(t, "nn.backward")) / 1e6;
        put("nn.gflops", t.flops_per_round / compute_s / 1e9);
        put("compress.us", span_us(t, "compress"));
        put("compress.nnz_up", col(&|c| c.nnz_up as f64));
        put("compress.achieved_ratio", col(&|c| c.nnz_up as f64) / dim);
        put("sparsify.topk_replay_us", rep(&|r| r.topk_s * 1e6));
        put("server.handle_us", handle_us);
        put("server.nnz_down", col(&|c| c.nnz_down as f64));
        put("server.down_density", col(&|c| c.nnz_down as f64) / dim);
        put("server.staleness_mean", t.trial.outcome.staleness_mean);
        put("server.dense_replies", t.counts.iter().filter(|c| c.dense_reply).count() as f64);
        put("codec.encode_up_us", rep(&|r| us(r.codec.encode_up)));
        put("codec.decode_up_us", rep(&|r| us(r.codec.decode_up)));
        put("codec.encode_down_us", rep(&|r| us(r.codec.encode_down)));
        put("codec.decode_down_us", rep(&|r| us(r.codec.decode_down)));
        put("codec.up_frame_bytes", rep(&|r| r.codec.up_frame_bytes as f64));
        put("codec.down_frame_bytes", rep(&|r| r.codec.down_frame_bytes as f64));
        put("net.exchange_us", exchange_us);
        let codec_us = rep(&|r| us(r.codec.total()));
        // The replays are an estimate (cold buffers); when they alone exceed
        // the exchange's self time the remainder is reported as 0, not negative.
        put("net.transport_self_us", (exchange_us - handle_us - codec_us).max(0.0));
        put("net.frames_per_round", (wire.frames_up + wire.frames_down) as f64 / n);
        put(
            "net.control_bytes_share",
            wire.control as f64 / (wire.control + wire.data_up + wire.data_down) as f64,
        );
        put("net.retries", retries(&t.trial) as f64 + t.duplicates as f64);
        put("worker.apply_reply_us", span_us(t, "worker.apply_reply"));
        let traced_p50 = percentile(&durations_ms(t.trial.timed()), 50.0);
        put("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
        let s = shares(t);
        put("trace.unattributed_share", s.unattributed);
        put("share.nn", s.nn);
        put("share.compress", s.compress);
        put("share.server", s.server);
        put("share.codec", s.codec);
        put("share.transport", s.transport);
        put("share.apply", s.apply);
    }
    for t in untraced.iter().chain(traced.iter().map(|t| &t.trial)) {
        put("host.probe_us", probe::typical(&t.probe_s) * 1e6);
    }
    let mut pooled = Vec::new();
    for t in untraced {
        let timed = t.timed();
        put(
            "worker.local_step_us",
            median(&timed.iter().map(|r| r.local_s * 1e6).collect::<Vec<_>>()),
        );
        let wire_s = |f: &dyn Fn((f64, f64)) -> f64| {
            median(
                &timed
                    .iter()
                    .map(|r| {
                        f(seam::wire_seconds(r.up_bytes)) + f(seam::wire_seconds(r.down_bytes))
                    })
                    .collect::<Vec<_>>(),
            )
        };
        put("psim.wire_s_1gbps_per_round", wire_s(&|p| p.0));
        put("psim.wire_s_10gbps_per_round", wire_s(&|p| p.1));
        put("train.final_loss", final_loss(t));
        put(
            "train.time_to_target_s",
            time_to_target(t, w.target_loss).unwrap_or_else(|| {
                *target_missed = true;
                timed[timed.len() - 1].end - timed[0].start
            }),
        );
        pooled.extend(timed.iter().map(|r| r.dur() * 1e3));
    }
    // The tail wants as many samples as the run has: pool the untraced
    // trials' rounds instead of taking a median of per-trial tails.
    let pooled = sorted(&pooled);
    let (tail_p, tail_ms) = reportable_tail(&pooled).unwrap_or((50.0, percentile(&pooled, 50.0)));
    put("round.ms_tail", tail_ms);
    put("round.tail_percentile", tail_p);
    put("round.samples", pooled.len() as f64);

    let metrics = cols
        .iter()
        .map(|(def, col)| {
            let samples = match def.name {
                n if n.starts_with("codec.") || n == "sparsify.topk_replay_us" => replay_rounds,
                n if n.ends_with("_us") && !n.starts_with("host.") => timed_rounds,
                _ => col.len(),
            };
            (*def, over_trials(col, samples))
        })
        .collect::<Metrics>();
    let share = |name: &str| {
        metrics.iter().find(|(d, _)| d.name == name).map_or(f64::NAN, |(_, m)| m.value)
    };
    let by = Shares {
        nn: share("share.nn"),
        compress: share("share.compress"),
        server: share("share.server"),
        codec: share("share.codec"),
        transport: share("share.transport"),
        apply: share("share.apply"),
        unattributed: share("trace.unattributed_share"),
    };
    (metrics, by)
}

/// Frames and control bytes beyond what a clean lockstep run exchanges:
/// two data frames per round, four control frames per connection. A
/// reconnect adds a handshake, a lost reply adds a resync pair.
pub fn retries(t: &Trial) -> u64 {
    let n = t.rounds.len() as u64;
    let o = &t.outcome;
    [o.worker_wire, o.server_wire]
        .iter()
        .map(|w| {
            w.frames_up.abs_diff(n)
                + w.frames_down.abs_diff(n)
                + w.control.abs_diff(o.clean_control).div_ceil(seam::HEADER_BYTES)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_fit_the_charset_and_are_unique() {
        assert!(name_ok("round_ms_p50") && name_ok("nn.forward_us") && name_ok("a-b"));
        assert!(
            !name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("a/b") && !name_ok("µs")
        );
        assert!(!name_ok(&"x".repeat(65)));
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(all[..i].iter().all(|o| o.name != d.name), "duplicate {}", d.name);
        }
    }

    /// The contract file and the tables here must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into())).collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        for m in doc.get("end_to_end").and_then(json::Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound));
        }
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(json::Value::as_str).unwrap(),
                    w.get("why").and_then(json::Value::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> =
            crate::workload::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
    }

    fn trial(losses: &[f64], warmup: usize) -> Trial {
        let rounds = losses
            .iter()
            .enumerate()
            .map(|(i, &loss)| Round {
                start: i as f64,
                end: i as f64 + 1.0,
                local_s: 0.5,
                exchange_s: 0.25,
                apply_s: 0.25,
                up_bytes: 100,
                down_bytes: 100,
                loss,
            })
            .collect();
        Trial {
            setup_s: warmup as f64,
            rounds,
            warmup,
            outcome: crate::seam::Outcome {
                server_crc: 0,
                worker_crcs: vec![],
                worker_wire: Default::default(),
                server_wire: Default::default(),
                logic_bytes: (0, 0),
                staleness_mean: 0.0,
                clean_control: 0,
                dim: 1,
            },
            probe_s: Vec::new(),
        }
    }

    #[test]
    fn time_to_target_uses_the_trailing_window_and_the_timed_clock() {
        // Loss 4.0 for 40 rounds, then 0.0: the 32-window mean reaches 1.0
        // once 24 of its rounds are zeros, i.e. at round index 63.
        let losses: Vec<f64> = (0..100).map(|i| if i < 40 { 4.0 } else { 0.0 }).collect();
        let t = trial(&losses, 8);
        assert_eq!(time_to_target(&t, 1.0), Some(64.0 - 8.0));
        assert_eq!(time_to_target(&t, -1.0), None);
        // Already below target when the clock starts: first timed round.
        assert_eq!(time_to_target(&t, 5.0), Some(1.0));
        // Last 64 rounds: 4 of them still at 4.0.
        assert_eq!(final_loss(&t), 0.25);
        assert_eq!(first_loss(&t, 32), 4.0);
    }

    #[test]
    fn clean_counters_mean_zero_retries() {
        let mut t = trial(&[1.0; 10], 2);
        let clean = crate::seam::Wire {
            data_up: 1,
            data_down: 1,
            control: 480,
            frames_up: 10,
            frames_down: 10,
        };
        t.outcome.worker_wire = clean;
        t.outcome.server_wire = clean;
        t.outcome.clean_control = 480;
        assert_eq!(retries(&t), 0);
        // One reconnect: an extra hello + ack on both endpoints' counters.
        t.outcome.worker_wire.control += 80;
        t.outcome.server_wire.control += 80;
        assert_eq!(retries(&t), 8);
        // One duplicate answered by a resync reply: an extra frame down.
        t.outcome.worker_wire.control = 480;
        t.outcome.server_wire.control = 480;
        t.outcome.server_wire.frames_down += 1;
        assert_eq!(retries(&t), 1);
    }
}
