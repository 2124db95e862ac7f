//! Trial drivers: one trial = build the stack, replay the seeded schedule
//! in lockstep (exactly one exchange in flight), tear down.
//!
//! The driver thread owns all `W` workers and their transports; the
//! server runs on one in-process thread. Driver + server = 2 threads.
//! A trial's first `2·W` rounds are warm-up (connections, handshakes,
//! pool fills) and count as set-up; its last round carries the single
//! evaluation and is left out of every latency sample. Between rounds the
//! driver ticks the host-speed [`Probe`]; `run` later puts every trial's
//! times on the reference clock with [`Trial::rescale`].

use crate::probe::Probe;
use crate::seam::{self, CodecReplay, HandleClock, Outcome, Plan, Stack};
use crate::span::{Span, SpanLog, NO_PARENT};
use crate::workload::Workload;
use std::time::Instant;

/// One worker round as the driver saw it. Times are seconds on the
/// trial's clock (which starts when set-up starts).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Round start (`local_step` begins).
    pub start: f64,
    /// Round end (`apply_reply` returned).
    pub end: f64,
    /// `local_step` duration.
    pub local_s: f64,
    /// `exchange` duration.
    pub exchange_s: f64,
    /// `apply_reply` duration.
    pub apply_s: f64,
    /// `UpMsg::wire_bytes`.
    pub up_bytes: usize,
    /// `DownMsg::wire_bytes`.
    pub down_bytes: usize,
    /// Minibatch training loss.
    pub loss: f64,
}

impl Round {
    /// A round from its four clock reads (`local_step` from `a` to `b`,
    /// `exchange` to `c`, `apply_reply` to `d`) on a clock started at `t0`.
    fn clocked(t0: Instant, [a, b, c, d]: [Instant; 4], up: &seam::Up, down_bytes: usize) -> Round {
        Round {
            start: (a - t0).as_secs_f64(),
            end: (d - t0).as_secs_f64(),
            local_s: (b - a).as_secs_f64(),
            exchange_s: (c - b).as_secs_f64(),
            apply_s: (d - c).as_secs_f64(),
            up_bytes: seam::up_wire_bytes(up),
            down_bytes,
            loss: seam::up_loss(up),
        }
    }

    /// Whole-round seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    fn rescale(&mut self, factor: f64) {
        for t in [
            &mut self.start,
            &mut self.end,
            &mut self.local_s,
            &mut self.exchange_s,
            &mut self.apply_s,
        ] {
            *t *= factor;
        }
    }
}

/// A finished trial.
#[derive(Debug)]
pub struct Trial {
    /// Trial start → first timed round: dataset synthesis, building
    /// workers + server, bind, handshakes, warm-up rounds.
    pub setup_s: f64,
    /// Every round in schedule order, warm-up and final round included.
    pub rounds: Vec<Round>,
    /// Leading rounds that are warm-up.
    pub warmup: usize,
    /// Fingerprints and counters for the output checks.
    pub outcome: Outcome,
    /// Host-speed probe durations taken between this trial's rounds,
    /// seconds, as measured (never rescaled).
    pub probe_s: Vec<f64>,
}

impl Trial {
    /// Multiplies every time of the trial by `factor` (see
    /// `probe::speed_factor`): the trial as a machine at reference speed
    /// would have clocked it.
    pub fn rescale(&mut self, factor: f64) {
        self.setup_s *= factor;
        self.rounds.iter_mut().for_each(|r| r.rescale(factor));
    }

    /// The timed region: after warm-up, before the final (eval) round.
    pub fn timed(&self) -> &[Round] {
        &self.rounds[self.warmup..self.rounds.len() - 1]
    }
}

/// Untraced trial: the stack as users run it, four clock reads per round.
pub fn untraced(w: &Workload, seed: u64, smoke: bool) -> Result<Trial, String> {
    let t0 = Instant::now();
    let plan = Plan::new(w, seed, smoke);
    let mut stack = Stack::start(&plan)?;
    let warmup = w.warmup_rounds();
    let mut rounds = Vec::with_capacity(plan.order().len());
    let mut setup_s = 0.0;
    let mut probe = Probe::new();
    for (i, &k) in plan.order().iter().enumerate() {
        probe.tick();
        let a = Instant::now();
        if i == warmup {
            setup_s = (a - t0).as_secs_f64();
        }
        let up = stack.local_step(k);
        let b = Instant::now();
        let down = stack.exchange(k, &up)?;
        let c = Instant::now();
        let down_bytes = seam::down_wire_bytes(&down);
        stack.apply(k, down);
        let d = Instant::now();
        rounds.push(Round::clocked(t0, [a, b, c, d], &up, down_bytes));
    }
    Ok(Trial { setup_s, rounds, warmup, outcome: stack.finish()?, probe_s: probe.into_samples() })
}

/// A round's work replayed in isolation, between rounds.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// The round's messages through the codec.
    pub codec: CodecReplay,
    /// `SparseUpdate::from_topk` on the round's gradient, seconds.
    pub topk_s: f64,
}

/// What the traced driver learns about a round besides its spans.
#[derive(Debug, Clone, Copy)]
pub struct RoundCounts {
    /// Coordinates sent up.
    pub nnz_up: usize,
    /// Coordinates sent down.
    pub nnz_down: usize,
    /// The reply was the dense model, not a sparse difference.
    pub dense_reply: bool,
    /// Present on every [`REPLAY_EVERY`]-th round.
    pub replay: Option<Replay>,
}

/// Replays touch megabytes (a dense frame is 7.4 MB) and evict the next
/// round's working set, so only every 8th round is replayed: the round
/// median — and with it `trace.overhead_share` — never sees the
/// disturbance, and replay medians still have dozens of samples.
pub const REPLAY_EVERY: usize = 8;

/// A finished traced trial.
#[derive(Debug)]
pub struct TracedTrial {
    /// Same record the untraced driver produces (from the traced clock).
    pub trial: Trial,
    /// Every span, on the trial's clock.
    pub log: SpanLog,
    /// Per-round counts and replays, parallel to `trial.rounds`.
    pub counts: Vec<RoundCounts>,
    /// `ComputeScratch` pool misses during the timed region, all workers.
    pub scratch_misses: u64,
    /// Forward+backward multiply-accumulates per round.
    pub flops_per_round: f64,
    /// Updates the server treated as duplicates.
    pub duplicates: u64,
}

impl TracedTrial {
    /// [`Trial::rescale`] for the traced twin: rounds, spans and replays.
    pub fn rescale(&mut self, factor: f64) {
        self.trial.rescale(factor);
        self.log.rescale(factor);
        for replay in self.counts.iter_mut().filter_map(|c| c.replay.as_mut()) {
            replay.codec.rescale(factor);
            replay.topk_s *= factor;
        }
    }
}

/// Spans recorded per round (root + 9 children).
const SPANS_PER_ROUND: usize = 10;

/// Traced trial: same seed and schedule, `local_step` taken apart into its
/// public parts with a span around each, the server's busy interval
/// published by the timing handler. Codec and Top-k replays run between
/// sampled rounds, outside the round span, so they do not inflate the
/// traced round time.
pub fn traced(w: &Workload, seed: u64, smoke: bool) -> Result<TracedTrial, String> {
    let t0 = Instant::now();
    let plan = Plan::new(w, seed, smoke);
    let clock = HandleClock::new(t0);
    let mut stack = Stack::start_traced(&plan, std::sync::Arc::clone(&clock))?;
    let warmup = w.warmup_rounds();
    let n = plan.order().len();
    let mut log = SpanLog::with_capacity(t0, n * SPANS_PER_ROUND);
    let mut rounds = Vec::with_capacity(n);
    let mut counts = Vec::with_capacity(n);
    let mut seqs = vec![0u32; w.workers];
    let mut setup_s = 0.0;
    let mut misses_at_warm = 0;
    let mut probe = Probe::new();
    for (i, &k) in plan.order().iter().enumerate() {
        let round = i as u32;
        probe.tick();
        let a = Instant::now();
        if i == warmup {
            setup_s = (a - t0).as_secs_f64();
            misses_at_warm = stack.workers.iter().map(|p| p.scratch_misses()).sum();
        }
        let worker = &mut stack.workers[k];
        let (x, labels) = worker.load();
        let t1 = Instant::now();
        worker.zero_grad();
        let t2 = Instant::now();
        let logits = worker.forward(x);
        let t3 = Instant::now();
        let (loss, dlogits) = worker.loss(&logits, &labels);
        drop(logits);
        let t4 = Instant::now();
        worker.backward(dlogits);
        let t5 = Instant::now();
        let up = worker.compress(loss);
        let b = Instant::now();
        let down = stack.exchange(k, &up)?;
        let c = Instant::now();
        stack.workers[k].apply(&down);
        let d = Instant::now();

        let root = log.push("round", a, d, NO_PARENT, round);
        log.push("nn.loader", a, t1, root, round);
        log.push("nn.zero_grad", t1, t2, root, round);
        log.push("nn.forward", t2, t3, root, round);
        log.push("nn.loss", t3, t4, root, round);
        log.push("nn.backward", t4, t5, root, round);
        log.push("compress", t5, b, root, round);
        let exchange = log.push("net.exchange", b, c, root, round);
        let (h0, h1) = clock.last();
        log.push_span(Span {
            name: "server.handle",
            start_ns: h0,
            end_ns: h1,
            parent: exchange,
            round,
        });
        log.push("worker.apply_reply", c, d, root, round);

        // Replays: off the round's clock.
        seqs[k] += 1;
        let replay = if i % REPLAY_EVERY == 0 {
            let codec = seam::codec_replay(k, seqs[k], &up, &down)?;
            let r0 = Instant::now();
            std::hint::black_box(stack.workers[k].topk_replay());
            Some(Replay { codec, topk_s: r0.elapsed().as_secs_f64() })
        } else {
            None
        };
        let (nnz_down, dense_reply) = seam::down_nnz(&down);
        counts.push(RoundCounts { nnz_up: seam::up_nnz(&up), nnz_down, dense_reply, replay });
        rounds.push(Round::clocked(t0, [a, b, c, d], &up, seam::down_wire_bytes(&down)));
    }
    let misses_end: u64 = stack.workers.iter().map(|p| p.scratch_misses()).sum();
    let flops_per_round = stack.workers[0].flops_per_round();
    let outcome = stack.finish()?;
    Ok(TracedTrial {
        trial: Trial { setup_s, rounds, warmup, outcome, probe_s: probe.into_samples() },
        log,
        counts,
        scratch_misses: misses_end - misses_at_warm,
        flops_per_round,
        duplicates: clock.duplicates(),
    })
}
