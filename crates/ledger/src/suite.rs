//! The full ledger: every workload untraced (end-to-end metrics) and then
//! traced (per-layer metrics), the cross-workload output checks, and one
//! JSON document that `compare` reads.

use crate::json::{self, Value};
use crate::run::{run, Fingerprint, RunOpts, RunReport};
use crate::seam;
use crate::trial;
use crate::workload::Workload;
use std::process::{Command, Stdio};

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

/// Facts about the build and machine that numbers depend on.
pub fn environment() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    [
        ("build_mode", Value::from(env_or_unknown("DGS_LEDGER_BUILD_MODE"))),
        ("rustc", Value::from(env_or_unknown("DGS_LEDGER_RUSTC"))),
        ("nproc", Value::from(nproc)),
        ("pinned_cpu", Value::from(env_or_unknown("DGS_LEDGER_PINNED_CPU"))),
        ("kernel", Value::from(seam::kernel_backend())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn metrics_json(r: &RunReport) -> Value {
    Value::obj(r.metrics.iter().map(|(d, m)| {
        (
            d.name,
            Value::obj([
                ("value", Value::from(m.value)),
                ("unit", Value::from(d.unit)),
                ("samples", Value::from(m.samples as u64)),
                ("spread", Value::from(m.spread)),
            ]),
        )
    }))
}

fn strings(items: impl Iterator<Item = String>) -> Value {
    Value::Arr(items.map(Value::from).collect())
}

/// Same `--seed` gives the same outputs (checked across the trials of each
/// run); a different seed must give different ones. One smoke-sized trial
/// per seed is enough to see it; `smoke_run` is this seed's, if the run
/// itself was a smoke run.
fn seed_changes_outputs(
    w: &Workload,
    seed: u64,
    smoke_run: Option<&Fingerprint>,
) -> Result<bool, String> {
    let a = match smoke_run {
        Some(f) => f.clone(),
        None => Fingerprint::of(&trial::untraced(w, seed, true)?),
    };
    let b = Fingerprint::of(&trial::untraced(w, seed.wrapping_add(1), true)?);
    Ok(a.server_crc != b.server_crc && a.worker_crcs != b.worker_crcs && a.loss_bits != b.loss_bits)
}

/// One workload in this process: untraced run, traced run, seed check.
/// Prints every metric by name with its unit; returns the workload's
/// entry for the document and whether every check passed.
fn one(w: &'static Workload, opts: &RunOpts) -> (Value, bool) {
    let e2e = run(w, &RunOpts { traced: false, trace_out: None, ..opts.clone() });
    e2e.print_metrics();
    let layers = run(w, &RunOpts { traced: true, ..opts.clone() });
    layers.print_metrics();
    let seeds_differ =
        seed_changes_outputs(w, opts.seed, e2e.fingerprint.as_ref().filter(|_| opts.smoke));
    if seeds_differ != Ok(true) {
        println!(
            "{:<14} CHECK FAILED: a different seed must change CRCs and losses ({seeds_differ:?})",
            w.name
        );
    }
    let ok = e2e.correct() && layers.correct() && seeds_differ == Ok(true);
    let fp = e2e.fingerprint.as_ref();
    let entry = Value::obj([
        ("correct", Value::from(ok)),
        ("attempted", Value::from(e2e.attempted + layers.attempted)),
        ("failed", Value::from(e2e.failed + layers.failed)),
        ("end_to_end", metrics_json(&e2e)),
        ("per_layer", metrics_json(&layers)),
        ("server_crc", fp.map_or(Value::Null, |f| Value::from(u64::from(f.server_crc)))),
        (
            "worker_crcs",
            Value::Arr(fp.map_or(Vec::new(), |f| {
                f.worker_crcs.iter().map(|&c| Value::from(u64::from(c))).collect()
            })),
        ),
        ("seed_changes_outputs", Value::from(seeds_differ == Ok(true))),
        ("warnings", strings(e2e.warnings.iter().chain(&layers.warnings).cloned())),
        ("failures", strings(e2e.failures.iter().chain(&layers.failures).cloned())),
    ]);
    (entry, ok)
}

/// One workload in a child process of this same binary, so that its peak
/// RSS and allocator state are its own — as they are when the acceptance
/// driver runs one workload per process. The child's metric lines are
/// passed through; its document's entry for the workload is returned.
fn one_isolated(w: &'static Workload, opts: &RunOpts) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &opts.trace_out {
        cmd.args(["--trace-out", &format!("{path}.{}", w.name)]);
    }
    let out =
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (lines, last) = text.trim_end().rsplit_once('\n').ok_or("child printed no document")?;
    println!("{lines}");
    let doc = json::parse(last)?;
    let entry = doc
        .get("workloads")
        .and_then(|ws| ws.get(w.name))
        .ok_or("child document lacks the workload")?;
    Ok((entry.clone(), out.status.success()))
}

/// Runs `workloads`, prints every metric by name with its unit, and
/// returns the JSON document plus whether every check passed.
pub fn suite(workloads: &[&'static Workload], opts: &RunOpts) -> (Value, bool) {
    let mut ok = true;
    let mut entries = Vec::new();
    for &w in workloads {
        let (entry, passed) = if workloads.len() == 1 {
            one(w, opts)
        } else {
            one_isolated(w, opts).unwrap_or_else(|e| {
                println!("{:<14} CHECK FAILED: {e}", w.name);
                (Value::Null, false)
            })
        };
        ok &= passed;
        entries.push((w.name, entry));
    }
    let mut checks = Vec::new();
    // The paper's headline direction: on a 1 Gbps link sparsified DGS
    // out-trains dense ASGD on the same model, data and schedule.
    let rate = |name: &str| {
        let (_, entry) = entries.iter().find(|(n, _)| *n == name)?;
        entry.get("end_to_end")?.get("samples_per_s_1gbps")?.get("value")?.as_f64()
    };
    if let (Some(dgs), Some(asgd)) = (rate("widemlp_dgs"), rate("widemlp_asgd")) {
        let holds = dgs > asgd;
        println!(
            "check: samples_per_s_1gbps widemlp_dgs {dgs:.3} > widemlp_asgd {asgd:.3}: {holds}"
        );
        checks.push(("dgs_beats_asgd_at_1gbps", Value::from(holds)));
        ok &= holds;
    }
    let mut doc = environment();
    doc.push(("seed".to_string(), Value::from(opts.seed)));
    doc.push(("seconds".to_string(), Value::from(opts.seconds)));
    doc.push(("smoke".to_string(), Value::from(opts.smoke)));
    doc.push(("workloads".to_string(), Value::obj(entries)));
    doc.push(("checks".to_string(), Value::obj(checks)));
    doc.push(("ok".to_string(), Value::from(ok)));
    (Value::Obj(doc), ok)
}
