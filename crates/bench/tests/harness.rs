//! The `experiments` binary end to end, on the subcommands that take
//! seconds: what it writes under `results/` reads back as the types it was
//! written from, and `summary` prints what it finds there.

use dgs_core::config::TrainConfig;
use dgs_core::curves::RunResult;
use dgs_core::memory::MemoryReport;
use dgs_core::method::Method;
use dgs_tensor::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch working directory: the harness writes `results/` under its cwd.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("results")).unwrap();
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn analytic_tables_are_written_and_read_back() {
    let dir = workdir("dgs_bench_harness_analytic_test");
    experiments(&dir, &["table5"]);
    experiments(&dir, &["memory", "--quick"]);

    let read = |name: &str| std::fs::read_to_string(dir.join("results").join(name)).unwrap();
    let table5: Vec<Value> = json::from_str(&read("table5.json")).unwrap();
    let names: Vec<String> = table5.iter().map(|row| row["method"].to().unwrap()).collect();
    assert_eq!(names, Method::ALL.map(|m| m.name().to_string()));
    assert_eq!(table5[4]["momentum"].to::<String>().unwrap(), "SAMomentum");
    assert!(!table5[4]["residual_accumulation"].to::<bool>().unwrap());

    let memory: Vec<MemoryReport> = json::from_str(&read("memory.json")).unwrap();
    assert_eq!(memory.len(), 1 + 4 * 3, "MSGD once, the async methods at three sizes");
    for report in &memory {
        assert_eq!(
            *report,
            MemoryReport::analytic(report.method, report.workers, report.model_bytes)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn summary_prints_a_diverged_run() {
    let dir = workdir("dgs_bench_harness_summary_test");
    let run = |method: Method, final_loss: f64| RunResult {
        config: TrainConfig::paper_default(method, 4, 2),
        curve: Vec::new(),
        final_acc: 0.25,
        final_loss,
        bytes_up: 1 << 20,
        bytes_down: 1 << 21,
        virtual_time: 0.0,
        wall_secs: 1.0,
        mean_staleness: 2.5,
        max_staleness: 6,
        server_tracking_bytes: 0,
        worker_aux_bytes: 0,
    };
    let results = vec![run(Method::Asgd, f64::NAN), run(Method::Dgs, 1.25)];
    let text = json::to_string_pretty(&results);
    assert!(text.contains("\"final_loss\": null"));
    std::fs::write(dir.join("results/fig2.json"), text).unwrap();

    let printed = experiments(&dir, &["summary"]);
    assert!(printed.contains("fig2 — final accuracies"), "{printed}");
    for needle in ["ASGD", "DGS", "25.00%", "[fig3] not recorded yet"] {
        assert!(printed.contains(needle), "no {needle:?} in:\n{printed}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
