//! End-to-end tests of the `dgs-cli` binary: config parsing, training
//! round-trips, and the JSON results artefact.

use dgs::tensor::json;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dgs-cli"))
}

fn quick_config(method: &str, engine: &str) -> String {
    format!(
        r#"{{
  "workload": {{ "kind": "blobs", "samples": 128, "val_samples": 64,
                 "classes": 3, "dim": 8, "noise": 0.4 }},
  "model": {{ "kind": "mlp", "hidden": [16] }},
  "train": {{ "method": "{method}", "workers": 2, "batch_per_worker": 8,
              "epochs": 3, "lr": 0.05, "momentum": 0.4,
              "sparsity_ratio": 0.1, "seed": 7 }},
  "engine": {{ "kind": "{engine}" }}
}}"#
    )
}

#[test]
fn init_emits_valid_config() {
    let out = cli().arg("init").output().expect("run dgs-cli init");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("init output is UTF-8");
    let parsed = json::parse(&text).expect("init output is JSON");
    assert_eq!(parsed["train"]["method"].to::<String>().unwrap(), "dgs");
    assert!(parsed["workload"]["samples"].to::<u64>().unwrap() > 0);

    // What `init` prints is a config `run` accepts.
    let dir = std::env::temp_dir().join("dgs_cli_init_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(&cfg_path, text).unwrap();
    let out = cli().arg("run").arg(&cfg_path).output().expect("run the init config");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn methods_lists_all_five() {
    let out = cli().arg("methods").output().expect("run dgs-cli methods");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["MSGD", "ASGD", "GD-async", "DGC-async", "DGS"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert!(text.contains("SAMomentum"));
}

#[test]
fn run_trains_and_writes_results() {
    let dir = std::env::temp_dir().join("dgs_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    let out_path = dir.join("out.json");
    std::fs::write(&cfg_path, quick_config("dgs", "threads")).unwrap();

    let out = cli()
        .arg("run")
        .arg(&cfg_path)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("run dgs-cli run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final top-1"), "{text}");

    let result = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert!(result["final_acc"].to::<f64>().unwrap() > 0.3);
    assert!(result["curve"].to::<Vec<json::Value>>().unwrap().len() >= 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_supports_des_engine() {
    let dir = std::env::temp_dir().join("dgs_cli_des_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(&cfg_path, quick_config("asgd", "des")).unwrap();
    let out = cli().arg("run").arg(&cfg_path).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("virtual time"), "DES runs report virtual time:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_bad_config() {
    let dir = std::env::temp_dir().join("dgs_cli_bad_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(&cfg_path, "{ not json").unwrap();
    let out = cli().arg("run").arg(&cfg_path).output().expect("run");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A config that does not load exits 2 and says where: the key path of a
/// missing or ill-typed member, the line and column of a syntax error.
#[test]
fn config_errors_name_the_key_or_the_position() {
    let dir = std::env::temp_dir().join("dgs_cli_config_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    let good = quick_config("dgs", "threads");
    let truncated = &good[..good.find("\"train\"").unwrap() + 20];
    for (config, names) in [
        (good.replace("\"workers\": 2,", ""), "train.workers: missing key"),
        (
            good.replace("\"workers\": 2", "\"workers\": \"2\""),
            "train.workers: expected an integer",
        ),
        (truncated.to_string(), "unexpected end of input at line 5 column 23"),
    ] {
        assert_ne!(config, good);
        std::fs::write(&cfg_path, config).unwrap();
        let out = cli().arg("run").arg(&cfg_path).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains("invalid config") && stderr.contains(names), "stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_unknown_subcommand() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
}
