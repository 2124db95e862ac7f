//! `dgs-ledger`: see `crates/ledger/README.md`.

use dgs_ledger::run::{run, RunOpts};
use dgs_ledger::{compare, json, suite, workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  dgs-ledger [--seed N] [--workload NAME] [--seconds S] [--smoke] [--trace-out FILE] [--out FILE]
      run the ledger (all workloads unless --workload): untraced, then traced, then checks
  dgs-ledger --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
      one run in the benchmark-contract format (last stdout line is the result JSON)
  dgs-ledger compare A.json B.json [--bench BENCHMARK.json]
      judge two ledger documents against the bounds in BENCHMARK.json";

fn usage(msg: &str) -> ExitCode {
    eprintln!("dgs-ledger: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(v) => bench = v.clone(),
                None => return usage("--bench needs a value"),
            },
            _ => files.push(a.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("compare needs exactly two documents");
    };
    let loaded = read_json(a).and_then(|a| Ok((a, read_json(b)?, read_json(&bench)?)));
    match loaded.and_then(|(a, b, bench)| compare::compare(&a, &b, &bench)) {
        Ok((report, breached)) => {
            print!("{report}");
            ExitCode::from(u8::from(breached))
        }
        Err(e) => usage(&e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut opts = RunOpts { seed: 1, seconds: 30.0, traced: false, smoke: false, trace_out: None };
    let mut only = None;
    let mut contract = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--seed" => value.parse().map(|v| opts.seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| opts.seconds = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    contract = true;
                    opts.traced = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            "--workload" => workload::by_name(value).map(|w| only = Some(w)).ok_or(()),
            "--trace-out" => {
                opts.trace_out = Some(value.clone());
                Ok(())
            }
            "--out" => {
                out = Some(value.clone());
                Ok(())
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if parsed.is_err() {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }

    // A full run delegates each workload to a child, which prints this itself.
    if only.is_some() {
        println!("# {}", json::Value::Obj(suite::environment()).to_json());
    }
    if contract {
        let Some(w) = only else {
            return usage("--trace needs --workload");
        };
        let report = run(w, &opts);
        report.print_metrics();
        println!("{}", report.result_line().to_json());
        return ExitCode::from(u8::from(!report.correct()));
    }

    let workloads: Vec<&'static workload::Workload> = match only {
        Some(w) => vec![w],
        None => workload::WORKLOADS.iter().collect(),
    };
    let (doc, ok) = suite::suite(&workloads, &opts);
    let text = doc.to_json();
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("dgs-ledger: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{text}");
    ExitCode::from(u8::from(!ok))
}
