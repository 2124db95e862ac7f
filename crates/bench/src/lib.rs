#![warn(missing_docs)]

//! # dgs-bench
//!
//! Experiment harness for the DGS reproduction. The `experiments` binary
//! regenerates every table and figure of the paper's evaluation section;
//! the two plain-`main` grids under `benches/` time what no round-ledger
//! workload runs (connection scale, the edge tier). Primitive costs
//! (Top-k selection, codec, compressor steps, server updates) are rows of
//! the round ledger, `crates/ledger`.
//!
//! This library holds the shared pieces: workload presets (the CIFAR-10 /
//! ImageNet stand-ins at experiment scale), plain-text table rendering, and
//! the JSON results writer the harness uses to persist raw numbers under
//! `results/`.

pub mod plot;
pub mod presets;
pub mod table;

pub use plot::{ascii_chart, Series};
pub use presets::{Scale, Workload, WorkloadKind};
pub use table::Table;

use dgs_tensor::json::{self, FromJson, ToJson};
use std::path::PathBuf;

/// Directory experiment artefacts are written into (relative to the
/// workspace root when run via `cargo run -p dgs-bench`).
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Serialises `value` as pretty JSON under `results/<name>.json`.
/// Creates the directory on first use.
pub fn write_json<T: ToJson>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json::to_string_pretty(value))?;
    Ok(path)
}

/// Writes a CSV file under `results/<name>.csv` from a header and rows.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Reads a previously written results JSON, if present. A file that is
/// there but does not read as a `T` is reported on stderr, not passed over.
pub fn read_json<T: FromJson>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let data = std::fs::read_to_string(&path).ok()?;
    json::from_str(&data).map_err(|e| eprintln!("{}: {e}", path.display())).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let name = "unit_test_artifact";
        let value = vec![1.0f64, 2.0, 3.0];
        let path = write_json(name, &value).unwrap();
        assert!(path.exists());
        let back: Vec<f64> = read_json(name).unwrap();
        assert_eq!(back, value);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_writer_formats_rows() {
        let path = write_csv(
            "unit_test_csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }
}
