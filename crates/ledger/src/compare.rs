//! `dgs-ledger compare A.json B.json`: per workload × end-to-end metric,
//! is B worse than A by more than the bound `BENCHMARK.json` fixes?

use crate::json::Value;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound, and both runs' own
    /// spread is within the bound: a real regression.
    Regressed,
    /// B looks worse by more than the bound, but a run's own spread is
    /// wider than the bound: the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (the base); negative
/// when `b` is better. `a == b` is exactly zero even when `a` is zero.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == b {
        return 0.0;
    }
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

/// The verdict for one pairing. A breach is a worsening strictly beyond
/// the bound; a missing or non-finite value always breaches.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse = worsening(a, b, lower_is_better);
    if worse.is_finite() && worse <= bound {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn metric_field(doc: &Value, workload: &str, metric: &str, field: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Compares two suite documents against the bounds in `bench`
/// (`BENCHMARK.json`). Returns the report and whether any pairing
/// regressed.
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<(String, bool), String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let workloads = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no workloads list")?;
    let mode = |d: &Value| d.get("build_mode").and_then(Value::as_str).unwrap_or("?").to_string();
    let mut out = String::new();
    if mode(a) != mode(b) {
        out.push_str(&format!(
            "warning: build_mode differs ({} vs {}); numbers compare only within one build_mode\n",
            mode(a),
            mode(b)
        ));
    }
    out.push_str(&format!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "B vs A", "bound"
    ));
    let mut breached = false;
    for w in workloads {
        let wname = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("BENCHMARK.json: workload without a name")?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: metric without a bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let (va, vb) =
                (metric_field(a, wname, name, "value"), metric_field(b, wname, name, "value"));
            let spread =
                metric_field(a, wname, name, "spread").max(metric_field(b, wname, name, "spread"));
            let v = verdict(va, vb, lower, bound, spread);
            breached |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{wname:<14} {name:<26} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.1}%  {}\n",
                (vb - va) / va.abs() * 100.0,
                bound * 100.0,
                v.as_str()
            ));
        }
    }
    out.push_str("(B vs A is relative to A; a verdict is about worsening beyond the bound in the metric's own direction)\n");
    Ok((out, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_and_around_the_bound() {
        // Lower is better, bound 5 %: 100 -> 105 is exactly at the bound.
        assert_eq!(verdict(100.0, 105.0, true, 0.05, 0.0), Verdict::Ok);
        assert_eq!(verdict(100.0, 105.01, true, 0.05, 0.0), Verdict::Regressed);
        assert_eq!(verdict(100.0, 104.99, true, 0.05, 0.0), Verdict::Ok);
        assert_eq!(verdict(100.0, 50.0, true, 0.05, 0.0), Verdict::Ok);
        // Higher is better: 100 -> 95 is at the bound, 94.9 beyond it.
        assert_eq!(verdict(100.0, 95.0, false, 0.05, 0.0), Verdict::Ok);
        assert_eq!(verdict(100.0, 94.9, false, 0.05, 0.0), Verdict::Regressed);
        assert_eq!(verdict(100.0, 300.0, false, 0.05, 0.0), Verdict::Ok);
        // Bound 0 (exact metrics): equal passes, any worsening breaches,
        // any improvement passes.
        assert_eq!(verdict(7400028.0, 7400028.0, true, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(7400028.0, 7400029.0, true, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(7400028.0, 7400027.0, true, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(0.0, 0.0, true, 0.0, 0.0), Verdict::Ok);
        // The largest bound the contract allows.
        assert_eq!(verdict(1.0, 1.25, true, 0.25, 0.0), Verdict::Ok);
        assert_eq!(verdict(1.0, 1.2501, true, 0.25, 0.0), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_makes_a_breach_unresolved_and_missing_values_breach() {
        assert_eq!(verdict(100.0, 120.0, true, 0.05, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 120.0, true, 0.05, 0.05), Verdict::Regressed);
        // A wide spread never turns a pass into anything else.
        assert_eq!(verdict(100.0, 101.0, true, 0.05, 0.5), Verdict::Ok);
        assert_eq!(verdict(100.0, f64::NAN, true, 0.05, 0.0), Verdict::Regressed);
        assert_eq!(verdict(f64::NAN, 100.0, true, 0.05, 0.0), Verdict::Regressed);
        assert_eq!(verdict(0.0, 1.0, true, 0.05, 0.0), Verdict::Regressed);
    }

    #[test]
    fn compare_walks_every_pairing() {
        let bench = crate::json::parse(
            r#"{"workloads": [{"name": "w1", "why": "x"}],
                "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                               {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let doc = |lat: f64, rate: f64| {
            crate::json::parse(&format!(
                r#"{{"build_mode": "offline-shims", "workloads": {{"w1": {{"end_to_end": {{
                    "lat": {{"value": {lat}, "spread": 0.01}}, "rate": {{"value": {rate}, "spread": 0.01}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (report, breached) = compare(&doc(10.0, 100.0), &doc(10.5, 95.0), &bench).unwrap();
        assert!(!breached, "{report}");
        assert_eq!(report.matches(" ok\n").count(), 2, "{report}");
        let (report, breached) = compare(&doc(10.0, 100.0), &doc(10.5, 80.0), &bench).unwrap();
        assert!(breached);
        assert!(report.contains("regressed"), "{report}");
        // A metric missing from B breaches.
        let empty = crate::json::parse(r#"{"build_mode": "cargo", "workloads": {}}"#).unwrap();
        let (report, breached) = compare(&doc(10.0, 100.0), &empty, &bench).unwrap();
        assert!(breached && report.contains("build_mode differs"), "{report}");
    }
}
