//! The commands around single runs: `all` (every workload in a fresh
//! process each, every metric printed by name with its unit) and
//! `spread` (the noise report over two sets of runs).

use crate::manifest::{number, MetricDecl, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// `(name, unit, value)` of every metric on a result line, in order.
fn metrics_of(result: &Value) -> Vec<(String, String, f64)> {
    let Some(Value::Object(entries)) = result.get("metrics") else { return Vec::new() };
    entries
        .iter()
        .filter_map(|(name, m)| {
            let unit = match m.get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            Some((name.clone(), unit, number(m.get("value"))?))
        })
        .collect()
}

/// Runs this binary again for one workload and returns its result line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() || last.is_empty() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// Every workload, untraced then traced, each in a fresh process.
/// Returns whether every run was correct.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = child_run(w.name, seed, seconds, trace)?;
            let ok = matches!(result.get("correct"), Some(Value::Bool(true)));
            correct &= ok;
            println!(
                "{} ({}): correct {ok}, ops_attempted {}, ops_failed {}",
                w.name,
                if trace { "traced, per layer" } else { "untraced, end to end" },
                number(result.get("attempted")).unwrap_or(0.0),
                number(result.get("failed")).unwrap_or(0.0),
            );
            for (name, unit, value) in metrics_of(&result) {
                println!("  {name:<40} {value:>20.6} {unit}");
            }
        }
    }
    Ok(correct)
}

fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// direction (negative when `b` is better).
fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if decl.better == "lower" {
        change
    } else {
        -change
    }
}

/// The noise report. `lines` are `<set> <workload> <seed> <result line>`
/// for sets `A` and `B` of untraced runs on one commit. Prints median,
/// quartiles and the disagreement between the sets for every
/// end-to-end metric and workload, and returns the baseline document
/// and whether every pair agrees within the metric's bound.
pub fn spread(lines: &str, cores: usize, commit: &str) -> Result<(String, bool), String> {
    // (workload, metric) -> set -> values
    let mut values: BTreeMap<(String, String), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.splitn(4, ' ');
        let (Some(set), Some(workload), Some(_seed), Some(json)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed line: {line}"));
        };
        let result: Value = serde_json::from_str(json).map_err(|e| format!("{e}: {line}"))?;
        if !matches!(result.get("correct"), Some(Value::Bool(true))) {
            return Err(format!("an incorrect run is in the sample: {line}"));
        }
        for (name, _, value) in metrics_of(&result) {
            values
                .entry((workload.to_string(), name))
                .or_default()
                .entry(set.to_string())
                .or_default()
                .push(value);
        }
    }
    let mut agree = true;
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "A->B", "bound"
    );
    for w in &WORKLOADS {
        for decl in &END_TO_END {
            let Some(sets) = values.get(&(w.name.to_string(), decl.name.to_string())) else {
                return Err(format!("no runs of {} report {}", w.name, decl.name));
            };
            let (Some(a), Some(b)) = (sets.get("A"), sets.get("B")) else {
                return Err(format!("{} {}: need runs in set A and set B", w.name, decl.name));
            };
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let (q1, q3) = quartiles(&all);
            let spread = relative_spread(&all);
            let moved = worsening(decl, median(a), median(b));
            let bound = decl.bound.unwrap_or(0.0);
            // Set-up time is held to its bound between sets only.
            let ok = moved.abs() <= bound && (decl.name == "setup_s" || spread <= bound);
            agree &= ok;
            println!(
                "{:<13} {:<15} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>+7.2}% {:>6.0}%{}",
                w.name,
                decl.name,
                median(&all),
                q1,
                q3,
                spread * 100.0,
                moved * 100.0,
                bound * 100.0,
                if ok { "" } else { "  <-- outside the bound" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"median\": {:?}, \
                 \"q1\": {q1:?}, \"q3\": {q3:?}, \"runs\": {}, \"set_a_median\": {:?}, \"set_b_median\": {:?}}}",
                w.name,
                decl.name,
                decl.unit,
                median(&all),
                all.len(),
                median(a),
                median(b)
            ));
        }
    }
    let baseline = format!(
        "{{\n  \"commit\": \"{commit}\",\n  \"cores\": {cores},\n  \"baseline\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    Ok((baseline, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(set: &str, workload: &str, scale: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    d.name,
                    10.0 * scale,
                    d.unit
                )
            })
            .collect();
        format!(
            "{set} {workload} 1 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    fn sample(b_scale: f64) -> String {
        let mut lines = Vec::new();
        for w in &WORKLOADS {
            for i in 0..5 {
                lines.push(line("A", w.name, 1.0 + 0.001 * f64::from(i)));
                lines.push(line("B", w.name, b_scale + 0.001 * f64::from(i)));
            }
        }
        lines.join("\n")
    }

    #[test]
    fn sets_that_agree_pass_and_make_a_baseline() {
        let (baseline, agree) = spread(&sample(1.01), 2, "abc").expect("parses");
        assert!(agree);
        assert!(baseline.contains("\"commit\": \"abc\"") && baseline.contains("\"cores\": 2"));
        assert_eq!(baseline.matches("\"workload\"").count(), WORKLOADS.len() * END_TO_END.len());
    }

    #[test]
    fn sets_that_disagree_fail_in_either_direction() {
        // Every metric 30 % apart: worse for some, better for others,
        // and past every bound either way.
        assert!(!spread(&sample(1.3), 2, "abc").expect("parses").1);
        assert!(!spread(&sample(0.7), 2, "abc").expect("parses").1);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), ("lower", "higher"));
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn incomplete_samples_are_refused() {
        assert!(spread(&line("A", "live_mixed", 1.0), 2, "abc").is_err());
        assert!(spread("garbage", 2, "abc").is_err());
    }
}
