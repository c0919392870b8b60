//! The SlimSell benchmark: one command runs a named workload from a seed
//! and prints every metric by name and unit, then, as its last line, one
//! JSON result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kron --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! traced run that reports the per-layer metrics and writes its spans to
//! `perfbench/traces/<workload>-seed<seed>.jsonl` (relative to the
//! working directory). Metric names, units and bounds are listed in
//! [`metrics`] and recorded in `BENCHMARK.json` at the repository root.
//! Every output is checked outside the timed regions; a failed check or a
//! query error counts in `failed`. A traced run also prints an `exact`
//! line holding the [`metrics::EXACT`] counters, and
//! `perfbench/compare_counters.py` checks that two traced runs of one
//! seed print identical ones.

mod inputs;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::metrics::{END_TO_END, EXACT, PER_LAYER};
use crate::run::{Outcome, Plan};

struct Args {
    workload: inputs::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(inputs::workload(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The human-readable report followed by the result line, which holds the
/// end-to-end metrics of an untraced run or the per-layer metrics of a
/// traced one.
fn report(outcome: &Outcome, traced: bool) -> Vec<String> {
    let mut lines = Vec::new();
    let all = END_TO_END.iter().map(|m| (m.0, m.1)).chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    for (name, unit) in all {
        if let Some(v) = outcome.values.get(name) {
            lines.push(format!("{name:<28} {v:>16.6} {unit}"));
        }
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    lines.push(format!(
        "{:<28} {fail_frac:>16.6} ratio ({} of {} operations)",
        "fail_frac", outcome.failed, outcome.attempted
    ));
    let samples: Vec<String> = outcome.samples.iter().map(|(k, n)| format!("{k}={n}")).collect();
    lines.push(format!("samples {}", samples.join(" ")));
    lines.push(format!("context {}", outcome.context));
    if traced {
        let exact = outcome.values.to_json(EXACT.iter().map(|&name| (name, unit_of(name))));
        lines.push(format!("exact {exact}"));
    }
    let metrics = if traced {
        outcome.values.to_json(PER_LAYER.iter().map(|m| (m.0, m.1)))
    } else {
        outcome.values.to_json(END_TO_END.iter().map(|m| (m.0, m.1)))
    };
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ));
    lines
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1).expect("exact counters are per-layer")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <kron|road> --seed <u64> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let trace_path =
        PathBuf::from(format!("perfbench/traces/{}-seed{}.jsonl", args.workload.name, args.seed));
    let outcome =
        run::run(&args.workload, args.seed, &Plan::new(args.seconds), args.trace, Some(trace_path));
    for line in report(&outcome, args.trace) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Family, Workload};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload road --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("road", 7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload kron --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload kron --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload kron --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload kron --seed 1 --trace 0").is_err());
        assert!(args("--workload kron --seed 1 --seconds").is_err());
    }

    /// A tiny run of each family prints every metric with its unit, and
    /// the result line carries exactly the metrics its mode reports.
    #[test]
    fn tiny_runs_print_every_metric() {
        for family in [Family::Kronecker, Family::Road] {
            let w = Workload {
                name: "tiny",
                family,
                bfs_scale: 9,
                serve_scale: 8,
                analytics_scale: 8,
                lo_qps: 400.0,
                hi_qps: 4000.0,
                goodput_limit_ms: 100.0,
            };
            let plan = Plan { seconds: 0.01, ..Plan::new(0.01) };
            for traced in [false, true] {
                let outcome = run::run(&w, 3, &plan, traced, None);
                assert_eq!(outcome.failed, 0, "tiny {family:?} run failed a check");
                let lines = report(&outcome, traced);
                let listed: Vec<(&str, &str)> = if traced {
                    PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.0, m.1)).collect()
                };
                assert!(lines.iter().any(|l| l.starts_with("samples ") && l.contains(" bfs=")));
                assert_eq!(lines.iter().any(|l| l.starts_with("exact {")), traced);
                let last = lines.last().unwrap();
                assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
                for (name, unit) in &listed {
                    assert!(
                        lines.iter().any(|l| l.starts_with(&format!("{name} "))
                            && l.ends_with(&format!(" {unit}"))),
                        "{name} not printed with {unit}"
                    );
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(last.contains(&entry), "{name} missing from the result line");
                    assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert_eq!(last.matches("\"value\"").count(), listed.len());
            }
        }
    }
}
