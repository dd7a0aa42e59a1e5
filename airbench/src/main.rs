//! `airbench`: one benchmark for airsched, end to end and per layer.
//!
//! ```text
//! airbench --workload <serve_steady|serve_replan|plan_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole rounds of the named workload until `--seconds` have passed,
//! checks every operation's output, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any check fails.

mod checks;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;

/// The seed used when `--seed` is not given. Seed 7919 is held out: it
/// is not used while tuning, and confirms a claimed gain on inputs the
/// change was not written against.
const DEFAULT_SEED: u64 = 1;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    /// Operations whose output failed a check.
    failed: u64,
    /// Of those, failures other than the known, seed-independent fault
    /// that `plan_sweep` counts (see `sweep::Failure`).
    broken: u64,
    errors: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    /// The traced run's span table.
    span_report: String,
}

/// The process's peak resident set so far, in MB, from
/// `/proc/self/status` (the workloads read it after their first round, so
/// it does not grow with the number of rounds a run fits in).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every per-layer metric the benchmark defines, with its unit, in
/// report order; a workload that does not exercise a layer reports 0.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("station.subscribe_ns", "ns"),
    ("station.waiting_mean", "clients"),
    ("station.tick_ns", "ns"),
    ("station.deliveries", "count"),
    ("transmit.encode_ns", "ns"),
    ("transmit.bytes", "B/slot"),
    ("transmit.rebuild_us", "us"),
    ("transmit.rebuilds", "count"),
    ("transmit.fresh_fallbacks", "count"),
    ("frame.decode_ns", "ns"),
    ("frame.frames", "count"),
    ("receiver.consume_ns", "ns"),
    ("bench.check_ns", "ns"),
    ("station.repack_ms", "ms"),
    ("station.best_effort_ms", "ms"),
    ("station.recover_ms", "ms"),
    ("station.republish_us", "us"),
    ("station.mode_changes", "count"),
    ("station.plan_rejections", "count"),
    ("station.late_deliveries", "count"),
    ("failover_p50_ms", "ms"),
    ("failover_p90_ms", "ms"),
    ("slot_p99_us", "us"),
    ("wait_max_slots", "slots"),
    ("serve.slot_us", "us"),
    ("serve.residual_us", "us"),
    ("pamad.schedule_ms", "ms"),
    ("mpb.schedule_ms", "ms"),
    ("opt.search_ms", "ms"),
    ("opt.evaluated", "count"),
    ("opt.pruned", "count"),
    ("access.measure_ms", "ms"),
    ("solve.check_ms", "ms"),
    ("sweep.point_ms", "ms"),
    ("sweep.residual_ms", "ms"),
    ("avgd_pamad_slots", "slots"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("airbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_steady" => serve::run(serve::STEADY, args.seed, args.seconds, args.trace),
        "serve_replan" => serve::run(serve::REPLAN, args.seed, args.seconds, args.trace),
        "plan_sweep" => sweep::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!(
                "airbench: unknown workload '{other}' (serve_steady, serve_replan, plan_sweep)"
            );
            return ExitCode::from(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("airbench: check failed: {e}");
    }
    let metrics: Vec<Metric> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    } else {
        outcome.e2e.clone()
    };
    print!("{}", outcome.span_report);
    for m in &metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.broken == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::LAYER_METRICS;

    /// `BENCHMARK.json` declares the metrics this binary prints; the two
    /// lists must not drift apart.
    #[test]
    fn layer_metrics_match_benchmark_json() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        for (name, unit) in LAYER_METRICS {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} missing");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYER_METRICS.len());
    }
}
