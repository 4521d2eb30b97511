//! The repo's benchmark. One binary, three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--record FILE]` — one
//!   pass of one workload, as the driver behind `BENCHMARK.json` runs it. The
//!   last line of stdout is the result object; `--record` also writes every
//!   metric of the pass, with sample counts, to FILE.
//! * `--all [--runs N] [--seed N] [--seconds S] [--quick] [--out FILE]` —
//!   every workload, both passes, into one result file with the host record.
//! * `--compare A.json B.json` — apply the per-metric bounds to two result
//!   files.
//!
//! See README.md for the metrics, the workloads and how they were chosen.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod openloop;
mod oracle;
mod server;
mod stats;
mod trace;
mod util;
mod workloads;

use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::RunConfig;

/// `run_seconds` of `BENCHMARK.json`: the measured window of one run.
const RUN_SECONDS: f64 = 24.0;
/// The issue designs every workload around a 30 s window; the driver's time
/// cap leaves room for 24 s, so all windows are scaled by this one factor.
const DESIGN_SECONDS: f64 = 30.0;
const QUICK_SECONDS: f64 = 2.0;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage:\n  jitspmm-benchmark --workload <{}> --seed N --seconds S --trace 0|1\n  \
         jitspmm-benchmark --all [--runs N] [--seed N] [--seconds S] [--quick] [--out FILE]\n  \
         jitspmm-benchmark --compare BASE.json CHANGE.json",
        names.join("|")
    )
}

fn out_dir() -> PathBuf {
    server::repo_root().join("benchmark").join("out")
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(text) => {
                text.parse().map(Some).map_err(|_| format!("bad value {text:?} for {name}"))
            }
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.flag("--compare") {
        run_compare(&args)
    } else if args.flag("--all") {
        run_all(&args)
    } else if args.flag("--workload") {
        run_one(&args)
    } else {
        Err(usage())
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("jitspmm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Build what the workload needs and run one pass of it.
fn run_pass(workload: &str, config: &RunConfig, trace: bool) -> Result<Outcome, String> {
    host::condition(host::CONDITION_SECONDS.min(config.seconds));
    if trace {
        let mut tracer = trace::Tracer::new(Instant::now());
        let outcome = workloads::run_per_layer(workload, config, &mut tracer)?;
        let path = out_dir().join(format!("trace-{workload}.json"));
        tracer.write(&path, workload).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {} spans to {}", tracer.len(), path.display());
        Ok(outcome)
    } else {
        workloads::run_end_to_end(workload, config)
    }
}

fn config_for(workload: &str, seed: u64, seconds: f64) -> Result<RunConfig, String> {
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let serve_binary =
        if workloads::needs_server(workload) { Some(server::build_serve_binary()?) } else { None };
    Ok(RunConfig { seed, seconds, nproc: host::nproc(), serve_binary })
}

/// Every metric of a pass by name, with its unit, for people.
fn print_table(workload: &str, trace: bool, outcome: &Outcome) {
    println!(
        "{workload} ({}): {} attempted, {} failed, {} oracle checks",
        if trace { "traced pass, per-layer" } else { "untraced pass, end-to-end" },
        outcome.attempted,
        outcome.failed,
        outcome.oracle_checks
    );
    for metric in &outcome.metrics {
        println!(
            "  {:<32} {:>16.4} {:<8} ({} samples)",
            metric.name,
            metric.value,
            metrics::unit_of(&metric.name),
            metric.samples
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's result object: exactly the listed metrics of the pass.
fn result_line(trace: bool, outcome: &Outcome) -> Result<Json, String> {
    let mut listed = Vec::new();
    if trace {
        for def in PER_LAYER {
            // A per-layer metric this workload does not exercise reads 0.
            let value = outcome.get(def.name).map_or(0.0, |m| m.value);
            listed.push((def.name.to_string(), metric_json(value, def.unit)));
        }
    } else {
        for (def, _) in END_TO_END {
            let metric = outcome
                .get(def.name)
                .ok_or_else(|| format!("the pass did not produce {}", def.name))?;
            if !(metric.value.is_finite() && metric.value > 0.0) {
                return Err(format!("{} = {} is not a usable measurement", def.name, metric.value));
            }
            listed.push((def.name.to_string(), metric_json(metric.value, def.unit)));
        }
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(listed)),
    ]))
}

fn run_json(workload: &str, seed: u64, trace: bool, outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(metrics::unit_of(&m.name))),
                    ("samples", Json::Num(m.samples as f64)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(if trace { 1.0 } else { 0.0 })),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("oracle_checks", Json::Num(outcome.oracle_checks as f64)),
        ("metrics", Json::Obj(metrics)),
        ("notes", Json::Arr(outcome.notes.iter().map(Json::str).collect())),
    ])
}

/// The bounds a result file was taken under, so it can be read on its own.
fn bounds_json() -> Json {
    Json::Obj(
        metrics::compare_bounds()
            .into_iter()
            .map(|(def, bound)| {
                let bound = match bound {
                    metrics::Bound::Share(share) => Json::Num(share),
                    metrics::Bound::AnyIncrease => Json::str("any increase"),
                    metrics::Bound::OneRung => Json::str("more than one rung"),
                };
                (
                    def.name.to_string(),
                    Json::obj(vec![("better", Json::str(def.better.label())), ("bound", bound)]),
                )
            })
            .collect(),
    )
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    host::require_avx_fma()?;
    let workload = args.value("--workload").ok_or_else(usage)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
    let trace = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let config = config_for(workload, seed, seconds)?;
    let outcome = run_pass(workload, &config, trace)?;
    print_table(workload, trace, &outcome);
    if let Some(path) = args.value("--record") {
        std::fs::write(path, run_json(workload, seed, trace, &outcome).to_string())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    // The result line says whether the run was correct; the exit code only
    // says that it ran.
    println!("{}", result_line(trace, &outcome)?);
    Ok(ExitCode::SUCCESS)
}

/// Run one pass in a process of its own, exactly as the driver does — peak
/// memory, thread pools and allocator state never carry over from one pass
/// to the next — and read back what it recorded.
fn run_pass_in_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let record = out_dir().join(format!("pass-{}.json", std::process::id()));
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--record")
        .arg(&record)
        .status()
        .map_err(|e| format!("could not start the pass: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) failed: {status}", trace as u8));
    }
    let text =
        std::fs::read_to_string(&record).map_err(|e| format!("read {}: {e}", record.display()))?;
    let _ = std::fs::remove_file(&record);
    Json::parse(&text)
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    host::require_avx_fma()?;
    let quick = args.flag("--quick");
    let seconds: f64 =
        args.parsed("--seconds")?.unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
    let runs: u64 = args.parsed("--runs")?.unwrap_or(1);
    let first_seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let out = args.value("--out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);

    let mut recorded = Vec::new();
    let mut all_correct = true;
    for run in 0..runs {
        let seed = first_seed + run;
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let pass = run_pass_in_child(workload, seed, seconds, trace)?;
                all_correct &= pass.get("correct") == Some(&Json::Bool(true));
                recorded.push(pass);
            }
        }
    }
    let file = Json::obj(vec![
        ("host", host::record(seconds / DESIGN_SECONDS)),
        ("quick", Json::Bool(quick)),
        ("run_seconds", Json::Num(seconds)),
        ("bounds", bounds_json()),
        ("runs", Json::Arr(recorded)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, file.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if quick {
        println!("--quick: 2 s windows are a smoke test; --compare does not gate on this file");
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let at = args.0.iter().position(|a| a == "--compare").expect("flag present");
    let (Some(base), Some(change)) = (args.0.get(at + 1), args.0.get(at + 2)) else {
        return Err(usage());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, change) = (load(base)?, load(change)?);
    let rows = compare::compare(&base, &change)?;
    print!("{}", compare::render(&rows));
    if compare::is_quick(&base) || compare::is_quick(&change) {
        println!("a --quick file is a smoke test: bounds shown, not enforced");
        return Ok(ExitCode::SUCCESS);
    }
    let gated = rows.iter().any(|r| {
        matches!(r.decision, compare::Decision::Regressed | compare::Decision::Unresolved)
    });
    Ok(if gated { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let text = std::fs::read_to_string(server::repo_root().join("BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
    }

    #[test]
    fn result_line_lists_exactly_the_contract_metrics() {
        let mut outcome = Outcome { attempted: 10, oracle_checks: 1, ..Outcome::default() };
        for (def, _) in END_TO_END {
            outcome.push(def.name, 1.5, 10);
        }
        outcome.push("req_latency_us_p50", 2.0, 10);
        let line = result_line(false, &outcome).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let traced = result_line(true, &outcome).unwrap();
        let listed = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        assert_eq!(
            traced.get("metrics").unwrap().get("req_latency_us_p50").unwrap().get("value"),
            Some(&Json::Num(2.0))
        );
        assert_eq!(
            traced.get("metrics").unwrap().get("ladder.r250.p50_us").unwrap().get("value"),
            Some(&Json::Num(0.0))
        );

        // A zero end-to-end metric is refused, not printed.
        outcome.metrics[0].value = 0.0;
        assert!(result_line(false, &outcome).is_err());
    }
}
