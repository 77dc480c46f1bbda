//! The repository benchmark: three workloads driven through the public
//! API of `xsi-core`, `xsi-graph`, `xsi-xml`, `xsi-query` and
//! `xsi-workload`, from one process on one thread, as a closed loop with
//! one client.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <xmark-churn|imdb-mixed|doc-load|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the end-to-end run; `--trace 1` is the separate traced
//! run that reports per-layer metrics. Every figure goes to standard
//! output as `name value unit`, and the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any operation or output check failed. See README.md for
//! the workloads, the metrics and what each layer metric should move.

#![forbid(unsafe_code)]

mod churn;
mod common;
mod load;
mod mixed;
mod speed;
mod update;

use std::process::ExitCode;
use std::time::Duration;

use common::{Config, Outcome, Scale};

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_us_p50",
    "op_us_p99",
    "index_mib",
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("graph.mutate_ns_p50", "ns"),
    ("engine.residual_ns_p50", "ns"),
    ("engine.stats_mismatch", "count"),
    ("oneindex.update_ns_p50", "ns"),
    ("oneindex.update_ns_p99", "ns"),
    ("oneindex.split_ns_p50", "ns"),
    ("oneindex.merge_ns_p50", "ns"),
    ("oneindex.splits_per_update", "count"),
    ("oneindex.merges_per_update", "count"),
    ("oneindex.intermediate_blocks_max", "count"),
    ("oneindex.queue_peak_max", "count"),
    ("oneindex.noop_frac", "ratio"),
    ("akindex.update_ns_p50", "ns"),
    ("akindex.update_ns_p99", "ns"),
    ("akindex.splits_per_update", "count"),
    ("akindex.merges_per_update", "count"),
    ("akindex.levels_touched_mean", "count"),
    ("xml.parse_s.docs", "s"),
    ("xml.parse_s.shapes", "s"),
    ("oneindex.build_s.docs", "s"),
    ("oneindex.build_s.shapes", "s"),
    ("akindex.build_s.docs", "s"),
    ("akindex.build_s.shapes", "s"),
    ("oneindex.build_doubling_ratio", "ratio"),
    ("kernel.scan_elems", "count"),
    ("kernel.scan_elems_doubling_ratio", "ratio"),
    ("kernel.akindex_scan_elems", "count"),
    ("batch.remove_us_p50", "us"),
    ("batch.add_us_p50", "us"),
    ("query.oneindex_us_p50", "us"),
    ("query.ak_validated_us_p50", "us"),
    ("query.snapshot_us_p50", "us"),
    ("query.graph_us_p50", "us"),
    ("query.index_speedup", "ratio"),
    ("query.ak_candidates_per_result", "ratio"),
    ("view.freeze_us_p50", "us"),
    ("view.cow_clones_per_update", "count"),
    ("mem.oneindex_mib", "MiB"),
    ("mem.akindex_mib", "MiB"),
    ("setup.generate_s", "s"),
    ("setup.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["xmark-churn", "imdb-mixed", "doc-load"];

fn run_workload(name: &str, cfg: &Config) -> Outcome {
    match name {
        "xmark-churn" => churn::run(cfg),
        "imdb-mixed" => mixed::run(cfg),
        _ => load::run(cfg),
    }
}

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = "all".to_owned();
    let mut cfg = Config {
        seed: 1,
        budget: Duration::from_secs(10),
        trace: false,
        scale: Scale::FULL,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("expected xmark-churn, imdb-mixed, doc-load or all"));
                }
                workload = value;
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
                cfg.budget = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload, cfg })
}

/// The metrics `BENCHMARK.json` names for this mode, in its order, each
/// present: a workload that does not exercise a layer reports it as 0.
fn contract_metrics(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.metrics.get(name).unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let &(v, unit) = out
                    .metrics
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                (name, v, unit)
            })
            .collect()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The last line of the output.
fn result_line(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prefix = names.len() > 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = Vec::new();
    for name in names {
        let out = run_workload(name, &args.cfg);
        let (a, f) = (out.checks.attempted, out.checks.failed);
        attempted += a;
        failed += f;
        println!(
            "# {name} (seed {}, trace {})",
            args.cfg.seed,
            u8::from(args.cfg.trace)
        );
        for (metric, v, unit) in contract_metrics(&out, args.cfg.trace) {
            println!("{metric} {v} {unit}");
            let key = if prefix {
                format!("{name}.{metric}")
            } else {
                metric.to_owned()
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        for (metric, &(v, unit)) in &out.extra.0 {
            println!("{metric} {v} {unit}");
        }
        println!("ops_failed_frac {} ratio", f as f64 / a.max(1) as f64);
    }
    println!("{}", result_line(attempted, failed, &json));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Sizes small enough for a debug build.
    const TINY: Scale = Scale {
        churn_xmark: 0.02,
        mixed_imdb: 0.02,
        load_docs: 0.01,
        shape_chain: 60,
        comb_teeth: 3,
        sweep_chain: 40,
    };

    fn cfg(trace: bool, corrupt: bool) -> Config {
        Config {
            seed: 5,
            // Long enough in a debug build for a few freezes.
            budget: Duration::from_secs(2),
            trace,
            scale: TINY,
            corrupt,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_and_measures_its_layers() {
        // Zero in every workload is allowed only for counts that are zero
        // on a correct program, or unmeasured until the program changes.
        let may_be_zero = ["engine.stats_mismatch", "kernel.akindex_scan_elems"];
        let mut measured = BTreeSet::new();
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(name, &cfg(trace, false));
                assert!(out.checks.attempted > 0, "{name}: nothing attempted");
                assert_eq!(out.checks.failed, 0, "{name} (trace {trace}) failed");
                // Panics if an end-to-end metric is missing.
                contract_metrics(&out, trace);
                if !trace {
                    continue;
                }
                // On the update workloads, the engine and direct legs agree
                // on every operation.
                if name != "doc-load" {
                    assert_eq!(
                        out.metrics.get("engine.stats_mismatch"),
                        Some(0.0),
                        "{name}: engine.stats_mismatch"
                    );
                }
                for (metric, &(v, _)) in &out.metrics.0 {
                    assert!(
                        PER_LAYER.iter().any(|&(m, _)| m == metric),
                        "{name} reports {metric}, which PER_LAYER does not list"
                    );
                    if v != 0.0 {
                        measured.insert(metric.clone());
                    }
                }
            }
        }
        for (metric, _) in PER_LAYER {
            assert!(
                measured.contains(metric) || may_be_zero.contains(&metric),
                "no workload measures {metric}"
            );
        }
    }

    #[test]
    fn a_corrupted_expected_answer_fails_the_run() {
        for name in WORKLOADS {
            let out = run_workload(name, &cfg(false, true));
            assert!(out.checks.failed > 0, "{name}: corruption went unnoticed");
            let line = result_line(out.checks.attempted, out.checks.failed, &[]);
            assert!(line.starts_with("{\"correct\": false,"), "{line}");
        }
    }

    /// `BENCHMARK.json` names the workloads and metrics this program runs
    /// and reports, in the same order.
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .chain(END_TO_END.iter())
            .copied()
            .chain(PER_LAYER.iter().map(|&(m, _)| m))
            .collect();
        assert_eq!(names, expected);
    }
}
