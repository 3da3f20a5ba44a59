//! End-to-end benchmark for the dnasim workspace.
//!
//! ```text
//! perfbench --workload <paper-eval|archive-imperfect|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced at one worker per core for
//! `--seconds`, checks its outputs, and prints the end-to-end metrics.
//! With `--trace 1` it runs one unit of the workload at one worker per
//! core and at one worker, then a traced replica built from public layer
//! calls (checked equal to the real call), and prints the per-layer
//! metrics. The last stdout line is the result object; the line before it
//! is the environment record. See `README.md` for the metric definitions.

mod archive;
mod paper_eval;
mod serve_mixed;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;

use dnasim_serve::json::{self, Json};

use trace::{ratio, Trace};

/// The benchmark's definition. Its `end_to_end` and `per_layer` lists are
/// the one list of metric names and units: a `--trace 0` run prints every
/// `end_to_end` metric, a `--trace 1` run every `per_layer` metric (a
/// layer a workload bypasses reads 0).
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one list of [`DEFINITION`].
fn listed(per_layer: bool) -> &'static [(String, String)] {
    static LISTS: OnceLock<[Vec<(String, String)>; 2]> = OnceLock::new();
    let lists = LISTS.get_or_init(|| {
        let definition = json::parse(DEFINITION).expect("BENCHMARK.json is valid JSON");
        ["end_to_end", "per_layer"].map(|key| match definition.get(key) {
            Some(Json::Array(items)) => items
                .iter()
                .map(|item| {
                    let field = |k| item.get(k).and_then(Json::as_str).map(str::to_owned);
                    field("name")
                        .zip(field("unit"))
                        .expect("every listed metric has a name and a unit")
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        })
    });
    &lists[usize::from(per_layer)]
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must be listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            listed(false)
                .iter()
                .chain(listed(true))
                .any(|(n, _)| n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The end-to-end set. `peak_rss_mib` is the process's peak resident
    /// memory read right after the first timed unit: the memory set-up
    /// plus one unit of the workload needs, a fixed amount of work. Later
    /// repetitions only time the unit; they would make the reading depend
    /// on how many fit in the run (see `README.md`).
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        work_per_s: f64,
        p50_ms: f64,
        tail_ms: f64,
        peak_rss_mib: f64,
    ) {
        self.set("setup_s", setup_s);
        self.set("work_per_s", work_per_s);
        self.set("latency_p50_ms", p50_ms);
        self.set("latency_tail_ms", tail_ms);
        self.set("peak_rss_mib", peak_rss_mib);
    }

    /// Layer metrics every workload derives the same way from its trace
    /// and from the untraced runs at `workers` and at one worker.
    pub fn common_layers(
        &mut self,
        t: &Trace,
        cpu_s: f64,
        wall_n: f64,
        wall_1: f64,
        workers: usize,
    ) {
        let wall = t.wall_s();
        let per_call_us = |name: &str| ratio(t.self_s(name) * 1e6, t.calls(name) as f64);
        self.set("dataset.generate_s", t.self_s("dataset"));
        self.set("profile.s", t.self_s("profile"));
        self.set(
            "profile.us_per_read",
            ratio(t.self_s("profile") * 1e6, t.counter("profile.reads")),
        );
        self.set("metrics.s", t.self_s("metrics"));
        self.set("metrics.share", ratio(t.self_s("metrics"), wall));
        self.set(
            "reconstruct.bma.us_per_cluster",
            per_call_us("reconstruct.bma"),
        );
        self.set(
            "reconstruct.iterative.us_per_cluster",
            per_call_us("reconstruct.iterative"),
        );
        self.set(
            "reconstruct.twoway.us_per_cluster",
            per_call_us("reconstruct.twoway"),
        );
        self.set(
            "reconstruct.majority.us_per_cluster",
            per_call_us("reconstruct.majority"),
        );
        self.set("reconstruct.s", t.self_s("reconstruct"));
        self.set("reconstruct.share", ratio(t.self_s("reconstruct"), wall));
        self.set("channel.s", t.self_s("channel"));
        self.set(
            "channel.ns_per_base",
            ratio(t.self_s("channel") * 1e9, t.counter("channel.bases")),
        );
        self.set("channel.share", ratio(t.self_s("channel"), wall));
        self.set("serve.s", t.self_s("serve"));
        self.set("serve.share", ratio(t.self_s("serve"), wall));
        self.set("parallel.cpu_util", ratio(cpu_s, wall_n * workers as f64));
        self.set("parallel.speedup_1t", ratio(wall_1, wall_n));
        self.set("trace.overhead", ratio(wall, wall_1) - 1.0);
        self.set("trace.coverage", t.coverage());
        self.set("trace.wall_s", wall);
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (round trips, requests, paper outputs).
    pub attempted: usize,
    /// Operations that failed: errors, wrong bytes, failed paper checks.
    pub failed: usize,
    /// Every output check held: nothing wrong returned as a success,
    /// the same outputs at one and at nproc workers, replicas equal to
    /// the calls they rebuild.
    pub correct: bool,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn render(value: f64) -> String {
    if value.is_finite() {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        format!("{}", value + 0.0)
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let threads_env = std::env::var_os("DNASIM_THREADS").is_some();
    let simd_env = std::env::var_os("DNASIM_SIMD").is_some();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("paper-eval", false) => paper_eval::run(args.seed, args.seconds),
        ("paper-eval", true) => paper_eval::run_traced(args.seed),
        ("archive-imperfect", false) => archive::run(args.seed, args.seconds),
        ("archive-imperfect", true) => archive::run_traced(args.seed),
        ("serve-mixed", false) => serve_mixed::run(args.seed, args.seconds),
        ("serve-mixed", true) => serve_mixed::run_traced(args.seed),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let Outcome {
        attempted,
        failed,
        correct,
        metrics,
    } = outcome;
    let body: Vec<String> = listed(args.trace)
        .iter()
        .map(|(name, unit)| {
            let value = metrics.values.get(name.as_str()).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                render(value)
            )
        })
        .collect();
    println!(
        "{{\"env\": {}}}",
        sys::environment_json(threads_env, simd_env)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_come_from_the_definition() {
        let (end_to_end, per_layer) = (listed(false), listed(true));
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(per_layer.iter().any(|(n, _)| n == "trace.overhead"));
        let mut names: Vec<&str> = end_to_end
            .iter()
            .chain(per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "metric names are used once");
    }
}
