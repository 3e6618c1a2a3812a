//! fundb benchmark: drives the library only through its public API, in
//! three closed-loop workloads (`spec-build`, `spec-serve`,
//! `durable-churn`), checks every answer against an oracle outside the
//! timed region, and prints one JSON result line.
//!
//! ```text
//! fundb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--max-ops <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates traced
//! and untraced blocks, prints the per-layer metrics (plus the tracing
//! overhead between the two kinds of block) and writes every span to
//! `.perfbench_out/trace-<workload>-<seed>.jsonl` under the working
//! directory. See `BENCHMARK.json` for what each workload and metric means.

mod build;
mod churn;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Meter;

/// Worker threads handed to every public thread setter. Fixed, so runs on
/// machines with more cores measure the same configuration.
pub const THREADS: usize = 2;

/// Where the benchmark writes spans and scratch stores, relative to the
/// working directory (the checkout root). The benchmark reads and writes
/// only inside the tree it is run from, so the store cannot go to the
/// system's temporary directory; each run makes its own store here and
/// removes it at exit, and stores of killed runs are removed by the next.
pub const OUT_DIR: &str = ".perfbench_out";

/// How a per-layer metric is derived from the traced blocks.
enum Kind {
    /// Mean self time (ms) of the timed loop's spans with this name.
    SelfMs(&'static str),
    /// Mean self time (ms) of the set-up spans with this name.
    SetupMs(&'static str),
    /// Counter total divided by the number of spans with this name.
    PerSpan(&'static str, &'static str),
    /// Counter total divided by the number of traced operations.
    PerOp(&'static str),
    /// Ratio of two counter totals.
    Ratio(&'static str, &'static str),
    /// A value the workload reports directly (0 when it has none).
    Value,
}

/// End-to-end metrics, from untraced runs.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from traced runs. A layer a workload never calls in
/// its timed loop reads 0 there; only the `SetupMs` metrics read set-up.
const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("parser.parse_ms", "ms", Kind::SelfMs("parser.parse")),
    (
        "core.compile.build_ms",
        "ms",
        Kind::SelfMs("core.compile.build"),
    ),
    (
        "core.engine.solve_ms",
        "ms",
        Kind::SelfMs("core.engine.solve"),
    ),
    (
        "core.engine.passes",
        "count",
        Kind::PerSpan("core.engine.passes", "core.engine.solve"),
    ),
    (
        "core.engine.top_evals",
        "count",
        Kind::PerSpan("core.engine.top_evals", "core.engine.solve"),
    ),
    (
        "core.engine.uniform_evals",
        "count",
        Kind::PerSpan("core.engine.uniform_evals", "core.engine.solve"),
    ),
    (
        "core.engine.states",
        "count",
        Kind::PerSpan("core.engine.states", "core.engine.solve"),
    ),
    ("datalog.rounds", "count", Kind::PerOp("datalog.rounds")),
    (
        "datalog.join_probes",
        "count",
        Kind::PerOp("datalog.join_probes"),
    ),
    (
        "datalog.derived_rows",
        "count",
        Kind::PerOp("datalog.derived_rows"),
    ),
    ("datalog.replans", "count", Kind::PerOp("datalog.replans")),
    (
        "datalog.bloom_skips",
        "count",
        Kind::PerOp("datalog.bloom_skips"),
    ),
    (
        "datalog.shared_prefix_hits",
        "count",
        Kind::PerOp("datalog.shared_prefix_hits"),
    ),
    (
        "datalog.probes_per_row",
        "ratio",
        Kind::Ratio("datalog.join_probes", "datalog.derived_rows"),
    ),
    (
        "core.graphspec.algq_ms",
        "ms",
        Kind::SelfMs("core.graphspec.algq"),
    ),
    (
        "core.graphspec.minimize_ms",
        "ms",
        Kind::SelfMs("core.graphspec.minimize"),
    ),
    (
        "core.graphspec.clusters",
        "count",
        Kind::PerSpan("core.graphspec.clusters", "core.graphspec.algq"),
    ),
    (
        "core.graphspec.clusters_min",
        "count",
        Kind::PerSpan("core.graphspec.clusters_min", "core.graphspec.minimize"),
    ),
    (
        "core.graphspec.edges",
        "count",
        Kind::PerSpan("core.graphspec.edges", "core.graphspec.minimize"),
    ),
    (
        "core.eqspec.build_ms",
        "ms",
        Kind::SelfMs("core.eqspec.build"),
    ),
    (
        "core.eqspec.equations",
        "count",
        Kind::PerSpan("core.eqspec.equations", "core.eqspec.build"),
    ),
    (
        "core.serve.freeze_ms",
        "ms",
        Kind::SelfMs("core.serve.freeze"),
    ),
    (
        "setup.core.serve.freeze_ms",
        "ms",
        Kind::SetupMs("core.serve.freeze"),
    ),
    (
        "core.query.answer_ms",
        "ms",
        Kind::SelfMs("core.query.answer"),
    ),
    (
        "core.query.answer_tuples",
        "count",
        Kind::PerSpan("core.query.answer_tuples", "core.query.answer"),
    ),
    (
        "core.serve.batch_ms",
        "ms",
        Kind::SelfMs("core.serve.batch"),
    ),
    (
        "core.serve.queries",
        "count",
        Kind::PerSpan("core.serve.queries", "core.serve.batch"),
    ),
    (
        "core.serve.cache_hits",
        "count",
        Kind::PerSpan("core.serve.cache_hits", "core.serve.batch"),
    ),
    (
        "core.serve.cache_misses",
        "count",
        Kind::PerSpan("core.serve.cache_misses", "core.serve.batch"),
    ),
    (
        "core.serve.hit_rate",
        "ratio",
        Kind::Ratio("core.serve.cache_hits", "core.serve.queries"),
    ),
    (
        "congruence.eq_holds_ms",
        "ms",
        Kind::SelfMs("congruence.eq_holds"),
    ),
    (
        "congruence.eq_queries",
        "count",
        Kind::PerOp("congruence.eq_queries"),
    ),
    ("congruence.classes", "count", Kind::Value),
    ("datalog.retract_ms", "ms", Kind::SelfMs("datalog.retract")),
    (
        "datalog.retract.over_deleted",
        "count",
        Kind::PerSpan("datalog.retract.over_deleted", "datalog.retract"),
    ),
    (
        "datalog.retract.rederived",
        "count",
        Kind::PerSpan("datalog.retract.rederived", "datalog.retract"),
    ),
    (
        "datalog.retract.net_ratio",
        "ratio",
        Kind::Ratio(
            "datalog.retract.net_deleted",
            "datalog.retract.over_deleted",
        ),
    ),
    (
        "datalog.magic.query_ms",
        "ms",
        Kind::SelfMs("datalog.magic.query"),
    ),
    (
        "datalog.magic.demanded_tuples",
        "count",
        Kind::PerSpan("datalog.magic.demanded_tuples", "datalog.magic.query"),
    ),
    (
        "datalog.magic.join_probes",
        "count",
        Kind::PerSpan("datalog.magic.join_probes", "datalog.magic.query"),
    ),
    (
        "datalog.magic.probes_per_answer",
        "ratio",
        Kind::Ratio("datalog.magic.join_probes", "datalog.magic.answers"),
    ),
    (
        "storage.load_run_ms",
        "ms",
        Kind::SetupMs("storage.load_run"),
    ),
    ("storage.insert_ms", "ms", Kind::SelfMs("storage.insert")),
    ("storage.run_ms", "ms", Kind::SelfMs("storage.run")),
    ("storage.commit_ms", "ms", Kind::SelfMs("storage.commit")),
    (
        "storage.wal_records",
        "count",
        Kind::PerOp("storage.wal_records"),
    ),
    (
        "storage.wal_bytes",
        "bytes",
        Kind::PerOp("storage.wal_bytes"),
    ),
    ("storage.flushes", "count", Kind::PerOp("storage.flushes")),
    ("storage.sync_ms", "ms", Kind::SelfMs("storage.sync")),
    ("storage.syncs", "count", Kind::PerOp("storage.syncs")),
    (
        "storage.snapshot_ms",
        "ms",
        Kind::SelfMs("storage.snapshot"),
    ),
    ("storage.open_ms", "ms", Kind::SelfMs("storage.open")),
    (
        "storage.replayed_records",
        "count",
        Kind::PerSpan("storage.replayed_records", "storage.open"),
    ),
    ("storage.disk_bytes", "bytes", Kind::Value),
    ("storage.bytes_per_user_byte", "ratio", Kind::Value),
    ("write_p50_ms", "ms", Kind::Value),
    ("write_p99_ms", "ms", Kind::Value),
    ("read_p50_ms", "ms", Kind::Value),
    ("read_p99_ms", "ms", Kind::Value),
    ("recovery_p50_ms", "ms", Kind::Value),
    ("trace.overhead_frac", "ratio", Kind::Value),
    ("trace.spans", "count", Kind::Value),
];

/// What a workload hands back after its timed loop.
pub struct Outcome {
    pub meter: Meter,
    /// Values for the per-layer metrics of kind [`Kind::Value`].
    pub values: BTreeMap<&'static str, f64>,
    /// Input sizes and policies, echoed in the info line.
    pub info: Vec<(&'static str, String)>,
}

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub max_ops: u64,
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// Set-up repetitions per run. `spec-build` and `durable-churn` spread
/// them over the run, so they sample the machine's quiet and busy phases
/// like the timed loop does; `spec-serve` runs them all before its loop.
pub const SETUP_REPS: usize = 21;

/// SplitMix64: a small seeded generator, so inputs are a pure function of
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fundb-perfbench: {msg}");
    eprintln!(
        "usage: fundb-perfbench --workload <spec-build|spec-serve|durable-churn> \
         --seed <n> --seconds <s> --trace <0|1> [--max-ops <n>]"
    );
    ExitCode::from(2)
}

/// Self times per span name, of the timed loop and of set-up.
struct SelfTimes {
    looped: BTreeMap<&'static str, (u64, f64)>,
    setup: BTreeMap<&'static str, (u64, f64)>,
}

fn per_layer_value(kind: &Kind, out: &Outcome, selfs: &SelfTimes, name: &str) -> f64 {
    let tr = &out.meter.tracer;
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let spans = |s: &str| selfs.looped.get(s).map_or(0.0, |&(n, _)| n as f64);
    let mean = |m: &BTreeMap<&str, (u64, f64)>, s: &str| m.get(s).map_or(0.0, |&(n, ms)| ms / n as f64);
    match kind {
        Kind::SelfMs(s) => mean(&selfs.looped, s),
        Kind::SetupMs(s) => mean(&selfs.setup, s),
        Kind::PerSpan(c, s) => div(tr.counter(c), spans(s)),
        Kind::PerOp(c) => div(tr.counter(c), out.meter.traced_ops() as f64),
        Kind::Ratio(a, b) => div(tr.counter(a), tr.counter(b)),
        Kind::Value => out.values.get(name).copied().unwrap_or(0.0),
    }
}

fn json_metrics(items: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut max_ops = u64::MAX;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => traced = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--max-ops" => match val.parse::<u64>() {
                Ok(n) if n >= 1 => max_ops = n,
                _ => return usage("--max-ops must be a positive integer"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds (>= 1) and --trace (0|1) are required");
    };
    // Pinned environment: fault injection would fail operations on
    // purpose, and FUNDB_THREADS would override the thread count that
    // `query_demand` takes from `default_threads()`.
    for var in ["FUNDB_FAULT", "FUNDB_THREADS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("fundb-perfbench: refusing to run with {var} set; unset it");
            return ExitCode::from(2);
        }
    }
    let cfg = Config {
        seed,
        seconds,
        max_ops,
        traced,
        out_dir: Path::new(OUT_DIR).to_path_buf(),
    };
    let result = match workload.as_str() {
        "spec-build" => build::run(&cfg),
        "spec-serve" => serve::run(&cfg),
        "durable-churn" => churn::run(&cfg),
        other => return usage(&format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fundb-perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };

    let meter = &out.meter;
    let attempted = meter.ops();
    let failed = meter.failed;
    let selfs = SelfTimes {
        looped: meter.tracer.self_times(false),
        setup: meter.tracer.self_times(true),
    };
    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{workload}\"")),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("traced".into(), traced.to_string()),
        ("threads".into(), THREADS.to_string()),
        (
            "default_threads".into(),
            fundb_core::default_threads().to_string(),
        ),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "failed_frac".into(),
            json_num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "latency_samples".into(),
            meter.latency_samples().to_string(),
        ),
        ("windows".into(), meter.windows().to_string()),
        ("clean_windows".into(), meter.clean_window_count().to_string()),
        ("median_steal_share".into(), json_num(meter.steal_share())),
        ("setup_reps".into(), meter.setup_reps().to_string()),
    ];
    info.extend(out.info.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let metrics = if traced {
        let path = cfg.out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = meter.tracer.write_spans(&path) {
            eprintln!("fundb-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        info.push(("trace_file".into(), format!("\"{}\"", path.display())));
        let total: f64 = selfs.looped.values().map(|&(_, ms)| ms).sum();
        let shares: Vec<String> = selfs
            .looped
            .iter()
            .map(|(n, &(_, ms))| format!("\"{n}\": {}", json_num(ms / total.max(1e-12))))
            .collect();
        info.push((
            "self_time_share".into(),
            format!("{{{}}}", shares.join(", ")),
        ));
        let mut out_vals = PER_LAYER
            .iter()
            .map(|(n, u, k)| (*n, *u, per_layer_value(k, &out, &selfs, n)))
            .collect::<Vec<_>>();
        let (untraced, traced_tp) = (meter.throughput(0), meter.throughput(1));
        let overhead = if untraced > 0.0 && traced_tp > 0.0 {
            (untraced - traced_tp) / untraced
        } else {
            0.0
        };
        for (n, _, v) in &mut out_vals {
            match *n {
                "trace.overhead_frac" => *v = overhead,
                "trace.spans" => *v = meter.tracer.span_count() as f64,
                _ => {}
            }
        }
        json_metrics(&out_vals)
    } else {
        let vals = [
            meter.setup_s(),
            meter.steady_throughput(),
            meter.steady_latency(0.50),
            meter.steady_latency(0.99),
            peak_rss_mb(),
        ];
        let items: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(vals)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        json_metrics(&items)
    };
    let info: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
