//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <point_mix|scan_join|durable_write|lint_load> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives one workload through
//! `sos_system::Database`'s public API in this process, with the
//! `DatabaseBuilder` defaults unless the workload says otherwise.
//! Every result is checked against values computed from the workload's
//! own generator ([`gen`]); a wrong result is a failed operation.
//!
//! A run sets the workload up several times (reporting the median as
//! `setup_s`), warms up, then measures for `--seconds`:
//!
//! * `--trace 0`: one untraced window. The run prints every end-to-end
//!   metric that applies to the workload, by name and unit, and ends with
//!   one JSON line holding the metrics every workload reports.
//! * `--trace 1`: untraced and traced chunks alternate, half the time
//!   each. Traced chunks record spans around each call into a layer
//!   ([`trace`]) and turn on the database's phase timings; the per-layer
//!   metrics come from those spans plus the change of the
//!   `Database::metrics()` counters over the traced chunks. The JSON line
//!   holds every per-layer metric (0 where a layer is not used), and the
//!   spans are written under `.perfbench/`.
//!
//! The process exits non-zero on any failed operation, wrong result,
//! violated regime guard or failed durability check.

mod durable_write;
mod gen;
mod lint_load;
mod point_mix;
mod scan_join;
mod trace;

use sos_exec::Value;
use sos_parser::parse_program;
use sos_system::{Database, MetricsSnapshot, Output, Phase};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Untraced/traced chunk pairs a `--trace 1` run alternates.
const TRACE_PAIRS: usize = 4;

/// The workload is set up from nothing at least `MIN_SETUPS` times and
/// until the set-ups add up to `MIN_SETUP_SECS` (at most `MAX_SETUPS`
/// times); `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const MIN_SETUP_SECS: f64 = 0.5;

/// The metrics of the `--trace 0` JSON line: the ones every workload
/// reports (see BENCHMARK.json `end_to_end`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The metrics of the `--trace 1` JSON line (see BENCHMARK.json
/// `per_layer`). The first six are end-to-end metrics that are 0 on some
/// workloads, so they cannot be in the `--trace 0` line; the latencies
/// among them come from the untraced chunks.
const PER_LAYER: &[(&str, &str)] = &[
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("recovery_s", "s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("failed_ops_frac", "ratio"),
    ("parser.parse_us", "us"),
    ("core.check_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.rewrite_us", "us"),
    ("optimizer.cost_us", "us"),
    ("optimizer.rule_attempts_per_op", "count"),
    ("optimizer.rewrites_per_op", "count"),
    ("optimizer.useful_ratio", "ratio"),
    ("system.plancache_lookup_us", "us"),
    ("system.plancache_hit_ratio", "ratio"),
    ("system.unattributed_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_examined_per_result", "count"),
    ("exec.compiled_closures", "count"),
    ("exec.interp_fallbacks", "count"),
    ("storage.pool.logical_reads_per_op", "count"),
    ("storage.pool.hit_ratio", "ratio"),
    ("storage.pool.physical_reads_per_op", "count"),
    ("storage.pool.evictions_per_op", "count"),
    ("storage.pool.physical_writes_per_op", "count"),
    ("storage.wal.bytes_per_commit", "B"),
    ("storage.wal.page_images_per_commit", "count"),
    ("storage.wal.records_per_commit", "count"),
    ("storage.wal.syncs_per_commit", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.recovery.scanned_records", "count"),
    ("storage.recovery.replayed_pages", "count"),
    ("system.bulk_load_rows_per_s", "1/s"),
    ("lint.spec_ms", "ms"),
    ("lint.rules_ms", "ms"),
    ("lint.full_pass_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// What one operation was, for the write-only latency metrics.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A statement that changes stored data.
    Write,
    /// Anything else: queries, lint passes, registrations.
    Read,
}

/// A workload: set-up, one closed-loop operation, and the checks that
/// follow the measured window.
pub trait Workload {
    /// Build the database and its data from nothing. Called several
    /// times; the last set-up is the one the run measures.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Rows one set-up bulk-loads.
    fn rows_loaded(&self) -> u64;

    /// Run one operation and check its result against the generator.
    /// `Err` is a failed operation (an engine error or a wrong result).
    fn step(&mut self, tr: &mut Tracer) -> Result<Kind, String>;

    /// The database whose counters the traced run reads; `None` when
    /// every operation builds its own.
    fn db(&mut self) -> Option<&mut Database>;

    /// Operations in one round of a fixed rotation: a window ends only
    /// on a round boundary, so every window runs the same mix.
    fn round(&self) -> u64 {
        1
    }

    /// Called once warm-up is over, before the first measured operation.
    fn mark(&mut self) {}

    /// Called after the measured window(s): regime guards, durability
    /// and recovery checks, and the workload's own metrics.
    fn finish(&mut self, tr: &mut Tracer, report: &mut Report) -> Result<(), String>;
}

/// Named metrics and failed guards collected over one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failed_guards: usize,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find_map(|(n, v, _)| (n == name).then_some(*v))
    }

    /// Record a regime or durability guard; a failed guard fails the run.
    pub fn guard(&mut self, what: String, ok: bool) {
        println!("guard {} {what}", if ok { "ok  " } else { "FAIL" });
        self.failed_guards += usize::from(!ok);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn make(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "point_mix" => Box::new(point_mix::PointMix::new(seed)),
        "scan_join" => Box::new(scan_join::ScanJoin::new(seed)),
        "durable_write" => Box::new(durable_write::DurableWrite::new(seed, &scratch_dir())),
        "lint_load" => Box::new(lint_load::LintLoad::new(seed)),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// Per-run scratch space inside the working directory.
fn scratch_dir() -> std::path::PathBuf {
    std::path::Path::new(".perfbench").join(format!("run-{}", std::process::id()))
}

/// Latencies and outcomes of one measured window.
#[derive(Default)]
struct Window {
    all_ns: Vec<u64>,
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    secs: f64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.secs
    }

    fn absorb(&mut self, other: Window) {
        self.all_ns.extend(other.all_ns);
        self.write_ns.extend(other.write_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.secs += other.secs;
    }
}

/// Turn the benchmark's spans and the database's phase timings on or off.
fn set_tracing(w: &mut dyn Workload, tr: &mut Tracer, on: bool) {
    if let Some(db) = w.db() {
        db.set_tracing(on);
    }
    tr.set_on(on);
}

/// Run operations back to back for `secs` seconds, rounded up to whole
/// rounds of the workload's rotation. Only the first few failures are
/// printed; all are counted.
fn run_window(w: &mut dyn Workload, tr: &mut Tracer, secs: f64) -> Window {
    let mut win = Window::default();
    let limit = Duration::from_secs_f64(secs);
    let round = w.round();
    let started = Instant::now();
    while started.elapsed() < limit || win.attempted % round != 0 {
        tr.next_op();
        let span = tr.begin("op");
        let t = Instant::now();
        let outcome = w.step(tr);
        let ns = t.elapsed().as_nanos() as u64;
        tr.end(span);
        win.attempted += 1;
        match outcome {
            Ok(kind) => {
                win.all_ns.push(ns);
                if kind == Kind::Write {
                    win.write_ns.push(ns);
                }
            }
            Err(e) => {
                win.failed += 1;
                if win.failed <= 5 {
                    eprintln!("failed operation: {e}");
                }
            }
        }
    }
    win.secs = started.elapsed().as_secs_f64();
    win
}

/// The `q`-quantile (0..=1) of unsorted samples, linearly interpolated;
/// 0 for no samples.
fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64)
}

fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end latency metrics of a window, with sample counts printed.
fn latency_metrics(win: &Window, report: &mut Report) {
    let n = win.all_ns.len();
    report.set("ops_per_s", win.ops_per_s(), "1/s");
    report.set("p50_us", quantile(&win.all_ns, 0.50) / 1e3, "us");
    report.set("p90_us", quantile(&win.all_ns, 0.90) / 1e3, "us");
    report.set("p99_us", quantile(&win.all_ns, 0.99) / 1e3, "us");
    println!("samples all={n} writes={}", win.write_ns.len());
    if !win.write_ns.is_empty() {
        report.set("write_p50_us", quantile(&win.write_ns, 0.50) / 1e3, "us");
        report.set("write_p99_us", quantile(&win.write_ns, 0.99) / 1e3, "us");
    }
}

/// Parse and execute one statement, with a span around each call.
pub fn execute(db: &mut Database, tr: &mut Tracer, src: &str) -> Result<Output, String> {
    let mut stmts = tr
        .time("parse_program", || parse_program(src, db.signature()))
        .map_err(|e| format!("{src}: {e}"))?;
    if stmts.len() != 1 {
        return Err(format!("{src}: expected one statement"));
    }
    let stmt = stmts.pop().expect("one statement");
    tr.time("Database::execute", || db.execute(&stmt))
        .map_err(|e| format!("{src}: {e}"))
}

/// Execute a query expected to yield an `int` and return it.
pub fn query_int(db: &mut Database, tr: &mut Tracer, expr: &str) -> Result<i64, String> {
    match execute(db, tr, &format!("query {expr};"))? {
        Output::Query(Value::Int(n)) => Ok(n),
        other => Err(format!("{expr}: expected an int, got {other:?}")),
    }
}

/// Check a count against the generator's expectation.
pub fn expect_count(what: &str, got: i64, want: i64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced chunks: the benchmark's spans from
/// index `from` on (only traced chunks record any), plus the change of the
/// database's counters over each traced chunk.
fn layer_metrics(
    tr: &Tracer,
    from: usize,
    ops: u64,
    counters: &[(MetricsSnapshot, MetricsSnapshot)],
    report: &mut Report,
) {
    let ops = ops as f64;
    report.set("parser.parse_us", tr.mean("parse_program", from, 1e3), "us");
    let (stmts, exec_span_ns) = tr.total("Database::execute", from);
    let stmts = stmts as f64;
    if !counters.is_empty() {
        let delta = |f: &dyn Fn(&MetricsSnapshot) -> u64| -> f64 {
            counters.iter().map(|(a, b)| (f(b) - f(a)) as f64).sum()
        };
        let phase_ns = |p: Phase| delta(&|m| m.phases.phase(p).1);
        let per_stmt_us = |ns: f64| ratio(ns, stmts) / 1e3;
        let check = phase_ns(Phase::Check);
        let optimize = phase_ns(Phase::Optimize);
        let execute = phase_ns(Phase::Execute);
        let lookup = delta(&|m| m.optimizer.cache_lookup_ns);
        let attempts = delta(&|m| m.optimizer.rule_attempts as u64);
        let rewrites = delta(&|m| m.optimizer.rewrites as u64);
        report.set("core.check_us", per_stmt_us(check), "us");
        report.set("optimizer.optimize_us", per_stmt_us(optimize), "us");
        report.set(
            "optimizer.rewrite_us",
            per_stmt_us(delta(&|m| m.optimizer.rewrite_ns)),
            "us",
        );
        report.set(
            "optimizer.cost_us",
            per_stmt_us(delta(&|m| m.optimizer.cost_ns)),
            "us",
        );
        report.set(
            "optimizer.rule_attempts_per_op",
            ratio(attempts, stmts),
            "count",
        );
        report.set("optimizer.rewrites_per_op", ratio(rewrites, stmts), "count");
        report.set("optimizer.useful_ratio", ratio(rewrites, attempts), "ratio");
        report.set("system.plancache_lookup_us", per_stmt_us(lookup), "us");
        let hits = delta(&|m| m.planner.cache_hits);
        let misses = delta(&|m| m.planner.cache_misses);
        report.set(
            "system.plancache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        // What the `execute` span spends outside every timed phase:
        // commit, the catalog snapshot and name resolution.
        let covered = check + optimize + lookup + execute;
        report.set(
            "system.unattributed_us",
            per_stmt_us((exec_span_ns as f64 - covered).max(0.0)),
            "us",
        );
        report.set("exec.execute_us", per_stmt_us(execute), "us");
        report.set(
            "exec.rows_examined_per_result",
            ratio(
                delta(&|m| m.ops.iter().map(|(_, s)| s.tuples_in).sum()),
                stmts,
            ),
            "count",
        );
        report.set(
            "exec.compiled_closures",
            ratio(delta(&|m| m.compile.compiled), stmts),
            "count",
        );
        report.set(
            "exec.interp_fallbacks",
            ratio(delta(&|m| m.compile.total_fallbacks()), stmts),
            "count",
        );
        let logical = delta(&|m| m.pool.logical_reads);
        report.set(
            "storage.pool.logical_reads_per_op",
            ratio(logical, ops),
            "count",
        );
        report.set(
            "storage.pool.hit_ratio",
            ratio(delta(&|m| m.pool.cache_hits), logical),
            "ratio",
        );
        report.set(
            "storage.pool.physical_reads_per_op",
            ratio(delta(&|m| m.pool.physical_reads), ops),
            "count",
        );
        report.set(
            "storage.pool.evictions_per_op",
            ratio(delta(&|m| m.pool.evictions), ops),
            "count",
        );
        report.set(
            "storage.pool.physical_writes_per_op",
            ratio(delta(&|m| m.pool.physical_writes), ops),
            "count",
        );
        let commits = delta(&|m| m.wal.commits);
        report.set(
            "storage.wal.bytes_per_commit",
            ratio(delta(&|m| m.wal.bytes), commits),
            "B",
        );
        report.set(
            "storage.wal.page_images_per_commit",
            ratio(delta(&|m| m.wal.page_images), commits),
            "count",
        );
        report.set(
            "storage.wal.records_per_commit",
            ratio(delta(&|m| m.wal.records), commits),
            "count",
        );
        report.set(
            "storage.wal.syncs_per_commit",
            ratio(delta(&|m| m.wal.syncs), commits),
            "count",
        );
    }
    report.set(
        "storage.checkpoint_ms",
        tr.mean("Database::checkpoint", from, 1e6),
        "ms",
    );
    report.set(
        "lint.spec_ms",
        tr.mean("Database::lint_source(spec)", from, 1e6),
        "ms",
    );
    report.set(
        "lint.rules_ms",
        tr.mean("Database::lint_source(rules)", from, 1e6),
        "ms",
    );
    report.set(
        "lint.full_pass_ms",
        tr.mean("Database::lint", from, 1e6),
        "ms",
    );
}

fn print_json(correct: bool, attempted: u64, failed: u64, names: &[(&str, &str)], report: &Report) {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let mut w = make(&args.workload, args.seed)?;
    let mut report = Report::default();
    let mut tr = Tracer::new();

    // Set-up, several times from nothing; the last one is measured.
    tr.set_on(args.trace);
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < MIN_SETUP_SECS)
    {
        let t = Instant::now();
        w.setup(&mut tr)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let rows = w.rows_loaded() * setups.len() as u64;
    report.set("setup_s", median_f64(&mut setups), "s");
    if args.trace {
        let (_, bulk_ns) = tr.total("Database::bulk_load", 0);
        report.set(
            "system.bulk_load_rows_per_s",
            ratio(rows as f64, bulk_ns as f64 / 1e9),
            "1/s",
        );
    }
    tr.set_on(false);

    // Warm-up: caches fill and lazy set-up finishes before timing.
    let warm = run_window(w.as_mut(), &mut tr, (args.seconds * 0.1).min(1.0));
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    w.mark();

    if args.trace {
        // Untraced and traced chunks alternate, so drift over the run
        // (a growing table, a busier machine) falls on both alike.
        let chunk = args.seconds / (2 * TRACE_PAIRS) as f64;
        let (mut plain, mut traced) = (Window::default(), Window::default());
        let mut counters = Vec::new();
        let from = tr.spans.len();
        for _ in 0..TRACE_PAIRS {
            plain.absorb(run_window(w.as_mut(), &mut tr, chunk));
            let before = w.db().map(|db| db.metrics());
            set_tracing(w.as_mut(), &mut tr, true);
            traced.absorb(run_window(w.as_mut(), &mut tr, chunk));
            set_tracing(w.as_mut(), &mut tr, false);
            if let Some((before, after)) = before.zip(w.db().map(|db| db.metrics())) {
                counters.push((before, after));
            }
        }
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        latency_metrics(&plain, &mut report);
        layer_metrics(&tr, from, traced.attempted, &counters, &mut report);
        report.set(
            "obs.trace_overhead",
            ratio(plain.ops_per_s(), traced.ops_per_s()) - 1.0,
            "ratio",
        );
    } else {
        let win = run_window(w.as_mut(), &mut tr, args.seconds);
        attempted += win.attempted;
        failed += win.failed;
        latency_metrics(&win, &mut report);
    }

    let finished = w.finish(&mut tr, &mut report);
    if let Err(e) = &finished {
        eprintln!("check after the run failed: {e}");
    }
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set(
        "failed_ops_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    if args.trace {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| tr.write(&path)) {
            Ok(()) => println!("spans {} written to {}", tr.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    let correct = failed == 0 && finished.is_ok() && report.failed_guards == 0;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print_json(correct, attempted.max(1), failed, names, &report);
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here are the ones BENCHMARK.json declares,
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{section}\"")).expect("section");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("end of section")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let at =
                            obj.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                        obj[at..at + obj[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
