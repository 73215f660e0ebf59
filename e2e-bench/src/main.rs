//! End-to-end benchmark of `ddpa serve`.
//!
//! ```text
//! ddpa-e2e-bench --ddpa PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the release `ddpa serve` binary as a child process, drives it
//! over loopback with closed-loop clients, checks every answer against the
//! exhaustive `ddpa-anders` solution, and prints the result as the last
//! stdout line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! replays the same seeded workload traced and reports per-layer metrics.
//! See README.md in this directory.

mod inputs;
mod oracle;
mod replay;
mod server;
mod spans;
mod stats;
mod tcp;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ddpa_obs::JsonValue;
use inputs::{WarmPlan, Workload, EDIT_PERIOD};
use server::ServerChild;
use spans::Spans;
use stats::{median, tail_percentile};
use tcp::{Jobs, Tally};

/// Fewest passes in an end-to-end run. A run sends the same pass of
/// requests again and again, each time to a fresh server, while another
/// pass fits in `--seconds`, and every timing is the fastest of its
/// readings: a request that the host slowed in one pass (CPU time stolen
/// by the hypervisor, a preempted thread, a slow stretch of a noisy
/// neighbour) rarely stays slow in all of them.
const MIN_PASSES: usize = 3;
/// Warm-edit operations per pass: eight edit periods, ending just before
/// the eighth edit, so that every edit is followed by a whole period of
/// reads.
const WARM_PASS_OPS: u64 = 8 * EDIT_PERIOD - 1;

struct Args {
    ddpa: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut ddpa = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--ddpa" => ddpa = Some(PathBuf::from(value()?)),
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {v:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        ddpa: ddpa.ok_or("--ddpa is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        work_dir,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's outcome: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let fields = vec![
                ("value".to_owned(), JsonValue::F64(value)),
                ("unit".to_owned(), JsonValue::str(m.unit)),
            ];
            (m.name.to_owned(), JsonValue::Object(fields))
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(o.correct)),
        ("attempted".into(), JsonValue::U64(o.attempted)),
        ("failed".into(), JsonValue::U64(o.failed)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
    .to_string()
}

/// Seed, host and build facts that make a result reproducible.
fn record_line(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let revision = std::env::var("DDPA_BENCH_REVISION").ok().or_else(|| {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    });
    let flags = args
        .workload
        .server_flags()
        .iter()
        .map(|&f| JsonValue::str(f))
        .collect();
    let nproc = u64::try_from(nproc).unwrap_or(0);
    JsonValue::Object(vec![
        ("kind".into(), JsonValue::str("record")),
        ("workload".into(), JsonValue::str(args.workload.name())),
        ("seed".into(), JsonValue::U64(args.seed)),
        ("seconds".into(), JsonValue::U64(args.seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
        ("nproc".into(), JsonValue::U64(nproc)),
        ("cpu".into(), JsonValue::str(cpu)),
        (
            "revision".into(),
            JsonValue::str(revision.as_deref().unwrap_or("unknown")),
        ),
        ("server_flags".into(), JsonValue::Array(flags)),
    ])
    .to_string()
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Share of CPU time the hypervisor took from this machine since
/// `before`: a slow run on a shared host shows here.
fn host_steal_frac(before: (u64, u64)) -> f64 {
    let (steal, total) = cpu_times();
    ratio(
        steal.saturating_sub(before.0) as f64,
        total.saturating_sub(before.1) as f64,
    )
}

/// What a workload's measured phases run on, prepared untimed.
enum Prepared {
    Jobs(Jobs),
    /// Warm-edit's plan and the snapshot its sessions restore from.
    Warm(Box<WarmPlan>, PathBuf),
}

impl Prepared {
    /// Requests in one pass: the queries of one cycle through the job
    /// pool, or [`WARM_PASS_OPS`] warm-edit operations. Every pass is the
    /// same work, so the host's speed changes how many passes a run holds,
    /// not what a pass measures.
    fn pass_requests(&self) -> u64 {
        match self {
            Prepared::Warm(..) => WARM_PASS_OPS,
            Prepared::Jobs(jobs) => jobs.cycle_queries(),
        }
    }

    /// Runs one measured phase of `requests` requests from the start of
    /// the workload's sequence.
    fn measure(
        &self,
        server: &ServerChild,
        requests: u64,
        traced: bool,
        spans: Option<&mut Spans>,
    ) -> Result<Tally, String> {
        match self {
            Prepared::Warm(plan, snapshot) => {
                tcp::run_warm(server, plan, snapshot, requests, traced, spans)
            }
            Prepared::Jobs(jobs) => {
                let mut client = server.connect()?;
                tcp::run_jobs(&mut client, jobs, requests, traced, spans)
            }
        }
    }
}

fn report_wrong(tally: &Tally) {
    for e in &tally.wrong_examples {
        eprintln!("WRONG ANSWER: {e}");
    }
    if tally.wrong > 0 {
        eprintln!("{} answers differ from the anders reference", tally.wrong);
    }
}

/// Sends one pass of requests to a fresh server.
fn pass(args: &Args, prepared: &Prepared, rss_mb: &mut Vec<f64>) -> Result<Tally, String> {
    let server = ServerChild::spawn(&args.ddpa, args.workload.server_flags())?;
    let tally = prepared.measure(&server, prepared.pass_requests(), false, None)?;
    rss_mb.push(server.peak_rss_mb()?);
    server.shutdown()?;
    report_wrong(&tally);
    Ok(tally)
}

fn end_to_end(args: &Args, prepared: &Prepared) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let cpu_before = cpu_times();
    let mut rss_mb = Vec::new();
    // Passes continue while another one, as long as the last, ends before
    // the deadline.
    let mut best = pass(args, prepared, &mut rss_mb)?;
    let mut passes = 1;
    let mut pass_time = Duration::ZERO;
    while passes < MIN_PASSES || Instant::now() + pass_time < deadline {
        let started = Instant::now();
        best.absorb_replay(pass(args, prepared, &mut rss_mb)?)?;
        passes += 1;
        pass_time = started.elapsed();
    }
    let steal = host_steal_frac(cpu_before);

    let n = best.query_us.len();
    let p99_us = tail_percentile(&best.query_us, 0.99)
        .ok_or_else(|| format!("a pass holds only {n} queries; its p99 needs 1000"))?;
    let rss = rss_mb.iter().sum::<f64>() / rss_mb.len() as f64;
    let metrics = vec![
        metric("setup_s", median(&best.setup_s), "s"),
        metric("query_p50_us", median(&best.query_us), "us"),
        metric("query_p99_us", p99_us, "us"),
        metric("queries_per_s", best.queries_per_s(), "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];

    eprintln!(
        "{} (seed {}): {passes} passes, each {} sessions, {n} queries, {} edits",
        args.workload.name(),
        args.seed,
        best.setup_s.len(),
        best.edit_ms.len()
    );
    for m in &metrics {
        eprintln!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let edit_p50 = tail_percentile(&best.edit_ms, 0.5);
    let edit_p90 = tail_percentile(&best.edit_ms, 0.9);
    let show =
        |v: Option<f64>| v.map_or("n/a (no or too few edits)".into(), |v| format!("{v:>14.4}"));
    eprintln!("  {:<16} {} ms", "edit_p50_ms", show(edit_p50));
    eprintln!("  {:<16} {} ms", "edit_p90_ms", show(edit_p90));
    let (attempted, failed) = (best.attempted, best.failed);
    eprintln!(
        "  {:<16} {:>14.6} ratio ({failed} of {attempted} requests, all passes)",
        "failed_frac",
        ratio(failed as f64, attempted as f64),
    );
    eprintln!(
        "  {:<16} {steal:>14.4} share of CPU time stolen by the host",
        "host_steal"
    );
    Ok(Outcome {
        correct: best.wrong == 0,
        attempted,
        failed,
        metrics,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(args: &Args, prepared: &Prepared) -> Result<Outcome, String> {
    let server = ServerChild::spawn(&args.ddpa, args.workload.server_flags())?;
    // One discarded pass as warm-up, so neither phase below pays the
    // server's first allocations alone; its length sizes phase 1.
    let pass_requests = prepared.pass_requests();
    let started = Instant::now();
    let warmup = prepared.measure(&server, pass_requests, false, None)?;
    report_wrong(&warmup);
    let third = Duration::from_secs(args.seconds).as_secs_f64() / 3.0;
    let passes = (third / started.elapsed().as_secs_f64()).max(1.0) as u64;
    let requests = passes * pass_requests;

    // Phase 1: untraced, whole passes for about a third of the run.
    let plain = prepared.measure(&server, requests, false, None)?;

    // Phase 2: the same requests, traced, with client spans.
    // Half the span store for the client calls, the rest for the replay.
    let mut spans = Spans::default();
    spans.limit = spans::MAX_SPANS / 2;
    let traced = prepared.measure(&server, requests, true, Some(&mut spans))?;
    let timeouts = tcp::scraped_counter(&server, "server.timeouts")?;
    let errors = tcp::scraped_counter(&server, "server.errors")?;
    server.shutdown()?;
    report_wrong(&plain);
    report_wrong(&traced);

    // Phase 3: in-process replay of the same sequence.
    spans.limit = spans::MAX_SPANS;
    let rep = match prepared {
        Prepared::Warm(plan, snapshot) => replay::replay_warm(plan, snapshot, requests, &mut spans),
        Prepared::Jobs(_) => replay::replay_jobs(args.workload, args.seed, requests, &mut spans),
    };

    let path = args.work_dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let check = Command::new(&args.ddpa)
        .arg("jsonl-check")
        .arg(&path)
        .output()
        .map_err(|e| format!("jsonl-check: {e}"))?;
    if !check.status.success() {
        return Err(format!(
            "ddpa jsonl-check rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&check.stderr)
        ));
    }

    // Self time per layer over the stored spans, as a share of the stored
    // query round trips. `demand.query` spans have no children, so the
    // engine's self time over every replayed call is the sum of their
    // durations, stored or not.
    let mut by_layer: std::collections::BTreeMap<&str, f64> = Default::default();
    for (span, us) in spans.spans.iter().zip(spans::self_times(&spans.spans)) {
        *by_layer.entry(span.layer()).or_default() += us;
    }
    let stored_round_trips: f64 = spans
        .spans
        .iter()
        .filter(|s| s.name == "tcp.query")
        .map(spans::Span::duration_us)
        .sum();
    let round_trips: f64 = traced.query_us.iter().sum();
    let engine_self: f64 = rep.query_us.iter().sum();
    eprintln!(
        "{} (seed {}) traced: {} spans stored, {} past the cap -> {}",
        args.workload.name(),
        args.seed,
        spans.spans.len(),
        spans.dropped,
        path.display()
    );
    eprintln!("  self time per layer (ms, share of the stored query round trips):");
    for (layer, us) in &by_layer {
        eprintln!(
            "    {layer:<12} {:>12.3}  {:>7.3}",
            us / 1e3,
            ratio(*us, stored_round_trips)
        );
    }

    let s = &rep.stats;
    let p = |v: &[f64], q: f64| tail_percentile(v, q).unwrap_or(0.0);
    let med = |v: &[f64]| median(v);
    let metrics = vec![
        metric("ir.parse_ms", med(&rep.ir_parse_ms), "ms"),
        metric("constraints.lower_ms", med(&rep.lower_ms), "ms"),
        metric("constraints.parse_ms", med(&rep.parse_ms), "ms"),
        metric("constraints.print_ms", med(&rep.print_ms), "ms"),
        metric("constraints.diff_ms", med(&rep.diff_ms), "ms"),
        metric("serve.open_ms", med(&rep.open_ms), "ms"),
        metric(
            "serve.add_constraints_ms",
            med(&rep.add_constraints_ms),
            "ms",
        ),
        metric(
            "serve.outside_engine_us.p50",
            p(&traced.outside_us, 0.5),
            "us",
        ),
        metric(
            "serve.outside_engine_us.p99",
            p(&traced.outside_us, 0.99),
            "us",
        ),
        metric("serve.timeouts", timeouts as f64, "count"),
        metric("serve.errors", errors as f64, "count"),
        metric("demand.query_us.p50", p(&rep.query_us, 0.5), "us"),
        metric("demand.query_us.p99", p(&rep.query_us, 0.99), "us"),
        metric("demand.fires", s.fires as f64, "count"),
        metric("demand.goals", s.goals_activated as f64, "count"),
        metric("demand.work", s.work as f64, "count"),
        metric(
            "demand.fires_per_goal",
            ratio(s.fires as f64, s.goals_activated as f64),
            "ratio",
        ),
        metric(
            "demand.work_vs_exhaustive",
            ratio(s.work as f64, rep.propagations as f64),
            "ratio",
        ),
        metric("demand.drain_ms", rep.drain_ms, "ms"),
        metric("demand.goal_init_ms", rep.goal_init_ms, "ms"),
        metric("demand.cycles.collapse_ms", rep.collapse_ms, "ms"),
        metric("demand.cycles.runs", s.cycle_runs as f64, "count"),
        metric(
            "demand.cycles.collapsed",
            s.cycles_collapsed as f64,
            "count",
        ),
        metric(
            "demand.cache_hit_ratio",
            ratio(s.cache_hits as f64, s.queries as f64),
            "ratio",
        ),
        metric(
            "demand.share.hit_ratio",
            ratio(s.share_hits as f64, (s.share_hits + s.share_misses) as f64),
            "ratio",
        ),
        metric(
            "demand.dirty.retained_frac",
            ratio(rep.retained as f64, (rep.retained + rep.invalidated) as f64),
            "ratio",
        ),
        metric("demand.dirty.full", rep.full as f64, "count"),
        metric("demand.sched.steals", s.sched_steals as f64, "count"),
        metric("demand.sched.parked", s.sched_parked as f64, "count"),
        metric("demand.sched.wakeups", s.sched_wakeups as f64, "count"),
        metric("demand.sched.step_ms", rep.sched_step_ms, "ms"),
        metric(
            "obs.flight.events_per_query",
            ratio(s.flight_events as f64, s.queries as f64),
            "ratio",
        ),
        metric("snap.bytes", rep.snap_bytes as f64, "bytes"),
        metric("snap.read_ms", med(&rep.snap_read_ms), "ms"),
        metric("snap.restore_ms", med(&rep.snap_restore_ms), "ms"),
        metric(
            "trace.overhead_frac",
            ratio(traced.queries_per_s(), plain.queries_per_s()) - 1.0,
            "ratio",
        ),
        metric(
            "trace.attributed_frac",
            ratio(engine_self, round_trips),
            "ratio",
        ),
    ];
    for m in &metrics {
        eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: warmup.wrong == 0 && plain.wrong == 0 && traced.wrong == 0,
        attempted: warmup.attempted + plain.attempted + traced.attempted,
        failed: warmup.failed + plain.failed + traced.failed,
        metrics,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let work_dir = std::fs::canonicalize(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    println!("{}", record_line(args));

    // Untimed preparation: warm-edit's snapshots, or a program pool.
    let prepared = if args.workload == Workload::WarmEdit {
        let server = ServerChild::spawn(&args.ddpa, args.workload.server_flags())?;
        let plan = WarmPlan::new(args.seed);
        let snapshot = work_dir.join("warm-edit.snap");
        tcp::warm_prepare(&server, &plan, &snapshot)?;
        server.shutdown()?;
        Prepared::Warm(Box::new(plan), snapshot)
    } else {
        Prepared::Jobs(Jobs::new(args.workload, args.seed))
    };
    let out = if args.trace {
        traced(args, &prepared)
    } else {
        end_to_end(args, &prepared)
    };
    if let Prepared::Warm(_, snapshot) = &prepared {
        let _ = std::fs::remove_file(snapshot);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddpa-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ddpa-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
