//! In-process replay of a traced run: the same seeded jobs and queries,
//! sent straight to each layer's public functions with a span around
//! every call. Nothing inside the crates is instrumented for this; the
//! engine's own spans come from its profiling [`Obs`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_demand::{DemandConfig, DemandEngine, EngineStats, SharedMemo};
use ddpa_obs::Obs;
use ddpa_serve::{QuerySpec, Session};

use crate::inputs::{self, Job, Op, WarmPlan, Workload};
use crate::spans::{Open, Spans};

/// Per-call timings and engine counters gathered by a replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-session frontend times, milliseconds (one sample per session).
    pub ir_parse_ms: Vec<f64>,
    pub lower_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub print_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    /// Per-edit times, milliseconds.
    pub diff_ms: Vec<f64>,
    pub add_constraints_ms: Vec<f64>,
    pub snap_read_ms: Vec<f64>,
    pub snap_restore_ms: Vec<f64>,
    pub snap_bytes: u64,
    /// Engine query calls, microseconds.
    pub query_us: Vec<f64>,
    pub stats: EngineStats,
    /// Exhaustive-solver propagations over the replayed programs.
    pub propagations: u64,
    /// Engine span totals, milliseconds.
    pub drain_ms: f64,
    pub goal_init_ms: f64,
    pub collapse_ms: f64,
    pub sched_step_ms: f64,
    /// Summed edit outcomes.
    pub invalidated: u64,
    pub retained: u64,
    pub full: u64,
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

/// Adds `d` into `total`, field by field.
fn accumulate(total: &mut EngineStats, d: &EngineStats) {
    total.queries += d.queries;
    total.complete_queries += d.complete_queries;
    total.cache_hits += d.cache_hits;
    total.fires += d.fires;
    total.goals_activated += d.goals_activated;
    total.work += d.work;
    total.cycle_runs += d.cycle_runs;
    total.cycles_collapsed += d.cycles_collapsed;
    total.merged_goals += d.merged_goals;
    total.share_hits += d.share_hits;
    total.share_misses += d.share_misses;
    total.share_publishes += d.share_publishes;
    total.share_evictions += d.share_evictions;
    total.flight_events += d.flight_events;
    total.sched_parked += d.sched_parked;
    total.sched_resumed += d.sched_resumed;
    total.sched_steals += d.sched_steals;
    total.sched_wakeups += d.sched_wakeups;
}

/// Sum of the total time of every profile node named `name`, ms.
fn profile_ms(obs: &Obs, name: &str) -> f64 {
    fn walk(nodes: &[ddpa_obs::ProfileNode], name: &str) -> f64 {
        nodes
            .iter()
            .map(|n| {
                let own = if n.name == name {
                    n.total.as_secs_f64() * 1e3
                } else {
                    0.0
                };
                own + walk(&n.children, name)
            })
            .sum()
    }
    walk(&obs.profiler.snapshot(), name)
}

/// Times the frontend a session runs at `open`, call by call.
fn frontend(text: &str, minic: bool, spans: &mut Spans, req: u64, root: &Open, rep: &mut Replay) {
    let mut parse_us = 0.0;
    let cp = if minic {
        let open = spans.begin("ir.parse", req, Some(root));
        let ast = ddpa_ir::parse(text).expect("generated MiniC parses");
        ddpa_ir::check(&ast).expect("generated MiniC checks");
        rep.ir_parse_ms.push(ms(spans.end(open)));
        let open = spans.begin("constraints.lower", req, Some(root));
        let cp = ddpa_constraints::lower(&ast).expect("generated MiniC lowers");
        rep.lower_ms.push(ms(spans.end(open)));
        cp
    } else {
        let open = spans.begin("constraints.parse", req, Some(root));
        let cp = ddpa_constraints::parse_constraints(text).expect("generated text parses");
        parse_us += spans.end(open);
        cp
    };
    let open = spans.begin("constraints.print", req, Some(root));
    let canonical = ddpa_constraints::print_constraints(&cp);
    rep.print_ms.push(ms(spans.end(open)));
    let open = spans.begin("constraints.parse", req, Some(root));
    let served = ddpa_constraints::parse_constraints(&canonical).expect("canonical text parses");
    parse_us += spans.end(open);
    rep.parse_ms.push(ms(parse_us));
    drop(served);

    let open = spans.begin("serve.open", req, Some(root));
    let session = Session::open(text, minic, None).expect("session opens");
    rep.open_ms.push(ms(spans.end(open)));
    drop(session);
}

/// A profiling engine over `cp` with its own shared memo, as a session
/// builds it.
fn engine<'p>(
    cp: &'p ConstraintProgram,
    obs: &Obs,
    memo: Arc<SharedMemo>,
    workers: usize,
) -> DemandEngine<'p> {
    let mut engine =
        DemandEngine::with_obs(cp, DemandConfig::default(), obs.clone()).with_shared_memo(memo);
    engine.set_workers(workers);
    engine
}

/// Runs one query on `engine` under a `demand.query` span.
fn engine_query(
    engine: &mut DemandEngine<'_>,
    names: &HashMap<String, NodeId>,
    spec: &QuerySpec,
    spans: &mut Spans,
    req: u64,
    root: &Open,
    rep: &mut Replay,
) {
    let node = |n: &str| names[n];
    let open = spans.begin("demand.query", req, Some(root));
    match spec {
        QuerySpec::PointsTo { name } => {
            std::hint::black_box(engine.points_to(node(name)));
        }
        QuerySpec::PointedToBy { name } => {
            std::hint::black_box(engine.pointed_to_by(node(name)));
        }
        QuerySpec::MayAlias { a, b } => {
            std::hint::black_box(engine.may_alias(node(a), node(b)));
        }
        QuerySpec::CallTargets { site } => {
            let cs = ddpa_constraints::CallSiteId::from_u32(*site as u32);
            std::hint::black_box(engine.call_targets(cs));
        }
    }
    rep.query_us.push(spans.end(open));
}

fn name_index(cp: &ConstraintProgram) -> HashMap<String, NodeId> {
    cp.node_ids().map(|n| (cp.display_node(n), n)).collect()
}

fn finish_profile(obs: &Obs, rep: &mut Replay) {
    rep.drain_ms = profile_ms(obs, "demand.query.drain");
    rep.goal_init_ms = profile_ms(obs, "demand.query.goal_init");
    rep.collapse_ms = profile_ms(obs, "demand.cycles.collapse");
    rep.sched_step_ms = profile_ms(obs, "demand.sched.step");
}

/// Replays the first `queries` queries of a session-per-program workload.
pub fn replay_jobs(workload: Workload, seed: u64, queries: u64, spans: &mut Spans) -> Replay {
    let mut rep = Replay::default();
    let obs = Obs::with_profiling();
    let workers = if workload == Workload::WideParallel {
        2
    } else {
        1
    };
    let mut left = queries;
    // Sessions reopen the same programs: build each one once.
    let slots = workload.pool() as u64;
    let mut built: HashMap<u64, (Job, ConstraintProgram, u64)> = HashMap::new();
    for k in 0.. {
        if left == 0 {
            break;
        }
        let slot = k % slots;
        let (job, program, propagations) = built.entry(slot).or_insert_with(|| {
            let (job, program) = inputs::job(workload, seed, k);
            let (_, solve) = ddpa_anders::worklist::solve(&program, &Default::default());
            (job, program, solve.propagations)
        });
        let root = spans.begin("replay.job", k, None);
        frontend(&job.text, job.minic, spans, k, &root, &mut rep);
        let names = name_index(program);
        let mut e = engine(program, &obs, Arc::new(SharedMemo::new()), workers);
        let before = e.stats();
        for spec in job.queries.iter().take(left as usize) {
            engine_query(&mut e, &names, spec, spans, k, &root, &mut rep);
            left -= 1;
        }
        accumulate(&mut rep.stats, &e.stats().delta_since(&before));
        drop(e);
        spans.end(root);
        rep.propagations += *propagations;
    }
    finish_profile(&obs, &mut rep);
    rep
}

/// Replays warm-edit: snapshot load, session open and restore, then the
/// first `ops` operations of its stream. Reads go to a profiling engine
/// warmed from the same snapshot (edits skipped) and, with the edits, to
/// an in-process [`Session`].
pub fn replay_warm(plan: &WarmPlan, snapshot: &Path, ops: u64, spans: &mut Spans) -> Replay {
    let mut rep = Replay::default();
    let root = spans.begin("replay.job", 0, None);
    rep.snap_bytes = std::fs::metadata(snapshot).map_or(0, |m| m.len());
    let open = spans.begin("snap.read", 0, Some(&root));
    let snap = ddpa_snap::read_file(snapshot).expect("snapshot reads back");
    snap.verify_program(&plan.canonical)
        .expect("snapshot matches the program");
    rep.snap_read_ms.push(ms(spans.end(open)));

    frontend(&plan.text, false, spans, 0, &root, &mut rep);
    let mut session = Session::open(&plan.text, false, None).expect("session opens");
    let open = spans.begin("snap.restore", 0, Some(&root));
    session.restore_snapshot(&snap).expect("snapshot restores");
    rep.snap_restore_ms.push(ms(spans.end(open)));

    let stream = || plan.ops().take(ops as usize);

    // Engine layer: reads only, on the base program.
    let obs = Obs::with_profiling();
    let memo = Arc::new(SharedMemo::new());
    snap.install(&memo);
    let names = name_index(&plan.program);
    let mut e = engine(&plan.program, &obs, memo, 1);
    let before = e.stats();
    for op in stream() {
        if let Some(spec) = plan.spec(&op) {
            engine_query(&mut e, &names, &spec, spans, 0, &root, &mut rep);
        }
    }
    accumulate(&mut rep.stats, &e.stats().delta_since(&before));
    drop(e);
    finish_profile(&obs, &mut rep);
    let (_, solve) = ddpa_anders::worklist::solve(&plan.program, &Default::default());
    rep.propagations = solve.propagations;

    // Serve layer: reads and edits in stream order.
    for op in stream() {
        match &op {
            Op::Edit(line) => {
                let mut source = session.source().to_owned();
                inputs::append_edit(&mut source, line);
                let open = spans.begin("constraints.parse", 0, Some(&root));
                let edited = ddpa_constraints::parse_constraints(&source).expect("edit parses");
                spans.end(open);
                let open = spans.begin("constraints.diff", 0, Some(&root));
                std::hint::black_box(ddpa_constraints::diff_programs(session.program(), &edited));
                rep.diff_ms.push(ms(spans.end(open)));
                let open = spans.begin("serve.add_constraints", 0, Some(&root));
                let edit = session.add_constraints(line).expect("edit applies");
                rep.add_constraints_ms.push(ms(spans.end(open)));
                rep.invalidated += edit.invalidated as u64;
                rep.retained += edit.retained as u64;
                rep.full += u64::from(edit.full);
            }
            read => {
                let spec = plan.spec(read).expect("reads have specs");
                let resolved = session.resolve(&spec).expect("names resolve");
                spans.time("serve.query", 0, Some(&root), || {
                    std::hint::black_box(session.query(resolved, None, None))
                });
            }
        }
    }
    spans.end(root);
    rep
}
