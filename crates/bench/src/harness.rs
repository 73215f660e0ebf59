//! Runners for every experiment (tables T1–T8, figures F1–F3, ablation A2).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ddpa_anders::{worklist, SolverConfig};
use ddpa_callgraph::CallGraph;
use ddpa_constraints::{ConstraintProgram, NodeId, ProgramStats};
use ddpa_demand::{points_to_parallel, DemandConfig, DemandEngine, EngineStats, SharedMemo};
use ddpa_gen::Benchmark;
use ddpa_obs::Obs;
use ddpa_support::Summary;

/// All dereferenced pointers of `cp` (the dense query set).
pub fn deref_queries(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut q: Vec<NodeId> = cp
        .loads()
        .iter()
        .map(|l| l.ptr)
        .chain(cp.stores().iter().map(|s| s.ptr))
        .collect();
    q.sort_unstable();
    q.dedup();
    q
}

/// Function-pointer nodes of all indirect call sites (the paper's query set).
pub fn fp_queries(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut q: Vec<NodeId> = cp
        .indirect_callsites()
        .iter()
        .map(|&cs| match cp.callsite(cs).callee {
            ddpa_constraints::CalleeRef::Indirect(fp) => fp,
            ddpa_constraints::CalleeRef::Direct(_) => unreachable!("indirect sites only"),
        })
        .collect();
    q.sort_unstable();
    q.dedup();
    q
}

// ---------------------------------------------------------------------
// T1: benchmark characteristics
// ---------------------------------------------------------------------

/// One row of the program-characteristics table.
#[derive(Clone, Debug)]
pub struct T1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Program statistics.
    pub stats: ProgramStats,
}

/// Regenerates table T1.
pub fn run_t1(benches: &[Benchmark]) -> Vec<T1Row> {
    benches
        .iter()
        .map(|b| T1Row {
            name: b.name,
            stats: ProgramStats::of(&b.build()),
        })
        .collect()
}

// ---------------------------------------------------------------------
// T2 (+A1): exhaustive analysis times
// ---------------------------------------------------------------------

/// One row of the exhaustive-analysis table.
#[derive(Clone, Debug)]
pub struct T2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Worklist solver with cycle collapsing.
    pub time: Duration,
    /// Ablation (A1): cycle collapsing disabled.
    pub time_no_cycles: Duration,
    /// Work counters of the default configuration.
    pub stats: worklist::SolveStats,
    /// Total points-to set size (precision/size metric).
    pub total_pts: usize,
}

/// Regenerates table T2 and ablation A1.
pub fn run_t2(benches: &[Benchmark]) -> Vec<T2Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let start = Instant::now();
            let (solution, stats) = worklist::solve(&cp, &SolverConfig::default());
            let time = start.elapsed();
            let start = Instant::now();
            let _ = worklist::solve(&cp, &SolverConfig::without_cycle_elimination());
            let time_no_cycles = start.elapsed();
            T2Row {
                name: b.name,
                time,
                time_no_cycles,
                stats,
                total_pts: solution.total_pts_size(&cp),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T3: demand-driven call-graph client vs exhaustive
// ---------------------------------------------------------------------

/// One row of the demand-vs-exhaustive client table.
#[derive(Clone, Debug)]
pub struct T3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Indirect call-site queries issued.
    pub queries: usize,
    /// Queries fully resolved within budget.
    pub resolved: usize,
    /// Wall time for the whole demand-driven call-graph build.
    pub demand_time: Duration,
    /// Wall time for exhaustive solve + call-graph extraction.
    pub exhaustive_time: Duration,
    /// Average per-query wall time.
    pub avg_query_time: Duration,
    /// `exhaustive_time / demand_time`.
    pub speedup: f64,
    /// Demand targets identical to exhaustive targets on every site.
    pub precision_identical: bool,
    /// Mean callee-set size at indirect sites (precision of the client).
    pub avg_targets: f64,
    /// Mean rule firings per demand query (`demand.fires / demand.queries`).
    pub fires_per_query: f64,
    /// Total demand-side work units (`demand.work` counter).
    pub demand_work: u64,
    /// Total exhaustive-side work units (`anders.work` counter).
    pub exhaustive_work: u64,
    /// `demand_work / exhaustive_work`, or `None` when the exhaustive side
    /// did no measurable work.
    pub work_ratio: Option<f64>,
}

/// Regenerates table T3 with the given per-query budget.
pub fn run_t3(benches: &[Benchmark], budget: Option<u64>) -> Vec<T3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            // Both sides publish into one registry so the report can
            // compare demand-side and exhaustive-side work directly.
            let obs = Obs::new();

            let start = Instant::now();
            let solution = ddpa_anders::solve_with_obs(&cp, &obs);
            let exhaustive_cg = CallGraph::from_exhaustive(&cp, &solution);
            let exhaustive_time = start.elapsed();

            let config = DemandConfig {
                budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let start = Instant::now();
            let (demand_cg, stats) = CallGraph::from_demand(&mut engine);
            let demand_time = start.elapsed();

            let queries = stats.indirect_resolved + stats.indirect_fallback;
            let avg = if queries == 0 {
                Duration::ZERO
            } else {
                demand_time / queries as u32
            };
            let fires = obs.registry.counter_value("demand.fires");
            let demand_queries = obs.registry.counter_value("demand.queries");
            let demand_work = obs.registry.counter_value("demand.work");
            let exhaustive_work = obs.registry.counter_value("anders.work");
            T3Row {
                name: b.name,
                queries,
                resolved: stats.indirect_resolved,
                demand_time,
                exhaustive_time,
                avg_query_time: avg,
                speedup: exhaustive_time.as_secs_f64() / demand_time.as_secs_f64().max(1e-9),
                precision_identical: demand_cg.same_as(&exhaustive_cg),
                avg_targets: demand_cg.avg_indirect_targets(&cp),
                fires_per_query: if demand_queries == 0 {
                    0.0
                } else {
                    fires as f64 / demand_queries as f64
                },
                demand_work,
                exhaustive_work,
                work_ratio: (exhaustive_work != 0)
                    .then(|| demand_work as f64 / exhaustive_work as f64),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T4: caching ablation
// ---------------------------------------------------------------------

/// One row of the caching-ablation table.
#[derive(Clone, Debug)]
pub struct T4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of queries in the sample.
    pub queries: usize,
    /// Wall time with memoization across queries.
    pub time_cached: Duration,
    /// Wall time with the table cleared between queries.
    pub time_uncached: Duration,
    /// Total rule firings with caching.
    pub work_cached: u64,
    /// Total rule firings without caching.
    pub work_uncached: u64,
}

/// Regenerates table T4 over (up to) `max_queries` dereference queries.
pub fn run_t4(benches: &[Benchmark], max_queries: usize) -> Vec<T4Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let queries: Vec<NodeId> = deref_queries(&cp).into_iter().take(max_queries).collect();

            let mut cached = DemandEngine::new(&cp, DemandConfig::default());
            let start = Instant::now();
            let mut work_cached = 0;
            for &q in &queries {
                work_cached += cached.points_to(q).work;
            }
            let time_cached = start.elapsed();

            let mut uncached = DemandEngine::new(&cp, DemandConfig::default().without_caching());
            let start = Instant::now();
            let mut work_uncached = 0;
            for &q in &queries {
                work_uncached += uncached.points_to(q).work;
            }
            let time_uncached = start.elapsed();

            T4Row {
                name: b.name,
                queries: queries.len(),
                time_cached,
                time_uncached,
                work_cached,
                work_uncached,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F1: per-query cost distribution
// ---------------------------------------------------------------------

/// One row of the per-query cost-distribution figure.
#[derive(Clone, Debug)]
pub struct F1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Distribution of per-query work (rule firings), caching off so each
    /// query is measured in isolation.
    pub work: Summary,
}

/// Regenerates figure F1 over (up to) `max_queries` dereference queries.
pub fn run_f1(benches: &[Benchmark], max_queries: usize) -> Vec<F1Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let mut engine = DemandEngine::new(&cp, DemandConfig::default().without_caching());
            let mut samples: Vec<u64> = deref_queries(&cp)
                .into_iter()
                .take(max_queries)
                .map(|q| engine.points_to(q).work)
                .collect();
            F1Row {
                name: b.name,
                work: Summary::of(&mut samples),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F2: cumulative demand time vs. number of queries (crossover)
// ---------------------------------------------------------------------

/// One sampled point of the crossover figure.
#[derive(Clone, Debug)]
pub struct F2Point {
    /// Number of queries answered (with caching).
    pub k: usize,
    /// Cumulative demand time for those `k` queries.
    pub demand_time: Duration,
}

/// One benchmark's crossover curve.
#[derive(Clone, Debug)]
pub struct F2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The exhaustive baseline (constant in `k`).
    pub exhaustive_time: Duration,
    /// Demand curve, by increasing `k`.
    pub points: Vec<F2Point>,
    /// Smallest sampled `k` whose cumulative demand time exceeds the
    /// exhaustive time, if any.
    pub crossover_k: Option<usize>,
}

/// Regenerates figure F2. `ks` must be increasing.
pub fn run_f2(benches: &[Benchmark], ks: &[usize]) -> Vec<F2Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let start = Instant::now();
            let _ = ddpa_anders::solve(&cp);
            let exhaustive_time = start.elapsed();

            let queries = deref_queries(&cp);
            let mut points = Vec::new();
            let mut clamped: Vec<usize> = ks.iter().map(|&k| k.min(queries.len())).collect();
            clamped.dedup();
            for k in clamped {
                let mut engine = DemandEngine::new(&cp, DemandConfig::default());
                let start = Instant::now();
                for &q in &queries[..k] {
                    let _ = engine.points_to(q);
                }
                points.push(F2Point {
                    k,
                    demand_time: start.elapsed(),
                });
            }
            let crossover_k = points
                .iter()
                .find(|p| p.demand_time > exhaustive_time)
                .map(|p| p.k);
            F2Row {
                name: b.name,
                exhaustive_time,
                points,
                crossover_k,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F3: resolution rate vs. budget
// ---------------------------------------------------------------------

/// One sampled point of the budget-sweep figure.
#[derive(Clone, Debug)]
pub struct F3Point {
    /// Per-query budget (rule firings).
    pub budget: u64,
    /// Fraction of queries fully resolved under that budget.
    pub resolved: f64,
    /// Mean per-query work actually consumed.
    pub avg_work: f64,
}

/// One benchmark's budget sweep.
#[derive(Clone, Debug)]
pub struct F3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Points by increasing budget.
    pub points: Vec<F3Point>,
}

/// Regenerates figure F3 over (up to) `max_queries` dereference queries.
///
/// A fresh engine is used per budget so partial state from one sweep point
/// cannot help the next; caching stays on *within* a sweep point, matching
/// how a client would actually run under a budget.
pub fn run_f3(benches: &[Benchmark], budgets: &[u64], max_queries: usize) -> Vec<F3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let queries: Vec<NodeId> = deref_queries(&cp).into_iter().take(max_queries).collect();
            let mut points = Vec::new();
            for &budget in budgets {
                let mut engine =
                    DemandEngine::new(&cp, DemandConfig::default().with_budget(budget));
                let mut resolved = 0usize;
                let mut work = 0u64;
                for &q in &queries {
                    let r = engine.points_to(q);
                    resolved += r.complete as usize;
                    work += r.work;
                }
                let n = queries.len().max(1);
                points.push(F3Point {
                    budget,
                    resolved: resolved as f64 / n as f64,
                    avg_work: work as f64 / n as f64,
                });
            }
            F3Row {
                name: b.name,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A3: context-sensitivity (cloning) ablation
// ---------------------------------------------------------------------

/// One sampled point of the context-sensitivity ablation.
#[derive(Clone, Debug)]
pub struct A3Point {
    /// Call-string depth.
    pub k: usize,
    /// `(function, context)` clones created.
    pub clones: usize,
    /// Node-count expansion factor vs the original program.
    pub expansion: f64,
    /// Wall time to expand + solve the expansion.
    pub time: Duration,
    /// Σ projected points-to set sizes (lower = more precise).
    pub total_pts: usize,
}

/// One benchmark's context-sensitivity sweep.
#[derive(Clone, Debug)]
pub struct A3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The context-insensitive baseline total.
    pub ci_total_pts: usize,
    /// Points by increasing k.
    pub points: Vec<A3Point>,
}

/// Regenerates ablation A3: precision/cost of k-call-string cloning.
pub fn run_a3(benches: &[Benchmark], ks: &[usize]) -> Vec<A3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let ci = ddpa_anders::solve(&cp);
            let ci_total_pts = cp.node_ids().map(|n| ci.pts(n).len()).sum();
            let mut engine = DemandEngine::new(&cp, DemandConfig::default());
            let (cg, _) = CallGraph::from_demand(&mut engine);
            let points = ks
                .iter()
                .map(|&k| {
                    let start = Instant::now();
                    let cs = ddpa_cxt::CsAnalysis::run_with_callgraph(
                        &cp,
                        &cg,
                        &ddpa_cxt::CloneConfig::with_k(k),
                    );
                    let time = start.elapsed();
                    A3Point {
                        k,
                        clones: cs.cloned.clone_count,
                        expansion: cs.cloned.expansion_factor(&cp),
                        time,
                        total_pts: cs.total_pts(&cp),
                    }
                })
                .collect();
            A3Row {
                name: b.name,
                ci_total_pts,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T5: server throughput (ddpa-serve over loopback TCP)
// ---------------------------------------------------------------------

/// One row of the server-throughput table.
#[derive(Clone, Debug)]
pub struct T5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Queries per measured run.
    pub queries: usize,
    /// One batch request against a cold session (empty memo table).
    pub time_batch_cold: Duration,
    /// The identical batch repeated against the now-warm session.
    pub time_batch_warm: Duration,
    /// The batch fanned out over the server's worker pool (private
    /// per-worker engines, no shared warm cache).
    pub time_batch_parallel: Duration,
    /// One request round-trip per query on the warm session.
    pub time_sequential: Duration,
    /// Median sequential round-trip latency (µs).
    pub lat_p50_us: u64,
    /// 95th-percentile sequential round-trip latency (µs).
    pub lat_p95_us: u64,
    /// 99th-percentile sequential round-trip latency (µs).
    pub lat_p99_us: u64,
    /// `server.cache_hits.<session>` after the warm batch.
    pub cache_hits: u64,
}

impl T5Row {
    /// Queries per second for a measured duration.
    pub fn qps(&self, time: Duration) -> f64 {
        self.queries as f64 / time.as_secs_f64().max(1e-9)
    }
}

/// Regenerates table T5: query throughput of `ddpa-serve` over loopback
/// TCP, batch vs sequential round-trips, cold vs warm session caches.
///
/// Each benchmark gets a fresh in-process server on `127.0.0.1:0`; the
/// program travels over the wire as canonical constraint text, queries
/// are points-to over (up to) `max_queries` dereferenced pointers.
pub fn run_t5(benches: &[Benchmark], max_queries: usize) -> Vec<T5Row> {
    use ddpa_serve::proto::{build, QuerySpec};

    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let text = ddpa_constraints::print_constraints(&cp);
            let specs: Vec<QuerySpec> = deref_queries(&cp)
                .into_iter()
                .take(max_queries)
                .map(|n| QuerySpec::PointsTo {
                    name: cp.display_node(n),
                })
                .collect();

            let obs = Obs::new();
            let mut config = ddpa_serve::ServeConfig::default();
            config.max_batch = specs.len().max(config.max_batch);
            let server = ddpa_serve::Server::bind("127.0.0.1:0", config, obs.clone())
                .expect("bind loopback");
            let addr = server.local_addr();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());

            let mut client = ddpa_serve::Client::connect(addr).expect("connect");
            client
                .expect_ok(&build::open(b.name, &text, false, None))
                .expect("open session");

            // timeout_ms=0 disables the wall-clock deadline: T5 measures
            // raw throughput, not timeout behaviour.
            let batch = build::batch(b.name, &specs, false, None, Some(0));
            let start = Instant::now();
            client.expect_ok(&batch).expect("cold batch");
            let time_batch_cold = start.elapsed();

            let start = Instant::now();
            client.expect_ok(&batch).expect("warm batch");
            let time_batch_warm = start.elapsed();
            let cache_hits = obs
                .registry
                .counter_value(&format!("server.cache_hits.{}", b.name));

            let parallel = build::batch(b.name, &specs, true, None, Some(0));
            let start = Instant::now();
            client.expect_ok(&parallel).expect("parallel batch");
            let time_batch_parallel = start.elapsed();

            let latency = ddpa_obs::Histogram::default();
            let start = Instant::now();
            for spec in &specs {
                let t = Instant::now();
                client
                    .expect_ok(&build::query(b.name, spec, None, Some(0)))
                    .expect("sequential query");
                latency.record_duration(t.elapsed());
            }
            let time_sequential = start.elapsed();

            handle.shutdown();
            thread
                .join()
                .expect("server thread")
                .expect("clean shutdown");

            T5Row {
                name: b.name,
                queries: specs.len(),
                time_batch_cold,
                time_batch_warm,
                time_batch_parallel,
                time_sequential,
                lat_p50_us: latency.quantile(0.50),
                lat_p95_us: latency.quantile(0.95),
                lat_p99_us: latency.quantile(0.99),
                cache_hits,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T7: shared cross-worker memo table (concurrent tabling)
// ---------------------------------------------------------------------

/// One row of the shared-memo table.
#[derive(Clone, Debug)]
pub struct T7Row {
    /// Workload name (`cyc-<scale>`).
    pub name: String,
    /// Pointer-variable queries issued (round-robin across workers).
    pub queries: usize,
    /// Simulated worker count.
    pub workers: usize,
    /// Rule firings for one engine answering the whole batch (the floor).
    pub fires_single: u64,
    /// Total rule firings across workers sharing one memo table.
    pub fires_shared: u64,
    /// Total rule firings across workers with private tables only.
    pub fires_private: u64,
    /// Completed goals installed from the shared table.
    pub share_hits: u64,
    /// Completed goals published to the shared table.
    pub share_publishes: u64,
    /// Every query answer bit-identical across all three configurations.
    pub identical: bool,
}

impl T7Row {
    /// `fires_shared / fires_single` — near 1.0 when tabling works.
    pub fn shared_ratio(&self) -> f64 {
        self.fires_shared as f64 / self.fires_single.max(1) as f64
    }

    /// `fires_private / fires_single` — near the worker count without it.
    pub fn private_ratio(&self) -> f64 {
        self.fires_private as f64 / self.fires_single.max(1) as f64
    }
}

/// Regenerates table T7: total work of a multi-worker batch with and
/// without the shared cross-worker memo table ([`SharedMemo`]).
///
/// Workers are simulated as `workers` sequential engines with queries
/// dispatched round-robin, which interleaves publish/consume the way a
/// real parallel batch does while keeping the work counts deterministic
/// on any host. The cyclic suite's queries overlap heavily in subgoals,
/// so private tables redo the shared closure once per worker (≈ `workers`
/// × the single-engine floor) while the shared table collapses the batch
/// back to roughly one engine's work.
pub fn run_t7(scales: &[usize], workers: usize) -> Vec<T7Row> {
    assert!(workers > 0, "need at least one simulated worker");
    scales
        .iter()
        .map(|&scale| {
            let cp = ddpa_gen::generate_cyclic(&ddpa_gen::CyclicConfig::sized(42, scale));
            let queries: Vec<NodeId> = cp
                .node_ids()
                .filter(|&n| !cp.display_node(n).contains("obj"))
                .collect();

            let mut single = DemandEngine::new(&cp, DemandConfig::default());
            let baseline: Vec<Vec<NodeId>> =
                queries.iter().map(|&q| single.points_to(q).pts).collect();
            let fires_single = single.stats().fires;

            let run_fleet = |shared: Option<Arc<SharedMemo>>| {
                let mut engines: Vec<DemandEngine> = (0..workers)
                    .map(|_| {
                        let engine = DemandEngine::new(&cp, DemandConfig::default());
                        match &shared {
                            Some(s) => engine.with_shared_memo(Arc::clone(s)),
                            None => engine,
                        }
                    })
                    .collect();
                let answers: Vec<Vec<NodeId>> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| engines[i % workers].points_to(q).pts)
                    .collect();
                let stats: Vec<EngineStats> = engines.iter().map(|e| e.stats()).collect();
                (answers, stats)
            };
            let (ans_shared, stats_shared) = run_fleet(Some(Arc::new(SharedMemo::new())));
            let (ans_private, stats_private) = run_fleet(None);

            T7Row {
                name: format!("cyc-{scale}"),
                queries: queries.len(),
                workers,
                fires_single,
                fires_shared: stats_shared.iter().map(|s| s.fires).sum(),
                fires_private: stats_private.iter().map(|s| s.fires).sum(),
                share_hits: stats_shared.iter().map(|s| s.share_hits).sum(),
                share_publishes: stats_shared.iter().map(|s| s.share_publishes).sum(),
                identical: ans_shared == baseline && ans_private == baseline,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T8: durable snapshots — cold vs restored time-to-first-answer
// ---------------------------------------------------------------------

/// One row of the snapshot warm-start table.
#[derive(Clone, Debug)]
pub struct T8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Dereference queries answered in each run.
    pub queries: usize,
    /// Completed fixpoints captured in the snapshot.
    pub entries: usize,
    /// Snapshot size on disk, in bytes.
    pub bytes: usize,
    /// Cold run: fresh engine deduces every answer from scratch.
    pub time_cold: Duration,
    /// Restored run: read + verify + warm-start + answer the same set.
    pub time_restored: Duration,
    /// Restored answers bit-identical to the cold answers.
    pub identical: bool,
}

impl T8Row {
    /// `time_cold / time_restored` — the headline warm-start gain.
    pub fn speedup(&self) -> f64 {
        self.time_cold.as_secs_f64() / self.time_restored.as_secs_f64().max(1e-9)
    }
}

/// Regenerates table T8: time-to-first-answer of a cold engine vs one
/// warm-started from a durable snapshot ([`ddpa_snap`]).
///
/// The cold run answers every dereference query from scratch, publishing
/// its completed fixpoints into a [`SharedMemo`]; the snapshot of that
/// table round-trips through an actual file, and the restored run
/// measures the full restore path a server pays on startup: read,
/// checksum + program-hash verification, warm-start install, then
/// answering the identical query set.
pub fn run_t8(benches: &[Benchmark]) -> Vec<T8Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let text = ddpa_constraints::print_constraints(&cp);
            let queries: Vec<NodeId> = deref_queries(&cp);

            let shared = Arc::new(SharedMemo::new());
            let mut cold = DemandEngine::new(&cp, DemandConfig::default())
                .with_shared_memo(Arc::clone(&shared));
            let start = Instant::now();
            let cold_answers: Vec<Vec<NodeId>> =
                queries.iter().map(|&q| cold.points_to(q).pts).collect();
            let time_cold = start.elapsed();

            let snapshot = ddpa_snap::Snapshot::of_memo(&shared, text.clone());
            let dir = std::env::temp_dir().join("ddpa-bench-t8");
            let path = dir.join(format!("{}.snap", b.name));
            let bytes = ddpa_snap::write_file(&snapshot, &path).expect("write snapshot");

            let start = Instant::now();
            let restored = ddpa_snap::read_file(&path).expect("read snapshot");
            restored.verify_program(&text).expect("same program");
            let mut warm = DemandEngine::new(&cp, DemandConfig::default());
            warm.warm_start(&restored.entries);
            let warm_answers: Vec<Vec<NodeId>> =
                queries.iter().map(|&q| warm.points_to(q).pts).collect();
            let time_restored = start.elapsed();
            let _ = std::fs::remove_file(&path);

            T8Row {
                name: b.name,
                queries: queries.len(),
                entries: snapshot.entries.len(),
                bytes,
                time_cold,
                time_restored,
                identical: cold_answers == warm_answers,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A2: parallel query driver scaling
// ---------------------------------------------------------------------

/// One point of the parallel-scaling figure.
#[derive(Clone, Debug)]
pub struct A2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// (threads, wall time, speedup vs 1 thread), by increasing threads.
    pub points: Vec<(usize, Duration, f64)>,
}

/// Regenerates figure A2 over (up to) `max_queries` dereference queries.
///
/// Queries run **uncached** so per-thread work is fixed and the figure
/// isolates raw scheduling behaviour. With caching on, workers share one
/// memo table (concurrent tabling — see [`run_t7`]): the batch then does
/// roughly the work of a single cached engine, so wall-clock "speedup"
/// would measure how fast one engine's work drains rather than scaling.
/// T7 measures that work-sharing directly in deterministic rule firings;
/// `EXPERIMENTS.md` §A2 discusses the trade-off.
pub fn run_a2(benches: &[Benchmark], threads: &[usize], max_queries: usize) -> Vec<A2Row> {
    let config = DemandConfig::default().without_caching();
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let queries: Vec<NodeId> = deref_queries(&cp).into_iter().take(max_queries).collect();
            let mut base = Duration::ZERO;
            let mut points = Vec::new();
            for &t in threads {
                let start = Instant::now();
                let _ = points_to_parallel(&cp, &queries, t, &config);
                let time = start.elapsed();
                if t == threads[0] {
                    base = time;
                }
                let speedup = base.as_secs_f64() / time.as_secs_f64().max(1e-9);
                points.push((t, time, speedup));
            }
            A2Row {
                name: b.name,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T9: flight-recorder overhead + critical-path parallelism headroom
// ---------------------------------------------------------------------

/// One row of the flight-recorder / critical-path table.
#[derive(Clone, Debug)]
pub struct T9Row {
    /// Workload name (`cyc-<scale>`).
    pub name: String,
    /// Pointer-variable queries issued.
    pub queries: usize,
    /// Total attributed deduction work `W`.
    pub work: u64,
    /// Critical-path span `S` over the goal-graph condensation.
    pub span: u64,
    /// `W / S` — the parallelism-headroom bound.
    pub headroom: f64,
    /// Live goals in the goal graph.
    pub goals: usize,
    /// Dependency edges between distinct goals.
    pub edges: usize,
    /// Flight events landed in the ring at the default sampling.
    pub flight_recorded: u64,
    /// Events evicted by ring wrap-around.
    pub flight_dropped: u64,
    /// Wall time with the recorder off (best of the repeats).
    pub time_off: Duration,
    /// Wall time with the recorder on (best of the repeats).
    pub time_on: Duration,
    /// Every query answer bit-identical recorder on vs off.
    pub identical: bool,
}

impl T9Row {
    /// Recorder overhead relative to the recorder-off wall time
    /// (0.03 = 3% slower with the recorder on).
    pub fn overhead(&self) -> f64 {
        self.time_on.as_secs_f64() / self.time_off.as_secs_f64().max(1e-9) - 1.0
    }
}

/// Regenerates table T9: what the deduction flight recorder costs, and
/// what the goal graph's critical path says about parallelism headroom.
///
/// Each scale of the cyclic suite is answered twice — recorder off, then
/// on at the default capacity/sampling — taking the best wall time of
/// `repeats` runs per configuration so scheduler noise does not swamp
/// the few-percent effect being measured. `W` (total attributed work),
/// `S` (the heaviest dependent chain over the SCC condensation of the
/// goal graph) and `W/S` come from the recorder-on engine's drained
/// table. Recording must never change deduction, which the row asserts
/// via `identical`.
pub fn run_t9(scales: &[usize], repeats: usize) -> Vec<T9Row> {
    assert!(repeats > 0, "need at least one timed run");
    scales
        .iter()
        .map(|&scale| {
            let cp = ddpa_gen::generate_cyclic(&ddpa_gen::CyclicConfig::sized(42, scale));
            let queries: Vec<NodeId> = cp
                .node_ids()
                .filter(|&n| !cp.display_node(n).contains("obj"))
                .collect();
            let run = |config: &DemandConfig| {
                let mut best = Duration::MAX;
                let mut kept = None;
                for _ in 0..repeats {
                    let mut engine = DemandEngine::new(&cp, config.clone());
                    let start = Instant::now();
                    let answers: Vec<Vec<NodeId>> =
                        queries.iter().map(|&q| engine.points_to(q).pts).collect();
                    best = best.min(start.elapsed());
                    kept = Some((answers, engine));
                }
                let (answers, engine) = kept.expect("at least one run");
                (answers, best, engine)
            };
            let (ans_off, time_off, _) = run(&DemandConfig::default().without_flight_recorder());
            let (ans_on, time_on, engine) = run(&DemandConfig::default());
            let cpath = engine.critical_path();
            let (flight_recorded, flight_dropped) = engine
                .flight_recorder()
                .map(|f| (f.recorded(), f.dropped()))
                .unwrap_or((0, 0));
            T9Row {
                name: format!("cyc-{scale}"),
                queries: queries.len(),
                work: cpath.work,
                span: cpath.span,
                headroom: cpath.headroom,
                goals: cpath.goals,
                edges: cpath.edges,
                flight_recorded,
                flight_dropped,
                time_off,
                time_on,
                identical: ans_on == ans_off,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T11: edit-heavy sessions — selective invalidation vs full reload
// ---------------------------------------------------------------------

/// One row of the edit-heavy workload table.
#[derive(Clone, Debug)]
pub struct T11Row {
    /// Workload name (`edit-<chains>x<len>`).
    pub name: String,
    /// Single-constraint edits applied in the script.
    pub edits: usize,
    /// Queries re-answered after every edit (one per chain tail).
    pub queries: usize,
    /// Mean fraction of completed goals kept warm across the edits.
    pub retained_frac: f64,
    /// Goals invalidated, summed over the script.
    pub invalidated: usize,
    /// Goals retained, summed over the script.
    pub retained: usize,
    /// Total wall time to apply every edit incrementally and re-answer
    /// the query set after each (best of the repeats).
    pub time_incremental: Duration,
    /// Same script with full invalidation: a cold engine per edit
    /// re-answers the query set (best of the repeats).
    pub time_full: Duration,
    /// Incremental answers bit-identical to the cold engine's at every
    /// generation.
    pub identical: bool,
}

impl T11Row {
    /// Wall-clock advantage of keeping untouched goals warm.
    pub fn speedup(&self) -> f64 {
        self.time_full.as_secs_f64() / self.time_incremental.as_secs_f64().max(1e-9)
    }
}

/// Builds generation `upto` of the T11 workload: `chains` disjoint copy
/// chains of length `len`, where edit `k` repoints the head of chain
/// `k % chains` at a fresh object — dirtying exactly that chain's goals
/// and leaving every other chain's fixpoints warm.
fn edit_workload(chains: usize, len: usize, upto: usize) -> ConstraintProgram {
    let mut b = ddpa_constraints::ConstraintBuilder::new();
    let mut tails = Vec::new();
    for c in 0..chains {
        let obj = b.var(&format!("obj{c}"));
        let mut prev = b.var(&format!("c{c}_0"));
        b.addr_of(prev, obj);
        for i in 1..len {
            let v = b.var(&format!("c{c}_{i}"));
            b.copy(v, prev);
            prev = v;
        }
        tails.push(prev);
    }
    for k in 0..upto {
        let obj = b.var(&format!("eobj{k}"));
        let head = format!("c{}_0", k % chains);
        let head = b.var(&head); // existing name: returns the minted node
        b.addr_of(head, obj);
    }
    b.build()
}

/// Regenerates table T11: the `add-constraints` path under an edit-heavy
/// session. A warm engine steps through `edits` single-constraint edits
/// via `reload_incremental`, re-answering one query per chain tail after
/// each; the baseline pays full invalidation (a cold engine per edit)
/// for the same answers. Support-set dirtying keeps `(chains-1)/chains`
/// of the table warm per edit, which is where the speedup comes from.
pub fn run_t11(shapes: &[(usize, usize)], edits: usize, repeats: usize) -> Vec<T11Row> {
    assert!(repeats > 0, "need at least one timed run");
    shapes
        .iter()
        .map(|&(chains, len)| {
            let gens: Vec<ConstraintProgram> =
                (0..=edits).map(|g| edit_workload(chains, len, g)).collect();
            let tails: Vec<Vec<NodeId>> = gens
                .iter()
                .map(|cp| {
                    (0..chains)
                        .map(|c| {
                            let name = format!("c{c}_{}", len - 1);
                            cp.node_ids()
                                .find(|&n| cp.display_node(n) == name)
                                .expect("chain tail exists")
                        })
                        .collect()
                })
                .collect();

            let mut best_inc = Duration::MAX;
            let mut best_full = Duration::MAX;
            let (mut invalidated, mut retained) = (0usize, 0usize);
            let mut retained_fracs = Vec::new();
            let mut identical = true;
            for rep in 0..repeats {
                let mut engine = DemandEngine::new(&gens[0], DemandConfig::default());
                for &t in &tails[0] {
                    let _ = engine.points_to(t);
                }
                let mut time_inc = Duration::ZERO;
                let mut time_full = Duration::ZERO;
                for g in 1..=edits {
                    let start = Instant::now();
                    let diff = ddpa_constraints::diff_programs(&gens[g - 1], &gens[g]);
                    let stats = engine.reload_incremental(&gens[g], &diff);
                    let warm: Vec<_> = tails[g].iter().map(|&t| engine.points_to(t)).collect();
                    time_inc += start.elapsed();
                    assert!(!stats.full, "append-only edit stays incremental");
                    if rep == 0 {
                        invalidated += stats.invalidated;
                        retained += stats.retained;
                        let total = stats.invalidated + stats.retained;
                        retained_fracs.push(stats.retained as f64 / total.max(1) as f64);
                    }

                    let start = Instant::now();
                    let mut cold = DemandEngine::new(&gens[g], DemandConfig::default());
                    let full: Vec<_> = tails[g].iter().map(|&t| cold.points_to(t)).collect();
                    time_full += start.elapsed();
                    identical &= warm
                        .iter()
                        .zip(&full)
                        .all(|(w, f)| w.pts == f.pts && w.complete && f.complete);
                }
                best_inc = best_inc.min(time_inc);
                best_full = best_full.min(time_full);
            }
            T11Row {
                name: format!("edit-{chains}x{len}"),
                edits,
                queries: chains,
                retained_frac: retained_fracs.iter().sum::<f64>()
                    / retained_fracs.len().max(1) as f64,
                invalidated,
                retained,
                time_incremental: best_inc,
                time_full: best_full,
                identical,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Benchmark> {
        vec![ddpa_gen::suite().into_iter().nth(1).expect("syn-1k exists")]
    }

    #[test]
    fn t11_edits_retain_goals_and_stay_exact() {
        let rows = run_t11(&[(8, 12)], 4, 1);
        let r = &rows[0];
        assert!(r.identical, "incremental answers match cold engines: {r:?}");
        assert!(r.retained > 0, "untouched chains stay warm: {r:?}");
        assert!(
            r.retained_frac > 0.5,
            "single-chain edits keep most of the table: {r:?}"
        );
        assert!(r.invalidated > 0, "the edited chain is dirtied: {r:?}");
    }

    #[test]
    fn t1_reports_characteristics() {
        let rows = run_t1(&tiny());
        assert_eq!(rows[0].name, "syn-1k");
        assert!(rows[0].stats.assignments() >= 900);
    }

    #[test]
    fn t3_demand_matches_exhaustive_precision() {
        let rows = run_t3(&tiny(), None);
        assert!(rows[0].precision_identical);
        assert_eq!(rows[0].resolved, rows[0].queries);
    }

    #[test]
    fn t3_reports_registry_work_metrics() {
        let rows = run_t3(&tiny(), None);
        let r = &rows[0];
        assert!(r.fires_per_query > 0.0, "demand queries fire rules: {r:?}");
        assert!(r.demand_work > 0, "demand side records work: {r:?}");
        assert!(r.exhaustive_work > 0, "exhaustive side records work: {r:?}");
        let ratio = r.work_ratio.expect("exhaustive work is nonzero");
        assert!((ratio - r.demand_work as f64 / r.exhaustive_work as f64).abs() < 1e-12);
    }

    #[test]
    fn f3_resolution_rate_is_monotone() {
        let rows = run_f3(&tiny(), &[1, 100, u64::MAX], 50);
        let pts = &rows[0].points;
        assert!(pts[0].resolved <= pts[1].resolved + 1e-9);
        assert!(pts[1].resolved <= pts[2].resolved + 1e-9);
        assert!(
            (pts[2].resolved - 1.0).abs() < 1e-9,
            "an effectively unlimited budget resolves all: {:?}",
            pts[2]
        );
    }

    #[test]
    fn t4_caching_reduces_work() {
        let rows = run_t4(&tiny(), 100);
        assert!(rows[0].work_cached <= rows[0].work_uncached);
    }

    #[test]
    fn t5_server_throughput_warm_beats_cold_on_work() {
        let rows = run_t5(&tiny(), 50);
        let r = &rows[0];
        assert_eq!(r.name, "syn-1k");
        assert!(r.queries > 0 && r.queries <= 50);
        assert!(
            r.cache_hits > 0,
            "the repeated batch must hit the warm session cache: {r:?}"
        );
        assert!(r.qps(r.time_batch_warm) > 0.0);
    }

    #[test]
    fn t7_shared_table_collapses_cross_worker_duplication() {
        let rows = run_t7(&[6, 8], 4);
        for r in &rows {
            assert!(r.identical, "answers must be bit-identical: {r:?}");
            assert!(
                r.share_hits > 0,
                "workers must reuse published goals: {r:?}"
            );
            assert!(r.share_publishes > 0, "fixpoints must be published: {r:?}");
            assert!(
                r.shared_ratio() <= 1.2,
                "shared batch must do ≈ single-engine work: {r:?}"
            );
            assert!(
                r.private_ratio() >= 2.0,
                "private tables must duplicate the closure: {r:?}"
            );
        }
    }

    #[test]
    fn t8_restored_engine_is_faster_with_identical_answers() {
        let rows = run_t8(&tiny());
        for r in &rows {
            assert!(r.identical, "answers must be bit-identical: {r:?}");
            assert!(r.entries > 0, "snapshot must capture fixpoints: {r:?}");
            assert!(r.bytes > 0, "snapshot must land on disk: {r:?}");
            assert!(
                r.speedup() >= 2.0,
                "warm start must beat cold deduction clearly: {r:?}"
            );
        }
    }

    #[test]
    fn t9_reports_headroom_and_identical_answers() {
        let rows = run_t9(&[6, 8], 1);
        for r in &rows {
            assert!(r.identical, "recording must not change answers: {r:?}");
            assert!(r.work > 0 && r.span > 0, "work attributed: {r:?}");
            assert!(r.span <= r.work, "span bounded by total work: {r:?}");
            assert!(r.headroom >= 1.0 - 1e-9, "headroom is W/S >= 1: {r:?}");
            assert!((r.headroom - r.work as f64 / r.span as f64).abs() < 1e-9);
            assert!(r.goals > 0, "live goals in the graph: {r:?}");
            assert!(r.flight_recorded > 0, "recorder captured events: {r:?}");
        }
    }

    #[test]
    fn query_sets_are_nonempty() {
        let cp = tiny()[0].build();
        assert!(!deref_queries(&cp).is_empty());
        assert!(!fp_queries(&cp).is_empty());
    }
}
