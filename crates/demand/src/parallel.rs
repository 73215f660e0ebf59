//! Parallel query driver.
//!
//! Demand-driven queries are independent, which makes the analysis
//! embarrassingly parallel across queries: each worker owns a private
//! engine and pulls the next query from a shared atomic counter, so
//! heavy-tailed per-query costs balance dynamically. Results are
//! deterministic and identical to the sequential engine's.
//!
//! When caching is on (the default), the workers' engines additionally
//! share one [`SharedMemo`] table: a subgoal completed by any worker is
//! published and installed by the others at zero rule firings, so the
//! batch does roughly the work of a single cached engine rather than N
//! copies of it (the concurrent-tabling upgrade; `EXPERIMENTS.md` §A2
//! records the before/after). With caching off every query still starts
//! from scratch and nothing is shared.
//!
//! Workers run on a [`ThreadPool`]: [`points_to_parallel`] spins up a
//! private pool per call (the historical behaviour), while long-lived
//! hosts like `ddpa-serve` keep one pool alive and fan batches out through
//! [`points_to_on_pool`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ddpa_constraints::{ConstraintProgram, NodeId};

use crate::config::DemandConfig;
use crate::engine::DemandEngine;
use crate::pool::ThreadPool;
use crate::query::QueryResult;
use crate::share::SharedMemo;

/// Answers `queries` in parallel on `threads` workers.
///
/// Returns one [`QueryResult`] per query, in input order.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker job panics.
///
/// # Examples
///
/// ```
/// use ddpa_demand::{points_to_parallel, DemandConfig};
///
/// let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n")?;
/// let queries: Vec<_> = cp.node_ids().collect();
/// let results = points_to_parallel(&cp, &queries, 2, &DemandConfig::default());
/// assert_eq!(results.len(), queries.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn points_to_parallel(
    cp: &ConstraintProgram,
    queries: &[NodeId],
    threads: usize,
    config: &DemandConfig,
) -> Vec<QueryResult> {
    assert!(threads > 0, "need at least one worker thread");
    if threads == 1 || queries.len() <= 1 {
        // One query with several threads: parallelize *inside* the query
        // via the frame scheduler instead of across queries.
        let workers = if queries.len() == 1 { threads } else { 1 };
        let mut engine = DemandEngine::new(cp, config.clone().with_workers(workers));
        return queries.iter().map(|&q| engine.points_to(q)).collect();
    }
    let pool = ThreadPool::new(threads);
    points_to_on_pool(cp, queries, &pool, config)
}

/// Answers `queries` in parallel on an existing [`ThreadPool`].
///
/// Identical to [`points_to_parallel`] but reuses the caller's workers —
/// one engine per worker job (sharing a batch-wide [`SharedMemo`] when
/// caching is on), queries claimed dynamically. The call blocks until
/// the whole batch is answered.
pub fn points_to_on_pool(
    cp: &ConstraintProgram,
    queries: &[NodeId],
    pool: &ThreadPool,
    config: &DemandConfig,
) -> Vec<QueryResult> {
    if queries.len() <= 1 || pool.threads() == 1 {
        let workers = if queries.len() == 1 {
            pool.threads()
        } else {
            1
        };
        let mut engine = DemandEngine::new(cp, config.clone().with_workers(workers));
        return queries.iter().map(|&q| engine.points_to(q)).collect();
    }
    let shared = config.caching.then(|| Arc::new(SharedMemo::new()));

    let mut results: Vec<Option<QueryResult>> = vec![None; queries.len()];
    let next = AtomicUsize::new(0);

    // Hand each worker a distinct &mut view of the result slots through a
    // mutex-free claim protocol: a worker that claims index i via `next`
    // is the only one to touch `slot_ptrs[i]`.
    #[derive(Clone, Copy)]
    struct SlotPtr(*mut Option<QueryResult>);
    unsafe impl Send for SlotPtr {}
    unsafe impl Sync for SlotPtr {}
    let slots: Vec<SlotPtr> = results.iter_mut().map(|r| SlotPtr(r as *mut _)).collect();
    let slots = &slots;
    let next = &next;

    let workers = pool.threads().min(queries.len());
    pool.scoped((0..workers).map(|_| {
        let config = config.clone();
        let shared = shared.clone();
        Box::new(move || {
            // Worker engines stay sequential: nesting a frame scheduler
            // inside each pool worker would oversubscribe the machine.
            let mut engine = DemandEngine::new(cp, config.with_workers(1));
            if let Some(shared) = shared {
                engine = engine.with_shared_memo(shared);
            }
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let answer = engine.points_to(queries[i]);
                // SAFETY: index i was claimed exclusively by this worker
                // via the atomic counter; each slot outlives the scoped
                // batch and is written at most once.
                let slot: SlotPtr = slots[i];
                unsafe {
                    *slot.0 = Some(answer);
                }
            }
        }) as Box<dyn FnOnce() + Send + '_>
    }));

    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_program(n: usize) -> ConstraintProgram {
        let mut b = ddpa_constraints::ConstraintBuilder::new();
        let o = b.var("obj");
        let first = b.var("v0");
        b.addr_of(first, o);
        let mut prev = first;
        for i in 1..n {
            let v = b.var(&format!("v{i}"));
            b.copy(v, prev);
            prev = v;
        }
        b.build()
    }

    #[test]
    fn parallel_matches_sequential() {
        let cp = chain_program(64);
        let queries: Vec<_> = cp.node_ids().collect();
        let config = DemandConfig::default();
        let sequential = points_to_parallel(&cp, &queries, 1, &config);
        for threads in [2, 4] {
            let parallel = points_to_parallel(&cp, &queries, threads, &config);
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(s.pts, p.pts);
                assert_eq!(s.complete, p.complete);
            }
        }
    }

    #[test]
    fn single_query_uses_intra_query_parallelism() {
        let cp = chain_program(64);
        let q = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "v63")
            .expect("v63");
        let sequential = points_to_parallel(&cp, &[q], 1, &DemandConfig::default());
        let parallel = points_to_parallel(&cp, &[q], 4, &DemandConfig::default());
        assert_eq!(sequential[0].pts, parallel[0].pts);
        assert!(parallel[0].complete);
    }

    #[test]
    fn handles_more_threads_than_queries() {
        let cp = chain_program(3);
        let queries: Vec<_> = cp.node_ids().take(2).collect();
        let results = points_to_parallel(&cp, &queries, 8, &DemandConfig::default());
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.complete));
    }

    #[test]
    fn empty_query_list() {
        let cp = chain_program(2);
        let results = points_to_parallel(&cp, &[], 4, &DemandConfig::default());
        assert!(results.is_empty());
    }

    #[test]
    fn uncached_parallel_matches_too() {
        let cp = chain_program(32);
        let queries: Vec<_> = cp.node_ids().collect();
        let config = DemandConfig::default().without_caching();
        let sequential = points_to_parallel(&cp, &queries, 1, &config);
        let parallel = points_to_parallel(&cp, &queries, 3, &config);
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.pts, p.pts);
        }
    }

    #[test]
    fn copy_rings_match_across_workers() {
        // A closed copy ring: every worker's private engine solves the
        // ring independently, and answers must match the sequential run.
        let mut b = ddpa_constraints::ConstraintBuilder::new();
        let ring: Vec<_> = (0..48).map(|i| b.var(&format!("r{i}"))).collect();
        for i in 1..ring.len() {
            b.copy(ring[i], ring[i - 1]);
        }
        b.copy(ring[0], ring[ring.len() - 1]);
        for j in 0..6 {
            let o = b.var(&format!("o{j}"));
            b.addr_of(ring[j * 8], o);
        }
        let cp = b.build();
        let queries: Vec<_> = ring.clone();
        let config = DemandConfig::default();
        let baseline = points_to_parallel(&cp, &queries, 1, &config);
        for threads in [2, 4] {
            let parallel = points_to_parallel(&cp, &queries, threads, &config);
            for (s, p) in baseline.iter().zip(&parallel) {
                assert_eq!(s.pts, p.pts);
                assert!(p.complete);
            }
        }
    }

    #[test]
    fn shared_pool_answers_repeated_batches() {
        let cp = chain_program(48);
        let queries: Vec<_> = cp.node_ids().collect();
        let config = DemandConfig::default();
        let sequential = points_to_parallel(&cp, &queries, 1, &config);
        let pool = ThreadPool::new(4);
        for _ in 0..3 {
            let batch = points_to_on_pool(&cp, &queries, &pool, &config);
            for (s, p) in sequential.iter().zip(&batch) {
                assert_eq!(s.pts, p.pts);
            }
        }
    }
}
