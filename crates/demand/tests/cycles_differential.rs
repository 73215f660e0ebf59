//! Differential testing on ring programs: on every random program seeded
//! with forced copy cycles, the default demand engine must agree
//! bit-for-bit with the exhaustive wave solver — for `points_to`,
//! `pointed_to_by`, and `may_alias`. Copy cycles are where a demand
//! engine's goals depend on each other recursively, so they are the
//! programs most likely to expose a fixpoint that stops too early.

use ddpa_constraints::NodeId;
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::{generate_random, RandomConfig};
use ddpa_support::rng::Rng;

const CASES: usize = 120;

#[test]
fn ring_programs_match_wave_on_every_query() {
    let mut rng = Rng::seed_from_u64(0x000c_7c1e_0001);
    for case in 0..CASES {
        let seed = rng.gen_range(0..u32::MAX as u64);
        let rings = rng.gen_range(2..6usize);
        let len = rng.gen_range(2..24usize);
        let config = RandomConfig::sized(seed, 140).with_copy_cycles(rings, len);
        let cp = generate_random(&config);
        let (wave, _) = ddpa_anders::wave::solve(&cp);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());

        let nodes: Vec<NodeId> = cp.node_ids().collect();
        for &n in &nodes {
            let r = engine.points_to(n);
            assert!(r.complete, "case {case}");
            assert_eq!(
                r.pts,
                wave.pts_nodes(n),
                "case {case}: pts({}) differs from wave (rings={rings}, len={len})",
                cp.display_node(n)
            );
        }

        for &obj in &nodes {
            let r = engine.pointed_to_by(obj);
            assert!(r.complete, "case {case}");
            let want: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&w| wave.points_to(w, obj))
                .collect();
            assert_eq!(
                r.pts,
                want,
                "case {case}: ptb({}) differs from wave",
                cp.display_node(obj)
            );
        }

        // may_alias over a sampled pair set (n² pairs is too many).
        for _ in 0..64 {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            let r = engine.may_alias(a, b);
            assert!(r.resolved, "case {case}");
            let want = !intersection_empty(&wave.pts_nodes(a), &wave.pts_nodes(b));
            assert_eq!(r.may_alias, want, "case {case}: may_alias vs wave");
        }
    }
}

fn intersection_empty(a: &[NodeId], b: &[NodeId]) -> bool {
    a.iter().all(|x| !b.contains(x))
}
