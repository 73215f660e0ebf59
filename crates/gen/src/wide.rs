//! Wide, embarrassingly-parallel constraint programs.
//!
//! A single demand query is parallelizable only when its goal graph is
//! *wide*: the critical-path profile's `W/S` headroom (total work over
//! span) bounds the speedup any scheduler could extract. This generator
//! builds programs that maximize that headroom for one query: `chains`
//! independent copy chains, each seeded at its base with `objs_per_chain`
//! address-of constraints, plus one `hub` variable copying from every
//! chain's top.
//!
//! Demanding `pts(hub)` activates all chains at once; the chains share no
//! goals, so a parallel evaluator could deduce them concurrently while
//! the sequential engine walks them one after another. Expected headroom
//! ≈ `chains` (span = one chain, work = all of them).

use ddpa_constraints::{ConstraintBuilder, ConstraintProgram};
use ddpa_support::rng::Rng;

/// Parameters for [`generate_wide`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WideConfig {
    /// RNG seed; same seed → same program.
    pub seed: u64,
    /// Number of independent copy chains feeding the hub.
    pub chains: usize,
    /// Nominal chain length (each chain is jittered ±25%, clamped ≥ 2).
    pub chain_len: usize,
    /// Address-of seeds at each chain's base.
    pub objs_per_chain: usize,
}

impl WideConfig {
    /// A size knob: roughly `size` primitive constraints spread over
    /// 26-constraint chains (24 copies + 2 objects each).
    pub fn sized(seed: u64, size: usize) -> Self {
        WideConfig {
            seed,
            chains: (size / 26).max(2),
            chain_len: 24,
            objs_per_chain: 2,
        }
    }
}

/// Generates a wide (high `W/S`) program from `config`.
///
/// # Examples
///
/// ```
/// use ddpa_gen::{generate_wide, WideConfig};
///
/// let cp = generate_wide(&WideConfig::sized(7, 260));
/// let hub = cp.node_ids().find(|&n| cp.display_node(n) == "hub");
/// assert!(hub.is_some(), "the hub joins every chain");
/// ```
pub fn generate_wide(config: &WideConfig) -> ConstraintProgram {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut b = ConstraintBuilder::new();
    let hub = b.var("hub");
    let nominal = config.chain_len.max(2);
    for c in 0..config.chains.max(1) {
        // Jitter the lengths so the chains do not all finish in lockstep.
        let len = (nominal * 3 / 4 + rng.gen_range(0..(nominal / 2).max(1))).max(2);
        let base = b.var(&format!("c{c}_v0"));
        for j in 0..config.objs_per_chain.max(1) {
            let o = b.var(&format!("c{c}_obj{j}"));
            b.addr_of(base, o);
        }
        let mut prev = base;
        for i in 1..len {
            let v = b.var(&format!("c{c}_v{i}"));
            b.copy(v, prev);
            prev = v;
        }
        b.copy(hub, prev);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_demand::{DemandConfig, DemandEngine};

    #[test]
    fn deterministic_for_same_seed() {
        let c = WideConfig::sized(5, 500);
        assert_eq!(
            ddpa_constraints::print_constraints(&generate_wide(&c)),
            ddpa_constraints::print_constraints(&generate_wide(&c))
        );
    }

    #[test]
    fn hub_collects_every_chain_and_headroom_tracks_width() {
        let config = WideConfig {
            seed: 11,
            chains: 16,
            chain_len: 16,
            objs_per_chain: 2,
        };
        let cp = generate_wide(&config);
        let hub = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "hub")
            .expect("hub exists");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r = engine.points_to(hub);
        assert!(r.complete);
        assert_eq!(
            r.pts.len(),
            16 * 2,
            "pts(hub) is the union of every chain's objects"
        );
        // The whole point of the workload: one query, wide goal graph.
        let profile = engine.critical_path();
        assert!(
            profile.headroom >= config.chains as f64 / 2.0,
            "W/S = {:.1} should scale with the {} chains",
            profile.headroom,
            config.chains
        );
    }
}
