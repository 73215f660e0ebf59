//! Cycle-dominated constraint programs.
//!
//! Copy cycles make demand goals depend on each other recursively: a ring
//! of `L` copy-related pointers costs `L` rule firings *per flowing
//! object*, and each member's fixpoint waits on the others. This
//! generator builds programs where that regime dominates: `rings` copy
//! rings of `ring_len` variables, each seeded with `objs_per_ring`
//! address-of constraints spread around it, chained so ring `r` also receives
//! everything flowing through ring `r-1`, plus a few tail variables per
//! ring reading out of it (the query targets).
//!
//! Every ring member's final points-to set is the union of its ring's
//! objects and all upstream rings' objects — easy to predict, expensive to
//! deduce member by member.

use ddpa_constraints::{ConstraintBuilder, ConstraintProgram, NodeId};
use ddpa_support::rng::Rng;

/// Parameters for [`generate_cyclic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CyclicConfig {
    /// RNG seed; same seed → same program.
    pub seed: u64,
    /// Number of copy rings (chained: ring `r` feeds ring `r+1`).
    pub rings: usize,
    /// Variables per ring (clamped to ≥ 2).
    pub ring_len: usize,
    /// Address-of seeds spread around each ring.
    pub objs_per_ring: usize,
    /// Tail variables per ring (2-hop copy chains out of the ring).
    pub tails: usize,
}

impl CyclicConfig {
    /// A small/medium/large knob: `scale` rings of `4 × scale` variables.
    pub fn sized(seed: u64, scale: usize) -> Self {
        let scale = scale.max(2);
        CyclicConfig {
            seed,
            rings: scale,
            ring_len: 4 * scale,
            objs_per_ring: scale,
            tails: 2,
        }
    }
}

/// Generates a cycle-dominated program from `config`.
///
/// # Examples
///
/// ```
/// use ddpa_gen::{generate_cyclic, CyclicConfig};
///
/// let cp = generate_cyclic(&CyclicConfig::sized(7, 4));
/// assert!(cp.copies().len() >= 4 * 16, "rings dominate the program");
/// ```
pub fn generate_cyclic(config: &CyclicConfig) -> ConstraintProgram {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut b = ConstraintBuilder::new();
    let len = config.ring_len.max(2);

    let mut prev_ring: Option<Vec<NodeId>> = None;
    for r in 0..config.rings {
        let ring: Vec<NodeId> = (0..len).map(|i| b.var(&format!("ring{r}_v{i}"))).collect();
        for i in 1..len {
            b.copy(ring[i], ring[i - 1]);
        }
        b.copy(ring[0], ring[len - 1]);
        for j in 0..config.objs_per_ring {
            let o = b.var(&format!("ring{r}_obj{j}"));
            let pos = (j * len / config.objs_per_ring.max(1) + rng.gen_range(0..len)) % len;
            b.addr_of(ring[pos], o);
        }
        // Chain the rings so flow accumulates downstream.
        if let Some(prev) = &prev_ring {
            let from = rng.gen_range(0..len);
            let into = rng.gen_range(0..len);
            b.copy(ring[into], prev[from]);
        }
        for t in 0..config.tails {
            let mid = b.var(&format!("ring{r}_t{t}_mid"));
            let tail = b.var(&format!("ring{r}_tail{t}"));
            b.copy(mid, ring[rng.gen_range(0..len)]);
            b.copy(tail, mid);
        }
        prev_ring = Some(ring);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_demand::{DemandConfig, DemandEngine};

    #[test]
    fn deterministic_for_same_seed() {
        let c = CyclicConfig::sized(3, 4);
        assert_eq!(
            ddpa_constraints::print_constraints(&generate_cyclic(&c)),
            ddpa_constraints::print_constraints(&generate_cyclic(&c))
        );
    }

    #[test]
    fn flow_accumulates_downstream() {
        let cp = generate_cyclic(&CyclicConfig::sized(9, 3));
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let node = |name: &str| {
            cp.node_ids()
                .find(|&n| cp.display_node(n) == name)
                .unwrap_or_else(|| panic!("no node named {name}"))
        };
        // Ring 0: its own 3 objects. Last ring: all 9.
        let first = engine.points_to(node("ring0_tail0"));
        assert!(first.complete);
        assert_eq!(first.pts.len(), 3);
        let last = engine.points_to(node("ring2_tail0"));
        assert!(last.complete);
        assert_eq!(last.pts.len(), 9);
    }
}
