//! Union-find (disjoint sets) with path halving and union by rank.
//!
//! The exhaustive Andersen solver collapses detected pointer-equivalence
//! cycles by unioning their nodes; all constraint-graph operations then go
//! through [`UnionFind::find`] to reach the representative.

/// Disjoint-set forest over dense `u32` ids.
///
/// # Examples
///
/// ```
/// use ddpa_support::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(1), uf.find(2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Returns the representative of `x`'s set, compressing paths.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns the new representative,
    /// or `None` if they were already in the same set.
    pub fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        self.sets -= 1;
        let (ra, rb) = (ra as usize, rb as usize);
        let root = if self.rank[ra] < self.rank[rb] {
            self.parent[ra] = rb as u32;
            rb as u32
        } else if self.rank[ra] > self.rank[rb] {
            self.parent[rb] = ra as u32;
            ra as u32
        } else {
            self.parent[rb] = ra as u32;
            self.rank[ra] += 1;
            ra as u32
        };
        Some(root)
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert!(!uf.same_set(0, 1));
        assert!(uf.same_set(2, 2));
    }

    #[test]
    fn union_merges_transitively() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.same_set(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert!(uf.union(0, 2).is_none());
    }
}
