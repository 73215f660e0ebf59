//! Demand-engine configuration.

/// Configuration for a [`crate::DemandEngine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandConfig {
    /// Per-query work budget (rule firings); `None` = unlimited.
    pub budget: Option<u64>,
    /// Memoize subgoal results across queries (the paper's caching; on by
    /// default). When off, every query starts from scratch — the ablation
    /// baseline for the caching experiment. Also gates an attached
    /// [`crate::SharedMemo`]: a no-caching engine neither consults nor
    /// feeds the shared table.
    pub caching: bool,
    /// Record derivation provenance so
    /// [`crate::DemandEngine::explain_points_to`] can reconstruct why a
    /// fact holds (off by default; costs one map entry per derived fact).
    pub trace: bool,
    /// Record structured engine events into the deduction flight recorder
    /// (on by default — the ring is bounded and rule firings are sampled,
    /// so the cost is a few percent at worst; see `docs/OBSERVABILITY.md`).
    /// Recording never feeds back into deduction, so answers are
    /// bit-identical either way.
    pub flight: bool,
    /// Flight-recorder ring capacity in events (rounded up to a power of
    /// two, minimum 8).
    pub flight_capacity: usize,
    /// Flight-recorder fire-sampling stride: every `N`-th rule firing is
    /// recorded (structural events are always recorded; clamped to ≥ 1).
    pub flight_sample: u32,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            budget: None,
            caching: true,
            trace: false,
            flight: true,
            flight_capacity: 8192,
            flight_sample: 64,
        }
    }
}

impl DemandConfig {
    /// Unlimited budget, caching on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-query budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Disables cross-query memoization.
    pub fn without_caching(mut self) -> Self {
        self.caching = false;
        self
    }

    /// Enables derivation tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Disables the deduction flight recorder (the overhead-measurement
    /// baseline for the T9 experiment).
    pub fn without_flight_recorder(mut self) -> Self {
        self.flight = false;
        self
    }

    /// Sets the flight-recorder ring capacity and fire-sampling stride.
    pub fn with_flight(mut self, capacity: usize, sample: u32) -> Self {
        self.flight = true;
        self.flight_capacity = capacity;
        self.flight_sample = sample;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = DemandConfig::new().with_budget(100).without_caching();
        assert_eq!(c.budget, Some(100));
        assert!(!c.caching);
        let d = DemandConfig::default();
        assert_eq!(d.budget, None);
        assert!(d.caching);
    }

    #[test]
    fn flight_builders() {
        let d = DemandConfig::default();
        assert!(d.flight, "flight recorder defaults to on");
        let off = DemandConfig::new().without_flight_recorder();
        assert!(!off.flight);
        let sized = DemandConfig::new().with_flight(1024, 16);
        assert!(sized.flight);
        assert_eq!(sized.flight_capacity, 1024);
        assert_eq!(sized.flight_sample, 16);
    }
}
