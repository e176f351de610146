//! Shard health and degradation types shared by routing layers.
//!
//! A production PlatoD2GL deployment spans hundreds of graph servers; the
//! paper's sharded simulation (`platod2gl-server`) models a shard failing
//! or slowing down. These types are defined here — next to [`GraphStore`] —
//! so engine-agnostic callers (trainers, benchmarks) can observe degraded
//! service without depending on the server crate.
//!
//! [`GraphStore`]: crate::GraphStore

/// The router's view of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// Serving, but recent requests needed retries or returned degraded
    /// results; updates still apply.
    Degraded,
    /// Not serving. Reads against the shard return degraded (empty)
    /// results; updates are queued until the shard is healed.
    Failed,
}

impl ShardHealth {
    /// Whether requests should be sent to the shard at all.
    pub fn is_serving(self) -> bool {
        !matches!(self, ShardHealth::Failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_serving_states() {
        assert!(ShardHealth::Healthy.is_serving());
        assert!(ShardHealth::Degraded.is_serving());
        assert!(!ShardHealth::Failed.is_serving());
        assert_eq!(ShardHealth::default(), ShardHealth::Healthy);
    }
}
