//! The per-workload ledger: traced wall time attributed to layers.
//!
//! Layers above the service boundary are measured directly (span self
//! times). Layers below it cannot be wrapped from outside, so the captured
//! request stream is replayed against each level in isolation and the
//! in-situ time of the boundary span is divided in proportion to the
//! level-from-level differences ([`split_levels`]).

/// Layer → seconds for one traced pass.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// Wall time of the traced pass.
    pub wall_s: f64,
    rows: Vec<(String, f64)>,
}

impl Ledger {
    pub fn new(wall_s: f64) -> Self {
        Self {
            wall_s,
            rows: Vec::new(),
        }
    }

    /// Attribute `seconds` to `layer` (accumulates across calls).
    pub fn add(&mut self, layer: &str, seconds: f64) {
        let seconds = seconds.max(0.0);
        match self.rows.iter_mut().find(|(l, _)| l == layer) {
            Some((_, s)) => *s += seconds,
            None => self.rows.push((layer.to_string(), seconds)),
        }
    }

    /// Seconds attributed to `layer` (0 if it never appeared).
    pub fn seconds(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, s)| *s)
    }

    /// `layer`'s share of the traced wall time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.seconds(layer) / self.wall_s
    }

    /// Share of the traced wall time attributed to any layer.
    pub fn coverage(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.rows.iter().map(|(_, s)| s).sum::<f64>() / self.wall_s
    }

    /// The rows in first-attribution order.
    pub fn rows(&self) -> &[(String, f64)] {
        &self.rows
    }
}

/// Divide a boundary span's in-situ time among the levels below it.
///
/// `inclusive` lists replay times outermost level first, each including the
/// levels under it (replaying through `Cluster::sample` includes the shard
/// store, which includes the samtree, ...). A level's own cost is its
/// replay minus the next level's; the innermost keeps all of its replay.
/// Replays run in isolation, so the differences are scaled by
/// `in_situ / inclusive[0]` and the split always sums to `in_situ_s`.
pub fn split_levels(in_situ_s: f64, inclusive: &[(&str, f64)]) -> Vec<(String, f64)> {
    let Some(&(_, top)) = inclusive.first() else {
        return Vec::new();
    };
    let scale = if top > 0.0 { in_situ_s / top } else { 0.0 };
    // A deeper replay that came out slower than the level above it is noise
    // around a zero own-cost: clamp the chain to be non-increasing so every
    // difference is non-negative and the differences still sum to `top`.
    let mut clamped: Vec<f64> = Vec::with_capacity(inclusive.len());
    for &(_, t) in inclusive {
        let ceiling = clamped.last().copied().unwrap_or(f64::INFINITY);
        clamped.push(t.clamp(0.0, ceiling));
    }
    inclusive
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let below = clamped.get(i + 1).copied().unwrap_or(0.0);
            (name.to_string(), (clamped[i] - below) * scale)
        })
        .collect()
}

/// Relative disagreement between two measurements of the same quantity.
pub fn disagreement(a: f64, b: f64) -> f64 {
    let hi = a.abs().max(b.abs());
    if hi == 0.0 {
        return 0.0;
    }
    (a - b).abs() / hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_and_shares_divide_by_wall() {
        let mut l = Ledger::new(10.0);
        l.add("gnn", 6.0);
        l.add("pipeline", 1.0);
        l.add("gnn", 1.5);
        l.add("storage", -3.0); // negative attributions clamp to zero
        assert_eq!(l.seconds("gnn"), 7.5);
        assert_eq!(l.share("gnn"), 0.75);
        assert_eq!(l.share("rpc"), 0.0);
        assert!((l.coverage() - 0.85).abs() < 1e-12);
        assert_eq!(l.rows()[0].0, "gnn");
        assert_eq!(l.rows().len(), 3);
    }

    #[test]
    fn empty_wall_reads_zero_not_nan() {
        let l = Ledger::new(0.0);
        assert_eq!(l.coverage(), 0.0);
        assert_eq!(l.share("x"), 0.0);
    }

    #[test]
    fn split_subtracts_level_from_level_and_sums_to_in_situ() {
        // Replays: server 10, storage 8, samtree 5, fenwick 2 — in situ 20.
        let split = split_levels(
            20.0,
            &[
                ("server", 10.0),
                ("storage", 8.0),
                ("samtree", 5.0),
                ("fenwick", 2.0),
            ],
        );
        let get = |n: &str| split.iter().find(|(l, _)| l == n).expect("level").1;
        assert_eq!(get("server"), 4.0);
        assert_eq!(get("storage"), 6.0);
        assert_eq!(get("samtree"), 6.0);
        assert_eq!(get("fenwick"), 4.0);
        assert!((split.iter().map(|(_, s)| s).sum::<f64>() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn split_clamps_an_inverted_level() {
        // The samtree replay came out slower than the storage replay above
        // it: storage's own cost reads zero, nothing goes negative, and the
        // total is preserved.
        let split = split_levels(6.0, &[("storage", 3.0), ("samtree", 4.0), ("fenwick", 1.0)]);
        assert_eq!(split[0].1, 0.0);
        assert_eq!(split[1].1, 4.0);
        assert_eq!(split[2].1, 2.0);
        assert!(split_levels(1.0, &[]).is_empty());
        assert_eq!(split_levels(5.0, &[("only", 0.0)])[0].1, 0.0);
    }

    #[test]
    fn disagreement_is_relative_to_the_larger() {
        assert_eq!(disagreement(10.0, 8.0), 0.2);
        assert_eq!(disagreement(8.0, 10.0), 0.2);
        assert_eq!(disagreement(0.0, 0.0), 0.0);
    }
}
