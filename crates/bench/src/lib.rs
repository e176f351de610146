//! Shared harness for the paper's evaluation (Sec. VII).
//!
//! Every table and figure has one artifact: a **report binary**
//! (`src/bin/report_<exp>.rs`) that runs the full experiment grid in
//! [`experiments`] and prints the same rows/series the paper reports.
//! Timing claims about this codebase come from the standing benchmark in
//! `perf/`, not from here.
//!
//! Scale control: report binaries read `PLATOD2GL_SCALE_EDGES` (default
//! 200 000 directed edges per dataset before bi-directing) so the grid can
//! be rerun larger on beefier machines. Absolute numbers will not match the
//! paper's 54-server cluster; the comparisons (who wins, by what factor,
//! where curves bend) are the reproduction target — see EXPERIMENTS.md.

pub mod experiments;

use platod2gl::{
    AliGraphStore, DatasetProfile, DynamicGraphStore, GraphStore, PlatoGlStore, SamTreeConfig,
    StoreConfig, UpdateOp,
};
use std::time::{Duration, Instant};

/// Engines compared across the evaluation, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    AliGraph,
    PlatoGl,
    PlatoD2Gl,
    /// PlatoD2GL with CP-ID compression disabled (the "w/o CP" ablation).
    PlatoD2GlNoCp,
}

impl Engine {
    /// All four rows of Fig. 8 / Table IV.
    pub const ALL: [Engine; 4] = [
        Engine::AliGraph,
        Engine::PlatoGl,
        Engine::PlatoD2Gl,
        Engine::PlatoD2GlNoCp,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Engine::AliGraph => "AliGraph",
            Engine::PlatoGl => "PlatoGL",
            Engine::PlatoD2Gl => "PlatoD2GL",
            Engine::PlatoD2GlNoCp => "w/o CP",
        }
    }

    /// Instantiate a fresh store.
    pub fn build(self) -> Box<dyn GraphStore> {
        match self {
            Engine::AliGraph => Box::new(AliGraphStore::new()),
            Engine::PlatoGl => Box::new(PlatoGlStore::with_defaults()),
            Engine::PlatoD2Gl => Box::new(DynamicGraphStore::with_defaults()),
            Engine::PlatoD2GlNoCp => Box::new(DynamicGraphStore::new(StoreConfig {
                tree: SamTreeConfig {
                    compression: false,
                    ..SamTreeConfig::default()
                },
            })),
        }
    }
}

/// A PlatoD2GL store with explicit samtree parameters (sensitivity sweeps).
pub fn d2gl_with(capacity: usize, alpha: usize, compression: bool) -> DynamicGraphStore {
    DynamicGraphStore::new(StoreConfig {
        tree: SamTreeConfig {
            capacity,
            alpha,
            compression,
        },
    })
}

/// The three evaluation datasets (Table III), scaled for one machine.
pub fn datasets(target_edges: u64) -> Vec<DatasetProfile> {
    vec![
        DatasetProfile::ogbn().scaled_to_edges(target_edges),
        DatasetProfile::reddit().scaled_to_edges(target_edges),
        DatasetProfile::wechat().scaled_to_edges(target_edges),
    ]
}

/// Default per-dataset directed edge budget; override with
/// `PLATOD2GL_SCALE_EDGES`.
pub fn scale_edges() -> u64 {
    std::env::var("PLATOD2GL_SCALE_EDGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

/// Pre-generate mixed update batches (insert/update/delete per the default
/// mix) of the given size.
pub fn update_batches(
    profile: &DatasetProfile,
    batch_size: usize,
    num_batches: usize,
    seed: u64,
) -> Vec<Vec<UpdateOp>> {
    let mut stream = profile.update_stream(seed);
    (0..num_batches)
        .map(|_| stream.next_batch(batch_size))
        .collect()
}

/// Time applying each batch; returns mean per-batch latency.
pub fn time_batches(store: &dyn GraphStore, batches: &[Vec<UpdateOp>]) -> Duration {
    let start = Instant::now();
    for b in batches {
        store.apply_batch(b);
    }
    start.elapsed() / batches.len() as u32
}

/// Format a duration in the paper's milliseconds-with-decimals style.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a table header row.
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Print one table row.
pub fn row(label: &str, cells: &[String]) {
    let mut line = format!("{label:>14}");
    for c in cells {
        line.push_str(&format!(" {c:>14}"));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_instantiate_and_ingest() {
        let profile = DatasetProfile::tiny();
        for engine in Engine::ALL {
            let store = engine.build();
            profile.ingest_into(store.as_ref(), 1);
            assert!(store.num_edges() > 0, "{}", engine.name());
        }
    }

    #[test]
    fn update_batches_are_sized() {
        let profile = DatasetProfile::tiny();
        let batches = update_batches(&profile, 128, 5, 2);
        assert_eq!(batches.len(), 5);
        assert!(batches.iter().all(|b| b.len() == 128));
    }

    #[test]
    fn datasets_cover_table3() {
        let ds = datasets(10_000);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].name, "OGBN");
        assert_eq!(ds[1].name, "Reddit");
        assert_eq!(ds[2].name, "WeChat");
        for d in &ds {
            let total = d.total_edges();
            assert!((total as i64 - 10_000).abs() < 500, "{}: {total}", d.name);
        }
    }

    #[test]
    fn scale_env_default() {
        assert_eq!(scale_edges(), 200_000);
    }
}
