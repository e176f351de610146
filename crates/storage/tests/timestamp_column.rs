//! The timestamp column lives inside the samtree leaves: these tests pin
//! what that must not change (windowed picks, draw for draw) and what it
//! fixes (rows read under one lock are never torn).

use platod2gl_graph::{Edge, EdgeType, GraphStore, TimeWindow, UpdateOp, VertexId};
use platod2gl_samtree::SamTreeConfig;
use platod2gl_storage::{DynamicGraphStore, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const E: EdgeType = EdgeType(0);

fn store(capacity: usize) -> DynamicGraphStore {
    DynamicGraphStore::new(StoreConfig {
        tree: SamTreeConfig {
            capacity,
            alpha: 0,
            compression: true,
        },
    })
}

/// A 3-level capacity-8 tree over source 1 whose Fenwick entries, slot
/// order and stamps have all been churned: batch insert, single inserts,
/// stamped and timeless re-inserts, updates with and without `ts`, deletes.
fn golden_graph() -> DynamicGraphStore {
    let s = store(8);
    let src = VertexId(1);
    let batch: Vec<UpdateOp> = (0..180u64)
        .map(|i| {
            let dst = (i * 2_654_435_761) % 1_000;
            let ts = if i % 9 == 0 { 0 } else { 10 + (i * 37) % 500 };
            UpdateOp::Insert(Edge::new(src, VertexId(dst), 0.25 + (i % 17) as f64 * 0.5).at(ts))
        })
        .collect();
    s.apply_batch(&batch);
    for i in 0..60u64 {
        let dst = 2_000 + i * 3;
        s.insert_edge(Edge::new(src, VertexId(dst), 1.0 + (i % 5) as f64).at(600 - i * 7));
    }
    for i in (0..180u64).step_by(4) {
        let dst = (i * 2_654_435_761) % 1_000;
        s.delete_edge(src, VertexId(dst), E);
    }
    for i in (1..180u64).step_by(6) {
        let dst = (i * 2_654_435_761) % 1_000;
        let ts = if i % 12 == 1 { 0 } else { 700 + i };
        s.update_weight(Edge::new(src, VertexId(dst), 0.1 + (i % 7) as f64).at(ts));
    }
    for i in (2..180u64).step_by(10) {
        let dst = (i * 2_654_435_761) % 1_000;
        s.insert_edge(Edge::new(src, VertexId(dst), 3.5)); // timeless re-insert
    }
    // Source 2: every edge stamped, so narrow windows exhaust their retries.
    let all_stamped: Vec<UpdateOp> = (0..150u64)
        .map(|i| {
            let w = 0.5 + (i % 11) as f64 * 0.25;
            UpdateOp::Insert(Edge::new(VertexId(2), VertexId(i * 7), w).at(1 + (i * 53) % 400))
        })
        .collect();
    s.apply_batch(&all_stamped);
    for i in (0..150u64).step_by(5) {
        s.delete_edge(VertexId(2), VertexId(i * 7), E);
    }
    s.check_invariants().expect("golden graph invariants");
    s
}

/// `(source, window, k)` per request; one RNG runs through the whole list.
fn golden_requests() -> Vec<(u64, Option<TimeWindow>, usize)> {
    vec![
        (1, Some(TimeWindow::until(10_000)), 12), // admits everything
        (1, Some(TimeWindow::until(300)), 12),    // about half the mass
        (1, Some(TimeWindow::new(200, 260)), 12),
        (1, Some(TimeWindow::new(5_000, 6_000)), 6), // only timeless edges pass
        (1, None, 6),
        (1, Some(TimeWindow::new(700, 900)), 12), // stamps set by update_weight
        (2, Some(TimeWindow::new(100, 110)), 12), // ~3 % of the mass: fallback
        (2, Some(TimeWindow::until(40)), 12),     // ~10 %: retries and fallback
        (2, Some(TimeWindow::new(1_000, 2_000)), 4), // nothing in window
    ]
}

/// The picks per request, plus the retries and fallbacks they took.
fn golden_run() -> (Vec<Vec<u64>>, u64, u64) {
    let s = golden_graph();
    let mut rng = StdRng::seed_from_u64(0x5eed_601d);
    let picks = golden_requests()
        .into_iter()
        .map(|(src, win, k)| {
            s.sample_neighbors_windowed(VertexId(src), E, k, win, &mut rng)
                .into_iter()
                .map(|v| v.raw())
                .collect()
        })
        .collect();
    let snap = s.registry().snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    (
        picks,
        count("temporal.window_retries"),
        count("temporal.window_fallbacks"),
    )
}

/// Recorded at the parent commit (store-wide cuckoo timestamp map, one
/// probe per draw, `entries()` + one probe per neighbor in the fallback):
/// same algorithm, same RNG consumption, same left-to-right fallback order.
#[test]
fn windowed_picks_match_the_parent_commit() {
    let want: Vec<Vec<u64>> = vec![
        vec![232, 817, 911, 2171, 182, 25, 301, 106, 855, 452, 2024, 742],
        vec![
            2159, 402, 2135, 547, 87, 2147, 2141, 150, 458, 458, 892, 131,
        ],
        vec![113, 572, 2156, 522, 402, 339, 886, 2159, 735, 622, 452, 113],
        vec![245, 943, 943, 339, 622, 742],
        vec![522, 371, 415, 735, 622, 710],
        vec![735, 572, 855, 892, 779, 245, 515, 383, 572, 182, 792, 547],
        vec![14, 119, 119, 14, 14, 14, 119, 119, 14, 14, 119, 119],
        vec![371, 903, 637, 56, 427, 903, 637, 161, 371, 266, 903, 371],
        vec![],
    ];
    let (picks, retries, fallbacks) = golden_run();
    assert_eq!(picks, want);
    // The requests exercise both the retry loop and the filtered fallback.
    assert_eq!((retries, fallbacks), (252, 20));
}

/// A hub of `n` neighbors at the default capacity (a two-level tree), with
/// weights 0.5..=4.0 and stamps spread over `1..=horizon`.
fn hub(n: u64, horizon: u64) -> DynamicGraphStore {
    let s = DynamicGraphStore::with_defaults();
    let ops: Vec<UpdateOp> = (0..n)
        .map(|i| {
            let w = 0.5 + (i % 8) as f64 * 0.5;
            let ts = 1 + (i * 7_919) % horizon;
            UpdateOp::Insert(Edge::new(VertexId(9), VertexId(i), w).at(ts))
        })
        .collect();
    s.apply_batch(&ops);
    s
}

/// Chi-square of windowed draws against the in-window weight shares,
/// neighbors bucketed by `dst % 20` (19 degrees of freedom).
fn windowed_chi_square(s: &DynamicGraphStore, win: TimeWindow, draws: usize, seed: u64) -> f64 {
    const BUCKETS: usize = 20;
    let rows = s.adjacency_of(VertexId(9), E).expect("hub resident");
    let mut mass = [0.0f64; BUCKETS];
    for &(dst, w, ts) in &rows {
        if win.contains(ts) {
            mass[dst as usize % BUCKETS] += w;
        }
    }
    let total: f64 = mass.iter().sum();
    let mut seen = [0usize; BUCKETS];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws / 200 {
        let picks = s.sample_neighbors_windowed(VertexId(9), E, 200, Some(win), &mut rng);
        assert_eq!(picks.len(), 200);
        for p in picks {
            assert!(win.contains(s.edge_ts(VertexId(9), p, E)), "leak: {p:?}");
            seen[p.raw() as usize % BUCKETS] += 1;
        }
    }
    (0..BUCKETS)
        .map(|b| {
            let expected = draws as f64 * mass[b] / total;
            (seen[b] as f64 - expected).powi(2) / expected
        })
        .sum()
}

// chi-square(19) exceeds 43.8 with probability 0.001.
const CHI2_19_P001: f64 = 43.8;

#[test]
fn broad_window_draws_follow_in_window_weights() {
    let s = hub(24_000, 10_000);
    let chi2 = windowed_chi_square(&s, TimeWindow::until(9_000), 40_000, 41);
    assert!(chi2 < CHI2_19_P001, "chi-square {chi2}");
    let snap = s.registry().snapshot();
    assert_eq!(snap.counter("temporal.window_fallbacks").unwrap_or(0), 0);
}

#[test]
fn five_percent_window_forces_the_fallback_and_stays_proportional() {
    let s = hub(24_000, 10_000);
    let chi2 = windowed_chi_square(&s, TimeWindow::new(4_001, 4_500), 40_000, 42);
    assert!(chi2 < CHI2_19_P001, "chi-square {chi2}");
    // 0.95^8 of the slots exhaust their retries.
    let fallbacks = s
        .registry()
        .snapshot()
        .counter("temporal.window_fallbacks")
        .unwrap_or(0);
    assert!((20_000..32_000).contains(&fallbacks), "{fallbacks}");
}

#[test]
fn stamp_semantics_are_unchanged() {
    let s = store(8);
    let (a, b) = (VertexId(1), VertexId(2));
    let ts = |dst: u64| s.edge_ts(a, VertexId(dst), E);
    // 40 stamped edges: enough for splits at capacity 8.
    let ops: Vec<UpdateOp> = (0..40u64)
        .map(|i| UpdateOp::Insert(Edge::new(a, VertexId(i), 1.0).at(100 + i)))
        .collect();
    s.apply_batch(&ops);
    assert_eq!(ts(7), 107);
    // Insert with ts = 0 replaces the edge: the stamp is cleared.
    s.insert_edge(Edge::new(a, VertexId(7), 2.0));
    assert_eq!(ts(7), 0);
    // UpdateWeight keeps the stamp with ts = 0 and sets it otherwise.
    assert!(s.update_weight(Edge::new(a, VertexId(8), 3.0)));
    assert_eq!(ts(8), 108);
    assert!(s.update_weight(Edge::new(a, VertexId(8), 3.0).at(900)));
    assert_eq!(ts(8), 900);
    s.apply_batch(&[
        UpdateOp::UpdateWeight(Edge::new(a, VertexId(9), 4.0)),
        UpdateOp::UpdateWeight(Edge::new(a, VertexId(10), 4.0).at(901)),
        UpdateOp::Insert(Edge::new(a, VertexId(11), 4.0)),
        UpdateOp::Insert(Edge::new(a, VertexId(12), 4.0).at(5)),
        UpdateOp::Insert(Edge::new(a, VertexId(12), 4.0)), // last op wins
    ]);
    assert_eq!((ts(9), ts(10), ts(11), ts(12)), (109, 901, 0, 0));
    // Delete drops the stamp with the edge; so does delete_source.
    assert!(s.delete_edge(a, VertexId(13), E));
    s.insert_edge(Edge::new(a, VertexId(13), 1.0));
    assert_eq!(ts(13), 0);
    assert_eq!(s.delete_source(a, E).len(), 40);
    s.insert_edge(Edge::new(a, VertexId(20), 1.0));
    assert_eq!(ts(20), 0);
    // bulk_build carries stamps into fresh and into populated trees.
    s.bulk_build([
        Edge::new(b, VertexId(1), 1.0).at(11),
        Edge::new(b, VertexId(2), 1.0),
        Edge::new(a, VertexId(20), 1.0).at(12),
    ]);
    assert_eq!(s.edge_ts(b, VertexId(1), E), 11);
    assert_eq!(s.edge_ts(b, VertexId(2), E), 0);
    assert_eq!(ts(20), 12);
    // Timeless edges always pass a window.
    let mut rng = StdRng::seed_from_u64(3);
    let picks = s.sample_neighbors_windowed(b, E, 50, Some(TimeWindow::new(500, 600)), &mut rng);
    assert!(picks.len() == 50 && picks.iter().all(|p| p.raw() == 2));
    s.check_invariants().expect("invariants");
}

#[test]
fn memory_accounting_keeps_table_iv_and_reports_the_column_beside_it() {
    let edges = |stamped: bool| {
        (0..6_000u64).map(move |i| {
            let e = Edge::new(VertexId(i % 7), VertexId(i * 31 % 9_000), 1.0);
            if stamped {
                e.at(1 + i)
            } else {
                e
            }
        })
    };
    let (timeless, stamped) = (store(16), store(16));
    for e in edges(false) {
        timeless.insert_edge(e);
    }
    for e in edges(true) {
        stamped.insert_edge(e);
    }
    for s in [&timeless, &stamped] {
        let mem = s.memory_breakdown();
        assert_eq!(
            mem.leaf_bytes + mem.internal_bytes + mem.directory_bytes,
            mem.total_bytes
        );
        assert_eq!(mem.total_bytes, s.topology_bytes());
    }
    assert_eq!(timeless.memory_breakdown().timestamp_bytes, 0);
    // Same edges, same topology bytes: the column is counted beside them.
    assert_eq!(stamped.topology_bytes(), timeless.topology_bytes());
    let column = stamped.memory_breakdown().timestamp_bytes;
    // Stamps 1..=6000 share their top six bytes in every leaf, so each
    // column codes them at z = 6: 2 B of payload per stamp, plus one 40-B
    // boxed header per leaf and the bounded slack.
    let leaves: usize = (0..7)
        .map(|v| stamped.tree_shape(VertexId(v), E).expect("source").1)
        .sum();
    assert_eq!(leaves, 526);
    assert_eq!(column, 6_000 * 2 + 526 * 40 + 532, "{column}");
    assert!(column < 6_000 * 8, "below 8 B per stamp: {column}");
}

/// The two states edge 1 -> 7 ever holds while the writer churns it.
const STATE_A: (u64, f64, u64) = (7, 1.0, 100);
const STATE_B: (u64, f64, u64) = (7, 2.0, 200);

fn churn(s: &DynamicGraphStore, rounds: usize) {
    for _ in 0..rounds {
        for (dst, w, ts) in [STATE_A, STATE_B] {
            s.delete_edge(VertexId(1), VertexId(dst), E);
            s.insert_edge(Edge::new(VertexId(1), VertexId(dst), w).at(ts));
        }
    }
}

/// `adjacency_of` / `export_adjacency` used to copy `(dst, w)` out, drop the
/// tree lock and only then look each timestamp up, so a delete + re-insert
/// in between exported a present edge with `ts = 0` — which restores as
/// "timeless, passes every window".
#[test]
fn exported_rows_are_states_the_edge_actually_held() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let s = store(8);
    for i in 0..30u64 {
        s.insert_edge(Edge::new(VertexId(1), VertexId(1_000 + i), 1.0).at(50));
    }
    s.insert_edge(Edge::new(VertexId(1), VertexId(STATE_A.0), STATE_A.1).at(STATE_A.2));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            churn(&s, 20_000);
            done.store(true, Ordering::SeqCst);
        });
        let mut exports = 0usize;
        while !done.load(Ordering::SeqCst) {
            let targeted = s.adjacency_of(VertexId(1), E).expect("resident");
            let whole = s.export_adjacency().pop().expect("one source").1;
            for rows in [targeted, whole] {
                assert!(rows.len() == 30 || rows.len() == 31);
                for row in rows.into_iter().filter(|r| r.0 == 7) {
                    assert!(row == STATE_A || row == STATE_B, "torn row {row:?}");
                }
            }
            exports += 1;
        }
        writer.join().expect("writer");
        assert!(exports > 0);
    });
    s.check_invariants().expect("invariants");
}

#[test]
fn edge_churned_between_future_stamps_is_never_drawn_for_until_t() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let s = store(8);
    for i in 0..30u64 {
        s.insert_edge(Edge::new(VertexId(1), VertexId(1_000 + i), 1.0).at(50));
    }
    // Heavy enough to be drawn half the time, stamped after every window.
    s.insert_edge(Edge::new(VertexId(1), VertexId(7), 30.0).at(STATE_A.2));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            churn(&s, 20_000);
            done.store(true, Ordering::SeqCst);
        });
        let mut rng = StdRng::seed_from_u64(5);
        while !done.load(Ordering::SeqCst) {
            let picks = s.sample_neighbors_windowed(
                VertexId(1),
                E,
                16,
                Some(TimeWindow::until(60)),
                &mut rng,
            );
            assert_eq!(picks.len(), 16);
            assert!(picks.iter().all(|p| p.raw() != 7), "future edge drawn");
        }
        writer.join().expect("writer");
    });
}

/// One draw request against source 1 of [`golden_graph`] from a fresh RNG:
/// the picks and the RNG's next word after the call.
fn draw(s: &DynamicGraphStore, window: Option<Option<TimeWindow>>) -> (Vec<u64>, u64) {
    use rand::RngCore;
    let mut rng = StdRng::seed_from_u64(0x00b0_d1e5);
    let picks = match window {
        None => s.sample_neighbors(VertexId(1), E, 10, &mut rng),
        Some(win) => s.sample_neighbors_windowed(VertexId(1), E, 10, win, &mut rng),
    };
    (picks.into_iter().map(|v| v.raw()).collect(), rng.next_u64())
}

/// A fixed mixed op script over six sources and two relations at
/// capacity 8 (splits and merges happen), plus deletes and updates aimed
/// at sources that never get an edge.
fn op_script() -> Vec<UpdateOp> {
    let mut x = 0x005c_8197_u64;
    let mut next = move || {
        x = platod2gl_graph::splitmix64(x);
        x
    };
    (0..700)
        .map(|i| {
            let (kind, src) = (next() % 10, VertexId(next() % 6));
            let (dst, etype) = (VertexId(next() % 90), EdgeType((next() % 2) as u16));
            let ts = if i % 3 == 0 { 0 } else { 1 + next() % 400 };
            let weight = 0.5 + (next() % 16) as f64 * 0.25;
            let edge = Edge {
                etype,
                ..Edge::new(src, dst, weight).at(ts)
            };
            match kind {
                0..=5 => UpdateOp::Insert(edge),
                6 | 7 => UpdateOp::Delete { src, dst, etype },
                8 => UpdateOp::UpdateWeight(edge),
                _ if i % 2 == 0 => UpdateOp::UpdateWeight(Edge {
                    src: VertexId(100 + src.raw()),
                    ..edge
                }),
                _ => UpdateOp::Delete {
                    src: VertexId(100 + src.raw()),
                    dst,
                    etype,
                },
            }
        })
        .collect()
}

/// What a write path leaves behind: `num_edges()`, `op_stats()` as
/// `[leaf_ops, internal_ops, leaf_splits, internal_splits, merges]`, the
/// `storage.edges` gauge, the directory's entry count, and a digest of
/// `export_adjacency()` (sorted by key, weights by bit pattern).
fn residue(s: &DynamicGraphStore) -> (usize, [u64; 5], i64, usize, u64) {
    let mut adj = s.export_adjacency();
    adj.sort_by_key(|(key, _)| *key);
    let words = adj.iter().flat_map(|((src, etype), rows)| {
        let rows = rows.iter().flat_map(|&(dst, w, ts)| [dst, w.to_bits(), ts]);
        [*src, *etype as u64].into_iter().chain(rows)
    });
    let digest = words.fold(0, |d, word| platod2gl_graph::splitmix64(d ^ word));
    let ops = s.op_stats();
    s.check_invariants().expect("invariants");
    (
        s.num_edges(),
        [
            ops.leaf_ops,
            ops.internal_ops,
            ops.leaf_splits,
            ops.internal_splits,
            ops.merges,
        ],
        s.registry().snapshot().gauge("storage.edges").unwrap_or(0),
        s.num_source_entries(),
        digest,
    )
}

/// Recorded at the parent commit, where `sample_neighbors` had its own
/// draw body (`SamTree::sample_k`) and `insert_edge` / `delete_edge` /
/// `update_weight` / `apply_group` / `bulk_build`'s fallback each locked
/// and settled on their own.
#[test]
fn one_read_body_and_one_write_helper_match_the_parent_commit() {
    let s = golden_graph();
    let unwindowed = (
        vec![993, 471, 163, 2114, 389, 150, 2162, 817, 169, 521],
        736_289_643_896_005_207,
    );
    assert_eq!(draw(&s, None), unwindowed);
    assert_eq!(draw(&s, Some(None)), unwindowed);
    // An all-admitting window accepts every first draw: the same picks.
    assert_eq!(draw(&s, Some(Some(TimeWindow::until(10_000)))), unwindowed);
    assert_eq!(
        draw(&s, Some(Some(TimeWindow::until(300)))),
        (
            vec![993, 471, 163, 389, 150, 2162, 817, 169, 767, 805],
            9_112_359_958_223_780_491
        )
    );

    let script = op_script();
    let single = store(8);
    for op in &script {
        single.apply(op); // insert_edge / update_weight / delete_edge
    }
    assert_eq!(
        residue(&single),
        (
            339,
            [458, 53, 50, 0, 4],
            339,
            12,
            17_580_216_823_279_389_909
        )
    );

    // A batch creates the directory entry before it looks at the ops, so the
    // twelve never-populated (source, relation) keys are resident here.
    let batched = store(8);
    for chunk in script.chunks(64) {
        batched.apply_batch(chunk);
    }
    assert_eq!(
        residue(&batched),
        (339, [458, 49, 47, 0, 2], 339, 24, 2_206_362_907_452_500_342)
    );

    // bulk_build onto the populated store: sources 0..6 take the
    // incremental fallback, 6..9 are built bottom-up.
    single.bulk_build((0..400u64).map(|i| Edge {
        etype: EdgeType((i % 2) as u16),
        ..Edge::new(VertexId(i % 9), VertexId(i * 7 % 120), 1.0 + (i % 5) as f64).at(i % 4 * 50)
    }));
    assert_eq!(
        residue(&single),
        (644, [726, 94, 87, 2, 4], 644, 18, 6_145_843_747_824_304_693)
    );
}
