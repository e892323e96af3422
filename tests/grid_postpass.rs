//! PR 3 equivalence gates: the windows-first sweep (α-independent
//! `WindowRecord`s + grid post-pass) must reproduce the legacy per-α
//! classification bit for bit — on the paper grid, on random grids
//! (including knife-edge window boundaries), and through a cold/warm
//! persistent atlas.

use std::path::PathBuf;

use bilateral_formation::atlas::ClassificationAtlas;
use bilateral_formation::core::Threshold;
use bilateral_formation::empirics::{
    fmt_stat, grid, render_csv, GridSpec, SweepConfig, SweepResult, WindowSweep,
};
use bilateral_formation::games::{GameKind, Ratio};

/// SplitMix64 — deterministic, dependency-free randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bnf-grid-postpass-{}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// The Figure 2 CSV exactly as `fig2_avg_poa --csv` renders it.
fn fig2_csv(sweep: &SweepResult) -> String {
    let bcg = sweep.stats(GameKind::Bilateral);
    let ucg = sweep.stats(GameKind::Unilateral);
    let headers = [
        "alpha",
        "log2(a)",
        "log2(2a)",
        "BCG#",
        "BCG avgPoA",
        "UCG#",
        "UCG avgPoA",
    ];
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(&ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                fmt_stat(b.alpha.to_f64().log2()),
                fmt_stat((2.0 * b.alpha.to_f64()).log2()),
                b.count.to_string(),
                fmt_stat(b.mean_poa),
                u.count.to_string(),
                fmt_stat(u.mean_poa),
            ]
        })
        .collect();
    render_csv(&headers, &rows)
}

/// The Figure 3 CSV columns (link counts), same shape as the binary.
fn fig3_csv(sweep: &SweepResult) -> String {
    let bcg = sweep.stats(GameKind::Bilateral);
    let ucg = sweep.stats(GameKind::Unilateral);
    let headers = ["alpha", "BCG#", "BCG avg links", "UCG#", "UCG avg links"];
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(&ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                b.count.to_string(),
                fmt_stat(b.mean_links),
                u.count.to_string(),
                fmt_stat(u.mean_links),
            ]
        })
        .collect();
    render_csv(&headers, &rows)
}

fn assert_bit_identical(a: &SweepResult, b: &SweepResult, label: &str) {
    assert_eq!(a.records, b.records, "{label}: records differ");
    for kind in [GameKind::Bilateral, GameKind::Unilateral] {
        for (x, y) in a.stats(kind).iter().zip(b.stats(kind).iter()) {
            assert_eq!(x.alpha, y.alpha, "{label}");
            assert_eq!(x.count, y.count, "{label} at alpha={}", x.alpha);
            assert_eq!(x.mean_poa.to_bits(), y.mean_poa.to_bits(), "{label}");
            assert_eq!(x.max_poa.to_bits(), y.max_poa.to_bits(), "{label}");
            assert_eq!(x.mean_links.to_bits(), y.mean_links.to_bits(), "{label}");
        }
    }
}

/// Acceptance gate: at the paper's α grid the legacy per-α path over
/// the materialized catalogue, the windows-first post-pass over the
/// sweep, and atlas-warm re-runs all render byte-identical Figure 2/3
/// CSVs.
#[test]
fn paper_grid_csvs_identical_across_all_paths() {
    let config = SweepConfig {
        threads: 2,
        ..SweepConfig::standard(6)
    };
    let legacy = SweepResult::run_per_alpha(&config);
    let windows_first = SweepResult::run(&config);
    assert_bit_identical(&windows_first, &legacy, "windows-first vs legacy");

    let path = scratch_path("paper-grid");
    std::fs::remove_file(&path).ok();
    let mut atlas = ClassificationAtlas::open(&path).unwrap();
    // Cold: classifies everything, appends everything.
    let cold = WindowSweep::run(config.n, config.threads, Some(&atlas));
    let appended = atlas.append_records(&cold.records).unwrap();
    assert_eq!(appended, cold.records.len(), "cold run stores every record");
    // Warm, per-key path (no coverage marker yet): every record served
    // from the store (0 fresh appends).
    let warm = WindowSweep::run(config.n, config.threads, Some(&atlas));
    assert_eq!(warm.records, cold.records);
    assert_eq!(atlas.append_records(&warm.records).unwrap(), 0);
    let warm_eval = grid::evaluate(&warm, &config.alphas);
    assert_bit_identical(&warm_eval, &legacy, "atlas-warm vs legacy");

    // Warm, coverage fast path: the full catalogue replays from the
    // store in engine order without enumerating at all.
    atlas.mark_complete(config.n, cold.records.len()).unwrap();
    let replayed = WindowSweep::run(config.n, config.threads, Some(&atlas));
    assert_eq!(replayed.records, cold.records, "replay preserves order");
    let replay_eval = grid::evaluate(&replayed, &config.alphas);
    assert_bit_identical(&replay_eval, &legacy, "atlas-replay vs legacy");

    let reference2 = fig2_csv(&legacy);
    let reference3 = fig3_csv(&legacy);
    for (label, sweep) in [
        ("windows-first", &windows_first),
        ("atlas-warm", &warm_eval),
    ] {
        assert_eq!(fig2_csv(sweep), reference2, "fig2 CSV differs: {label}");
        assert_eq!(fig3_csv(sweep), reference3, "fig3 CSV differs: {label}");
    }
    std::fs::remove_file(&path).ok();
}

/// Builds a random α grid biased toward trouble: random rationals plus
/// exact window endpoints (knife edges where an inclusivity bug in the
/// post-pass would flip membership).
fn random_grid(state: &mut u64, boundary_pool: &[Ratio], len: usize) -> Vec<Ratio> {
    let mut grid: Vec<Ratio> = (0..len)
        .map(|_| {
            let num = (splitmix(state) % 128 + 1) as i64;
            let den = (splitmix(state) % 8 + 1) as i64;
            Ratio::new(num, den)
        })
        .collect();
    for _ in 0..len.min(boundary_pool.len()) {
        let pick = boundary_pool[(splitmix(state) as usize) % boundary_pool.len()];
        if pick > Ratio::ZERO {
            grid.push(pick);
        }
    }
    grid.sort();
    grid.dedup();
    grid
}

/// Every exact threshold appearing in any window of the sweep — the
/// complete set of αs where membership can flip.
fn boundary_pool(windows: &WindowSweep) -> Vec<Ratio> {
    let mut pool = Vec::new();
    for rec in &windows.records {
        if let Some(w) = rec.stability {
            pool.push(w.lower.value);
            if let Threshold::Finite(h) = w.upper {
                pool.push(h);
            }
        }
        if let Some(iv) = rec.transfer {
            pool.push(iv.lo);
            if let Threshold::Finite(h) = iv.hi {
                pool.push(h);
            }
        }
        for iv in &rec.ucg_support {
            pool.push(iv.lo);
            if let Threshold::Finite(h) = iv.hi {
                pool.push(h);
            }
        }
    }
    pool.sort();
    pool.dedup();
    pool
}

/// Property gate (satellite): `grid::evaluate` over a random α grid
/// matches per-α `SweepJob` recomputation bit for bit at n ≤ 7.
#[test]
fn random_grids_match_per_alpha_reference_to_n7() {
    let mut state = 0x5EED_2026u64;
    for n in 4..=7usize {
        let windows = WindowSweep::run(n, 2, None);
        let pool = boundary_pool(&windows);
        assert!(!pool.is_empty(), "n={n}: no window endpoints?");
        // Fewer, larger grids at n = 7 (853 topologies per legacy pass).
        let (rounds, len) = if n == 7 { (1, 6) } else { (3, 8) };
        for round in 0..rounds {
            let alphas = random_grid(&mut state, &pool, len);
            let config = SweepConfig {
                n,
                alphas: alphas.clone(),
                threads: 2,
            };
            let reference = SweepResult::run_per_alpha(&config);
            let evaluated = grid::evaluate(&windows, &alphas);
            assert_bit_identical(
                &evaluated,
                &reference,
                &format!("n={n} round={round} grid={alphas:?}"),
            );
        }
    }
}

/// The named grid families evaluate without re-classifying and keep the
/// paper grid as a strict subset of a refined log2 grid's answers.
#[test]
fn named_grids_are_free_post_passes() {
    let windows = WindowSweep::run(6, 2, None);
    let paper = grid::evaluate(&windows, &GridSpec::Paper.alphas());
    let dense = grid::evaluate(
        &windows,
        &GridSpec::parse("log2:1/4:64:8").unwrap().alphas(),
    );
    assert_eq!(paper.alphas.len(), 16);
    assert!(dense.alphas.len() > 60, "8 per octave over 8 octaves");
    // Every paper grid point appears in the dense grid with identical
    // per-α statistics (same records, same membership).
    let paper_stats = paper.stats(GameKind::Bilateral);
    let dense_stats = dense.stats(GameKind::Bilateral);
    for p in &paper_stats {
        let d = dense_stats
            .iter()
            .find(|d| d.alpha == p.alpha)
            .expect("paper grid ⊂ dense grid");
        assert_eq!(p.count, d.count);
        assert_eq!(p.mean_poa.to_bits(), d.mean_poa.to_bits());
        assert_eq!(p.mean_links.to_bits(), d.mean_links.to_bits());
    }
}
