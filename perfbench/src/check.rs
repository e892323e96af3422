//! Output checks for the sweep workloads: the stored catalogue must be
//! the complete A001349 population with the reference record digest, and
//! the CSV a sweep printed must equal the Figure 2 fold recomputed here
//! from that catalogue (and, for the n = 8 paper grid, the pinned CSV).

use bnf_atlas::ClassificationAtlas;
use bnf_core::WindowRecord;
use bnf_empirics::grid::{self, GridSpec};
use bnf_empirics::sweep::{EquilibriumStats, WindowSweep};
use bnf_empirics::{fmt_stat, render_csv};
use bnf_games::{GameKind, Ratio};

use crate::util::{
    connected_count, records_digest, reference_digest, Fnv, JsonObj, PAPER_CSV_DIGEST_N8,
};

/// The `fig2_avg_poa --csv` table for the given per-α statistics.
pub fn fig2_csv(bcg: &[EquilibriumStats], ucg: &[EquilibriumStats]) -> String {
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
        .zip(ucg)
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

/// The reference fold: `grid::evaluate` over `records`, rendered as the
/// Figure 2 CSV.
pub fn reference_csv(n: usize, records: Vec<WindowRecord>, alphas: &[Ratio]) -> String {
    let result = grid::evaluate(&WindowSweep { n, records }, alphas);
    fig2_csv(
        &result.stats(GameKind::Bilateral),
        &result.stats(GameKind::Unilateral),
    )
}

/// Loads the complete order-`n` catalogue from a store through the
/// buffered reader (not the indexed one the server uses).
pub fn load_catalogue(store: &str, n: usize) -> Result<Vec<WindowRecord>, String> {
    let atlas = ClassificationAtlas::open(store).map_err(|e| format!("open {store}: {e}"))?;
    atlas
        .complete_sweep(n)
        .ok_or_else(|| format!("{store} has no complete order-{n} catalogue"))
}

/// Checks one sweep's store and CSV; prints a JSON verdict. Returns
/// whether every check passed.
pub fn run(store: &str, n: usize, spec: &str, csv_path: &str) -> Result<bool, String> {
    let alphas = GridSpec::parse(spec)
        .map_err(|e| format!("bad grid {spec:?}: {e}"))?
        .alphas();
    // An unreadable or incomplete store is a wrong output of the sweep,
    // not a usage error.
    let records = match load_catalogue(store, n) {
        Ok(records) => records,
        Err(e) => {
            println!("{}", JsonObj::new().string("error", &e).finish());
            return Ok(false);
        }
    };
    let count = records.len();
    let count_ok = Some(count) == connected_count(n);
    let digest = records_digest(&records);
    let digest_ok = Some(digest.as_str()) == reference_digest(n);
    let printed = std::fs::read_to_string(csv_path).map_err(|e| format!("read {csv_path}: {e}"))?;
    let mut csv_digest = Fnv::new();
    csv_digest.update(printed.as_bytes());
    let pinned = (n, spec) != (8, "paper") || csv_digest.hex() == PAPER_CSV_DIGEST_N8;
    let csv_ok = pinned && printed == reference_csv(n, records, &alphas);
    println!(
        "{}",
        JsonObj::new()
            .int("records", count as u64)
            .boolean("count_ok", count_ok)
            .string("digest", &digest)
            .boolean("digest_ok", digest_ok)
            .boolean("csv_ok", csv_ok)
            .finish()
    );
    Ok(count_ok && digest_ok && csv_ok)
}
