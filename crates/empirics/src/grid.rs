//! α-grid construction and the windows-first post-pass.
//!
//! Figures 2 and 3 are curves over the link cost α. Classification is
//! α-independent (one [`bnf_core::WindowRecord`] per topology), so a
//! grid — the
//! paper's 16 log-spaced costs, a dense linear axis, or a log-dense
//! axis — is evaluated afterwards by pure membership tests:
//! [`evaluate`] turns a [`WindowSweep`] plus any `&[Ratio]` into the
//! same [`SweepResult`] the legacy per-α job produces, bit for bit, at
//! a cost of O(topologies × grid) comparisons instead of
//! O(topologies × grid) *classifications*.

use bnf_games::Ratio;

use crate::sweep::{GraphRecord, SweepConfig, SweepResult, WindowSweep};

/// A named α-grid family, parseable from the figure binaries'
/// `--grid` flag.
///
/// All grids are exact rationals. "Log-dense" subdivides each octave
/// `[lo·2^k, lo·2^{k+1}]` linearly — rational throughout, denser at
/// small α in absolute terms, evenly spaced per octave on the paper's
/// log axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridSpec {
    /// The 16-point grid of the figure binaries
    /// ([`SweepConfig::standard`]): log-spaced costs from 1/4 to 64.
    Paper,
    /// `steps` evenly spaced costs from `lo` to `hi` inclusive.
    Linear {
        /// Smallest link cost (must be positive).
        lo: Ratio,
        /// Largest link cost.
        hi: Ratio,
        /// Number of grid points (≥ 2).
        steps: usize,
    },
    /// `per_octave` evenly spaced costs inside every octave from `lo`
    /// up to and including the first power-of-two multiple of `lo`
    /// reaching `hi`.
    LogDense {
        /// Smallest link cost (must be positive).
        lo: Ratio,
        /// Octave doubling stops once reached.
        hi: Ratio,
        /// Grid points per octave (≥ 1).
        per_octave: usize,
    },
}

impl GridSpec {
    /// Parses a `--grid` argument:
    ///
    /// * `paper`
    /// * `linear:<lo>:<hi>:<steps>` — e.g. `linear:1/4:64:256`
    /// * `log2:<lo>:<hi>:<per_octave>` — e.g. `log2:1/4:64:32`
    ///
    /// Ratios accept `p` or `p/q` in decimal integers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown grid names, ratio
    /// syntax errors, non-positive `lo`, `hi < lo`, or degenerate step
    /// counts.
    pub fn parse(s: &str) -> Result<GridSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["paper"] => Ok(GridSpec::Paper),
            ["linear", lo, hi, steps] => {
                let (lo, hi) = parse_range(lo, hi)?;
                let steps: usize = steps
                    .parse()
                    .map_err(|_| format!("bad step count {steps:?}"))?;
                if steps < 2 {
                    return Err("linear grids need at least 2 steps".into());
                }
                Ok(GridSpec::Linear { lo, hi, steps })
            }
            ["log2", lo, hi, per_octave] => {
                let (lo, hi) = parse_range(lo, hi)?;
                let per_octave: usize = per_octave
                    .parse()
                    .map_err(|_| format!("bad per-octave count {per_octave:?}"))?;
                if per_octave < 1 {
                    return Err("log2 grids need at least 1 point per octave".into());
                }
                Ok(GridSpec::LogDense { lo, hi, per_octave })
            }
            _ => Err(format!(
                "unknown grid {s:?}: expected paper, linear:<lo>:<hi>:<steps> or log2:<lo>:<hi>:<per_octave>"
            )),
        }
    }

    /// Materializes the grid as sorted, deduplicated link costs.
    pub fn alphas(&self) -> Vec<Ratio> {
        let mut out = match *self {
            GridSpec::Paper => SweepConfig::standard(0).alphas,
            GridSpec::Linear { lo, hi, steps } => {
                let span = hi - lo;
                let denom = Ratio::from((steps - 1) as i64);
                (0..steps)
                    .map(|k| lo + span * Ratio::from(k as i64) / denom)
                    .collect()
            }
            GridSpec::LogDense { lo, hi, per_octave } => {
                let mut alphas = vec![lo];
                let mut base = lo;
                while base < hi {
                    let next = base + base; // one octave up, exact
                    let step = base / Ratio::from(per_octave as i64);
                    for k in 1..=per_octave {
                        alphas.push(base + step * Ratio::from(k as i64));
                    }
                    base = next;
                }
                alphas
            }
        };
        out.sort();
        out.dedup();
        out
    }
}

fn parse_ratio(s: &str) -> Result<Ratio, String> {
    let parse_int = |t: &str| -> Result<i64, String> {
        t.parse().map_err(|_| format!("bad ratio component {t:?}"))
    };
    match s.split_once('/') {
        Some((p, q)) => {
            let q = parse_int(q)?;
            if q == 0 {
                return Err("ratio denominator is zero".into());
            }
            Ok(Ratio::new(parse_int(p)?, q))
        }
        None => Ok(Ratio::from(parse_int(s)?)),
    }
}

fn parse_range(lo: &str, hi: &str) -> Result<(Ratio, Ratio), String> {
    let lo = parse_ratio(lo)?;
    let hi = parse_ratio(hi)?;
    if lo <= Ratio::ZERO {
        return Err(format!("link costs must be positive, got lo={lo}"));
    }
    if hi < lo {
        return Err(format!("empty grid: hi={hi} < lo={lo}"));
    }
    Ok((lo, hi))
}

/// Evaluates an α grid over a windows-first sweep: pure membership
/// tests per (record, α), producing the identical [`SweepResult`] —
/// records, order, and therefore every f64 aggregate bit for bit — that
/// [`SweepResult::run_per_alpha`] computes by classifying per grid
/// point.
pub fn evaluate(windows: &WindowSweep, alphas: &[Ratio]) -> SweepResult {
    let records = windows
        .records
        .iter()
        .map(|w| GraphRecord {
            edges: w.edges,
            total_distance: w.total_distance,
            bcg_stable: alphas.iter().map(|&a| w.bcg_stable(a)).collect(),
            ucg_nash: alphas.iter().map(|&a| w.ucg_nash(a)).collect(),
            transfer_stable: alphas.iter().map(|&a| w.transfer_stable(a)).collect(),
        })
        .collect();
    SweepResult {
        n: windows.n,
        alphas: alphas.to_vec(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Ratio {
        Ratio::new(p, q)
    }

    #[test]
    fn parse_paper_and_errors() {
        assert_eq!(GridSpec::parse("paper"), Ok(GridSpec::Paper));
        assert!(GridSpec::parse("exponential:1:2:3").is_err());
        assert!(GridSpec::parse("linear:0:4:5").is_err(), "lo must be > 0");
        assert!(GridSpec::parse("linear:4:1:5").is_err(), "hi < lo");
        assert!(GridSpec::parse("linear:1:4:1").is_err(), "steps < 2");
        assert!(GridSpec::parse("linear:1:4:x").is_err());
        assert!(GridSpec::parse("log2:1/0:4:4").is_err(), "zero denominator");
        assert!(GridSpec::parse("log2:1:4:0").is_err());
    }

    #[test]
    fn paper_grid_matches_standard_config() {
        assert_eq!(GridSpec::Paper.alphas(), SweepConfig::standard(7).alphas);
        assert_eq!(GridSpec::Paper.alphas().len(), 16);
    }

    #[test]
    fn linear_grid_is_exact_and_inclusive() {
        let g = GridSpec::parse("linear:1/2:5/2:5").unwrap();
        assert_eq!(
            g.alphas(),
            vec![r(1, 2), Ratio::ONE, r(3, 2), r(2, 1), r(5, 2)]
        );
        // Degenerate span: dedups to a single point.
        let point = GridSpec::Linear {
            lo: r(3, 1),
            hi: r(3, 1),
            steps: 4,
        };
        assert_eq!(point.alphas(), vec![r(3, 1)]);
    }

    #[test]
    fn log_dense_grid_subdivides_octaves() {
        let g = GridSpec::parse("log2:1:8:2").unwrap();
        // Octaves [1,2], [2,4], [4,8], two points each, plus the start.
        assert_eq!(
            g.alphas(),
            vec![
                Ratio::ONE,
                r(3, 2),
                r(2, 1),
                r(3, 1),
                r(4, 1),
                r(6, 1),
                r(8, 1)
            ]
        );
        // The paper's own grid is log2:1/4:64:2 minus its two sub-one
        // half-steps — sanity: log2 grids stay sorted and positive.
        let dense = GridSpec::parse("log2:1/4:64:4").unwrap().alphas();
        assert!(dense.windows(2).all(|w| w[0] < w[1]));
        assert!(dense[0] == r(1, 4) && *dense.last().unwrap() == r(64, 1));
    }

    #[test]
    fn evaluate_matches_per_alpha_reference() {
        let config = SweepConfig {
            n: 5,
            alphas: GridSpec::parse("log2:1/2:16:3").unwrap().alphas(),
            threads: 2,
        };
        let reference = SweepResult::run_per_alpha(&config);
        let windows = WindowSweep::run(config.n, config.threads, None);
        let evaluated = evaluate(&windows, &config.alphas);
        assert_eq!(evaluated.records, reference.records);
        assert_eq!(evaluated.alphas, reference.alphas);
    }
}
