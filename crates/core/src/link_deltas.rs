//! The per-graph link-delta table behind every window the classifier
//! extracts.
//!
//! The BCG window (Lemma 2), the transfer window and the UCG necessary
//! window all fold the same integers: for every edge the increase in
//! each endpoint's distance sum when it severs the link, and for every
//! missing link the decrease when it is added. [`LinkDeltas`] computes
//! them once — one row-substituted bitset BFS per ordered vertex pair,
//! plus one per vertex for the base sums — and each window is a fold
//! over the table. [`crate::DeltaCalc`] stays the independent per-move
//! oracle the windows are tested against.

use bnf_graph::{BfsScratch, Graph};

use crate::delta::{DeltaCalc, DistanceDelta};

/// Distance sum from `src` over the row-substituted graph: the base
/// rows of `g` with `rows[src]` replaced by `src_row`, or `None` when
/// some vertex is unreachable. Only expansion *out of* `src` uses the
/// substituted row, which is sound because `src` is the BFS source
/// (edges into `src` are never needed).
pub(crate) fn distsum_with_row(rows: &[u64], n: usize, src: usize, src_row: u64) -> Option<u64> {
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let mut seen = 1u64 << src;
    let mut frontier = seen;
    let mut d = 0u64;
    let mut sum = 0u64;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let v = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= if v == src { src_row } else { rows[v] };
        }
        next &= !seen;
        d += 1;
        sum += d * u64::from(next.count_ones());
        seen |= next;
        frontier = next;
    }
    (seen == full).then_some(sum)
}

/// Every single-link deviation of one connected graph, tabulated once.
///
/// It holds each vertex's base distance sum `D_u(N(u))`, and per
/// unordered pair `(u, v)` both endpoints' deltas:
///
/// * edge: drop Δ = `D_u(N(u) ∖ v) − D_u(N(u))`, infinite when the drop
///   disconnects (a bridge);
/// * missing link: add Δ = `D_u(N(u)) − D_u(N(u) ∪ v)`, always finite.
#[derive(Debug)]
pub(crate) struct LinkDeltas {
    /// Base distance sum per vertex.
    base: Vec<u64>,
    /// Per missing link `(Δu, Δv)`.
    adds: Vec<(u64, u64)>,
    /// Per edge `(Δu, Δv)`.
    drops: Vec<(DistanceDelta, DistanceDelta)>,
}

impl LinkDeltas {
    /// Tabulates every link delta of `g`, or `None` when `g` is
    /// disconnected — every window of such a graph is `None`, because
    /// some missing link reconnects components at every α. Orders up to
    /// 64 use bitset rows; larger graphs (long cycles in the Lemma 6
    /// check) fall back to per-move [`DeltaCalc`] queries with
    /// `scratch`, which give the same integers.
    pub(crate) fn new(g: &Graph, scratch: &mut BfsScratch) -> Option<LinkDeltas> {
        let n = g.order();
        if n > 64 {
            return Self::with_delta_calc(g, scratch);
        }
        let rows: Vec<u64> = (0..n).map(|v| g.neighbor_bits(v)).collect();
        let base = rows
            .iter()
            .enumerate()
            .map(|(u, &row)| distsum_with_row(&rows, n, u, row))
            .collect::<Option<Vec<u64>>>()?;
        let mut adds = Vec::new();
        let mut drops = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let (bu, bv) = (1u64 << u, 1u64 << v);
                if rows[u] & bv != 0 {
                    let drop = |a: usize, b: u64| match distsum_with_row(&rows, n, a, rows[a] & !b)
                    {
                        Some(after) => DistanceDelta::Finite(after - base[a]),
                        None => DistanceDelta::Infinite,
                    };
                    drops.push((drop(u, bv), drop(v, bu)));
                } else {
                    let add = |a: usize, b: u64| {
                        let after = distsum_with_row(&rows, n, a, rows[a] | b)
                            .expect("adding a link keeps a connected graph connected");
                        base[a] - after
                    };
                    adds.push((add(u, bv), add(v, bu)));
                }
            }
        }
        Some(LinkDeltas { base, adds, drops })
    }

    fn with_delta_calc(g: &Graph, scratch: &mut BfsScratch) -> Option<LinkDeltas> {
        let mut calc = DeltaCalc::with_scratch(g, std::mem::take(scratch));
        let table = (0..g.order())
            .map(|v| calc.base_distance_sum(v))
            .collect::<Option<Vec<u64>>>()
            .map(|base| {
                let finite = |d: DistanceDelta| {
                    d.finite()
                        .expect("adding a link within a connected graph is finite")
                };
                let adds = g
                    .non_edges()
                    .map(|(u, v)| (finite(calc.add_delta(u, v)), finite(calc.add_delta(v, u))))
                    .collect();
                let drops = g
                    .edges()
                    .map(|(u, v)| (calc.drop_delta(u, v), calc.drop_delta(v, u)))
                    .collect();
                LinkDeltas { base, adds, drops }
            });
        *scratch = calc.into_scratch();
        table
    }

    /// The ordered-pair distance total `Σ_{i,j} d(i,j)`.
    pub(crate) fn total_distance(&self) -> u64 {
        self.base.iter().sum()
    }

    /// Per missing link, both endpoints' add deltas.
    pub(crate) fn adds(&self) -> &[(u64, u64)] {
        &self.adds
    }

    /// Per edge, both endpoints' drop deltas.
    pub(crate) fn drops(&self) -> &[(DistanceDelta, DistanceDelta)] {
        &self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's entries are exactly [`DeltaCalc`]'s, pair by pair.
    fn assert_matches_delta_calc(g: &Graph) {
        let table = LinkDeltas::new(g, &mut BfsScratch::new());
        assert_eq!(table.is_some(), g.is_connected(), "{g:?}");
        let Some(table) = table else {
            return;
        };
        assert_eq!(Some(table.total_distance()), g.total_distance(), "{g:?}");
        let mut calc = DeltaCalc::new(g);
        let adds: Vec<(u64, u64)> = g
            .non_edges()
            .map(|(u, v)| {
                (
                    calc.add_delta(u, v).finite().unwrap(),
                    calc.add_delta(v, u).finite().unwrap(),
                )
            })
            .collect();
        let drops: Vec<(DistanceDelta, DistanceDelta)> = g
            .edges()
            .map(|(u, v)| (calc.drop_delta(u, v), calc.drop_delta(v, u)))
            .collect();
        assert_eq!(table.adds(), adds.as_slice(), "{g:?}");
        assert_eq!(table.drops(), drops.as_slice(), "{g:?}");
    }

    #[test]
    fn table_matches_delta_calc_exhaustively() {
        for n in 0..=6 {
            for g in bnf_enumerate::all_graphs(n) {
                assert_matches_delta_calc(&g);
            }
        }
    }

    #[test]
    fn orders_beyond_the_bitset_rows_use_delta_calc() {
        let cycle = |n: usize| Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        for n in [63usize, 64, 65, 70] {
            assert_matches_delta_calc(&cycle(n));
        }
        let split = Graph::from_edges(66, (0..64).map(|i| (i, i + 1))).unwrap();
        assert!(LinkDeltas::new(&split, &mut BfsScratch::new()).is_none());
    }
}
