//! Minimum-cost assignment (Hungarian / Kuhn–Munkres algorithm).
//!
//! The potentials-based O(n³) formulation. Costs are `f64` in one flat
//! row-major slice; the matrix may be rectangular with `rows ≤ cols`
//! (every row is assigned a distinct column).

/// Solves the minimum-cost assignment problem.
///
/// `cost[r * cols + c]` is the cost of assigning row `r` to column `c`.
/// Requires `cost.len()` to be a multiple of `cols` and `rows ≤ cols`.
/// Returns `(assignment, total)` where `assignment[r]` is the column chosen
/// for row `r`.
///
/// Each augmentation scans only the columns not yet in its tree, kept in an
/// ascending list, in the order a scan over all columns skipping the used
/// ones would visit them, so every comparison and tie-break is that scan's.
///
/// # Panics
///
/// Panics if the slice is not a whole number of rows or has more rows
/// than columns.
pub fn hungarian(cost: &[f64], cols: usize) -> (Vec<usize>, f64) {
    if cost.is_empty() {
        return (Vec::new(), 0.0);
    }
    assert!(
        cols > 0 && cost.len().is_multiple_of(cols),
        "cost matrix must be rectangular"
    );
    let (n, m) = (cost.len() / cols, cols);
    assert!(n <= m, "need rows <= cols (got {n} x {m})");

    const INF: f64 = f64::INFINITY;
    // 1-based potentials over rows (u) and columns (v); p[j] = row matched to
    // column j (0 = none). Standard e-maxx formulation.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    let mut minv = vec![INF; m + 1];
    // Columns in the current tree (`used`) and the rest, ascending (`free`).
    let mut used: Vec<usize> = Vec::with_capacity(m + 1);
    let mut free: Vec<usize> = Vec::with_capacity(m);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(INF);
        used.clear();
        free.clear();
        free.extend(1..=m);
        loop {
            used.push(j0);
            let i0 = p[j0];
            let row = &cost[(i0 - 1) * m..i0 * m];
            let mut delta = INF;
            let (mut j1, mut at) = (0usize, None);
            for (k, &j) in free.iter().enumerate() {
                let cur = row[j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                    at = Some(k);
                }
            }
            // Each used column holds a distinct row, so these updates
            // touch distinct entries and their order does not matter.
            for &j in &used {
                u[p[j]] += delta;
                v[j] -= delta;
            }
            for &j in &free {
                minv[j] -= delta;
            }
            j0 = j1;
            if let Some(k) = at {
                free.remove(k);
            }
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r * m + c])
        .sum();
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves a matrix given as rows.
    fn solve(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
        hungarian(&cost.concat(), cost.first().map_or(0, Vec::len))
    }

    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        // Try all permutations of column subsets (rows <= 6 in tests).
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == cost.len() {
                *best = best.min(acc);
                return;
            }
            for c in 0..cost[0].len() {
                if !used[c] {
                    used[c] = true;
                    rec(cost, row + 1, used, acc + cost[row][c], best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(cost, 0, &mut vec![false; cost[0].len()], 0.0, &mut best);
        best
    }

    #[test]
    fn empty_matrix() {
        let (a, t) = hungarian(&[], 0);
        assert!(a.is_empty());
        assert_eq!(t, 0.0);
    }

    #[test]
    fn identity_is_optimal_on_diagonal_zeros() {
        let cost = vec![
            vec![0.0, 5.0, 5.0],
            vec![5.0, 0.0, 5.0],
            vec![5.0, 5.0, 0.0],
        ];
        let (a, t) = solve(&cost);
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn classic_3x3() {
        // Known optimum: 1+2+3 = 6 via anti-diagonal-ish choice.
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let (_, t) = solve(&cost);
        assert_eq!(t, 5.0); // 1 + 2 + 2
        assert_eq!(t, brute_force(&cost));
    }

    #[test]
    fn rectangular_matrix_assigns_all_rows() {
        let cost = vec![vec![10.0, 1.0, 7.0, 8.0], vec![1.0, 10.0, 7.0, 8.0]];
        let (a, t) = solve(&cost);
        assert_eq!(a, vec![1, 0]);
        assert_eq!(t, 2.0);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        use chatgraph_support::rng::{RngExt, SeedableRng};
        let mut rng = chatgraph_support::rng::ChaCha12Rng::seed_from_u64(77);
        for _ in 0..50 {
            let n = rng.random_range(1..=5usize);
            let m = rng.random_range(n..=6usize);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| (rng.random_range(0..100u32)) as f64 / 10.0).collect())
                .collect();
            let (a, t) = solve(&cost);
            // assignment is a valid injection
            let mut seen = std::collections::HashSet::new();
            for &c in &a {
                assert!(c < m);
                assert!(seen.insert(c), "column reused");
            }
            let bf = brute_force(&cost);
            assert!((t - bf).abs() < 1e-9, "hungarian {t} vs brute force {bf}");
        }
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn too_many_rows_panics() {
        solve(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_panics() {
        solve(&[vec![1.0, 2.0], vec![2.0]]);
    }
}
