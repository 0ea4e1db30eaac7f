//! Maximum-weight bipartite assignment (Kuhn–Munkres / Hungarian method).
//!
//! The paper leans on Kuhn–Munkres twice: the advanced heuristic
//! (Section 5) is a primal–dual KM skeleton re-scored with pattern bounds,
//! and the Iterative and Entropy baselines need a plain optimal assignment
//! over a similarity matrix. This module provides the latter as a clean
//! substrate: the `O(n³)` potentials-based shortest-augmenting-path
//! formulation, generalized to rectangular instances (`rows ≤ cols`) by
//! implicit zero-weight padding.

/// Returns the column assigned to each row under a maximum-total-weight
/// perfect matching of the rows.
///
/// `weights[r][c]` is the gain of assigning row `r` to column `c`. Requires
/// `rows ≤ cols` and rectangular input; every row is assigned a distinct
/// column. Ties are broken deterministically.
///
/// # Panics
///
/// Panics if the matrix is ragged or has more rows than columns.
pub fn max_weight_assignment(weights: &[Vec<f64>]) -> Vec<usize> {
    let rows = weights.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = weights[0].len();
    assert!(
        weights.iter().all(|r| r.len() == cols),
        "weight matrix must be rectangular"
    );
    assert!(rows <= cols, "assignment requires rows ≤ cols");

    // Minimize cost = -weight over an implicitly padded square matrix:
    // rows rows..cols are dummies with cost 0 everywhere. The classic
    // potentials formulation below indexes rows/cols 1-based with a virtual
    // row/column 0.
    let n = cols;
    let cost = |i: usize, j: usize| -> f64 {
        if i < rows {
            -weights[i][j]
        } else {
            0.0
        }
    };

    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    // p[j] = 1-based row matched to column j (0 = unmatched).
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = vec![usize::MAX; rows];
    for (j, &row) in p.iter().enumerate().skip(1) {
        if row >= 1 && row <= rows {
            result[row - 1] = j - 1;
        }
    }
    debug_assert!(result.iter().all(|&c| c != usize::MAX));
    result
}

/// Total weight of an assignment produced by [`max_weight_assignment`].
pub fn assignment_value(weights: &[Vec<f64>], assignment: &[usize]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| weights[r][c])
        .sum()
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;

    fn brute_force_best(weights: &[Vec<f64>]) -> f64 {
        fn go(weights: &[Vec<f64>], row: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            if row == weights.len() {
                *best = best.max(acc);
                return;
            }
            for c in 0..used.len() {
                if !used[c] {
                    used[c] = true;
                    go(weights, row + 1, used, acc + weights[row][c], best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::NEG_INFINITY;
        let mut used = vec![false; weights.first().map_or(0, Vec::len)];
        go(weights, 0, &mut used, 0.0, &mut best);
        best
    }

    fn is_injective(assignment: &[usize]) -> bool {
        let mut seen = std::collections::HashSet::new();
        assignment.iter().all(|&c| seen.insert(c))
    }

    #[test]
    fn trivial_cases() {
        assert!(max_weight_assignment(&[]).is_empty());
        assert_eq!(max_weight_assignment(&[vec![3.5]]), vec![0]);
    }

    #[test]
    fn picks_the_obvious_diagonal() {
        let w = vec![
            vec![10.0, 1.0, 1.0],
            vec![1.0, 10.0, 1.0],
            vec![1.0, 1.0, 10.0],
        ];
        assert_eq!(max_weight_assignment(&w), vec![0, 1, 2]);
    }

    #[test]
    fn handles_anti_diagonal_optimum() {
        let w = vec![vec![1.0, 5.0], vec![5.0, 1.0]];
        assert_eq!(max_weight_assignment(&w), vec![1, 0]);
    }

    #[test]
    fn greedy_trap_is_avoided() {
        // Greedy would take (0,0)=9 forcing (1,1)=0; optimum is 8+7=15.
        let w = vec![vec![9.0, 8.0], vec![7.0, 0.0]];
        let a = max_weight_assignment(&w);
        assert_eq!(assignment_value(&w, &a), 15.0);
    }

    #[test]
    fn rectangular_rows_less_than_cols() {
        let w = vec![vec![1.0, 9.0, 2.0], vec![9.0, 8.0, 3.0]];
        let a = max_weight_assignment(&w);
        assert!(is_injective(&a));
        assert_eq!(assignment_value(&w, &a), 18.0);
    }

    #[test]
    #[should_panic(expected = "rows ≤ cols")]
    fn more_rows_than_cols_panics() {
        max_weight_assignment(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_panics() {
        max_weight_assignment(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn negative_weights_are_fine() {
        let w = vec![vec![-1.0, -5.0], vec![-5.0, -2.0]];
        let a = max_weight_assignment(&w);
        assert_eq!(assignment_value(&w, &a), -3.0);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_matrices() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for n in 1..=5 {
            for extra in 0..=1 {
                let cols = n + extra;
                let w: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..cols).map(|_| next()).collect())
                    .collect();
                let a = max_weight_assignment(&w);
                assert!(is_injective(&a), "assignment must be injective");
                let got = assignment_value(&w, &a);
                let want = brute_force_best(&w);
                assert!(
                    (got - want).abs() < 1e-9,
                    "n={n} cols={cols}: got {got}, want {want}"
                );
            }
        }
    }
}
