//! Sequential linear-algebra references for validating the actor
//! workloads: column-oriented Cholesky factorization and helpers for
//! generating well-conditioned inputs.

/// Initial xorshift state of row `i` of the random factor `B`.
#[inline]
fn b_row_state(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1
}

/// Advance a row's xorshift state and return its next entry in [-1, 1).
#[inline]
fn b_next(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Row `i` of the random factor `B` used by the SPD generators —
/// regenerable in O(n) anywhere, so distributed column actors can build
/// their own column without shipping the matrix.
pub fn b_row(n: usize, seed: u64, i: usize) -> Vec<f64> {
    let mut state = b_row_state(seed, i);
    (0..n).map(|_| b_next(&mut state)).collect()
}

/// Column `j` of the deterministic SPD matrix `A = B·Bᵀ + n·I`.
/// `random_spd` assembles the same matrix from these columns.
pub fn spd_column(n: usize, seed: u64, j: usize) -> Vec<f64> {
    let bj = b_row(n, seed, j);
    (0..n)
        .map(|i| {
            let bi = b_row(n, seed, i);
            let dot: f64 = bi.iter().zip(&bj).map(|(x, y)| x * y).sum();
            dot + if i == j { n as f64 } else { 0.0 }
        })
        .collect()
}

/// Rows generated side by side by [`spd_column_tail`]: a row's xorshift
/// chain and its running sum are both serial, so one row at a time
/// leaves the core waiting on latency.
const TAIL_LANES: usize = 4;

/// Rows `j..n` of column `j` of the same matrix — bit for bit
/// `spd_column(n, seed, j)[j..]`, the part a left-looking factorization
/// touches — without materializing any row of `B` but `b_j`: each row's
/// entries are consumed by its dot product as the generator produces
/// them, every sum in the same `k` order as `spd_column`'s.
pub fn spd_column_tail(n: usize, seed: u64, j: usize) -> Vec<f64> {
    let bj = b_row(n, seed, j);
    let mut tail = vec![0.0; n - j];
    for (block, out) in tail.chunks_mut(TAIL_LANES).enumerate() {
        let first = j + block * TAIL_LANES;
        // A short last block still runs every lane (a row index past n
        // is only a seed) and keeps the lanes it has room for.
        let mut state: [u64; TAIL_LANES] = std::array::from_fn(|l| b_row_state(seed, first + l));
        // `-0.0` is where `Iterator::sum` starts an f64 sum.
        let mut dot = [-0.0f64; TAIL_LANES];
        for &y in &bj {
            for l in 0..TAIL_LANES {
                dot[l] += b_next(&mut state[l]) * y;
            }
        }
        for (l, v) in out.iter_mut().enumerate() {
            *v = dot[l] + if first + l == j { n as f64 } else { 0.0 };
        }
    }
    tail
}

/// Generate a deterministic symmetric positive-definite n×n matrix:
/// `A = B·Bᵀ + n·I` with random B — always SPD, well conditioned.
pub fn random_spd(n: usize, seed: u64) -> Vec<f64> {
    let rows: Vec<Vec<f64>> = (0..n).map(|i| b_row(n, seed, i)).collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        // Each `b_i·b_j` once, mirrored: products commute and both
        // orders sum over the same k, so the mirror is the exact value.
        for j in 0..=i {
            let acc: f64 = rows[i].iter().zip(&rows[j]).map(|(x, y)| x * y).sum();
            a[i * n + j] = acc;
            a[j * n + i] = acc;
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// In-place column-oriented (left-looking) Cholesky: `A = L·Lᵀ`, lower
/// triangle of `a` replaced by `L`, upper triangle left untouched.
///
/// This is the algorithm the paper's Table 1 implementations all
/// compute; the four variants differ only in how column updates are
/// scheduled and synchronized across nodes.
///
/// # Panics
/// Panics if a pivot is non-positive (matrix not positive definite).
pub fn cholesky_seq(a: &mut [f64], n: usize) {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        // cdiv prologue: apply updates from all previous columns.
        for k in 0..j {
            let ljk = a[j * n + k];
            for i in j..n {
                a[i * n + j] -= a[i * n + k] * ljk;
            }
        }
        // cdiv: scale column j.
        let pivot = a[j * n + j];
        assert!(pivot > 0.0, "matrix not positive definite at column {j}");
        let d = pivot.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            a[i * n + j] /= d;
        }
    }
}

/// Reconstruct `L·Lᵀ` from a factored lower triangle (for validation).
pub fn llt(a: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            let kmax = i.min(j) + 1;
            for k in 0..kmax {
                acc += a[i * n + k] * a[j * n + k];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// FLOP count of an n×n Cholesky: n³/3 + O(n²).
pub fn cholesky_flops(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3 + 2 * n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::max_abs_diff;

    #[test]
    fn factorization_reconstructs_input() {
        let n = 24;
        let a0 = random_spd(n, 7);
        let mut a = a0.clone();
        cholesky_seq(&mut a, n);
        let recon = llt(&a, n);
        // Compare lower triangles (upper of `a` is untouched garbage for
        // the reconstruction, llt only reads lower).
        let mut max = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                max = max.max((recon[i * n + j] - a0[i * n + j]).abs());
            }
        }
        assert!(max < 1e-9, "reconstruction error {max}");
    }

    #[test]
    fn l_is_lower_triangular_with_positive_diagonal() {
        let n = 10;
        let mut a = random_spd(n, 3);
        cholesky_seq(&mut a, n);
        for i in 0..n {
            assert!(a[i * n + i] > 0.0);
        }
    }

    #[test]
    fn known_3x3() {
        // A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L =
        // [[2,0,0],[6,1,0],[-8,5,3]] (classic textbook example).
        let mut a = vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0];
        cholesky_seq(&mut a, 3);
        let l = [2.0, 6.0, 1.0, -8.0, 5.0, 3.0];
        let got = [a[0], a[3], a[4], a[6], a[7], a[8]];
        assert!(max_abs_diff(&l, &got) < 1e-12, "{got:?}");
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn non_spd_is_rejected() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        cholesky_seq(&mut a, 2);
    }

    #[test]
    fn spd_columns_match_full_matrix() {
        let n = 16;
        let seed = 5;
        let a = random_spd(n, seed);
        for j in 0..n {
            let col = spd_column(n, seed, j);
            for i in 0..n {
                assert!(
                    (col[i] - a[i * n + j]).abs() < 1e-12,
                    "column {j} row {i} disagrees"
                );
            }
        }
    }

    #[test]
    fn spd_generator_is_symmetric() {
        let n = 12;
        let a = random_spd(n, 9);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(a[i * n + j].to_bits(), a[j * n + i].to_bits());
            }
        }
    }

    #[test]
    fn spd_column_tail_is_the_column_tail_bit_for_bit() {
        // Every j, so the diagonal's `+ n` is compared at both ends; 37
        // so the last block of rows is short for most j.
        for (n, seed) in [(16usize, 5u64), (37, 99), (192, 12345)] {
            for j in 0..n {
                let full = spd_column(n, seed, j);
                let tail = spd_column_tail(n, seed, j);
                assert_eq!(tail.len(), n - j);
                for (i, (t, f)) in tail.iter().zip(&full[j..]).enumerate() {
                    assert_eq!(
                        t.to_bits(),
                        f.to_bits(),
                        "n={n} seed={seed} column {j} row {}",
                        j + i
                    );
                }
            }
        }
    }
}
