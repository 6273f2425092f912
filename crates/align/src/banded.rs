//! Banded affine-gap extension alignment.
//!
//! The systolic-array EUs and SeedEx-style designs fill only a diagonal band
//! of the DP matrix (Chao-Pearson-Miller banding). This is the matrix-fill
//! workload whose latency the Extension Scheduler models with Formula 3; the
//! software version here is used for chain-gap glue, GACT tiles and the CPU
//! baseline cost model.

use crate::cigar::Cigar;
use crate::scoring::Scoring;
use crate::sw::{
    traceback, DpScratch, ExtensionAlignment, E_EXT, F_EXT, H_DIAG, H_FROM_E, H_FROM_F, NEG_INF,
};

/// Number of DP cells a banded fill touches (workload accounting).
pub fn banded_cells(query_len: usize, target_len: usize, band: usize) -> u64 {
    let width = (2 * band + 1).min(target_len.max(1));
    query_len as u64 * width as u64
}

/// Anchored extension alignment restricted to the diagonal band
/// `|j - i| <= band`.
///
/// Semantics match [`crate::sw::extend_align`] when the optimal path stays
/// inside the band; paths leaving the band are not considered (that is the
/// "speculation" trade-off of banded designs the paper discusses for
/// SeedEx).
///
/// # Panics
///
/// Panics if `band == 0`.
pub fn banded_extend(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    band: usize,
) -> ExtensionAlignment {
    banded_extend_with(query, target, scoring, band, &mut DpScratch::new())
}

/// [`banded_extend`] with caller-provided DP buffers (zero allocations at
/// steady state, bit-identical result).
///
/// # Panics
///
/// Panics if `band == 0`.
pub fn banded_extend_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    band: usize,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    assert!(band > 0, "band width must be positive");
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        return ExtensionAlignment {
            score: 0,
            query_len: 0,
            target_len: 0,
            cigar: Cigar::new(),
        };
    }

    let DpScratch {
        tb,
        h,
        h2,
        f: f_col,
        ..
    } = s;
    let mut h_prev = h;
    let mut h_curr = h2;
    h_prev.clear();
    h_prev.resize(n + 1, NEG_INF);
    h_curr.clear();
    h_curr.resize(n + 1, NEG_INF);
    f_col.clear();
    f_col.resize(n + 1, NEG_INF);
    tb.clear();
    tb.resize((m + 1) * (n + 1), 0);

    // Row 0 within the band: target-consuming gaps from the anchor.
    h_prev[0] = 0;
    for j in 1..=n.min(band) {
        h_prev[j] = -scoring.gap_cost(j as u32);
        tb[j] = H_FROM_E | if j > 1 { E_EXT } else { 0 };
    }

    let mut best = (0i32, 0usize, 0usize);
    for i in 1..=m {
        let j_lo = i.saturating_sub(band).max(1);
        let j_hi = (i + band).min(n);
        if j_lo > j_hi {
            break; // band has left the matrix
        }
        // Clear the cell left of the band entry so stale values from older
        // rows cannot leak in through the E recurrence or the swap buffers.
        if j_lo >= 1 {
            h_curr[j_lo - 1] = NEG_INF;
        }
        if i <= band {
            h_curr[0] = -scoring.gap_cost(i as u32);
            tb[i * (n + 1)] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
        }
        let mut e = NEG_INF;
        for j in j_lo..=j_hi {
            let e_open = h_curr[j - 1] - scoring.gap_cost(1);
            let e_ext = e - scoring.gap_extend;
            let e_flag;
            (e, e_flag) = if e_ext > e_open {
                (e_ext, E_EXT)
            } else {
                (e_open, 0)
            };
            let f_open = h_prev[j] - scoring.gap_cost(1);
            let f_ext = f_col[j] - scoring.gap_extend;
            let f_flag;
            (f_col[j], f_flag) = if f_ext > f_open {
                (f_ext, F_EXT)
            } else {
                (f_open, 0)
            };
            let diag = h_prev[j - 1] + scoring.score(query[i - 1], target[j - 1]);

            let mut h = diag;
            let mut src = H_DIAG;
            if e > h {
                h = e;
                src = H_FROM_E;
            }
            if f_col[j] > h {
                h = f_col[j];
                src = H_FROM_F;
            }
            h_curr[j] = h;
            tb[i * (n + 1) + j] = src | e_flag | f_flag;
            if h > best.0 {
                best = (h, i, j);
            }
        }
        // Invalidate the cell just past the band so the next row's F and
        // diagonal reads see NEG_INF there.
        if j_hi < n {
            h_curr[j_hi + 1] = NEG_INF;
            f_col[j_hi + 1] = NEG_INF;
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
    }

    let (score, bi, bj) = best;
    if bi == 0 && bj == 0 {
        return ExtensionAlignment {
            score: 0,
            query_len: 0,
            target_len: 0,
            cigar: Cigar::new(),
        };
    }
    let (cigar, qi, tj) = traceback(tb, |i, j| i * (n + 1) + j, bi, bj, query, target, false);
    debug_assert_eq!((qi, tj), (0, 0), "banded traceback must reach anchor");
    ExtensionAlignment {
        score,
        query_len: bi,
        target_len: bj,
        cigar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::extend_align;

    fn rand_codes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) & 0b11) as u8
            })
            .collect()
    }

    /// Mutates `seq` with substitutions and a couple of 1-base indels.
    fn mutate(seq: &[u8], mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(seq.len() + 4);
        for (i, &c) in seq.iter().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % 100;
            if r < 3 {
                out.push((c + 1) % 4); // substitution
            } else if r < 4 && i > 5 {
                // deletion: skip
            } else if r < 5 {
                out.push(c);
                out.push((c + 2) % 4); // insertion
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn matches_full_extension_when_band_suffices() {
        let scoring = Scoring::bwa_mem();
        for seed in [1u64, 5, 9, 13] {
            let target = rand_codes(120, seed);
            let query = mutate(&target, seed ^ 0xff);
            let full = extend_align(&query, &target, &scoring);
            let banded = banded_extend(&query, &target, &scoring, 16);
            assert_eq!(banded.score, full.score, "seed {seed}");
            assert_eq!(banded.cigar.score(&scoring), banded.score);
        }
    }

    #[test]
    fn narrow_band_can_miss_large_indels() {
        let scoring = Scoring::bwa_mem();
        // Query = target with a 10-base insertion in the middle.
        let target = rand_codes(80, 3);
        let mut query = target[..40].to_vec();
        query.extend(rand_codes(10, 77));
        query.extend_from_slice(&target[40..]);
        let full = extend_align(&query, &target, &scoring);
        let banded = banded_extend(&query, &target, &scoring, 3);
        assert!(
            banded.score <= full.score,
            "banded {} must not beat full {}",
            banded.score,
            full.score
        );
    }

    #[test]
    fn identical_sequences() {
        let s = rand_codes(64, 2);
        let a = banded_extend(&s, &s, &Scoring::bwa_mem(), 4);
        assert_eq!(a.score, 64);
        assert_eq!(a.cigar.to_string(), "64=");
    }

    #[test]
    fn empty_inputs() {
        let a = banded_extend(&[], &[0, 1], &Scoring::bwa_mem(), 4);
        assert_eq!(a.score, 0);
        let b = banded_extend(&[0, 1], &[], &Scoring::bwa_mem(), 4);
        assert_eq!(b.score, 0);
    }

    #[test]
    fn cell_accounting() {
        assert_eq!(banded_cells(10, 100, 2), 50);
        assert_eq!(banded_cells(10, 3, 8), 30); // width clamped to target
    }

    #[test]
    #[should_panic(expected = "band width must be positive")]
    fn zero_band_panics() {
        let _ = banded_extend(&[0], &[0], &Scoring::bwa_mem(), 0);
    }
}
