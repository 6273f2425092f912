//! Full affine-gap Smith-Waterman with traceback.
//!
//! Three entry points share one forward fill: [`local_align`] (classic
//! local alignment, zero-floored), [`extend_align`] (anchored at the
//! origin, the seed-extension and GACT-tile step) and [`global_align`]
//! (both ends fixed, the chain-gap glue). Each produces an exact [`Cigar`]
//! via a packed traceback matrix, like Darwin's GACT tiles do in SRAM.
//!
//! The fill is a **wavefront**: it sweeps the matrix one anti-diagonal
//! `d = i + j` at a time, as the systolic extension units do (see
//! `nvwa_core::extension::systolic`). The cells of one anti-diagonal do
//! not depend on each other, so the cell body carries no loop-carried
//! chain and compiles to vector code:
//!
//! * **Buffers.** Three rolling `i`-indexed H buffers hold diagonals `d`,
//!   `d-1` and `d-2`. E (gap consuming target) is updated in place at
//!   index `i`; F (gap consuming query) in place at index `n - j`, so both
//!   read their own predecessor at the same index. The target is reversed
//!   once per call, putting `target[j-1]` at `n - j`: the query and the
//!   reversed target are both contiguous, ascending slices along a
//!   diagonal, as are all five buffers.
//! * **Cell body.** Branch-free selects in the diag → E → F strict-`>`
//!   order of the row-major recurrence, so every H value and traceback
//!   byte equals the one [`naive`] computes.
//! * **Traceback.** Bytes are laid out diagonal-major (diagonal `d` starts
//!   at a closed-form offset, cells ordered by `i`), so each diagonal
//!   writes one contiguous run. [`traceback`] takes the cell-index
//!   function, which keeps the banded kernel on its row-major layout.
//! * **Best cell.** The row-major fill keeps the first strict maximum in
//!   row-major order: the largest score, ties to the smallest `i`, then
//!   the smallest `j`. The wavefront takes each diagonal's maximum, finds
//!   its smallest `i` only when it can win, and replaces the best on a
//!   larger score or an equal score at a smaller `i`. Within one diagonal
//!   the rows differ; between diagonals an equal `i` means a larger `j`,
//!   which never replaces. So end cells, scores and CIGARs are unchanged.
//! * **AVX2.** The same `#[inline(always)]` body is compiled twice: as is
//!   and inside a `#[target_feature(enable = "avx2")]` wrapper, picked per
//!   fill by `is_x86_feature_detected!` (cached by std). One source, two
//!   instruction selections.
//!
//! [`naive`] keeps the textbook row-major fills as the differential-testing
//! oracle.

use crate::cigar::{Cigar, CigarOp};
use crate::scoring::Scoring;

/// Sufficiently negative sentinel that never overflows when added to.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

// Traceback encoding: bits 0-1 = H source, bit 2 = E extends E,
// bit 3 = F extends F.
pub(crate) const H_STOP: u8 = 0;
pub(crate) const H_DIAG: u8 = 1;
pub(crate) const H_FROM_E: u8 = 2; // gap consuming target (Del)
pub(crate) const H_FROM_F: u8 = 3; // gap consuming query (Ins)
pub(crate) const E_EXT: u8 = 1 << 2;
pub(crate) const F_EXT: u8 = 1 << 3;

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignment {
    /// Optimal local score (0 if no positive-scoring alignment exists).
    pub score: i32,
    /// Query span `[query_start, query_end)`.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Target span `[target_start, target_end)`.
    pub target_start: usize,
    /// Exclusive target end.
    pub target_end: usize,
    /// Edit transcript of the aligned region.
    pub cigar: Cigar,
}

/// Result of an anchored extension alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionAlignment {
    /// Best score over all cells (0 for the empty extension).
    pub score: i32,
    /// Query bases consumed by the best extension.
    pub query_len: usize,
    /// Target bases consumed by the best extension.
    pub target_len: usize,
    /// Edit transcript from the anchor to the best cell.
    pub cigar: Cigar,
}

/// Number of DP cells a full matrix-fill touches (workload accounting for
/// the CPU cost model and Fig. 2).
pub fn dp_cells(query_len: usize, target_len: usize) -> u64 {
    query_len as u64 * target_len as u64
}

/// Reusable DP buffers for the SW and banded kernels: the packed traceback
/// matrix, the rolling H, E and F buffers and the reversed target. One
/// instance per worker (inside `AlignScratch`) or per long read removes
/// every per-call allocation; results are bit-identical to the allocating
/// entry points.
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    pub(crate) tb: Vec<u8>,
    pub(crate) h: Vec<i32>,
    pub(crate) h2: Vec<i32>,
    h3: Vec<i32>,
    e: Vec<i32>,
    pub(crate) f: Vec<i32>,
    t_rev: Vec<u8>,
}

impl DpScratch {
    /// An empty scratch.
    pub fn new() -> DpScratch {
        DpScratch::default()
    }
}

/// The best cell `(score, i, j)` in row-major first-strict-max order and
/// the score of the last cell `(m, n)` (for global alignment).
type Fill = ((i32, usize, usize), i32);

/// Offset of anti-diagonal `d` in the diagonal-major traceback of an
/// `(m+1)×(n+1)` matrix: the number of cells on diagonals `0..d`.
#[inline]
fn diag_offset(m: usize, n: usize, d: usize) -> usize {
    let (a, b) = (m.min(n), m.max(n));
    let tri = |x: usize| x * (x + 1) / 2;
    if d <= a + 1 {
        tri(d)
    } else if d <= b + 1 {
        tri(a + 1) + (d - a - 1) * (a + 1)
    } else {
        (m + 1) * (n + 1) - tri(m + n + 1 - d)
    }
}

/// Index of cell `(i, j)` in the diagonal-major traceback of an
/// `(m+1)×(n+1)` matrix: diagonal `i + j`, cells ordered by `i`.
#[inline]
fn diag_index(m: usize, n: usize, i: usize, j: usize) -> usize {
    let d = i + j;
    diag_offset(m, n, d) + i - d.saturating_sub(n)
}

/// The wavefront fill. `LOCAL` selects the zero-floored local recurrence;
/// otherwise the anchored (extension/global) recurrence with gap-scored
/// boundaries. The traceback matrix is left in `s.tb`, diagonal-major.
fn fill<const LOCAL: bool>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> Fill {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        return unsafe { fill_avx2::<LOCAL>(query, target, scoring, s) };
    }
    fill_body::<LOCAL>(query, target, scoring, s)
}

/// [`fill_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2<const LOCAL: bool>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> Fill {
    fill_body::<LOCAL>(query, target, scoring, s)
}

#[inline(always)]
fn fill_body<const LOCAL: bool>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> Fill {
    let (m, n) = (query.len(), target.len());
    let go1 = scoring.gap_cost(1);
    let ge = scoring.gap_extend;
    let DpScratch {
        tb,
        h,
        h2,
        h3,
        e,
        f,
        t_rev,
    } = s;

    // Every cell, boundaries included, is written below: no clearing.
    let cells = (m + 1) * (n + 1);
    if tb.len() < cells {
        tb.resize(cells, 0);
    }
    t_rev.clear();
    t_rev.extend(target.iter().rev());
    for buf in [&mut *h, &mut *h2, &mut *h3, &mut *e] {
        buf.clear();
        buf.resize(m + 1, NEG_INF);
    }
    f.clear();
    f.resize(n + 1, NEG_INF);

    // Row 0 / column 0 at distance k ≥ 1 from the origin, with its
    // traceback byte (E-gaps along row 0, F-gaps down column 0).
    let edge = |k: usize| -> i32 {
        if LOCAL {
            0
        } else {
            -go1 - (k as i32 - 1) * ge
        }
    };
    let edge_tb = |src: u8, ext: u8, k: usize| -> u8 {
        if LOCAL {
            H_STOP
        } else {
            src | if k > 1 { ext } else { 0 }
        }
    };

    // Diagonals d (being written), d-1 and d-2.
    let (mut cur, mut prev, mut prev2) = (&mut h[..], &mut h2[..], &mut h3[..]);
    prev[0] = 0;
    tb[0] = H_STOP;
    let mut best = (0i32, 0usize, 0usize);
    for d in 1..=m + n {
        let base = diag_offset(m, n, d);
        let first = d.saturating_sub(n);
        if d <= n {
            cur[0] = edge(d);
            f[n - d] = NEG_INF;
            tb[base] = edge_tb(H_FROM_E, E_EXT, d);
        }
        if d <= m {
            cur[d] = edge(d);
            e[d] = NEG_INF;
            tb[base + d - first] = edge_tb(H_FROM_F, F_EXT, d);
        }
        let (lo, hi) = (first.max(1), m.min(d - 1));
        if lo <= hi {
            // Cell (i, d-i) for i in lo..=hi; `target[j-1]` and F of
            // column j both sit at n - j = n - d + i.
            let rev = n + lo - d;
            let len = hi + 1 - lo;
            let dmax = diagonal::<LOCAL>(
                Operands {
                    q: &query[lo - 1..hi],
                    t: &t_rev[rev..rev + len],
                    h_left: &prev[lo..=hi],
                    h_up: &prev[lo - 1..hi],
                    h_diag: &prev2[lo - 1..hi],
                },
                &mut e[lo..=hi],
                &mut f[rev..rev + len],
                &mut cur[lo..=hi],
                &mut tb[base + lo - first..base + hi + 1 - first],
                scoring,
            );
            if dmax > best.0 || (dmax == best.0 && best.1 > lo) {
                let i = lo
                    + cur[lo..=hi]
                        .iter()
                        .position(|&v| v == dmax)
                        .expect("the diagonal maximum is on the diagonal");
                if dmax > best.0 || i < best.1 {
                    best = (dmax, i, d - i);
                }
            }
        }
        let freed = prev2;
        prev2 = prev;
        prev = cur;
        cur = freed;
    }
    (best, prev[m])
}

/// The read-only operands of one diagonal, all indexed like its cells.
struct Operands<'a> {
    q: &'a [u8],
    t: &'a [u8],
    h_left: &'a [i32],
    h_up: &'a [i32],
    h_diag: &'a [i32],
}

/// Computes one anti-diagonal's cells: H into `h`, E and F in place,
/// traceback bytes into `tb`. Returns the diagonal's maximum H.
#[inline(always)]
fn diagonal<const LOCAL: bool>(
    ops: Operands<'_>,
    e: &mut [i32],
    f: &mut [i32],
    h: &mut [i32],
    tb: &mut [u8],
    scoring: &Scoring,
) -> i32 {
    let len = h.len();
    let (q, t) = (&ops.q[..len], &ops.t[..len]);
    let (h_left, h_up, h_diag) = (&ops.h_left[..len], &ops.h_up[..len], &ops.h_diag[..len]);
    let (e, f, tb) = (&mut e[..len], &mut f[..len], &mut tb[..len]);
    let go1 = scoring.gap_cost(1);
    let ge = scoring.gap_extend;
    let (hit, miss) = (scoring.match_score, -scoring.mismatch_penalty);
    let mut dmax = i32::MIN;
    for x in 0..len {
        let e_open = h_left[x] - go1;
        let e_ext = e[x] - ge;
        let e_more = e_ext > e_open;
        let ev = if e_more { e_ext } else { e_open };
        let f_open = h_up[x] - go1;
        let f_ext = f[x] - ge;
        let f_more = f_ext > f_open;
        let fv = if f_more { f_ext } else { f_open };
        let diag = h_diag[x] + if q[x] == t[x] { hit } else { miss };

        let (mut hv, mut src) = if LOCAL && diag <= 0 {
            (0, H_STOP)
        } else {
            (diag, H_DIAG)
        };
        if ev > hv {
            hv = ev;
            src = H_FROM_E;
        }
        if fv > hv {
            hv = fv;
            src = H_FROM_F;
        }
        e[x] = ev;
        f[x] = fv;
        h[x] = hv;
        tb[x] = src | if e_more { E_EXT } else { 0 } | if f_more { F_EXT } else { 0 };
        dmax = dmax.max(hv);
    }
    dmax
}

/// Classic affine-gap local alignment (Smith-Waterman-Gotoh).
///
/// Returns the best-scoring local alignment; for the empty input or an
/// all-negative matrix the result has `score == 0` and an empty CIGAR.
/// Convenience wrapper over [`local_align_with`] with fresh buffers.
pub fn local_align(query: &[u8], target: &[u8], scoring: &Scoring) -> LocalAlignment {
    local_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`local_align`] with caller-provided DP buffers (zero allocations at
/// steady state, bit-identical result).
pub fn local_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> LocalAlignment {
    let (m, n) = (query.len(), target.len());
    let (best, _) = fill::<true>(query, target, scoring, s);
    let (score, bi, bj) = best;
    if score <= 0 {
        return LocalAlignment {
            score: 0,
            query_start: 0,
            query_end: 0,
            target_start: 0,
            target_end: 0,
            cigar: Cigar::new(),
        };
    }
    let at = |i, j| diag_index(m, n, i, j);
    let (cigar, qi, tj) = traceback(&s.tb, at, bi, bj, query, target, true);
    LocalAlignment {
        score,
        query_start: qi,
        query_end: bi,
        target_start: tj,
        target_end: bj,
        cigar,
    }
}

/// Anchored extension alignment: both sequences start at the anchor (cell
/// (0,0) scores 0, no zero-floor) and the best cell anywhere wins.
///
/// This is the flank-extension step of seed-and-extend: the query flank is
/// extended into the reference window, soft-clipping whatever does not pay.
pub fn extend_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
    extend_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`extend_align`] with caller-provided DP buffers.
pub fn extend_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    let (m, n) = (query.len(), target.len());
    let (best, _) = fill::<false>(query, target, scoring, s);
    let (score, bi, bj) = best;
    if bi == 0 && bj == 0 {
        return ExtensionAlignment {
            score: 0,
            query_len: 0,
            target_len: 0,
            cigar: Cigar::new(),
        };
    }
    let at = |i, j| diag_index(m, n, i, j);
    let (cigar, qi, tj) = traceback(&s.tb, at, bi, bj, query, target, false);
    debug_assert_eq!((qi, tj), (0, 0), "extension traceback must reach anchor");
    ExtensionAlignment {
        score,
        query_len: bi,
        target_len: bj,
        cigar,
    }
}

/// Global (end-to-end) affine alignment of `query` against `target`.
///
/// Both sequences are consumed entirely; used to glue the gaps between
/// chained seeds, where both endpoints are fixed by the flanking seeds.
pub fn global_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
    global_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`global_align`] with caller-provided DP buffers.
pub fn global_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        // Pure gap (or empty) alignment.
        let mut cigar = Cigar::new();
        if m > 0 {
            cigar.push(CigarOp::Ins, m as u32);
        }
        if n > 0 {
            cigar.push(CigarOp::Del, n as u32);
        }
        return ExtensionAlignment {
            score: cigar.score(scoring),
            query_len: m,
            target_len: n,
            cigar,
        };
    }
    let (_, last) = fill::<false>(query, target, scoring, s);
    let at = |i, j| diag_index(m, n, i, j);
    let (cigar, qi, tj) = traceback(&s.tb, at, m, n, query, target, false);
    debug_assert_eq!((qi, tj), (0, 0), "global traceback must reach origin");
    ExtensionAlignment {
        score: last,
        query_len: m,
        target_len: n,
        cigar,
    }
}

/// Walks the packed traceback matrix from `(bi, bj)` back to a stop cell
/// (local) or the origin (extension). `at(i, j)` maps a cell to its byte in
/// `tb` (diagonal-major for the full fill, row-major for the banded one).
/// Returns the forward-oriented CIGAR and the start cell.
pub(crate) fn traceback(
    tb: &[u8],
    at: impl Fn(usize, usize) -> usize,
    mut i: usize,
    mut j: usize,
    query: &[u8],
    target: &[u8],
    local: bool,
) -> (Cigar, usize, usize) {
    let mut cigar = Cigar::new();
    // Which matrix we are in: 0 = H, 1 = E, 2 = F.
    let mut state = 0u8;
    loop {
        if i == 0 && j == 0 {
            break;
        }
        let cell = tb[at(i, j)];
        match state {
            0 => {
                let src = cell & 0b11;
                match src {
                    H_STOP if local => break,
                    H_DIAG => {
                        let op = if query[i - 1] == target[j - 1] {
                            CigarOp::Match
                        } else {
                            CigarOp::Subst
                        };
                        cigar.push(op, 1);
                        i -= 1;
                        j -= 1;
                    }
                    H_FROM_E => state = 1,
                    H_FROM_F => state = 2,
                    _ => unreachable!("invalid traceback state at ({i},{j})"),
                }
            }
            1 => {
                // E consumed target[j-1].
                cigar.push(CigarOp::Del, 1);
                let extended = cell & E_EXT != 0;
                j -= 1;
                if !extended {
                    state = 0;
                }
            }
            _ => {
                // F consumed query[i-1].
                cigar.push(CigarOp::Ins, 1);
                let extended = cell & F_EXT != 0;
                i -= 1;
                if !extended {
                    state = 0;
                }
            }
        }
    }
    cigar.reverse();
    (cigar, i, j)
}

/// Reference implementations: textbook row-major two-row fills with a
/// per-cell scoring call and a row-major traceback. Not used by the
/// pipeline — kept as the differential-testing oracle for the wavefront
/// fill (unit tests here and the property tests in `tests/proptests.rs`
/// compare against them).
pub mod naive {
    use super::*;

    /// Reference [`local_align`](super::local_align).
    pub fn local_align(query: &[u8], target: &[u8], scoring: &Scoring) -> LocalAlignment {
        let m = query.len();
        let n = target.len();
        let mut h_prev = vec![0i32; n + 1];
        let mut h_curr = vec![0i32; n + 1];
        // F is column-local (gap consuming query): persists across rows.
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];

        let mut best = (0i32, 0usize, 0usize);
        for i in 1..=m {
            // E is row-local (gap consuming target): resets each row.
            let mut e = NEG_INF;
            h_curr[0] = 0;
            for j in 1..=n {
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

                let mut h = 0i32;
                let mut src = H_STOP;
                if diag > h {
                    h = diag;
                    src = H_DIAG;
                }
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
            std::mem::swap(&mut h_prev, &mut h_curr);
        }

        let (score, bi, bj) = best;
        if score <= 0 {
            return LocalAlignment {
                score: 0,
                query_start: 0,
                query_end: 0,
                target_start: 0,
                target_end: 0,
                cigar: Cigar::new(),
            };
        }
        let (cigar, qi, tj) = traceback(&tb, |i, j| i * (n + 1) + j, bi, bj, query, target, true);
        LocalAlignment {
            score,
            query_start: qi,
            query_end: bi,
            target_start: tj,
            target_end: bj,
            cigar,
        }
    }

    /// Reference [`extend_align`](super::extend_align).
    pub fn extend_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
        let m = query.len();
        let n = target.len();
        let mut h_prev: Vec<i32> = (0..=n)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    -scoring.gap_cost(j as u32)
                }
            })
            .collect();
        let mut h_curr = vec![NEG_INF; n + 1];
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];
        // Row 0 comes from E-gaps; mark for traceback.
        for cell in tb.iter_mut().take(n + 1).skip(1) {
            *cell = H_FROM_E | E_EXT;
        }
        if n >= 1 {
            tb[1] = H_FROM_E;
        }

        let mut best = (0i32, 0usize, 0usize);
        for i in 1..=m {
            let mut e = NEG_INF;
            h_curr[0] = -scoring.gap_cost(i as u32);
            tb[i * (n + 1)] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
            for j in 1..=n {
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
        let (cigar, qi, tj) = traceback(&tb, |i, j| i * (n + 1) + j, bi, bj, query, target, false);
        debug_assert_eq!((qi, tj), (0, 0), "extension traceback must reach anchor");
        ExtensionAlignment {
            score,
            query_len: bi,
            target_len: bj,
            cigar,
        }
    }

    /// Reference [`global_align`](super::global_align).
    pub fn global_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
        let m = query.len();
        let n = target.len();
        if m == 0 || n == 0 {
            // Pure gap (or empty) alignment.
            let mut cigar = Cigar::new();
            if m > 0 {
                cigar.push(CigarOp::Ins, m as u32);
            }
            if n > 0 {
                cigar.push(CigarOp::Del, n as u32);
            }
            return ExtensionAlignment {
                score: cigar.score(scoring),
                query_len: m,
                target_len: n,
                cigar,
            };
        }
        let mut h_prev: Vec<i32> = (0..=n)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    -scoring.gap_cost(j as u32)
                }
            })
            .collect();
        let mut h_curr = vec![NEG_INF; n + 1];
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];
        for (j, cell) in tb.iter_mut().enumerate().take(n + 1).skip(1) {
            *cell = H_FROM_E | if j > 1 { E_EXT } else { 0 };
        }
        for i in 1..=m {
            let mut e = NEG_INF;
            h_curr[0] = -scoring.gap_cost(i as u32);
            tb[i * (n + 1)] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
            for j in 1..=n {
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
            }
            std::mem::swap(&mut h_prev, &mut h_curr);
        }
        let score = h_prev[n];
        let (cigar, qi, tj) = traceback(&tb, |i, j| i * (n + 1) + j, m, n, query, target, false);
        debug_assert_eq!((qi, tj), (0, 0), "global traceback must reach origin");
        ExtensionAlignment {
            score,
            query_len: m,
            target_len: n,
            cigar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(s: &str) -> Vec<u8> {
        s.chars()
            .map(|c| match c {
                'A' => 0u8,
                'C' => 1,
                'G' => 2,
                'T' => 3,
                _ => panic!("bad base"),
            })
            .collect()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let s = codes("ACGTACGTTG");
        let a = local_align(&s, &s, &Scoring::bwa_mem());
        assert_eq!(a.score, 10);
        assert_eq!(a.cigar.to_string(), "10=");
        assert_eq!((a.query_start, a.query_end), (0, 10));
    }

    #[test]
    fn substitution_is_penalized() {
        let q = codes("ACGTACGTTG");
        let t = codes("ACGTCCGTTG"); // one substitution
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        // Full alignment: 9 matches - 4 = 5; clipping to the longest exact
        // run gives 5=. Both score 5; either is optimal, implementation
        // should find score 5.
        assert_eq!(a.score, 5);
    }

    #[test]
    fn gap_alignment() {
        let q = codes("ACGTACGTTTTT");
        let t = codes("ACGTCGTTTTT"); // A deleted from target
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        // 11 matches - gap(1)=7 → 4, vs clip to 7 matches (TTTT+CGT...)
        // actually the best is the 8-long suffix run: "CGTTTTT" = 7.
        assert!(a.score >= 4);
        assert_eq!(a.cigar.score(&Scoring::bwa_mem()), a.score);
    }

    #[test]
    fn cigar_score_matches_reported_score_local() {
        let scoring = Scoring::bwa_mem();
        let mut state = 7u64;
        let mut rand = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for _ in 0..30 {
            let q: Vec<u8> = (0..30).map(|_| rand(4) as u8).collect();
            let t: Vec<u8> = (0..35).map(|_| rand(4) as u8).collect();
            let a = local_align(&q, &t, &scoring);
            assert_eq!(a.cigar.score(&scoring), a.score, "q={q:?} t={t:?}");
            assert_eq!(a.cigar.query_len(), a.query_end - a.query_start);
            assert_eq!(a.cigar.target_len(), a.target_end - a.target_start);
        }
    }

    #[test]
    fn cigar_ops_are_consistent_with_sequences() {
        let scoring = Scoring::bwa_mem();
        let q = codes("ACGTACGTACGTACGT");
        let t = codes("ACGTACGGACGTACGT");
        let a = local_align(&q, &t, &scoring);
        let (mut qi, mut tj) = (a.query_start, a.target_start);
        for &(op, len) in a.cigar.runs() {
            for _ in 0..len {
                match op {
                    CigarOp::Match => {
                        assert_eq!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Subst => {
                        assert_ne!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Ins => qi += 1,
                    CigarOp::Del => tj += 1,
                }
            }
        }
        assert_eq!((qi, tj), (a.query_end, a.target_end));
    }

    #[test]
    fn extension_consumes_from_anchor() {
        let q = codes("ACGTAC");
        let t = codes("ACGTACGGG");
        let a = extend_align(&q, &t, &Scoring::bwa_mem());
        assert_eq!(a.score, 6);
        assert_eq!(a.query_len, 6);
        assert_eq!(a.target_len, 6);
        assert_eq!(a.cigar.to_string(), "6=");
    }

    #[test]
    fn extension_handles_indels() {
        // Query has an extra base vs target.
        let q = codes("ACGTTACGCCCC");
        let t = codes("ACGTACGCCCC");
        let a = extend_align(&q, &t, &Scoring::bwa_mem());
        // 11 matches - gap(1) = 11 - 7 = 4; or clip at the first 4 (=4).
        // Full-length extension should win ties on score >= 4.
        assert!(a.score >= 4);
        assert_eq!(a.cigar.score(&Scoring::bwa_mem()), a.score);
    }

    #[test]
    fn extension_of_empty_inputs() {
        let a = extend_align(&[], &codes("ACG"), &Scoring::bwa_mem());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
        let b = extend_align(&codes("ACG"), &[], &Scoring::bwa_mem());
        assert_eq!(b.score, 0);
    }

    #[test]
    fn local_align_of_disjoint_sequences_is_single_base_or_zero() {
        let q = codes("AAAA");
        let t = codes("TTTT");
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
    }

    #[test]
    fn global_align_consumes_everything() {
        let scoring = Scoring::bwa_mem();
        let q = codes("ACGTACGT");
        let t = codes("ACGACGT"); // T deleted
        let a = global_align(&q, &t, &scoring);
        assert_eq!(a.query_len, 8);
        assert_eq!(a.target_len, 7);
        assert_eq!(a.cigar.query_len(), 8);
        assert_eq!(a.cigar.target_len(), 7);
        assert_eq!(a.cigar.score(&scoring), a.score);
        assert_eq!(a.score, 7 - 7); // 7 matches - gap_cost(1)
    }

    #[test]
    fn global_align_empty_sides_are_pure_gaps() {
        let scoring = Scoring::bwa_mem();
        let a = global_align(&[], &codes("ACG"), &scoring);
        assert_eq!(a.cigar.to_string(), "3D");
        assert_eq!(a.score, -(6 + 3));
        let b = global_align(&codes("AC"), &[], &scoring);
        assert_eq!(b.cigar.to_string(), "2I");
        let c = global_align(&[], &[], &scoring);
        assert_eq!(c.score, 0);
        assert!(c.cigar.is_empty());
    }

    #[test]
    fn dp_cells_accounting() {
        assert_eq!(dp_cells(10, 20), 200);
        assert_eq!(dp_cells(0, 20), 0);
    }

    /// Brute-force optimal local score by enumerating all substring pairs on
    /// tiny inputs, with a simple recursive affine aligner.
    #[test]
    fn local_score_matches_exhaustive_small() {
        let scoring = Scoring::new(2, 3, 4, 1);
        let q = codes("GATTACA");
        let t = codes("GCATGCT");
        let a = local_align(&q, &t, &scoring);
        // Exhaustive: global-align every substring pair, take the max.
        let mut best = 0i32;
        for qs in 0..q.len() {
            for qe in qs + 1..=q.len() {
                for ts in 0..t.len() {
                    for te in ts + 1..=t.len() {
                        best = best.max(global_affine(&q[qs..qe], &t[ts..te], &scoring));
                    }
                }
            }
        }
        assert_eq!(a.score, best);
    }

    fn global_affine(q: &[u8], t: &[u8], s: &Scoring) -> i32 {
        let (m, n) = (q.len(), t.len());
        let mut h = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
        h[0][0] = 0;
        for j in 1..=n {
            e[0][j] = (h[0][j - 1] - s.gap_cost(1)).max(e[0][j - 1] - s.gap_extend);
            h[0][j] = e[0][j];
        }
        for i in 1..=m {
            f[i][0] = (h[i - 1][0] - s.gap_cost(1)).max(f[i - 1][0] - s.gap_extend);
            h[i][0] = f[i][0];
            for j in 1..=n {
                e[i][j] = (h[i][j - 1] - s.gap_cost(1)).max(e[i][j - 1] - s.gap_extend);
                f[i][j] = (h[i - 1][j] - s.gap_cost(1)).max(f[i - 1][j] - s.gap_extend);
                h[i][j] = (h[i - 1][j - 1] + s.score(q[i - 1], t[j - 1]))
                    .max(e[i][j])
                    .max(f[i][j]);
            }
        }
        h[m][n]
    }

    #[test]
    fn optimized_kernel_matches_naive_oracle() {
        // Differential check on deterministic pseudo-random inputs across
        // all three entry points, including high-code (non-ACGT) bases.
        let mut state = 0x5eed_u64;
        let mut rand = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for round in 0..60 {
            let scoring = if round % 2 == 0 {
                Scoring::bwa_mem()
            } else {
                Scoring::new(2, 3, 4, 1)
            };
            let alphabet = if round % 5 == 0 { 6 } else { 4 };
            let qlen = rand(40);
            let tlen = rand(45);
            let q: Vec<u8> = (0..qlen).map(|_| rand(alphabet) as u8).collect();
            let t: Vec<u8> = (0..tlen).map(|_| rand(alphabet) as u8).collect();
            assert_eq!(
                local_align(&q, &t, &scoring),
                naive::local_align(&q, &t, &scoring),
                "local q={q:?} t={t:?}"
            );
            assert_eq!(
                extend_align(&q, &t, &scoring),
                naive::extend_align(&q, &t, &scoring),
                "extend q={q:?} t={t:?}"
            );
            assert_eq!(
                global_align(&q, &t, &scoring),
                naive::global_align(&q, &t, &scoring),
                "global q={q:?} t={t:?}"
            );
        }
    }

    #[test]
    fn diagonal_index_is_a_bijection() {
        for (m, n) in [(0, 0), (0, 3), (4, 0), (1, 1), (3, 7), (7, 3), (5, 5)] {
            let mut seen = vec![false; (m + 1) * (n + 1)];
            let mut last = None;
            for d in 0..=m + n {
                assert_eq!(diag_offset(m, n, d), last.map_or(0, |x: usize| x + 1));
                for i in d.saturating_sub(n)..=m.min(d) {
                    let k = diag_index(m, n, i, d - i);
                    assert!(!seen[k], "({i},{}) reuses byte {k} in {m}x{n}", d - i);
                    assert_eq!(last.map_or(0, |x| x + 1), k, "diagonal-major order");
                    seen[k] = true;
                    last = Some(k);
                }
            }
            assert!(seen.into_iter().all(|b| b), "{m}x{n} leaves a byte unused");
        }
    }

    /// The AVX2 build of the fill computes the same best cell, last cell
    /// and traceback bytes as the generic build, when the host has AVX2.
    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::super::*;
        use proptest::prelude::*;

        fn both_builds(local: bool, q: &[u8], t: &[u8], scoring: &Scoring) {
            let (mut a, mut b) = (DpScratch::new(), DpScratch::new());
            let (fa, fb) = if local {
                // SAFETY: the caller checked that the host has AVX2.
                let fa = unsafe { fill_avx2::<true>(q, t, scoring, &mut a) };
                (fa, fill_body::<true>(q, t, scoring, &mut b))
            } else {
                // SAFETY: as above.
                let fa = unsafe { fill_avx2::<false>(q, t, scoring, &mut a) };
                (fa, fill_body::<false>(q, t, scoring, &mut b))
            };
            assert_eq!(fa, fb, "local={local} q={q:?} t={t:?}");
            assert_eq!(a.tb, b.tb, "local={local} q={q:?} t={t:?}");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn avx2_fill_equals_generic_fill(
                q in proptest::collection::vec(0u8..5, 0..=200),
                t in proptest::collection::vec(0u8..5, 0..=200),
                k in 0usize..3,
            ) {
                if std::arch::is_x86_feature_detected!("avx2") {
                    let scoring = [
                        Scoring::bwa_mem(),
                        Scoring::new(2, 3, 4, 1),
                        Scoring::new(1, 0, 0, 0),
                    ][k];
                    both_builds(true, &q, &t, &scoring);
                    both_builds(false, &q, &t, &scoring);
                }
            }
        }
    }
}
