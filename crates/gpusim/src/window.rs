//! Write windows: one block's private writes to one global matrix.
//!
//! Blocks run in parallel against an immutable snapshot of global memory,
//! so each block keeps the elements it writes in a [`Window`] per written
//! global — a dense box of the matrix in its column-major layout (leading
//! dimension: the box's own row count) plus one written-bit per element.
//! Reads of a written global consult the window first (read-your-write);
//! after the grid, windows are merged in `(by, bx)` order, copying only
//! written elements, so an element a block never wrote keeps an earlier
//! block's value.
//!
//! The box covers the block's store footprint: it opens at the largest
//! block footprint of the program's earlier executes (its [`Hints`]),
//! placed relative to the block's first write, and grows (doubling the
//! extent on the side that grew, never past the matrix) when a write
//! falls outside it.  Windows are recycled through one process-wide pool:
//! a steady execute whose windows fit the pool's cap (256 KiB of values,
//! e.g. every serve_large kernel at n = 128) allocates nothing per block,
//! and the memory the pool holds between executes stays capped instead
//! of growing with the number of programs or the problem size.

use oa_loopir::interp::Matrix;
use std::sync::Mutex;

/// One block's writes to one global matrix.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// Matrix coordinates of box element 0.
    r0: i64,
    c0: i64,
    /// Box extent; 0 × 0 until the first write.
    rows: i64,
    cols: i64,
    /// The matrix extent `(ld, cols)`: growth slack never exceeds it.
    lim: (i64, i64),
    /// The first write of the block, which anchors the sizing hint.
    first: (i64, i64),
    /// The box the first write opens, relative to it.
    hint: Hint,
    /// Values, `vals[(r − r0) + (c − c0)·rows]`.
    vals: Vec<f32>,
    /// Written bits, indexed like `vals`.
    mask: Vec<u64>,
    /// The regrown mask, swapped with `mask`.
    spare_mask: Vec<u64>,
}

impl Window {
    /// Empty the window for a new block writing into `m`, whose first
    /// write opens a box of `hint`.
    pub(crate) fn reset(&mut self, m: &Matrix, hint: Hint) {
        self.rows = 0;
        self.cols = 0;
        self.lim = (m.ld, m.cols);
        self.hint = hint;
    }

    /// The block's own write of `(r, c)`, if any.
    #[inline]
    pub(crate) fn get(&self, r: i64, c: i64) -> Option<f32> {
        let ix = self.index(r, c)?;
        self.written_at(ix).then(|| self.vals[ix])
    }

    /// Record the block's write of `v` to `(r, c)`.
    #[inline]
    pub(crate) fn set(&mut self, r: i64, c: i64, v: f32) {
        let ix = match self.index(r, c) {
            Some(ix) => ix,
            None => {
                self.cover(r, r, c, c);
                self.index(r, c).expect("covered")
            }
        };
        self.write_at(ix, v);
    }

    /// Flat box index of `(r, c)`, when the box holds it.
    #[inline]
    pub(crate) fn index(&self, r: i64, c: i64) -> Option<usize> {
        let (i, j) = (r - self.r0, c - self.c0);
        ((i as u64) < self.rows as u64 && (j as u64) < self.cols as u64)
            .then_some((i + j * self.rows) as usize)
    }

    /// Store `v` at flat index `ix` and mark it written.
    #[inline]
    pub(crate) fn write_at(&mut self, ix: usize, v: f32) {
        self.vals[ix] = v;
        self.mask[ix / 64] |= 1 << (ix % 64);
    }

    #[inline]
    fn written_at(&self, ix: usize) -> bool {
        self.mask[ix / 64] >> (ix % 64) & 1 != 0
    }

    /// Store `vals` at `(r, c)`, `(r + dr, c + dc)`, … and mark them
    /// written; the box must already [`cover`](Self::cover) them.  A
    /// column run is one slice copy.
    pub(crate) fn write_run(&mut self, r: i64, c: i64, (dr, dc): (i64, i64), vals: &[f32]) {
        if (dr, dc) == (1, 0) {
            let ix = self.index(r, c).expect("covered");
            debug_assert!(
                r + vals.len() as i64 <= self.r0 + self.rows,
                "run leaves the box"
            );
            self.vals[ix..ix + vals.len()].copy_from_slice(vals);
            set_bits(&mut self.mask, ix, ix + vals.len());
        } else {
            for (i, &v) in vals.iter().enumerate() {
                let i = i as i64;
                let ix = self.index(r + i * dr, c + i * dc).expect("covered");
                self.write_at(ix, v);
            }
        }
    }

    /// Overwrite `out[i]` with the block's write of `(r + i, c)`, where
    /// it has one.
    fn overlay_column(&self, r: i64, c: i64, out: &mut [f32]) {
        let j = c - self.c0;
        if j < 0 || j >= self.cols {
            return;
        }
        let lo = r.max(self.r0);
        let hi = (r + out.len() as i64).min(self.r0 + self.rows);
        for row in lo..hi {
            let ix = ((row - self.r0) + j * self.rows) as usize;
            if self.written_at(ix) {
                out[(row - r) as usize] = self.vals[ix];
            }
        }
    }

    /// Grow the box to cover rows `rlo..=rhi` and columns `clo..=chi`.
    pub(crate) fn cover(&mut self, rlo: i64, rhi: i64, clo: i64, chi: i64) {
        let inside = |lo: i64, len: i64, a: i64, b: i64| a >= lo && b < lo + len;
        if inside(self.r0, self.rows, rlo, rhi) && inside(self.c0, self.cols, clo, chi) {
            return;
        }
        let (r0, r1, c0, c1) = if self.rows == 0 {
            // The block's first write: open the hinted box around it,
            // cut to the matrix.
            self.first = (rlo, clo);
            let h = self.hint;
            (
                (rlo + h.dr).max(0).min(rlo),
                (rlo + h.dr + h.rows).min(self.lim.0).max(rhi + 1),
                (clo + h.dc).max(0).min(clo),
                (clo + h.dc + h.cols).min(self.lim.1).max(chi + 1),
            )
        } else {
            let (r0, r1) = span(self.r0, self.rows, rlo, rhi + 1, self.lim.0);
            let (c0, c1) = span(self.c0, self.cols, clo, chi + 1, self.lim.1);
            (r0, r1, c0, c1)
        };
        self.relayout(r0, r1 - r0, c0, c1 - c0);
    }

    /// Move the written elements into the box `[r0, r0+rows) ×
    /// [c0, c0+cols)`, which contains the current one.  The values move in
    /// place: every column shifts by one offset, which grows with the
    /// column and is never negative, so moving the last column first
    /// overwrites nothing still to be moved.
    fn relayout(&mut self, r0: i64, rows: i64, c0: i64, cols: i64) {
        let len = (rows * cols) as usize;
        let mut mask = std::mem::take(&mut self.spare_mask);
        mask.clear();
        mask.resize(len.div_ceil(64), 0);
        let (or0, oc0, orows) = (self.r0, self.c0, self.rows);
        let shift = |i: i64, j: i64| ((or0 + i - r0) + (oc0 + j - c0) * rows) as usize;
        self.for_each_run(|i, j, from, to| {
            let at = shift(i, j);
            set_bits(&mut mask, at, at + (to - from));
        });
        if self.vals.len() < len {
            self.vals.resize(len, 0.0);
        }
        for j in (0..self.cols).rev() {
            let from = (j * orows) as usize;
            self.vals
                .copy_within(from..from + orows as usize, shift(0, j));
        }
        self.spare_mask = std::mem::replace(&mut self.mask, mask);
        (self.r0, self.rows, self.c0, self.cols) = (r0, rows, c0, cols);
    }

    /// Visit every maximal run of written elements within one column:
    /// `f(row offset, column offset, from, to)` over flat `from..to`.
    fn for_each_run(&self, mut f: impl FnMut(i64, i64, usize, usize)) {
        if self.rows == 0 {
            return;
        }
        let rows = self.rows as usize;
        let len = rows * self.cols as usize;
        let mut ix = 0usize;
        while ix < len {
            let w = self.mask[ix / 64] >> (ix % 64);
            if w == 0 {
                ix = (ix / 64 + 1) * 64;
                continue;
            }
            let from = ix + w.trailing_zeros() as usize;
            // Extend the run across words, stopping at the column end.
            let col_end = (from / rows + 1) * rows;
            let mut to = from;
            while to < col_end && self.written_at(to) {
                let ones = (self.mask[to / 64] >> (to % 64)).trailing_ones() as usize;
                to = (to + ones).min(col_end);
            }
            f((from % rows) as i64, (from / rows) as i64, from, to);
            ix = to;
        }
    }

    /// Copy the written elements into `m`.  Returns the written footprint
    /// relative to the block's first write — the sizing hint for later
    /// blocks — or `None` when the block wrote nothing.
    pub(crate) fn merge_into(&self, m: &mut Matrix) -> Option<Hint> {
        let (mut rlo, mut rhi, mut clo, mut chi) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
        let (r0, c0) = (self.r0, self.c0);
        self.for_each_run(|i, j, from, to| {
            let (r, c) = (r0 + i, c0 + j);
            let n = to - from;
            debug_assert!(
                r >= 0 && r + n as i64 <= m.ld && c >= 0 && c < m.cols,
                "window write ({r},{c}) out of bounds"
            );
            let at = (r + c * m.ld) as usize;
            m.data[at..at + n].copy_from_slice(&self.vals[from..to]);
            rlo = rlo.min(r);
            rhi = rhi.max(r + n as i64);
            clo = clo.min(c);
            chi = chi.max(c + 1);
        });
        (rlo <= rhi).then(|| Hint {
            dr: rlo - self.first.0,
            dc: clo - self.first.1,
            rows: rhi - rlo,
            cols: chi - clo,
        })
    }
}

/// Read `out.len()` elements of `m` at `(r, c)`, `(r + dr, c + dc)`, …;
/// with the block's window `win` of a written global, its writes shadow
/// the snapshot.  A column run is one slice copy plus the window's
/// written bits over it.
pub(crate) fn read_run(
    win: Option<&Window>,
    m: &Matrix,
    r: i64,
    c: i64,
    (dr, dc): (i64, i64),
    out: &mut [f32],
) {
    if (dr, dc) == (1, 0) {
        debug_assert!(
            r >= 0 && r + out.len() as i64 <= m.ld && c >= 0 && c < m.cols,
            "run ({r},{c})+{} out of bounds",
            out.len()
        );
        let at = (r + c * m.ld) as usize;
        out.copy_from_slice(&m.data[at..at + out.len()]);
        if let Some(w) = win {
            w.overlay_column(r, c, out);
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            let (ri, ci) = (r + i as i64 * dr, c + i as i64 * dc);
            *o = win
                .and_then(|w| w.get(ri, ci))
                .unwrap_or_else(|| m.get(ri, ci));
        }
    }
}

/// `[lo, lo + len)` grown to include `[a, b)`: the union, plus slack
/// that doubles the extent on each side that grew, clamped to `[0, lim)`.
fn span(lo: i64, len: i64, a: i64, b: i64, lim: i64) -> (i64, i64) {
    let hi = lo + len;
    let mut nlo = lo.min(a);
    let mut nhi = hi.max(b);
    if nlo < lo {
        nlo = nlo.min((lo - len).max(0));
    }
    if nhi > hi {
        nhi = nhi.max((hi + len).min(lim));
    }
    (nlo, nhi)
}

/// Set bits `from..to` of a bitset.
fn set_bits(mask: &mut [u64], from: usize, to: usize) {
    let mut ix = from;
    while ix < to {
        let n = (to - ix).min(64 - ix % 64);
        let bits = if n == 64 {
            u64::MAX
        } else {
            ((1u64 << n) - 1) << (ix % 64)
        };
        mask[ix / 64] |= bits;
        ix += n;
    }
}

/// A block's opening box: `rows × cols` at offset `(dr, dc)` from its
/// first write.  The default opens a box of the first write alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Hint {
    dr: i64,
    dc: i64,
    rows: i64,
    cols: i64,
}

impl Hint {
    /// The one covering more elements (`self` on a tie).
    pub(crate) fn larger(self, o: Hint) -> Hint {
        if o.rows * o.cols > self.rows * self.cols {
            o
        } else {
            self
        }
    }
}

/// One program's sizing hints, one per global: the largest block
/// footprint seen so far.
#[derive(Debug, Default)]
pub(crate) struct Hints(Mutex<Vec<Hint>>);

impl Clone for Hints {
    fn clone(&self) -> Self {
        Hints(Mutex::new(self.get(0)))
    }
}

impl Hints {
    /// The hints, at least `len` of them.
    pub(crate) fn get(&self, len: usize) -> Vec<Hint> {
        let mut h = self.0.lock().expect("unpoisoned hints").clone();
        h.resize(h.len().max(len), Hint::default());
        h
    }

    /// Keep, per global, the larger of the stored hint and `h`.
    pub(crate) fn update(&self, h: &[Hint]) {
        let mut cur = self.0.lock().expect("unpoisoned hints");
        let len = cur.len().max(h.len());
        cur.resize(len, Hint::default());
        for (c, &n) in cur.iter_mut().zip(h) {
            *c = c.larger(n);
        }
    }
}

/// Recycled window sets (one window per global), shared by every
/// program, each with its value capacity.  A set comes back after its
/// merge and is kept only while the pool's total capacity stays under
/// [`MAX_RETAINED`], so a large execute does not pin its windows
/// afterwards.
static POOL: Mutex<Vec<(Vec<Window>, usize)>> = Mutex::new(Vec::new());

/// Window values the pool retains at most (256 KiB).
const MAX_RETAINED: usize = 1 << 16;

/// A set of windows, at least one per hint, each to be
/// [`Window::reset`]: the pooled set whose capacity fits the hinted boxes
/// most tightly, else the largest.
pub(crate) fn take_set(hints: &[Hint]) -> Vec<Window> {
    let want: usize = hints.iter().map(|h| (h.rows * h.cols) as usize).sum();
    let mut set = {
        let mut pool = POOL.lock().expect("unpoisoned window pool");
        let fit = |&(_, cap): &(Vec<Window>, usize)| (cap < want, cap.abs_diff(want));
        let best = (0..pool.len()).min_by_key(|&i| fit(&pool[i]));
        best.map(|i| pool.swap_remove(i).0).unwrap_or_default()
    };
    if set.len() < hints.len() {
        set.resize_with(hints.len(), Window::default);
    }
    set
}

/// Return a merged set for reuse.
pub(crate) fn put_set(set: Vec<Window>) {
    let cap = set.iter().map(|w| w.vals.capacity()).sum();
    let mut pool = POOL.lock().expect("unpoisoned window pool");
    if pool.iter().map(|e| e.1).sum::<usize>() + cap <= MAX_RETAINED {
        pool.push((set, cap));
    }
}

#[cfg(test)]
impl Hints {
    /// Set every global's hint to `rows × cols` at `(dr, dc)`.
    pub(crate) fn seed(&self, len: usize, dr: i64, dc: i64, rows: i64, cols: i64) {
        *self.0.lock().expect("unpoisoned hints") = vec![Hint { dr, dc, rows, cols }; len];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentinel(n: i64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        m.data.fill(-1.0);
        m
    }

    #[test]
    fn first_box_follows_the_hint_inside_the_matrix() {
        let m = sentinel(16);
        let mut w = Window::default();
        let hint = |dr, dc, rows, cols| Hint { dr, dc, rows, cols };
        w.reset(&m, hint(-2, -3, 8, 8));
        w.set(5, 5, 1.0);
        assert_eq!((w.r0, w.c0, w.rows, w.cols), (3, 2, 8, 8));
        w.reset(&m, hint(-64, -64, 128, 128));
        w.set(5, 5, 1.0);
        assert_eq!((w.r0, w.c0, w.rows, w.cols), (0, 0, 16, 16));
    }

    #[test]
    fn growth_keeps_writes_and_merges_only_them() {
        let mut m = sentinel(16);
        let mut w = Window::default();
        w.reset(&m, Hint::default());
        let writes = [
            (7, 7, 1.0),
            (8, 7, 2.0),
            (3, 9, 3.0),
            (12, 2, 4.0),
            (7, 7, 5.0),
        ];
        for &(r, c, v) in &writes {
            w.set(r, c, v);
        }
        assert!(w.rows * w.cols > 1 && w.rows * w.cols < 16 * 16);
        assert_eq!(w.get(7, 7), Some(5.0));
        assert_eq!(w.get(12, 2), Some(4.0));
        assert_eq!(w.get(8, 8), None, "unwritten elements read the snapshot");
        let h = w.merge_into(&mut m).expect("wrote something");
        assert_eq!(
            h,
            Hint {
                dr: -4,
                dc: -5,
                rows: 10,
                cols: 8
            }
        );
        for c in 0..16 {
            for r in 0..16 {
                let want = match (r, c) {
                    (7, 7) => 5.0,
                    (8, 7) => 2.0,
                    (3, 9) => 3.0,
                    (12, 2) => 4.0,
                    _ => -1.0,
                };
                assert_eq!(m.get(r, c), want, "({r}, {c})");
            }
        }
    }
}
