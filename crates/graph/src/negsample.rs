//! The negative-sampling SGD core that LINE ([`crate::line`]) and skip-gram
//! ([`crate::skipgram`]) share: one update rule, the ¾-power noise table,
//! the linear rate decay, and the "positive, then K noise draws" step. Each
//! trainer keeps its own sampling loop: skip-gram walks a subsampled corpus
//! window, LINE alias-samples edges.
//!
//! The step is the update of the LINE and word2vec reference
//! implementations (LINE's `Update(vec_u, vec_v, vec_error, label)`,
//! word2vec's `neu1e`): within one step the source row is read-only, each
//! of the K+1 updates adds `g·target` into a step-local error row and then
//! moves the target row, and the source row takes the summed error once,
//! after the step. The dot product is [`imre_tensor::dot`], whose fixed
//! 32-lane structure gives the same bits on every SIMD tier; the row
//! updates are plain per-element multiply-then-add, so the trained tables
//! do not depend on the tier either.

use crate::alias::AliasTable;
use imre_tensor::{sigmoid_scalar, Tensor, TensorRng};

/// `lr` decayed linearly over `total` steps, never below `lr * floor`.
pub(crate) fn decayed_lr(lr: f32, step: usize, total: usize, floor: f32) -> f32 {
    (lr * (1.0 - step as f32 / total.max(1) as f32)).max(lr * floor)
}

/// One update of the target row `t` against the read-only source row `s`:
/// with `g = lr · (label − σ(s·t))`, `err += g·t`, then `t += g·s`.
fn update(s: &[f32], t: &mut [f32], err: &mut [f32], positive: bool, lr: f32) {
    let label = if positive { 1.0 } else { 0.0 };
    let g = lr * (label - sigmoid_scalar(imre_tensor::dot(s, t)));
    for ((e, tj), &sj) in err.iter_mut().zip(t.iter_mut()).zip(s) {
        *e += g * *tj;
        *tj += g * sj;
    }
}

/// The tables one [`Noise::step`] reads its source row from and updates
/// its target rows in.
pub(crate) enum Tables<'a> {
    /// Source and targets in one table (LINE's first order): a target equal
    /// to the source is skipped.
    One(&'a mut Tensor),
    /// Source rows in the first table, target rows in the second (LINE's
    /// second order, skip-gram): a vertex and a context table.
    Two(&'a mut Tensor, &'a mut Tensor),
}

impl Tables<'_> {
    /// The `dim`-wide source row `src`, read-only, and target row `target`.
    ///
    /// # Panics
    /// If both live in one table and `src == target`.
    fn rows(&mut self, src: usize, target: usize, dim: usize) -> (&[f32], &mut [f32]) {
        // Slice the rows here rather than through `Tensor::row_mut`, whose
        // rank and bounds asserts on every update slowed NYT-scale skip-gram
        // by ~15 % (2-vCPU x86-64 VM).
        match self {
            Tables::One(table) => {
                assert_ne!(src, target, "Tables::rows: aliasing row");
                let data = table.data_mut();
                if src < target {
                    let (lo, hi) = data.split_at_mut(target * dim);
                    (&lo[src * dim..(src + 1) * dim], &mut hi[..dim])
                } else {
                    let (lo, hi) = data.split_at_mut(src * dim);
                    (&hi[..dim], &mut lo[target * dim..(target + 1) * dim])
                }
            }
            Tables::Two(vertex, context) => (
                &vertex.data()[src * dim..(src + 1) * dim],
                &mut context.data_mut()[target * dim..(target + 1) * dim],
            ),
        }
    }

    /// The source row `src`, to take the step's summed error.
    fn source_mut(&mut self, src: usize, dim: usize) -> &mut [f32] {
        let (Tables::One(table) | Tables::Two(table, _)) = self;
        &mut table.data_mut()[src * dim..(src + 1) * dim]
    }
}

/// The noise distribution `P_n(v) ∝ weight(v)^{3/4}` and the number of
/// negatives drawn from it per positive.
pub(crate) struct Noise {
    table: AliasTable,
    negatives: usize,
}

impl Noise {
    /// Raises each weight (word counts, vertex degrees) to ¾.
    pub(crate) fn new(weights: impl IntoIterator<Item = f32>, negatives: usize) -> Noise {
        let pow: Vec<f32> = weights.into_iter().map(|w| w.powf(0.75)).collect();
        Noise {
            table: AliasTable::new(&pow),
            negatives,
        }
    }

    /// One noise draw.
    fn sample(&self, rng: &mut TensorRng) -> usize {
        self.table.sample(rng)
    }

    /// The draws of one [`Noise::step`] with no update: a pass that does
    /// not own the tables still consumes the stream.
    pub(crate) fn skip(&self, rng: &mut TensorRng) {
        for _ in 0..self.negatives {
            self.sample(rng);
        }
    }

    /// One step of source row `src`: a positive update of target `dst`,
    /// then `negatives` draws, each one other than `dst` (and, in
    /// [`Tables::One`], other than `src`) a negative update of the drawn
    /// target. Each update reads `src` as it was before the step and moves
    /// its target at once, so a target drawn twice sees its first update;
    /// `err` (the row width) collects the source's error, added to `src`
    /// once at the end.
    pub(crate) fn step(
        &self,
        mut tables: Tables<'_>,
        src: usize,
        dst: usize,
        lr: f32,
        err: &mut [f32],
        rng: &mut TensorRng,
    ) {
        let dim = err.len();
        let shared = matches!(tables, Tables::One(_));
        err.fill(0.0);
        let (s, t) = tables.rows(src, dst, dim);
        update(s, t, err, true, lr);
        for _ in 0..self.negatives {
            let neg = self.sample(rng);
            if neg != dst && !(shared && neg == src) {
                let (s, t) = tables.rows(src, neg, dim);
                update(s, t, err, false, lr);
            }
        }
        for (s, &e) in tables.source_mut(src, dim).iter_mut().zip(err.iter()) {
            *s += e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noise that always draws `vertex` out of `n`.
    fn noise_at(vertex: usize, n: usize, negatives: usize) -> Noise {
        Noise::new(
            (0..n).map(|v| if v == vertex { 1.0 } else { 0.0 }),
            negatives,
        )
    }

    fn table(rows: &[[f32; 2]]) -> Tensor {
        Tensor::from_vec(rows.concat(), &[rows.len(), 2])
    }

    /// `g = lr · (label − σ(s·t))`, spelled out for two-wide rows.
    fn gain(s: [f32; 2], t: [f32; 2], label: f32, lr: f32) -> f32 {
        lr * (label - sigmoid_scalar(s[0] * t[0] + s[1] * t[1]))
    }

    fn moved(t: [f32; 2], g: f32, s: [f32; 2]) -> [f32; 2] {
        [t[0] + g * s[0], t[1] + g * s[1]]
    }

    /// Source 0 of a vertex table against a three-row context table, with
    /// the noise always drawing row 2: the positive update of row 1, then
    /// two negative updates of row 2, the second from the row the first
    /// one left, and the source moved once, at the end, by the error summed
    /// against each target as it was before its own update.
    #[test]
    fn step_reads_the_source_once_and_moves_it_by_the_summed_error() {
        let s = [0.5, -0.25];
        let (c1, c2) = ([0.25, 0.5], [-0.5, 0.75]);
        let lr = 0.5;
        let mut vertex = table(&[s, [1.0, 2.0], [3.0, 4.0]]);
        let mut context = table(&[[0.125, 0.0], c1, c2]);
        let mut err = [7.0; 2];
        let mut rng = TensorRng::seed(1);
        let tables = Tables::Two(&mut vertex, &mut context);
        noise_at(2, 3, 2).step(tables, 0, 1, lr, &mut err, &mut rng);

        let g1 = gain(s, c1, 1.0, lr);
        let g2 = gain(s, c2, 0.0, lr);
        let c2_once = moved(c2, g2, s);
        let g3 = gain(s, c2_once, 0.0, lr);
        let e = [
            g1 * c1[0] + g2 * c2[0] + g3 * c2_once[0],
            g1 * c1[1] + g2 * c2[1] + g3 * c2_once[1],
        ];
        assert_eq!(err, e);
        assert_eq!(vertex.row(0), &[s[0] + e[0], s[1] + e[1]]);
        assert_eq!(&vertex.data()[2..], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(context.row(0), &[0.125, 0.0]);
        assert_eq!(context.row(1), &moved(c1, g1, s));
        assert_eq!(context.row(2), &moved(c2_once, g3, s));
    }

    /// In one table (LINE's first order) a draw equal to the source or the
    /// positive target is skipped, so only the positive update lands; across
    /// two tables a draw equal to the source is an ordinary negative.
    #[test]
    fn one_table_skips_draws_of_the_source_and_the_target() {
        let rows = [[0.5, -0.25], [0.25, 0.5], [-0.5, 0.75]];
        let (s, t) = (rows[2], rows[0]);
        let lr = 0.25;
        let g = gain(s, t, 1.0, lr);
        let positive_only = [moved(t, g, s), rows[1], [s[0] + g * t[0], s[1] + g * t[1]]];
        for drawn in [2, 0] {
            let mut one = table(&rows);
            let mut err = [0.0; 2];
            let mut rng = TensorRng::seed(3);
            noise_at(drawn, 3, 3).step(Tables::One(&mut one), 2, 0, lr, &mut err, &mut rng);
            assert_eq!(one.data(), &positive_only.concat()[..], "draws of {drawn}");
        }

        let (mut vertex, mut context) = (table(&rows), table(&rows));
        let mut err = [0.0; 2];
        let mut rng = TensorRng::seed(3);
        let tables = Tables::Two(&mut vertex, &mut context);
        noise_at(2, 3, 1).step(tables, 2, 0, lr, &mut err, &mut rng);
        let gn = gain(s, rows[2], 0.0, lr);
        assert_eq!(context.row(2), &moved(rows[2], gn, s));
    }

    #[test]
    fn one_table_rows_split_either_way() {
        let mut t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]);
        let mut tables = Tables::One(&mut t);
        {
            let (s, target) = tables.rows(2, 0, 2);
            assert_eq!(s, &[4.0, 5.0]);
            assert_eq!(target, &[0.0, 1.0]);
            target[0] = 9.0;
        }
        let (s, target) = tables.rows(0, 1, 2);
        assert_eq!(s, &[9.0, 1.0]);
        assert_eq!(target, &[2.0, 3.0]);
    }
}
