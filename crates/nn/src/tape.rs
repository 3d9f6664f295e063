//! Reverse-mode automatic differentiation over a per-forward-pass tape.
//!
//! Each op appends a node holding its output value, its parents, and a
//! backward closure mapping the output gradient to parent gradients.
//! Parameter leaves remember their [`ParamId`]; [`Tape::backward`]
//! accumulates their gradients into the [`ParamStore`].
//!
//! The tape is rebuilt every forward pass (define-by-run), which keeps
//! control flow (sampling, masking, variable-length sequences) trivial.
//! Rebuilding no longer means reallocating: the tape owns a
//! [`BufferPool`], and [`Tape::reset`] retires every node's backing
//! `Vec<f32>` into it, so the next forward pass (and the gradient
//! tensors of the next backward pass) reuse the previous step's
//! allocations. Training loops hold one tape and call `reset` instead
//! of constructing a fresh `Tape` per step.
//!
//! Identity gradients (`add`, `add_const`, the `a` side of `add_bias`)
//! are expressed as [`Grad::PassThrough`] rather than `g.clone()`:
//! backward moves or borrows the upstream gradient instead of copying
//! it once per trivial op.
//!
//! Backward computes only gradients that reach a parameter: each node
//! records at push time whether a parameter leaf feeds it, backward
//! drops the gradients of nodes that none does, and `matmul`/`matmul_t`
//! skip the product toward a constant operand (a network's input layer
//! would otherwise pay for `dX = dH·Wᵀ`, which nothing reads). Every
//! parameter gradient sums the same terms in the same order as without
//! the pruning, so it is bit-identical.

// Index-based loops in these kernels mirror the maths they implement.
#![allow(clippy::needless_range_loop)]

use crate::kernels;
use crate::params::{ParamId, ParamStore};
use crate::pool::BufferPool;
use crate::tensor::Tensor;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// A parent gradient produced by a backward closure.
pub enum Grad {
    /// An owned gradient tensor.
    Tensor(Tensor),
    /// The parent's gradient is exactly the output gradient (identity
    /// Jacobian). Backward accumulates or moves the upstream gradient
    /// without materializing a copy.
    PassThrough,
    /// No gradient was computed: no parameter leaf feeds the parent.
    Skipped,
}

type BackFn = Box<dyn Fn(&Tensor, &[&Tensor], &mut BufferPool) -> Vec<Grad>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    back: Option<BackFn>,
    param: Option<ParamId>,
    /// Whether a parameter leaf feeds this node, i.e. whether backward
    /// needs its gradient.
    needs_grad: bool,
}

/// The autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
}

impl Tape {
    /// Fresh tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all nodes, retiring their buffers into the pool so the
    /// next forward pass reuses them. Values previously returned by
    /// [`Tape::value`] must be cloned out before calling this.
    pub fn reset(&mut self) {
        let Tape { nodes, pool } = self;
        for node in nodes.drain(..) {
            pool.put(node.value.data);
        }
    }

    fn push(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        back: Option<BackFn>,
        param: Option<ParamId>,
    ) -> Var {
        let needs_grad = param.is_some() || parents.iter().any(|&p| self.nodes[p].needs_grad);
        self.nodes.push(Node {
            value,
            parents,
            back,
            param,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Whether backward needs `v`'s gradient (a parameter leaf feeds it).
    fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Leaf for a model parameter (value copied from the store into a
    /// pooled buffer).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = store.value(id);
        let t = Tensor::from_vec(v.rows, v.cols, self.pool.take_copy(&v.data));
        self.push(t, vec![], None, Some(id))
    }

    /// Leaf for a constant input (no gradient flows into it).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, vec![], None, None)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// `a @ b`. Backward skips the product toward a constant operand.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (need_a, need_b) = (self.needs_grad(a), self.needs_grad(b));
        let Tape { nodes, pool } = &mut *self;
        let out = kernels::matmul_pooled(&nodes[a.0].value, &nodes[b.0].value, pool);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, ps, pool| {
                let (a, b) = (ps[0], ps[1]);
                vec![
                    grad_if(need_a, || kernels::matmul_t_pooled(g, b, pool)),
                    grad_if(need_b, || kernels::t_matmul_pooled(a, g, pool)),
                ]
            })),
            None,
        )
    }

    /// `a @ b^T`. Backward skips the product toward a constant operand.
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let (need_a, need_b) = (self.needs_grad(a), self.needs_grad(b));
        let Tape { nodes, pool } = &mut *self;
        let out = kernels::matmul_t_pooled(&nodes[a.0].value, &nodes[b.0].value, pool);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, ps, pool| {
                let (a, b) = (ps[0], ps[1]);
                // out = a b^T : da = g b ; db = g^T a
                vec![
                    grad_if(need_a, || kernels::matmul_pooled(g, b, pool)),
                    grad_if(need_b, || kernels::t_matmul_pooled(g, a, pool)),
                ]
            })),
            None,
        )
    }

    /// `add_bias(matmul(h, w), b)` at one column per row: row `r` of the
    /// `(m, 1)` result is element `(r, cols[r])`. Backward gives what the
    /// dense path gives when its upstream gradient is zero outside those
    /// elements, as a loss that reads only them leaves it
    /// ([`Tape::mse_selected`] over `(r, cols[r], y)` on the dense output
    /// is the same loss, with the same bits, as over `(r, 0, y)` here).
    /// The forward and all three gradients are bit-identical to the dense
    /// path's; `crate::kernels` gives the argument.
    ///
    /// Precondition: `h` and `w` are finite. The dense path multiplies
    /// every unread element's zero gradient into them, and a `0·∞` there
    /// makes NaNs this op never computes.
    pub fn linear_at(&mut self, h: Var, w: Var, b: Var, cols: &[usize]) -> Var {
        let need = [self.needs_grad(h), self.needs_grad(w), self.needs_grad(b)];
        let Tape { nodes, pool } = &mut *self;
        let (th, tw, tb) = (&nodes[h.0].value, &nodes[w.0].value, &nodes[b.0].value);
        assert_eq!(th.cols, tw.rows, "linear_at shape mismatch");
        assert_eq!((tb.rows, tb.cols), (1, tw.cols), "linear_at bias shape");
        assert_eq!(cols.len(), th.rows, "linear_at needs one column per row");
        assert!(
            cols.iter().all(|&c| c < tw.cols),
            "linear_at column out of range"
        );
        let mut data = pool.take_zeroed(th.rows);
        kernels::linear_at_into(th, tw, tb, cols, &mut data);
        let out = Tensor::from_vec(th.rows, 1, data);
        let cols = cols.to_vec();
        self.push(
            out,
            vec![h.0, w.0, b.0],
            Some(Box::new(move |g, ps, pool| {
                let (h, w) = (ps[0], ps[1]);
                let dh = grad_if(need[0], || {
                    let mut dh = pool.take_zeroed(h.len());
                    kernels::linear_at_dh(&g.data, w, &cols, &mut dh);
                    Tensor::from_vec(h.rows, h.cols, dh)
                });
                let dw = grad_if(need[1], || {
                    let mut dw = pool.take_zeroed(w.len());
                    kernels::linear_at_dw(h, &g.data, &cols, w.cols, &mut dw);
                    Tensor::from_vec(w.rows, w.cols, dw)
                });
                let db = grad_if(need[2], || {
                    let mut db = pool.take_zeroed(w.cols);
                    for (&gv, &c) in g.data.iter().zip(&cols) {
                        db[c] += gv;
                    }
                    Tensor::from_vec(1, w.cols, db)
                });
                vec![dh, dw, db]
            })),
            None,
        )
    }

    /// `add_bias(matmul(a, w), b)` for inference, against the weights where
    /// they lie (a store's values are not copied into the tape): a constant
    /// leaf, so no gradient flows through it. It runs
    /// [`kernels::matmul_pooled`] and the same per-row bias add as
    /// [`Tape::matmul`] then [`Tape::add_bias`], so its bits are theirs.
    pub fn linear(&mut self, a: Var, w: &Tensor, b: &Tensor) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let mut out = kernels::matmul_pooled(&nodes[a.0].value, w, pool);
        assert_eq!((b.rows, b.cols), (1, out.cols), "linear bias shape");
        if out.cols > 0 {
            for row in out.data.chunks_exact_mut(out.cols) {
                for (o, &bv) in row.iter_mut().zip(&b.data) {
                    *o += bv;
                }
            }
        }
        self.constant(out)
    }

    /// [`Tape::linear`] at the columns `cols` of every row: a constant leaf
    /// of shape `(m, cols.len())`. The product runs on the kernel layer
    /// against the gathered columns, and column `j` is bit-identical to
    /// column `cols[j]` of the dense path.
    pub fn linear_cols(&mut self, a: Var, w: &Tensor, b: &Tensor, cols: &[usize]) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let mut out = kernels::matmul_cols_pooled(&nodes[a.0].value, w, cols, pool);
        if !cols.is_empty() {
            for row in out.data.chunks_exact_mut(cols.len()) {
                for (o, &c) in row.iter_mut().zip(cols) {
                    *o += b.data[c];
                }
            }
        }
        self.constant(out)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let (ta, tb) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!((ta.rows, ta.cols), (tb.rows, tb.cols));
        let mut data = pool.take_zeroed(ta.len());
        for ((d, &x), &y) in data.iter_mut().zip(&ta.data).zip(&tb.data) {
            *d = x + y;
        }
        let out = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(|_, _, _| {
                vec![Grad::PassThrough, Grad::PassThrough]
            })),
            None,
        )
    }

    /// Add a `(1, n)` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let (ta, tb) = (&nodes[a.0].value, &nodes[bias.0].value);
        assert_eq!(tb.rows, 1);
        assert_eq!(tb.cols, ta.cols);
        let mut data = pool.take_copy(&ta.data);
        for r in 0..ta.rows {
            let row = &mut data[r * ta.cols..(r + 1) * ta.cols];
            for (o, &b) in row.iter_mut().zip(&tb.data) {
                *o += b;
            }
        }
        let out = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(
            out,
            vec![a.0, bias.0],
            Some(Box::new(|g, _, _| {
                vec![Grad::PassThrough, Grad::Tensor(g.sum_rows())]
            })),
            None,
        )
    }

    /// Scale by a constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let ta = &nodes[a.0].value;
        let mut data = pool.take_copy(&ta.data);
        for v in data.iter_mut() {
            *v *= k;
        }
        let out = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g, _, pool| {
                let mut data = pool.take_copy(&g.data);
                for v in data.iter_mut() {
                    *v *= k;
                }
                vec![Grad::Tensor(Tensor::from_vec(g.rows, g.cols, data))]
            })),
            None,
        )
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let ta = &nodes[a.0].value;
        let mut data = pool.take_copy(&ta.data);
        for v in data.iter_mut() {
            *v = v.max(0.0);
        }
        let out = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(|g, ps, pool| {
                let x = ps[0];
                let mut data = pool.take_zeroed(g.len());
                for ((d, &gv), &xv) in data.iter_mut().zip(&g.data).zip(&x.data) {
                    *d = if xv > 0.0 { gv } else { 0.0 };
                }
                vec![Grad::Tensor(Tensor::from_vec(g.rows, g.cols, data))]
            })),
            None,
        )
    }

    /// Tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.map(f32::tanh);
        let cached = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g, _, pool| {
                let mut data = pool.take_zeroed(g.len());
                for ((d, &gv), &y) in data.iter_mut().zip(&g.data).zip(&cached.data) {
                    *d = gv * (1.0 - y * y);
                }
                vec![Grad::Tensor(Tensor::from_vec(g.rows, g.cols, data))]
            })),
            None,
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.softmax_rows();
        let cached = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g, _, pool| {
                // dL/dx_i = y_i (g_i - Σ_j g_j y_j) per row.
                let mut dx = Tensor::from_vec(g.rows, g.cols, pool.take_zeroed(g.len()));
                for r in 0..g.rows {
                    let y = cached.row_slice(r);
                    let gr = g.row_slice(r);
                    let dot: f32 = y.iter().zip(gr).map(|(&yv, &gv)| yv * gv).sum();
                    let drow = &mut dx.data[r * g.cols..(r + 1) * g.cols];
                    for ((d, &yv), &gv) in drow.iter_mut().zip(y).zip(gr) {
                        *d = yv * (gv - dot);
                    }
                }
                vec![Grad::Tensor(dx)]
            })),
            None,
        )
    }

    /// Add a constant tensor (e.g. an attention mask of `-inf`/0).
    pub fn add_const(&mut self, a: Var, c: Tensor) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let ta = &nodes[a.0].value;
        assert_eq!((ta.rows, ta.cols), (c.rows, c.cols));
        let mut data = pool.take_zeroed(ta.len());
        for ((d, &x), &y) in data.iter_mut().zip(&ta.data).zip(&c.data) {
            *d = x + y;
        }
        let out = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(|_, _, _| vec![Grad::PassThrough])),
            None,
        )
    }

    /// Row-wise layer normalization with learned gain/bias (`(1, n)`).
    pub fn layer_norm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let x = &self.nodes[a.0].value;
        let g = &self.nodes[gamma.0].value;
        let b = &self.nodes[beta.0].value;
        let (out, xhat, inv_std) = kernels::layer_norm_forward(x, g, b, eps);
        let gamma_val = g.clone();
        self.push(
            out,
            vec![a.0, gamma.0, beta.0],
            Some(Box::new(move |gout, _, pool| {
                let rows = gout.rows;
                let n = gout.cols;
                let mut dx = Tensor::from_vec(rows, n, pool.take_zeroed(rows * n));
                let mut dgamma = Tensor::from_vec(1, n, pool.take_zeroed(n));
                let mut dbeta = Tensor::from_vec(1, n, pool.take_zeroed(n));
                for r in 0..rows {
                    let go = gout.row_slice(r);
                    let xh = xhat.row_slice(r);
                    // dxhat = go * gamma
                    let dxhat: Vec<f32> = go
                        .iter()
                        .zip(&gamma_val.data)
                        .map(|(&a, &b)| a * b)
                        .collect();
                    let sum_dxhat: f32 = dxhat.iter().sum();
                    let sum_dxhat_xhat: f32 = dxhat.iter().zip(xh).map(|(&a, &b)| a * b).sum();
                    let inv = inv_std[r];
                    for c in 0..n {
                        dx.data[r * n + c] = inv / n as f32
                            * (n as f32 * dxhat[c] - sum_dxhat - xh[c] * sum_dxhat_xhat);
                        dgamma.data[c] += go[c] * xh[c];
                        dbeta.data[c] += go[c];
                    }
                }
                vec![Grad::Tensor(dx), Grad::Tensor(dgamma), Grad::Tensor(dbeta)]
            })),
            None,
        )
    }

    /// Embedding lookup: rows of `weight` selected by `ids`.
    pub fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let w = &nodes[weight.0].value;
        let dim = w.cols;
        let mut data = pool.take_zeroed(ids.len() * dim);
        for (r, &id) in ids.iter().enumerate() {
            data[r * dim..(r + 1) * dim].copy_from_slice(&w.data[id * dim..(id + 1) * dim]);
        }
        let out = Tensor::from_vec(ids.len(), dim, data);
        let ids_owned: Vec<usize> = ids.to_vec();
        let (wrows, wcols) = (w.rows, w.cols);
        self.push(
            out,
            vec![weight.0],
            Some(Box::new(move |g, _, pool| {
                let mut dw = Tensor::from_vec(wrows, wcols, pool.take_zeroed(wrows * wcols));
                for (r, &id) in ids_owned.iter().enumerate() {
                    let src = &g.data[r * wcols..(r + 1) * wcols];
                    let dst = &mut dw.data[id * wcols..(id + 1) * wcols];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
                vec![Grad::Tensor(dw)]
            })),
            None,
        )
    }

    /// Mean weighted cross-entropy between row logits and target class
    /// indices. `weights[i] = 0` masks a row out. Returns a `(1,1)` loss.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize], weights: &[f32]) -> Var {
        let l = &self.nodes[logits.0].value;
        assert_eq!(l.rows, targets.len());
        assert_eq!(l.rows, weights.len());
        let probs = l.softmax_rows();
        let wsum: f32 = weights.iter().sum::<f32>().max(1e-8);
        let mut loss = 0.0f32;
        for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
            if w != 0.0 {
                loss -= w * probs.get(r, t).max(1e-12).ln();
            }
        }
        loss /= wsum;
        let targets_owned = targets.to_vec();
        let weights_owned = weights.to_vec();
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            vec![logits.0],
            Some(Box::new(move |g, ps, _| {
                let scale = g.data[0] / wsum;
                let probs = ps[0].softmax_rows();
                let mut dl = probs;
                for (r, (&t, &w)) in targets_owned.iter().zip(&weights_owned).enumerate() {
                    let row = &mut dl.data[r * dl.cols..(r + 1) * dl.cols];
                    if w == 0.0 {
                        row.fill(0.0);
                        continue;
                    }
                    row[t] -= 1.0;
                    for v in row.iter_mut() {
                        *v *= w * scale;
                    }
                }
                vec![Grad::Tensor(dl)]
            })),
            None,
        )
    }

    /// Mean squared error between `pred` and a constant target, optionally
    /// restricted to one column per row (Q-learning updates a single
    /// action's value). Returns a `(1,1)` loss.
    pub fn mse_selected(&mut self, pred: Var, targets: &[(usize, usize, f32)]) -> Var {
        let p = &self.nodes[pred.0].value;
        let n = targets.len().max(1) as f32;
        let mut loss = 0.0f32;
        for &(r, c, t) in targets {
            let d = p.get(r, c) - t;
            loss += d * d;
        }
        loss /= n;
        let targets_owned = targets.to_vec();
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            vec![pred.0],
            Some(Box::new(move |g, ps, pool| {
                let p = ps[0];
                let mut dp = Tensor::from_vec(p.rows, p.cols, pool.take_zeroed(p.len()));
                let scale = 2.0 * g.data[0] / n;
                for &(r, c, t) in &targets_owned {
                    dp.data[r * p.cols + c] += scale * (p.get(r, c) - t);
                }
                vec![Grad::Tensor(dp)]
            })),
            None,
        )
    }

    /// Weighted negative log-likelihood over *probability* rows:
    /// `loss = -(1/n) Σ_r w_r · ln(p[r, t_r])`. Weights may be negative
    /// (those rows are pushed *down*) — exactly what a policy-gradient
    /// update with signed advantages needs.
    pub fn weighted_nll_rows(&mut self, probs: Var, targets: &[usize], weights: &[f32]) -> Var {
        let p = &self.nodes[probs.0].value;
        assert_eq!(p.rows, targets.len());
        assert_eq!(p.rows, weights.len());
        let n = targets.len().max(1) as f32;
        let mut loss = 0.0f32;
        for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
            loss -= w * p.get(r, t).max(1e-8).ln();
        }
        loss /= n;
        let targets_owned = targets.to_vec();
        let weights_owned = weights.to_vec();
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            vec![probs.0],
            Some(Box::new(move |g, ps, pool| {
                let p = ps[0];
                let mut dp = Tensor::from_vec(p.rows, p.cols, pool.take_zeroed(p.len()));
                let scale = g.data[0] / n;
                for (r, (&t, &w)) in targets_owned.iter().zip(&weights_owned).enumerate() {
                    dp.data[r * p.cols + t] = -w * scale / p.get(r, t).max(1e-8);
                }
                vec![Grad::Tensor(dp)]
            })),
            None,
        )
    }

    /// Concatenate two tensors along columns (`(m,a)` ++ `(m,b)` →
    /// `(m,a+b)`).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let Tape { nodes, pool } = &mut *self;
        let (ta, tb) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!(ta.rows, tb.rows);
        let (m, ca, cb) = (ta.rows, ta.cols, tb.cols);
        let mut data = pool.take_zeroed(m * (ca + cb));
        for r in 0..m {
            data[r * (ca + cb)..r * (ca + cb) + ca].copy_from_slice(ta.row_slice(r));
            data[r * (ca + cb) + ca..(r + 1) * (ca + cb)].copy_from_slice(tb.row_slice(r));
        }
        let out = Tensor::from_vec(m, ca + cb, data);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, _, pool| {
                let mut da = Tensor::from_vec(m, ca, pool.take_zeroed(m * ca));
                let mut db = Tensor::from_vec(m, cb, pool.take_zeroed(m * cb));
                for r in 0..m {
                    da.data[r * ca..(r + 1) * ca]
                        .copy_from_slice(&g.data[r * (ca + cb)..r * (ca + cb) + ca]);
                    db.data[r * cb..(r + 1) * cb]
                        .copy_from_slice(&g.data[r * (ca + cb) + ca..(r + 1) * (ca + cb)]);
                }
                vec![Grad::Tensor(da), Grad::Tensor(db)]
            })),
            None,
        )
    }

    /// Run backpropagation from `loss` (must be `(1,1)`), accumulating
    /// parameter gradients into `store`. Nodes that no parameter leaf
    /// feeds get no gradient. Consumed gradient buffers are retired into
    /// the tape's pool for reuse by the next step.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        let Tape { nodes, pool } = self;
        assert_eq!(nodes[loss.0].value.len(), 1, "loss must be scalar");
        if !nodes[loss.0].needs_grad {
            return;
        }
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));
        // Scratch reused across nodes for the pass-through parent list.
        let mut pass_parents: Vec<usize> = Vec::new();
        for i in (0..nodes.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            if let Some(pid) = node.param {
                store.accumulate_grad(pid, &g);
            }
            let Some(back) = &node.back else {
                pool.put(g.data);
                continue;
            };
            let parent_vals: Vec<&Tensor> = node.parents.iter().map(|&p| &nodes[p].value).collect();
            let pgrads = back(&g, &parent_vals, pool);
            debug_assert_eq!(pgrads.len(), node.parents.len());
            // Owned tensor gradients first; identity pass-throughs
            // second so the upstream gradient can be moved into the
            // last empty slot instead of copied. Within a node, two
            // contributions hit the same slot only for duplicate
            // parents (e.g. `add(a, a)`), and those are always the
            // same `Grad` kind, so accumulation order is unchanged.
            pass_parents.clear();
            for (&p, pg) in node.parents.iter().zip(pgrads) {
                match pg {
                    Grad::Tensor(pg) if !nodes[p].needs_grad => pool.put(pg.data),
                    Grad::Tensor(pg) => match &mut grads[p] {
                        Some(existing) => {
                            add_into(existing, &pg);
                            pool.put(pg.data);
                        }
                        slot => *slot = Some(pg),
                    },
                    Grad::PassThrough if nodes[p].needs_grad => pass_parents.push(p),
                    Grad::PassThrough | Grad::Skipped => {}
                }
            }
            let Some((&last, rest)) = pass_parents.split_last() else {
                pool.put(g.data);
                continue;
            };
            for &p in rest {
                match &mut grads[p] {
                    Some(existing) => add_into(existing, &g),
                    slot => {
                        let copy = pool.take_copy(&g.data);
                        *slot = Some(Tensor::from_vec(g.rows, g.cols, copy));
                    }
                }
            }
            match &mut grads[last] {
                Some(existing) => {
                    add_into(existing, &g);
                    pool.put(g.data);
                }
                slot => *slot = Some(g),
            }
        }
    }
}

/// `dst += src`, element by element.
fn add_into(dst: &mut Tensor, src: &Tensor) {
    for (a, &b) in dst.data.iter_mut().zip(&src.data) {
        *a += b;
    }
}

/// The gradient `product` computes when the parent needs one, else
/// [`Grad::Skipped`] without running it.
fn grad_if(needed: bool, product: impl FnOnce() -> Tensor) -> Grad {
    if needed {
        Grad::Tensor(product())
    } else {
        Grad::Skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric gradient check helper: perturb each scalar of the single
    /// parameter and compare against the analytic gradient.
    fn grad_check(build: impl Fn(&mut Tape, &ParamStore, ParamId) -> Var, init: Tensor, tol: f32) {
        let mut store = ParamStore::new();
        let id = store.add("w", init);
        // Analytic.
        let mut tape = Tape::new();
        let loss = build(&mut tape, &store, id);
        store.zero_grads();
        tape.backward(loss, &mut store);
        let analytic = store.grad(id).clone();
        // Numeric.
        let eps = 1e-3f32;
        for i in 0..analytic.len() {
            let orig = store.value(id).data[i];
            store.value_mut(id).data[i] = orig + eps;
            let mut t1 = Tape::new();
            let l1 = build(&mut t1, &store, id);
            let f1 = t1.value(l1).data[0];
            store.value_mut(id).data[i] = orig - eps;
            let mut t2 = Tape::new();
            let l2 = build(&mut t2, &store, id);
            let f2 = t2.value(l2).data[0];
            store.value_mut(id).data[i] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            assert!(
                (numeric - analytic.data[i]).abs() < tol,
                "grad mismatch at {i}: numeric {numeric} analytic {}",
                analytic.data[i]
            );
        }
    }

    #[test]
    fn matmul_chain_gradients() {
        let x = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        grad_check(
            move |t, s, id| {
                let w = t.param(s, id);
                let xv = t.constant(x.clone());
                let h = t.matmul(xv, w); // (2,3)@(3,2)
                let h2 = t.relu(h);
                let ssum = t.value(h2).clone();
                let ones = t.constant(Tensor::full(ssum.cols, 1, 1.0));
                let rowsum = t.matmul(h2, ones); // (2,1)
                let onesr = t.constant(Tensor::full(1, ssum.rows.max(2), 0.0));
                let _ = onesr;
                // reduce to scalar via (1,2)@(2,1)
                let red = t.constant(Tensor::full(1, 2, 1.0));
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]),
            1e-2,
        );
    }

    #[test]
    fn softmax_cross_entropy_gradients() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                t.cross_entropy(w, &[1, 0], &[1.0, 0.5])
            },
            Tensor::from_vec(2, 3, vec![0.2, -0.1, 0.4, 1.0, 0.3, -0.2]),
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_mask_zeroes_rows() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let loss = tape.cross_entropy(w, &[0, 1], &[1.0, 0.0]);
        tape.backward(loss, &mut store);
        let g = store.grad(id);
        assert_eq!(g.data[2], 0.0);
        assert_eq!(g.data[3], 0.0);
        assert!(g.data[0] != 0.0);
    }

    #[test]
    fn layer_norm_gradients() {
        grad_check(
            |t, s, id| {
                let x = t.param(s, id);
                let gamma = t.constant(Tensor::row(vec![1.0, 1.5, 0.5]));
                let beta = t.constant(Tensor::row(vec![0.0, 0.1, -0.1]));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let red = t.constant(Tensor::full(1, 2, 1.0));
                let ones = t.constant(Tensor::full(3, 1, 1.0));
                let rowsum = t.matmul(y, ones);
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.9, 0.1, -0.4]),
            2e-2,
        );
    }

    #[test]
    fn tanh_and_bias_gradients() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                let x = t.constant(Tensor::from_vec(2, 2, vec![1.0, -0.5, 0.3, 0.8]));
                let h = t.matmul(x, w);
                let b = t.constant(Tensor::row(vec![0.1, -0.2]));
                let hb = t.add_bias(h, b);
                let y = t.tanh(hb);
                let red = t.constant(Tensor::full(1, 2, 1.0));
                let ones = t.constant(Tensor::full(2, 1, 1.0));
                let rowsum = t.matmul(y, ones);
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(2, 2, vec![0.4, -0.3, 0.2, 0.6]),
            1e-2,
        );
    }

    #[test]
    fn embedding_scatters_gradient() {
        let mut store = ParamStore::new();
        let id = store.add(
            "emb",
            Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let e = tape.embedding(w, &[2, 0, 2]);
        assert_eq!(tape.value(e).row_slice(0), &[5.0, 6.0]);
        let loss = tape.mse_selected(e, &[(0, 0, 0.0), (1, 1, 0.0), (2, 1, 0.0)]);
        tape.backward(loss, &mut store);
        let g = store.grad(id);
        // Row 1 of the embedding was never used.
        assert_eq!(g.data[2], 0.0);
        assert_eq!(g.data[3], 0.0);
        // Row 2 used twice (rows 0 and 2 of output).
        assert!(g.data[4] != 0.0 || g.data[5] != 0.0);
    }

    #[test]
    fn mse_selected_gradients() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                t.mse_selected(w, &[(0, 1, 0.5), (1, 0, -1.0)])
            },
            Tensor::from_vec(2, 2, vec![0.2, 0.8, -0.4, 0.1]),
            1e-2,
        );
    }

    #[test]
    fn softmax_rows_gradients() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                let sm = t.softmax_rows(w);
                // Weighted sum to get a scalar that depends non-trivially
                // on all entries.
                let weights = t.constant(Tensor::from_vec(3, 1, vec![1.0, 2.0, -1.0]));
                let rowsum = t.matmul(sm, weights);
                let red = t.constant(Tensor::full(1, 2, 1.0));
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(2, 3, vec![0.3, 0.1, -0.2, 0.5, -0.5, 0.0]),
            1e-2,
        );
    }

    #[test]
    fn concat_cols_splits_gradient() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                let c = t.constant(Tensor::from_vec(2, 1, vec![1.0, -1.0]));
                let cat = t.concat_cols(w, c);
                let weights = t.constant(Tensor::from_vec(3, 1, vec![1.0, 0.5, 2.0]));
                let rowsum = t.matmul(cat, weights);
                let red = t.constant(Tensor::full(1, 2, 1.0));
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
            1e-2,
        );
    }

    #[test]
    fn matmul_t_gradients() {
        grad_check(
            |t, s, id| {
                let w = t.param(s, id);
                let x = t.constant(Tensor::from_vec(2, 3, vec![1.0, 0.5, -0.5, 0.2, 0.9, -1.0]));
                let scores = t.matmul_t(x, w); // (2,3)@(2,3)^T -> (2,2)
                let weights = t.constant(Tensor::from_vec(2, 1, vec![1.0, -0.5]));
                let rowsum = t.matmul(scores, weights);
                let red = t.constant(Tensor::full(1, 2, 1.0));
                t.matmul(red, rowsum)
            },
            Tensor::from_vec(2, 3, vec![0.3, -0.2, 0.7, 0.1, 0.4, -0.6]),
            1e-2,
        );
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // Using a param twice must add both contributions.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![3.0]));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let sq = tape.matmul(w, w); // w^2 as (1,1)@(1,1)
        tape.backward(sq, &mut store);
        assert!((store.grad(id).data[0] - 6.0).abs() < 1e-5);
    }

    #[test]
    fn passthrough_duplicate_parent_accumulates_twice() {
        // add(a, a) routes two identity pass-throughs into one slot:
        // d(2a)/da = 2.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![1.5]));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let doubled = tape.add(w, w);
        tape.backward(doubled, &mut store);
        assert!((store.grad(id).data[0] - 2.0).abs() < 1e-6);
    }

    /// An adversarial value from a raw draw: signed zeros (ReLU zeros),
    /// subnormals, large finite values and ordinary ones. "Large" stays
    /// below 1e8 so no product, loss or gradient of the heads below
    /// overflows.
    fn adversarial(kind: u8, raw: u32) -> f32 {
        let unit = (raw % 4001) as f32 / 1000.0 - 2.0;
        match kind % 8 {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => f32::from_bits((raw % 0x0080_0000) | (raw & 0x8000_0000)),
            4 => unit * 4e7,
            _ => unit,
        }
    }

    fn tensor_of(draws: &[(u8, u32)], rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let (kind, raw) = draws[i % draws.len()];
                adversarial(kind.wrapping_add((i / draws.len()) as u8), raw)
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    /// The selected Q-values and the loss of an MSE over one column per
    /// row, and the gradients it leaves on `h`, `w` and `b`, through the
    /// picked head or the dense `matmul` + `add_bias`. `h` is a parameter
    /// leaf so its gradient reaches the store, and every gradient
    /// starts at `-0.0`, which `+=` turns into the added value bit for
    /// bit: the store then holds each gradient exactly, zeros' signs
    /// included.
    fn head_bits(
        (h, w, b): (&Tensor, &Tensor, &Tensor),
        cols: &[usize],
        ys: &[f32],
        picked: bool,
    ) -> [Vec<u32>; 4] {
        let mut store = ParamStore::new();
        let ids = [
            store.add("h", h.clone()),
            store.add("w", w.clone()),
            store.add("b", b.clone()),
        ];
        for p in store.params_mut() {
            p.grad.data.fill(-0.0);
        }
        let mut tape = Tape::new();
        let [hv, wv, bv] = ids.map(|id| tape.param(&store, id));
        let (q, targets): (Var, Vec<_>) = if picked {
            let q = tape.linear_at(hv, wv, bv, cols);
            (q, ys.iter().enumerate().map(|(r, &y)| (r, 0, y)).collect())
        } else {
            let product = tape.matmul(hv, wv);
            let q = tape.add_bias(product, bv);
            let targets = cols.iter().zip(ys).enumerate();
            (q, targets.map(|(r, (&c, &y))| (r, c, y)).collect())
        };
        let loss = tape.mse_selected(q, &targets);
        let qv = tape.value(q);
        let mut values: Vec<f32> = targets.iter().map(|&(r, c, _)| qv.get(r, c)).collect();
        values.push(tape.value(loss).data[0]);
        tape.backward(loss, &mut store);
        let [dh, dw, db] = ids.map(|id| bits(&store.grad(id).data));
        [bits(&values), dh, dw, db]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn picked_and_column_heads_match_the_dense_bits(
            (m, k, n) in (1usize..=8, 1usize..=12, 1usize..=9),
            h_draws in proptest::collection::vec((0u8..8, 0u32..=u32::MAX), 1..40),
            w_draws in proptest::collection::vec((0u8..8, 0u32..=u32::MAX), 1..40),
            b_draws in proptest::collection::vec((0u8..8, 0u32..=u32::MAX), 1..8),
            rows in proptest::collection::vec((0usize..64, 0u8..4, 0u32..=u32::MAX), 8),
        ) {
            let h = tensor_of(&h_draws, m, k);
            let w = tensor_of(&w_draws, k, n);
            let b = tensor_of(&b_draws, 1, n);
            let dense = h.matmul(&w).add_row_broadcast(&b);
            // Columns taken modulo `n` repeat across rows; one row in four
            // has a zero TD error (its target is its own Q-value).
            let cols: Vec<usize> = rows[..m].iter().map(|&(c, _, _)| c % n).collect();
            let ys: Vec<f32> = rows[..m]
                .iter()
                .zip(&cols)
                .enumerate()
                .map(|(r, (&(_, kind, raw), &c))| {
                    if kind == 0 { dense.get(r, c) } else { adversarial(kind + 3, raw) }
                })
                .collect();
            let want = head_bits((&h, &w, &b), &cols, &ys, false);
            let got = head_bits((&h, &w, &b), &cols, &ys, true);
            let parts = ["q and loss", "dh", "dw", "db"];
            for (what, (want, got)) in parts.iter().zip(want.iter().zip(&got)) {
                proptest::prop_assert_eq!(want, got, "{} of {}x{}x{} at {:?}", what, m, k, n, cols);
            }

            // Inference at listed columns, repeats included.
            let mut tape = Tape::new();
            let hv = tape.constant(h.clone());
            let q = tape.linear_cols(hv, &w, &b, &cols);
            let want: Vec<f32> = (0..m)
                .flat_map(|r| cols.iter().map(move |&c| (r, c)))
                .map(|(r, c)| dense.get(r, c))
                .collect();
            proptest::prop_assert_eq!(bits(&want), bits(&tape.value(q).data));
        }
    }

    #[test]
    fn reset_retires_buffers_and_reuses_them() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(4, 4, vec![0.25; 16]));
        let mut tape = Tape::new();
        let mut last = None;
        for _ in 0..3 {
            tape.reset();
            let w = tape.param(&store, id);
            let x = tape.constant(Tensor::full(2, 4, 1.0));
            let h = tape.matmul(x, w);
            let loss = tape.mse_selected(h, &[(0, 0, 0.0)]);
            store.zero_grads();
            tape.backward(loss, &mut store);
            let g = store.grad(id).clone();
            if let Some(prev) = &last {
                assert_eq!(prev, &g, "pooled steps must be bit-identical");
            }
            last = Some(g);
        }
        assert!(tape.pool.retired() > 0, "reset should retire buffers");
    }
}
