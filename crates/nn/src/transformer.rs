//! A small encoder–decoder transformer: the IABART backbone.
//!
//! BART-base (the paper's backbone) is a 139M-parameter pretrained model;
//! per the substitution policy in DESIGN.md we train a laptop-scale
//! version of the same architecture from scratch: bidirectional encoder,
//! causal decoder with cross-attention, learned positional embeddings,
//! post-norm residual blocks, and a tied-weight output projection is
//! replaced by a plain linear head (simpler, equally effective at this
//! scale).

use crate::kernels::{self, PackedB};
use crate::layers::{Embedding, LayerNorm, Linear};
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Transformer hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// Encoder layers.
    pub n_enc_layers: usize,
    /// Decoder layers.
    pub n_dec_layers: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl TransformerConfig {
    /// A compact configuration good for CPU training in seconds.
    pub fn small(vocab: usize, max_len: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 48,
            n_heads: 4,
            n_enc_layers: 2,
            n_dec_layers: 2,
            d_ff: 96,
            max_len,
        }
    }
}

/// One attention head's projections.
#[derive(Debug, Clone, Copy)]
struct Head {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

/// Multi-head attention block.
#[derive(Debug, Clone)]
struct MultiHeadAttention {
    heads: Vec<Head>,
    wo: Linear,
    dk: usize,
}

impl MultiHeadAttention {
    fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(d_model % n_heads, 0, "heads must divide d_model");
        let dk = d_model / n_heads;
        let heads = (0..n_heads)
            .map(|h| Head {
                wq: store.add_xavier(&format!("{name}.h{h}.wq"), d_model, dk, rng),
                wk: store.add_xavier(&format!("{name}.h{h}.wk"), d_model, dk, rng),
                wv: store.add_xavier(&format!("{name}.h{h}.wv"), d_model, dk, rng),
            })
            .collect();
        let wo = Linear::new(store, &format!("{name}.wo"), d_model, d_model, rng);
        MultiHeadAttention { heads, wo, dk }
    }

    /// `q_in`: (n, d); `kv_in`: (m, d); optional additive mask (n, m).
    /// The heads' outputs are concatenated in order, starting from the
    /// first head's: `new` builds at least one, since `d_model % n_heads`
    /// rejects zero heads.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        q_in: Var,
        kv_in: Var,
        mask: Option<&Tensor>,
    ) -> Var {
        let mut cat = self.attend(&self.heads[0], tape, store, q_in, kv_in, mask);
        for head in &self.heads[1..] {
            let out = self.attend(head, tape, store, q_in, kv_in, mask);
            cat = tape.concat_cols(cat, out);
        }
        self.wo.forward(tape, store, cat)
    }

    /// One head's scaled dot-product attention, `(n, dk)`.
    fn attend(
        &self,
        head: &Head,
        tape: &mut Tape,
        store: &ParamStore,
        q_in: Var,
        kv_in: Var,
        mask: Option<&Tensor>,
    ) -> Var {
        let scale = 1.0 / (self.dk as f32).sqrt();
        let wq = tape.param(store, head.wq);
        let wk = tape.param(store, head.wk);
        let wv = tape.param(store, head.wv);
        let q = tape.matmul(q_in, wq);
        let k = tape.matmul(kv_in, wk);
        let v = tape.matmul(kv_in, wv);
        let scores = tape.matmul_t(q, k);
        let scores = tape.scale(scores, scale);
        let scores = match mask {
            Some(m) => tape.add_const(scores, m.clone()),
            None => scores,
        };
        let attn = tape.softmax_rows(scores);
        tape.matmul(attn, v)
    }
}

/// Feed-forward sublayer.
#[derive(Debug, Clone)]
struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        rng: &mut R,
    ) -> Self {
        FeedForward {
            l1: Linear::new(store, &format!("{name}.l1"), d_model, d_ff, rng),
            l2: Linear::new(store, &format!("{name}.l2"), d_ff, d_model, rng),
        }
    }

    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.l1.forward(tape, store, x);
        let h = tape.relu(h);
        self.l2.forward(tape, store, h)
    }
}

/// Encoder layer: self-attention + FFN, post-norm residuals.
#[derive(Debug, Clone)]
struct EncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff: FeedForward,
    ln2: LayerNorm,
}

/// Decoder layer: causal self-attention, cross-attention, FFN.
#[derive(Debug, Clone)]
struct DecoderLayer {
    self_attn: MultiHeadAttention,
    ln1: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff: FeedForward,
    ln3: LayerNorm,
}

/// Encoder–decoder transformer with token/positional embeddings and a
/// linear vocabulary head.
#[derive(Debug, Clone)]
pub struct Seq2SeqTransformer {
    /// Hyperparameters.
    pub config: TransformerConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    enc_layers: Vec<EncoderLayer>,
    dec_layers: Vec<DecoderLayer>,
    head: Linear,
}

impl Seq2SeqTransformer {
    /// Register all parameters for the given configuration.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        config: TransformerConfig,
        rng: &mut R,
    ) -> Self {
        let tok_emb = Embedding::new(store, "tok_emb", config.vocab, config.d_model, rng);
        let pos_emb = Embedding::new(store, "pos_emb", config.max_len, config.d_model, rng);
        let enc_layers = (0..config.n_enc_layers)
            .map(|i| EncoderLayer {
                attn: MultiHeadAttention::new(
                    store,
                    &format!("enc{i}.attn"),
                    config.d_model,
                    config.n_heads,
                    rng,
                ),
                ln1: LayerNorm::new(store, &format!("enc{i}.ln1"), config.d_model),
                ff: FeedForward::new(
                    store,
                    &format!("enc{i}.ff"),
                    config.d_model,
                    config.d_ff,
                    rng,
                ),
                ln2: LayerNorm::new(store, &format!("enc{i}.ln2"), config.d_model),
            })
            .collect();
        let dec_layers = (0..config.n_dec_layers)
            .map(|i| DecoderLayer {
                self_attn: MultiHeadAttention::new(
                    store,
                    &format!("dec{i}.self"),
                    config.d_model,
                    config.n_heads,
                    rng,
                ),
                ln1: LayerNorm::new(store, &format!("dec{i}.ln1"), config.d_model),
                cross_attn: MultiHeadAttention::new(
                    store,
                    &format!("dec{i}.cross"),
                    config.d_model,
                    config.n_heads,
                    rng,
                ),
                ln2: LayerNorm::new(store, &format!("dec{i}.ln2"), config.d_model),
                ff: FeedForward::new(
                    store,
                    &format!("dec{i}.ff"),
                    config.d_model,
                    config.d_ff,
                    rng,
                ),
                ln3: LayerNorm::new(store, &format!("dec{i}.ln3"), config.d_model),
            })
            .collect();
        let head = Linear::new(store, "head", config.d_model, config.vocab, rng);
        Seq2SeqTransformer {
            config,
            tok_emb,
            pos_emb,
            enc_layers,
            dec_layers,
            head,
        }
    }

    fn embed(&self, tape: &mut Tape, store: &ParamStore, ids: &[usize]) -> Var {
        let positions: Vec<usize> = (0..ids.len())
            .map(|p| p.min(self.config.max_len - 1))
            .collect();
        let t = self.tok_emb.forward(tape, store, ids);
        let p = self.pos_emb.forward(tape, store, &positions);
        tape.add(t, p)
    }

    /// Encode a source sequence; returns the encoder output `(src_len, d)`.
    pub fn encode(&self, tape: &mut Tape, store: &ParamStore, src: &[usize]) -> Var {
        let mut h = self.embed(tape, store, src);
        for layer in &self.enc_layers {
            let a = layer.attn.forward(tape, store, h, h, None);
            let r = tape.add(h, a);
            h = layer.ln1.forward(tape, store, r);
            let f = layer.ff.forward(tape, store, h);
            let r = tape.add(h, f);
            h = layer.ln2.forward(tape, store, r);
        }
        h
    }

    /// Decode target ids against an encoded source; returns logits
    /// `(tgt_len, vocab)`.
    pub fn decode(&self, tape: &mut Tape, store: &ParamStore, enc: Var, tgt: &[usize]) -> Var {
        let n = tgt.len();
        let causal = causal_mask(n);
        let mut h = self.embed(tape, store, tgt);
        for layer in &self.dec_layers {
            let a = layer.self_attn.forward(tape, store, h, h, Some(&causal));
            let r = tape.add(h, a);
            h = layer.ln1.forward(tape, store, r);
            let c = layer.cross_attn.forward(tape, store, h, enc, None);
            let r = tape.add(h, c);
            h = layer.ln2.forward(tape, store, r);
            let f = layer.ff.forward(tape, store, h);
            let r = tape.add(h, f);
            h = layer.ln3.forward(tape, store, r);
        }
        self.head.forward(tape, store, h)
    }

    /// Full forward: source + shifted target → logits.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        src: &[usize],
        tgt: &[usize],
    ) -> Var {
        let enc = self.encode(tape, store, src);
        self.decode(tape, store, enc, tgt)
    }

    /// Inference: logits for the *next* token after `tgt`, given `src`.
    ///
    /// Reference path: reruns the full encoder–decoder forward. The
    /// KV-cached [`DecodeSession`] produces bit-identical logits in
    /// `O(len)` per token instead of `O(len²)`; this stays as the
    /// ground truth the differential suite compares against.
    pub fn next_token_logits(&self, store: &ParamStore, src: &[usize], tgt: &[usize]) -> Vec<f32> {
        let mut tape = Tape::new();
        let logits = self.forward(&mut tape, store, src, tgt);
        let v = tape.value(logits);
        v.row_slice(v.rows - 1).to_vec()
    }

    /// Start a KV-cached incremental decode against `src`.
    ///
    /// Runs the encoder once, precomputes every cross-attention K/V,
    /// and packs all decoder weight matrices ([`PackedB`]) so each
    /// generated token reuses them. Feed target tokens through
    /// [`Seq2SeqTransformer::session_advance`]; the logits are
    /// bit-identical to [`Seq2SeqTransformer::next_token_logits`] at
    /// the same positions (the argument is spelled out in the
    /// [`crate::kernels`] docs and checked by the differential suite).
    pub fn start_session(&self, store: &ParamStore, src: &[usize]) -> DecodeSession {
        let mut tape = Tape::new();
        let enc_var = self.encode(&mut tape, store, src);
        let enc = tape.value(enc_var).clone();
        let layers = self
            .dec_layers
            .iter()
            .map(|layer| {
                let self_heads = layer
                    .self_attn
                    .heads
                    .iter()
                    .map(|h| SelfHeadCache {
                        wq: PackedB::pack(store.value(h.wq)),
                        wk: PackedB::pack(store.value(h.wk)),
                        wv: PackedB::pack(store.value(h.wv)),
                        k: Tensor::zeros(0, layer.self_attn.dk),
                        v: Tensor::zeros(0, layer.self_attn.dk),
                    })
                    .collect();
                let cross_heads = layer
                    .cross_attn
                    .heads
                    .iter()
                    .map(|h| CrossHeadCache {
                        wq: PackedB::pack(store.value(h.wq)),
                        k: enc.matmul(store.value(h.wk)),
                        v: enc.matmul(store.value(h.wv)),
                    })
                    .collect();
                SessionLayer {
                    self_heads,
                    cross_heads,
                    self_wo: PackedB::pack(store.value(layer.self_attn.wo.weight_id())),
                    cross_wo: PackedB::pack(store.value(layer.cross_attn.wo.weight_id())),
                    ff_l1: PackedB::pack(store.value(layer.ff.l1.weight_id())),
                    ff_l2: PackedB::pack(store.value(layer.ff.l2.weight_id())),
                }
            })
            .collect();
        DecodeSession {
            layers,
            head: PackedB::pack(store.value(self.head.weight_id())),
            len: 0,
        }
    }

    /// Advance an incremental decode by `tokens` (the next target ids),
    /// returning their logits `(tokens.len(), vocab)`.
    ///
    /// The first call primes the session with the BOS/conditioning
    /// prefix in one batched step; subsequent calls typically pass one
    /// token. Row `r` of the result is bit-identical to row `base + r`
    /// of the full `decode` over the concatenated target:
    /// masked-future attention entries underflow to exactly `+0.0`
    /// after softmax and are skipped by the `matmul` zero-skip, so
    /// truncating them is exact, and the session applies the same
    /// additive 0 / −1e9 mask as [`causal_mask`] for the visible block.
    pub fn session_advance(
        &self,
        store: &ParamStore,
        sess: &mut DecodeSession,
        tokens: &[usize],
    ) -> Tensor {
        let base = sess.len;
        let p_rows = tokens.len();
        let d = self.config.d_model;
        // Embedding: token row + clamped-position row, as in `embed`.
        let tok_w = store.value(self.tok_emb.weight());
        let pos_w = store.value(self.pos_emb.weight());
        let mut x = Tensor::zeros(p_rows, d);
        for (r, &id) in tokens.iter().enumerate() {
            let pos = (base + r).min(self.config.max_len - 1);
            for c in 0..d {
                x.data[r * d + c] = tok_w.data[id * d + c] + pos_w.data[pos * d + c];
            }
        }
        // Intra-block causal mask against the grown cache: row r
        // (global position base + r) sees columns 0..=base+r.
        let total = base + p_rows;
        let mut mask = Tensor::zeros(p_rows, total);
        for r in 0..p_rows {
            for c in (base + r + 1)..total {
                mask.data[r * total + c] = -1e9;
            }
        }
        for (layer, sl) in self.dec_layers.iter().zip(&mut sess.layers) {
            // Causal self-attention over the K/V caches.
            let scale = 1.0 / (layer.self_attn.dk as f32).sqrt();
            let dk = layer.self_attn.dk;
            let mut cat = Tensor::zeros(p_rows, d);
            for (hi, hc) in sl.self_heads.iter_mut().enumerate() {
                let q = kernels::matmul_prepacked(&x, &hc.wq);
                let k_new = kernels::matmul_prepacked(&x, &hc.wk);
                let v_new = kernels::matmul_prepacked(&x, &hc.wv);
                hc.k.data.extend_from_slice(&k_new.data);
                hc.k.rows += p_rows;
                hc.v.data.extend_from_slice(&v_new.data);
                hc.v.rows += p_rows;
                let scores = q.matmul_t(&hc.k).scale(scale).add(&mask);
                let out = scores.softmax_rows().matmul(&hc.v);
                for r in 0..p_rows {
                    cat.data[r * d + hi * dk..r * d + (hi + 1) * dk]
                        .copy_from_slice(out.row_slice(r));
                }
            }
            let a = kernels::matmul_prepacked(&cat, &sl.self_wo)
                .add_row_broadcast(store.value(layer.self_attn.wo.bias_id()));
            let h = ln_rows(store, &layer.ln1, &x.add(&a));
            // Cross-attention against the precomputed encoder K/V.
            let scale = 1.0 / (layer.cross_attn.dk as f32).sqrt();
            let dk = layer.cross_attn.dk;
            let mut cat = Tensor::zeros(p_rows, d);
            for (hi, hc) in sl.cross_heads.iter().enumerate() {
                let q = kernels::matmul_prepacked(&h, &hc.wq);
                let scores = q.matmul_t(&hc.k).scale(scale);
                let out = scores.softmax_rows().matmul(&hc.v);
                for r in 0..p_rows {
                    cat.data[r * d + hi * dk..r * d + (hi + 1) * dk]
                        .copy_from_slice(out.row_slice(r));
                }
            }
            let c = kernels::matmul_prepacked(&cat, &sl.cross_wo)
                .add_row_broadcast(store.value(layer.cross_attn.wo.bias_id()));
            let h = ln_rows(store, &layer.ln2, &h.add(&c));
            // Feed-forward.
            let f1 = kernels::matmul_prepacked(&h, &sl.ff_l1)
                .add_row_broadcast(store.value(layer.ff.l1.bias_id()));
            let f = kernels::matmul_prepacked(&f1.map(|v| v.max(0.0)), &sl.ff_l2)
                .add_row_broadcast(store.value(layer.ff.l2.bias_id()));
            x = ln_rows(store, &layer.ln3, &h.add(&f));
        }
        sess.len = total;
        kernels::matmul_prepacked(&x, &sess.head)
            .add_row_broadcast(store.value(self.head.bias_id()))
    }
}

/// Layer-norm a block of rows through the shared forward (same float
/// ops as the tape path).
fn ln_rows(store: &ParamStore, ln: &LayerNorm, x: &Tensor) -> Tensor {
    kernels::layer_norm_forward(
        x,
        store.value(ln.gamma_id()),
        store.value(ln.beta_id()),
        1e-5,
    )
    .0
}

/// Per-head causal self-attention state plus packed projections.
struct SelfHeadCache {
    wq: PackedB,
    wk: PackedB,
    wv: PackedB,
    k: Tensor,
    v: Tensor,
}

/// Per-head cross-attention state: the encoder-side K/V never change
/// during a decode, so they are computed once.
struct CrossHeadCache {
    wq: PackedB,
    k: Tensor,
    v: Tensor,
}

struct SessionLayer {
    self_heads: Vec<SelfHeadCache>,
    cross_heads: Vec<CrossHeadCache>,
    self_wo: PackedB,
    cross_wo: PackedB,
    ff_l1: PackedB,
    ff_l2: PackedB,
}

/// KV-cached incremental decode state for one `(weights, src)` pair.
///
/// Created by [`Seq2SeqTransformer::start_session`]; holds the
/// precomputed cross-attention K/V, the growing self-attention K/V
/// caches, and one packed copy of every decoder weight matrix. Each
/// [`Seq2SeqTransformer::session_advance`] call costs `O(len)` in the
/// target length instead of the full forward's `O(len²)`, with
/// bit-identical logits.
pub struct DecodeSession {
    layers: Vec<SessionLayer>,
    head: PackedB,
    len: usize,
}

impl DecodeSession {
    /// Target positions decoded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first [`Seq2SeqTransformer::session_advance`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Additive causal mask: 0 on/below the diagonal, −1e9 above.
pub fn causal_mask(n: usize) -> Tensor {
    let mut m = Tensor::zeros(n, n);
    for r in 0..n {
        for c in (r + 1)..n {
            m.data[r * n + c] = -1e9;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny() -> (ParamStore, Seq2SeqTransformer) {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig {
            vocab: 12,
            d_model: 16,
            n_heads: 2,
            n_enc_layers: 1,
            n_dec_layers: 1,
            d_ff: 32,
            max_len: 16,
        };
        let model = Seq2SeqTransformer::new(&mut store, cfg, &mut rng);
        (store, model)
    }

    #[test]
    fn logits_have_vocab_width() {
        let (store, model) = tiny();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &store, &[1, 2, 3], &[0, 4, 5]);
        let v = tape.value(logits);
        assert_eq!((v.rows, v.cols), (3, 12));
        assert!(v.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), -1e9);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn decoder_is_causal() {
        // Changing a *later* target token must not change earlier logits.
        let (store, model) = tiny();
        let mut t1 = Tape::new();
        let l1 = model.forward(&mut t1, &store, &[1, 2], &[0, 3, 4]);
        let first_row_a = t1.value(l1).row_slice(0).to_vec();
        let mut t2 = Tape::new();
        let l2 = model.forward(&mut t2, &store, &[1, 2], &[0, 9, 9]);
        let first_row_b = t2.value(l2).row_slice(0).to_vec();
        for (a, b) in first_row_a.iter().zip(&first_row_b) {
            assert!((a - b).abs() < 1e-5, "causality violated");
        }
    }

    #[test]
    fn overfits_a_copy_task() {
        // seq2seq sanity: learn to copy a 4-token sequence. If the
        // encoder, cross-attention, and decoder all work, this overfits
        // quickly.
        let (mut store, model) = tiny();
        let mut opt = Adam::new(0.01);
        let samples: Vec<Vec<usize>> = vec![vec![3, 5, 7, 9], vec![4, 6, 8, 10], vec![5, 3, 9, 7]];
        const BOS: usize = 0;
        for _ in 0..120 {
            store.zero_grads();
            for s in &samples {
                let mut tgt_in = vec![BOS];
                tgt_in.extend(&s[..s.len() - 1]);
                let mut tape = Tape::new();
                let logits = model.forward(&mut tape, &store, s, &tgt_in);
                let w = vec![1.0; s.len()];
                let loss = tape.cross_entropy(logits, s, &w);
                tape.backward(loss, &mut store);
            }
            opt.step(&mut store);
        }
        // Greedy-decode the first sample.
        let src = &samples[0];
        let mut out = vec![BOS];
        for _ in 0..4 {
            let logits = model.next_token_logits(&store, src, &out);
            let next = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            out.push(next);
        }
        assert_eq!(&out[1..], src.as_slice(), "copy task not learned");
    }

    #[test]
    fn full_model_gradients_match_numeric() {
        // End-to-end gradient check through embeddings, attention (self +
        // cross), layer norm, FFN, and the output head: perturb a few
        // sampled scalars of every parameter tensor and compare.
        let (mut store, model) = tiny();
        let src = [1usize, 2, 3];
        let tgt_in = [0usize, 4, 5];
        let targets = [4usize, 5, 6];
        let weights = [1.0f32, 1.0, 1.0];
        let loss_of = |store: &ParamStore| {
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, store, &src, &tgt_in);
            let l = tape.cross_entropy(logits, &targets, &weights);
            tape.value(l).data[0]
        };
        store.zero_grads();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &store, &src, &tgt_in);
        let loss = tape.cross_entropy(logits, &targets, &weights);
        tape.backward(loss, &mut store);

        let ids: Vec<_> = store.ids().collect();
        let mut checked = 0;
        for id in ids {
            let len = store.value(id).len();
            // Sample up to 2 scalars per tensor.
            for &i in [0, len / 2].iter().take_while(|&&i| i < len) {
                let analytic = store.grad(id).data[i];
                let orig = store.value(id).data[i];
                let eps = 1e-2f32;
                store.value_mut(id).data[i] = orig + eps;
                let f1 = loss_of(&store);
                store.value_mut(id).data[i] = orig - eps;
                let f2 = loss_of(&store);
                store.value_mut(id).data[i] = orig;
                let numeric = (f1 - f2) / (2.0 * eps);
                assert!(
                    (numeric - analytic).abs() < 2e-2 + 0.15 * numeric.abs().max(analytic.abs()),
                    "param {id:?}[{i}]: numeric {numeric} vs analytic {analytic}"
                );
                checked += 1;
            }
        }
        assert!(checked > 40, "checked {checked} scalars");
    }

    #[test]
    fn decode_session_matches_full_forward_bitwise() {
        let (store, model) = tiny();
        let src = [1usize, 2, 3, 4];
        let prefix = [0usize, 7];
        let mut sess = model.start_session(&store, &src);
        let primed = model.session_advance(&store, &mut sess, &prefix);
        assert_eq!((primed.rows, primed.cols), (2, 12));
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let full = model.next_token_logits(&store, &src, &prefix);
        assert_eq!(
            bits(primed.row_slice(1)),
            bits(&full),
            "primed session logits drifted from full forward"
        );
        let mut tgt = prefix.to_vec();
        for &tok in &[5usize, 9, 2, 11] {
            tgt.push(tok);
            let step = model.session_advance(&store, &mut sess, &[tok]);
            let full = model.next_token_logits(&store, &src, &tgt);
            assert_eq!(
                bits(step.row_slice(0)),
                bits(&full),
                "session logits drifted at len {}",
                tgt.len()
            );
        }
    }

    #[test]
    fn encoding_is_order_sensitive() {
        let (store, model) = tiny();
        let a = model.next_token_logits(&store, &[1, 2, 3], &[0]);
        let b = model.next_token_logits(&store, &[3, 2, 1], &[0]);
        assert_ne!(a, b, "positional embeddings must distinguish order");
    }
}
