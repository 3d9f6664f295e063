//! A `Vec<f32>` free-list pool keyed by exact length.
//!
//! The autodiff tape allocates the same tensor shapes every training
//! step (forward activations, packed kernel operands, gradients). The
//! pool turns those per-step heap allocations into reuse: `take_zeroed`
//! pops a retired buffer of the right length and re-zeros it (so a
//! pooled buffer is indistinguishable from `vec![0.0; len]`), `put`
//! retires one. Reuse is counted as `nn_buf_reuse` on both the global
//! kernel stats and the `pipa-obs` trace channel.
//!
//! The pool is deliberately not thread-safe: each [`crate::tape::Tape`]
//! owns one, so trace determinism is unaffected.

use crate::kernels::bump_buf_reuse;
use std::collections::HashMap;

/// Per-bucket retention cap: beyond this many retired buffers of one
/// length, `put` drops the buffer instead (bounds worst-case memory to
/// a small multiple of a step's live set).
const BUCKET_CAP: usize = 32;

/// A free-list pool of `Vec<f32>` buffers keyed by exact length.
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled buffer of exactly `len` elements — pooled when a
    /// retired buffer of that length exists, freshly allocated
    /// otherwise. Bit-for-bit equivalent to `vec![0.0f32; len]`.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        if let Some(mut buf) = self.buckets.get_mut(&len).and_then(Vec::pop) {
            bump_buf_reuse();
            buf.fill(0.0);
            buf
        } else {
            vec![0.0; len]
        }
    }

    /// A buffer holding a copy of `src` (pooled backing when possible).
    pub fn take_copy(&mut self, src: &[f32]) -> Vec<f32> {
        if let Some(mut buf) = self.buckets.get_mut(&src.len()).and_then(Vec::pop) {
            bump_buf_reuse();
            buf.copy_from_slice(src);
            buf
        } else {
            src.to_vec()
        }
    }

    /// Retire a buffer for reuse by a later `take_*` of the same length.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.is_empty() {
            return;
        }
        let bucket = self.buckets.entry(buf.len()).or_default();
        if bucket.len() < BUCKET_CAP {
            bucket.push(buf);
        }
    }

    /// Retired buffers currently held (across all lengths).
    pub fn retired(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

impl crate::kernels::Scratch for BufferPool {
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        BufferPool::take_zeroed(self, len)
    }
    fn put(&mut self, buf: Vec<f32>) {
        BufferPool::put(self, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_after_put_reuses_and_rezeroes() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_zeroed(8);
        a[3] = 5.0;
        pool.put(a);
        assert_eq!(pool.retired(), 1);
        let b = pool.take_zeroed(8);
        assert_eq!(b, vec![0.0; 8]);
        assert_eq!(pool.retired(), 0);
    }

    #[test]
    fn lengths_do_not_cross() {
        let mut pool = BufferPool::new();
        pool.put(vec![1.0; 4]);
        let b = pool.take_zeroed(8);
        assert_eq!(b.len(), 8);
        assert_eq!(pool.retired(), 1);
    }

    #[test]
    fn bucket_cap_bounds_memory() {
        let mut pool = BufferPool::new();
        for _ in 0..100 {
            pool.put(vec![0.0; 16]);
        }
        assert!(pool.retired() <= 32);
    }
}
