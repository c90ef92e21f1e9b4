//! Shape-keyed buffer recycling for training loops.
//!
//! While a [`PoolScope`] is open on the current thread, every dropped
//! [`crate::Matrix`] retires its `Vec<f32>` backing store into a pool
//! bucketed by exact element count, and every fresh allocation first tries
//! to reuse a retired buffer of the same length; otherwise it falls back to
//! a normal heap allocation. With no scope open (the default), allocation
//! behaviour is exactly the pre-pool behaviour — one heap allocation per
//! matrix. A training step has the same shapes as the step before it, so a
//! fit that opens one scope for its whole length stops allocating after
//! its first steps.
//!
//! The pool is deliberately *value-transparent*: recycled storage is always
//! re-initialized (zero-filled, value-filled, or fully overwritten) before a
//! `Matrix` is built on top of it, so pooled and unpooled execution are
//! bit-identical. Debug builds enforce this: a retired buffer is filled
//! with NaN, so a kernel that reads recycled storage before writing it
//! produces a NaN that the tape's finite-value check reports.
//!
//! Two thread-local counters record how many matrix allocations were served
//! fresh from the heap versus recycled from the pool; the benchmark and the
//! integration tests read them through [`alloc_counters`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

thread_local! {
    static INSTALLED: RefCell<Option<BufferPool>> = const { RefCell::new(None) };
    static FRESH_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static POOL_HITS: Cell<u64> = const { Cell::new(0) };
}

/// A bucket map from exact element count to retired `f32` buffers.
#[derive(Debug, Default)]
struct BufferPool {
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
}

impl BufferPool {
    fn put(&mut self, mut buf: Vec<f32>) {
        // Poison for debug builds (see the module doc); a constant-false
        // branch that release builds compile out.
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        self.buckets.entry(buf.len()).or_default().push(buf);
    }

    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        self.buckets.get_mut(&len)?.pop()
    }
}

/// Recycles matrix storage on the current thread for as long as it lives.
///
/// [`PoolScope::open`] installs an empty pool; dropping the scope — also
/// while unwinding — uninstalls it and frees everything it holds. A scope
/// opened while the thread already has a pool does nothing, so a training
/// loop can open one without knowing whether its caller did.
#[derive(Debug)]
#[must_use = "the pool closes as soon as the scope is dropped"]
pub struct PoolScope {
    /// True when this scope installed the pool (and so removes it).
    owner: bool,
}

impl PoolScope {
    /// Opens a pool on the current thread, or joins the one already open.
    pub fn open() -> Self {
        let owner = INSTALLED.with(|slot| {
            let mut slot = slot.borrow_mut();
            let owner = slot.is_none();
            if owner {
                *slot = Some(BufferPool::default());
            }
            owner
        });
        Self { owner }
    }
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        if self.owner {
            INSTALLED.with(|slot| *slot.borrow_mut() = None);
        }
    }
}

/// Retires a raw buffer into the thread's pool, if one is open; otherwise
/// this is an ordinary drop. Zero-length buffers hold no heap storage and
/// are dropped either way.
pub(crate) fn recycle_vec(buf: Vec<f32>) {
    if buf.is_empty() {
        return;
    }
    INSTALLED.with(|slot| {
        if let Some(pool) = slot.borrow_mut().as_mut() {
            pool.put(buf);
        }
    });
}

/// `(fresh_heap_allocations, pool_hits)` for matrix storage on this thread
/// since the last [`reset_alloc_counters`].
pub fn alloc_counters() -> (u64, u64) {
    (FRESH_ALLOCS.with(Cell::get), POOL_HITS.with(Cell::get))
}

/// Zeroes this thread's allocation counters.
pub fn reset_alloc_counters() {
    FRESH_ALLOCS.with(|c| c.set(0));
    POOL_HITS.with(|c| c.set(0));
}

/// Bytes of retired storage the thread's pool holds (0 with none open).
#[cfg(test)]
pub(crate) fn held_bytes() -> usize {
    INSTALLED.with(|slot| {
        slot.borrow().as_ref().map_or(0, |pool| {
            pool.buckets.iter().map(|(len, bufs)| len * bufs.len() * size_of::<f32>()).sum()
        })
    })
}

/// Pops a recycled buffer of exactly `len` elements, counting the hit.
fn take_recycled(len: usize) -> Option<Vec<f32>> {
    let buf = INSTALLED.with(|slot| slot.borrow_mut().as_mut().and_then(|p| p.take(len)));
    if buf.is_some() {
        POOL_HITS.with(|c| c.set(c.get() + 1));
    }
    buf
}

/// A `len`-element buffer of zeros, recycled when possible.
pub(crate) fn alloc_zeroed(len: usize) -> Vec<f32> {
    alloc_filled(len, 0.0)
}

/// A `len`-element buffer filled with `value`, recycled when possible.
pub(crate) fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    match take_recycled(len) {
        Some(mut buf) => {
            buf.fill(value);
            buf
        }
        None => {
            FRESH_ALLOCS.with(|c| c.set(c.get() + 1));
            vec![value; len]
        }
    }
}

/// A `len`-element buffer whose contents are *unspecified* (stale values
/// from a retired buffer — NaN in debug builds — or zeros when freshly
/// allocated). The caller must overwrite every entry before the buffer is
/// observable.
pub(crate) fn alloc_overwritten(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    match take_recycled(len) {
        Some(buf) => buf,
        None => {
            FRESH_ALLOCS.with(|c| c.set(c.get() + 1));
            vec![0.0; len]
        }
    }
}

/// A buffer holding a copy of `src`, recycled when possible.
pub(crate) fn alloc_copied(src: &[f32]) -> Vec<f32> {
    let mut buf = alloc_overwritten(src.len());
    buf.copy_from_slice(src);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn recycling_roundtrips_and_counts() {
        reset_alloc_counters();
        let _pool = PoolScope::open();
        drop(Matrix::zeros(3, 4));
        assert_eq!(held_bytes(), 12 * size_of::<f32>());
        let b = Matrix::full(4, 3, 2.5); // same element count → pool hit
        assert!(b.as_slice().iter().all(|&v| v == 2.5), "recycled buffer not re-filled");
        let (fresh, hits) = alloc_counters();
        assert_eq!((fresh, hits), (1, 1));
        assert_eq!(held_bytes(), 0);
    }

    #[test]
    fn no_pool_means_fresh_allocations() {
        reset_alloc_counters();
        drop(Matrix::zeros(2, 2)); // freed, not pooled
        let _b = Matrix::zeros(2, 2);
        let (fresh, hits) = alloc_counters();
        assert_eq!((fresh, hits), (2, 0));
    }

    #[test]
    fn pooled_values_are_bit_identical_to_fresh() {
        let fresh = Matrix::from_fn(5, 5, |r, c| (r * 7 + c) as f32 * 0.3);
        let _pool = PoolScope::open();
        drop(Matrix::full(5, 5, f32::NAN)); // poison the bucket
        let pooled = Matrix::from_fn(5, 5, |r, c| (r * 7 + c) as f32 * 0.3);
        assert_eq!(fresh, pooled, "pooled from_fn must fully overwrite stale storage");
    }

    #[test]
    fn scopes_nest_and_close_on_unwind() {
        let outer = PoolScope::open();
        {
            let _inner = PoolScope::open(); // joins the outer pool
            drop(Matrix::zeros(2, 2));
        }
        assert_eq!(held_bytes(), 4 * size_of::<f32>(), "the inner scope must not close the pool");
        drop(outer);
        assert_eq!(held_bytes(), 0);
        let unwound = std::panic::catch_unwind(|| {
            let _pool = PoolScope::open();
            drop(Matrix::zeros(2, 2));
            panic!("unwind with a scope open");
        });
        assert!(unwound.is_err());
        drop(Matrix::zeros(2, 2));
        assert_eq!(held_bytes(), 0, "unwinding must close the pool");
    }
}
