//! Offline-to-online bridge: load a checkpoint once, answer top-K queries.
//!
//! The engine serves the post-message-passing embeddings — including the
//! social recalibration of Eq. 9–10 when the checkpoint carries the τ
//! matrix (`user_scoring = user + τ·user`, recomputed with the *same*
//! spmm/add kernels training used, so serving scores are bit-identical to
//! the in-memory model's). It holds them in one store of per-shard slots
//! ([`crate::shard`]): a checkpoint file fills one user and one item slot
//! at load, a segmented directory fills its slots on first touch. Item
//! embeddings are held only as the packed column panels the scoring
//! kernels read ([`PackedPanels`]), so queries reduce to one gathered
//! user×item product against resident panels and a heap-based partial
//! top-K select, both row-parallel and deterministic, with optional
//! seen-item filtering.
//!
//! Because every row is a pure function of the loaded embeddings, batched
//! answers are independent of batch composition: coalescing queries in the
//! micro-batcher cannot change any individual result.

use std::fmt;
use std::path::Path;

use dgnn_tensor::gemm::PackedPanels;
use dgnn_tensor::{top_k_rows, Csr, CsrBuilder, Matrix};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::segment::{SegmentedCheckpoint, UserShard};
use crate::shard::{ShardStats, ShardStore};

/// A single top-K request against the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// User index.
    pub user: u32,
    /// Number of items requested.
    pub k: usize,
    /// Drop items the user already interacted with (training edges).
    pub exclude_seen: bool,
}

/// One recommended item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Item index.
    pub item: u32,
    /// Predicted preference score.
    pub score: f32,
}

/// Why a query could not be answered. Maps onto 4xx responses — never a
/// panic — in the HTTP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The user index is outside the trained embedding table.
    UnknownUser {
        /// Requested user.
        user: u32,
        /// Number of users the model was trained on.
        num_users: usize,
    },
    /// `k` is zero or exceeds the item count.
    BadK {
        /// Requested k.
        k: usize,
        /// Number of items the model was trained on.
        num_items: usize,
    },
    /// A lazily-loaded embedding shard could not be brought resident
    /// (missing/corrupt segment at first touch). Maps to 503 — the query
    /// was valid; the backend is degraded.
    ShardUnavailable {
        /// Index of the failing shard.
        shard: u32,
        /// Typed load error, stringified for the response body.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownUser { user, num_users } => {
                write!(f, "unknown user {user} (model has {num_users} users)")
            }
            Self::BadK { k, num_items } => {
                write!(f, "invalid k = {k} (must be in 1..={num_items})")
            }
            Self::ShardUnavailable { shard, detail } => {
                write!(f, "embedding shard {shard} unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// In-memory inference state: the scoring tables as per-shard slots —
/// one resident shard each when loaded whole from a checkpoint file,
/// faulted in shard by shard when opened from a segmented directory.
pub struct Engine {
    store: ShardStore,
}

/// The serving tables of a monolithic checkpoint: the user *scoring* table
/// with its seen lists (empty per user when the checkpoint carried none),
/// and `final/item`.
///
/// The user table is resolved in preference order: `final/user` + the
/// `tau/{indptr,cols,values}` CSR triple (recalibration re-applied with the
/// same kernels training used), `final/user_scoring` (pre-recalibrated), or
/// bare `final/user`.
pub(crate) fn serving_tables(ckpt: &Checkpoint) -> Result<(UserShard, Matrix), CheckpointError> {
    let item = ckpt.matrix("final/item")?;
    let emb = if ckpt.tensor("tau/indptr").is_some() {
        let base = ckpt.matrix("final/user")?;
        let tau = load_csr(ckpt, "tau", base.rows(), base.rows())?;
        // Same kernels, same order as Dgnn::finalize: u + τ·u.
        base.add(&tau.spmm(&base))
    } else if ckpt.tensor("final/user_scoring").is_some() {
        ckpt.matrix("final/user_scoring")?
    } else {
        ckpt.matrix("final/user")?
    };
    if emb.cols() != item.cols() {
        return Err(CheckpointError::BadShape(format!("user dim {} != item dim {}", emb.cols(), item.cols())));
    }
    let (seen_indptr, seen_items) = match ckpt.tensor("seen/indptr") {
        Some(_) => {
            let indptr = ckpt.u32s("seen/indptr")?.to_vec();
            let items = ckpt.u32s("seen/items")?.to_vec();
            validate_lists(&indptr, &items, emb.rows(), item.rows())?;
            (indptr, items)
        }
        None => (vec![0; emb.rows() + 1], Vec::new()),
    };
    Ok((UserShard { emb, seen_indptr, seen_items }, item))
}

/// Packs an item table (or one shard of it) into the layout it is served
/// from, recording the one-off cost in `serve/engine/item_pack_ms`.
pub(crate) fn pack_items(items: &Matrix) -> PackedPanels {
    let t0 = dgnn_obs::now_ns();
    let packed = PackedPanels::pack(items);
    dgnn_obs::shared::hist("serve/engine/item_pack_ms").record(dgnn_obs::now_ns().saturating_sub(t0) as f64 / 1e6);
    packed
}

impl Engine {
    /// Builds an engine from a parsed checkpoint, every table resident.
    ///
    /// Expects `final/item` plus a user table: `final/user` with the τ
    /// CSR triple, `final/user_scoring`, or bare `final/user`.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CheckpointError> {
        let (user, item) = serving_tables(ckpt)?;
        Ok(Self { store: ShardStore::whole(user, &item) })
    }

    /// Loads a checkpoint file and builds the engine.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_checkpoint(&Checkpoint::load(path)?)
    }

    /// Opens a segmented checkpoint directory as a lazily-loaded engine.
    /// Only the manifest is read here — startup cost and RSS scale with
    /// *touched* shards, not table size.
    pub fn open_segmented(dir: &Path) -> Result<Self, CheckpointError> {
        Ok(Self { store: ShardStore::lazy(SegmentedCheckpoint::open(dir)?) })
    }

    /// Shard residency snapshot — `None` for an engine loaded whole.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.store.stats()
    }

    /// Number of users the model covers.
    pub fn num_users(&self) -> usize {
        self.store.num_users()
    }

    /// Number of items the model covers.
    pub fn num_items(&self) -> usize {
        self.store.num_items()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// The user's training interactions (empty when unknown or unstored).
    pub fn seen(&self, user: u32) -> &[u32] {
        self.store.seen(user as usize)
    }

    fn check(&self, q: &Query) -> Result<(), QueryError> {
        if (q.user as usize) >= self.num_users() {
            return Err(QueryError::UnknownUser { user: q.user, num_users: self.num_users() });
        }
        if q.k == 0 || q.k > self.num_items() {
            return Err(QueryError::BadK { k: q.k, num_items: self.num_items() });
        }
        Ok(())
    }

    /// Full score row for one user — the serving-side equivalent of the
    /// model's dot-product scorer over every item.
    pub fn scores_for(&self, user: u32) -> Result<Vec<f32>, QueryError> {
        self.check(&Query { user, k: 1, exclude_seen: false })?;
        let (scores, mut row_errs) = self.score(&[user as usize])?;
        match row_errs.pop().flatten() {
            Some(e) => Err(e),
            None => Ok(scores.into_raw_vec()),
        }
    }

    /// The `users.len() × num_items` score matrix — the one scorer behind
    /// every query — plus per-row user-shard failures (those rows score as
    /// zeros and their queries answer 503 individually). An unloadable
    /// *item* shard fails the whole batch: every query needs the full
    /// catalog.
    ///
    /// Bit-identity: user rows are gathered byte-for-byte from their shards
    /// and scored against each item shard's resident panels by
    /// `gather_matmul_panels`, which writes the shard's block straight into
    /// its column range. Every score is the same fold over the same (user
    /// row, item row) pair whatever the sharding, batch size, thread count
    /// or GEMM backend, so the matrix equals `Recommender::score` element
    /// for element.
    fn score(&self, users: &[usize]) -> Result<(Matrix, Vec<Option<QueryError>>), QueryError> {
        let unavailable = |(shard, detail): (usize, String)| QueryError::ShardUnavailable { shard: shard as u32, detail };
        let mut batch = Matrix::zeros(users.len(), self.dim());
        let mut row_errs: Vec<Option<QueryError>> = vec![None; users.len()];
        for (row, &u) in users.iter().enumerate() {
            match self.store.user_row(u) {
                Ok(r) => batch.set_row(row, r),
                Err(e) => row_errs[row] = Some(unavailable(e)),
            }
        }
        let shards = self.store.item_panels().map_err(unavailable)?;
        let idx: Vec<usize> = (0..users.len()).collect();
        Ok((batch.gather_matmul_panels(&idx, &shards), row_errs))
    }

    /// Answers one query. Equivalent to a single-element
    /// [`Engine::recommend_batch`].
    pub fn recommend(&self, q: Query) -> Result<Vec<ScoredItem>, QueryError> {
        match self.recommend_batch(&[q]).pop() {
            Some(r) => r,
            // SERVE: unreachable by construction — recommend_batch returns
            // exactly one result per input query; fail soft regardless.
            None => Err(QueryError::BadK { k: q.k, num_items: self.num_items() }),
        }
    }

    /// Answers a batch of queries with ONE gathered user×item product
    /// against the resident item panels and ONE top-K select at the batch's maximum `k` (per-query results
    /// are truncated prefixes — sound because the selection order is
    /// total). Each query's result is independent of its batch-mates.
    pub fn recommend_batch(&self, queries: &[Query]) -> Vec<Result<Vec<ScoredItem>, QueryError>> {
        let mut out: Vec<Result<Vec<ScoredItem>, QueryError>> = Vec::with_capacity(queries.len());
        let mut valid: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match self.check(q) {
                Ok(()) => {
                    valid.push(i);
                    out.push(Ok(Vec::new()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        if valid.is_empty() {
            return out;
        }
        let users: Vec<usize> = valid.iter().map(|&i| queries[i].user as usize).collect();
        let telemetry = crate::trace::telemetry();
        let t0 = dgnn_obs::now_ns();
        let mut scores = match self.score(&users) {
            Ok((scores, row_errs)) => {
                for (&i, e) in valid.iter().zip(row_errs) {
                    if let Some(e) = e {
                        out[i] = Err(e);
                    }
                }
                scores
            }
            Err(e) => {
                // An item shard is unloadable: no query in the batch
                // can be scored over the full catalog.
                for &i in &valid {
                    out[i] = Err(e.clone());
                }
                return out;
            }
        };
        for (row, &i) in valid.iter().enumerate() {
            if queries[i].exclude_seen && out[i].is_ok() {
                let r = scores.row_mut(row);
                for &it in self.seen(queries[i].user) {
                    if let Some(s) = r.get_mut(it as usize) {
                        *s = f32::NEG_INFINITY;
                    }
                }
            }
        }
        let t1 = dgnn_obs::now_ns();
        let k_max = valid.iter().map(|&i| queries[i].k).max().unwrap_or(1);
        let top = top_k_rows(&scores, k_max);
        telemetry.gather_matmul_ms.record(t1.saturating_sub(t0) as f64 / 1e6);
        telemetry.topk_ms.record(dgnn_obs::now_ns().saturating_sub(t1) as f64 / 1e6);
        for (row, &i) in valid.iter().enumerate() {
            if out[i].is_err() {
                continue;
            }
            let items: Vec<ScoredItem> = top
                .row(row)
                .take(queries[i].k)
                .filter(|&(_, s)| s > f32::NEG_INFINITY)
                .map(|(item, score)| ScoredItem { item, score })
                .collect();
            out[i] = Ok(items);
        }
        out
    }
}

/// Rebuilds a CSR stored as the `{prefix}/{indptr,cols,values}` triple.
/// `CsrBuilder::build` sorts and merges — the stored arrays are already
/// sorted and merged (they came from a built CSR), so the reconstruction
/// is exact.
fn load_csr(ckpt: &Checkpoint, prefix: &str, rows: usize, cols: usize) -> Result<Csr, CheckpointError> {
    let indptr = ckpt.u32s(&format!("{prefix}/indptr"))?;
    let col_idx = ckpt.u32s(&format!("{prefix}/cols"))?;
    let values = ckpt.f32s(&format!("{prefix}/values"))?;
    if indptr.len() != rows + 1 || col_idx.len() != values.len() {
        return Err(CheckpointError::BadShape(format!(
            "{prefix}: indptr len {} (want {}), cols len {}, values len {}",
            indptr.len(),
            rows + 1,
            col_idx.len(),
            values.len()
        )));
    }
    let nnz = *indptr.last().unwrap_or(&0) as usize;
    if nnz != col_idx.len() {
        return Err(CheckpointError::BadShape(format!(
            "{prefix}: indptr terminates at {nnz} but {} columns stored",
            col_idx.len()
        )));
    }
    let mut b = CsrBuilder::new(rows, cols);
    for r in 0..rows {
        let (lo, hi) = (indptr[r] as usize, indptr[r + 1] as usize);
        if lo > hi || hi > col_idx.len() {
            return Err(CheckpointError::BadShape(format!("{prefix}: indptr not monotone at row {r}")));
        }
        for j in lo..hi {
            let c = col_idx[j] as usize;
            if c >= cols {
                return Err(CheckpointError::BadShape(format!(
                    "{prefix}: column {c} out of bounds ({cols}) at row {r}"
                )));
            }
            b.push(r, c, values[j]);
        }
    }
    Ok(b.build())
}

pub(crate) fn validate_lists(indptr: &[u32], items: &[u32], users: usize, num_items: usize) -> Result<(), CheckpointError> {
    if indptr.len() != users + 1 {
        return Err(CheckpointError::BadShape(format!(
            "seen/indptr len {} (want {})",
            indptr.len(),
            users + 1
        )));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) || *indptr.last().unwrap_or(&0) as usize != items.len() {
        return Err(CheckpointError::BadShape("seen/indptr not a monotone prefix-sum of seen/items".into()));
    }
    if items.iter().any(|&it| it as usize >= num_items) {
        return Err(CheckpointError::BadShape("seen/items contains an out-of-range item".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny engine: 3 users × 4 items, identity-ish embeddings with a seen
    /// list for user 0.
    fn tiny() -> Engine {
        let mut c = Checkpoint::new();
        c.push_matrix(
            "final/user_scoring",
            &Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        );
        c.push_matrix(
            "final/item",
            &Matrix::from_vec(4, 2, vec![3.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 5.0]),
        );
        c.push_u32("seen/indptr", vec![0, 1, 1, 1]);
        c.push_u32("seen/items", vec![0]);
        Engine::from_checkpoint(&c).unwrap()
    }

    #[test]
    fn recommends_by_descending_score() {
        let e = tiny();
        let r = e.recommend(Query { user: 0, k: 3, exclude_seen: false }).unwrap();
        assert_eq!(
            r,
            vec![
                ScoredItem { item: 0, score: 3.0 },
                ScoredItem { item: 1, score: 2.0 },
                ScoredItem { item: 2, score: 1.0 }
            ]
        );
    }

    #[test]
    fn seen_filtering_drops_training_items() {
        let e = tiny();
        let r = e.recommend(Query { user: 0, k: 2, exclude_seen: true }).unwrap();
        assert_eq!(r[0].item, 1, "item 0 is seen and must be filtered");
        assert_eq!(r[1].item, 2);
    }

    #[test]
    fn filtered_rows_never_leak_neg_infinity() {
        let e = tiny();
        // k = all items; the seen item vanishes rather than surfacing -inf.
        let r = e.recommend(Query { user: 0, k: 4, exclude_seen: true }).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|s| s.item != 0 && s.score.is_finite()));
    }

    #[test]
    fn batch_results_match_singles() {
        let e = tiny();
        let qs = [
            Query { user: 2, k: 4, exclude_seen: false },
            Query { user: 99, k: 2, exclude_seen: false },
            Query { user: 1, k: 1, exclude_seen: false },
        ];
        let batch = e.recommend_batch(&qs);
        assert_eq!(batch[0], e.recommend(qs[0]));
        assert!(matches!(batch[1], Err(QueryError::UnknownUser { user: 99, .. })));
        assert_eq!(batch[2], e.recommend(qs[2]));
    }

    /// 30 users × 100 items × d = 20 of LCG noise (a ragged last panel).
    fn noise_tables() -> (Matrix, Matrix) {
        let mut s = 7u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f32 / 250.0 - 2.0
        };
        (Matrix::from_fn(30, 20, |_, _| next()), Matrix::from_fn(100, 20, |_, _| next()))
    }

    #[test]
    fn served_scores_are_the_matmul_nt_fold_on_every_backend_and_batch_size() {
        use dgnn_tensor::gemm::{self, Backend};
        let (user, item) = noise_tables();
        let mut c = Checkpoint::new();
        c.push_matrix("final/user_scoring", &user);
        c.push_matrix("final/item", &item);
        let e = Engine::from_checkpoint(&c).unwrap();
        assert_eq!((e.num_users(), e.num_items(), e.dim()), (30, 100, 20));
        // `None` is the detected SIMD backend where there is one.
        for be in [Some(Backend::Scalar), Some(Backend::Generic), None] {
            gemm::set_backend(be);
            let want = user.matmul_nt(&item);
            for u in 0..30 {
                // A batch of one: the row-vector kernel.
                let got = e.scores_for(u).unwrap();
                let same = got.iter().zip(want.row(u as usize)).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "user {u} on {be:?}: served scores differ from matmul_nt");
            }
            // A batch of nine: the 8×8 tile. Same answers as nine singles.
            let qs: Vec<Query> = (0..9).map(|u| Query { user: u * 3, k: 7, exclude_seen: false }).collect();
            for (q, batched) in qs.iter().zip(e.recommend_batch(&qs)) {
                assert_eq!(batched, e.recommend(*q), "user {} on {be:?}", q.user);
            }
        }
        gemm::set_backend(None);
    }

    #[test]
    fn bad_k_is_rejected() {
        let e = tiny();
        assert!(matches!(
            e.recommend(Query { user: 0, k: 0, exclude_seen: false }),
            Err(QueryError::BadK { .. })
        ));
        assert!(matches!(
            e.recommend(Query { user: 0, k: 5, exclude_seen: false }),
            Err(QueryError::BadK { .. })
        ));
    }

    #[test]
    fn tau_recalibration_applied_at_load() {
        let mut c = Checkpoint::new();
        // 2 users, 1 item, dim 1. τ row 0 = {1: 0.5} ⇒ u0' = 1 + 0.5·2 = 2.
        c.push_matrix("final/user", &Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        c.push_matrix("final/item", &Matrix::from_vec(1, 1, vec![1.0]));
        c.push_u32("tau/indptr", vec![0, 1, 1]);
        c.push_u32("tau/cols", vec![1]);
        c.push_f32("tau/values", 1, 1, vec![0.5]);
        let e = Engine::from_checkpoint(&c).unwrap();
        assert_eq!(e.scores_for(0).unwrap(), vec![2.0]);
        assert_eq!(e.scores_for(1).unwrap(), vec![2.0]);
    }

    #[test]
    fn malformed_seen_lists_err_not_panic() {
        let mut c = Checkpoint::new();
        c.push_matrix("final/user_scoring", &Matrix::from_vec(1, 1, vec![1.0]));
        c.push_matrix("final/item", &Matrix::from_vec(1, 1, vec![1.0]));
        c.push_u32("seen/indptr", vec![0, 5]);
        c.push_u32("seen/items", vec![0]);
        assert!(matches!(Engine::from_checkpoint(&c), Err(CheckpointError::BadShape(_))));
    }
}
