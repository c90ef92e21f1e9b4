//! Checkpointing and online top-K inference serving for the DGNN stack.
//!
//! Four layers, zero external dependencies (std + workspace crates only):
//!
//! 1. [`checkpoint`] — a versioned, checksummed little-endian binary
//!    format for named tensors plus model metadata. Loading untrusted
//!    bytes returns [`CheckpointError`], never panics.
//!    Segmented checkpoints ([`segment`]) extend the same guarantees to a
//!    manifest-plus-shard-files layout, and [`shard`] reads those shard
//!    files (mapped on Linux/x86_64, positional reads elsewhere).
//! 2. [`engine`] — loads a checkpoint, materializes the post-propagation
//!    scoring embeddings once (re-applying the Eq. 9–10 social
//!    recalibration when τ is stored) into one store of per-shard slots —
//!    filled at load from a checkpoint file, on first touch from a
//!    segmented directory — keeps the item table as packed scoring panels,
//!    and answers top-K queries with one batched product against them +
//!    heap-based partial select — bit-identical to the in-memory model's
//!    scorer at any thread count, batch shape or sharding.
//! 3. [`http`] — a std-only HTTP/1.1 server with a fixed worker pool and
//!    a micro-batcher coalescing concurrent queries into one engine
//!    dispatch per tick; malformed input gets JSON 4xx/5xx, never a panic.
//! 4. Tracing ([`trace`]) — per-request phase timings ([`RequestTrace`])
//!    recorded live into process-shared histograms, scraped via
//!    `GET /metrics` (Prometheus) and `GET /stats` (JSON), with an
//!    always-on flight recorder dumped on worker panic and at
//!    `GET /debug/flight`. These lock-free instruments are the server's
//!    only stats path.
//!
//! Models expose their state either through the generic
//! [`dgnn_eval::EmbeddingExport`] path ([`export_recommender`], for plain
//! dot-product scorers like NGCF/GCCF) or through model-specific methods
//! (`Dgnn::save_checkpoint`, which additionally stores every parameter,
//! the τ matrix, and the users' seen-item lists).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod http;
pub mod segment;
pub mod shard;
pub mod trace;

use std::path::Path;

use dgnn_eval::EmbeddingExport;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::{Engine, Query, QueryError, ScoredItem};
pub use http::{ServeConfig, Server};
pub use segment::{save_segmented, SegmentedCheckpoint, SegmentedWriter, UserShard};
pub use shard::ShardStats;
pub use trace::{PhaseBreakdown, RequestTrace, ServeTelemetry};

/// Builds a checkpoint from any dot-product recommender's final
/// embeddings. The loaded [`Engine`] then scores exactly like the model's
/// `score` (same sequential dot product), so round-trips are bit-exact.
pub fn export_recommender(model: &impl EmbeddingExport, dataset: &str) -> Checkpoint {
    let (user, item) = model.embeddings();
    let mut ckpt = Checkpoint::new();
    ckpt.set_meta("model", model.name());
    ckpt.set_meta("dataset", dataset);
    ckpt.set_meta("dim", &item.cols().to_string());
    ckpt.push_matrix("final/user", user);
    ckpt.push_matrix("final/item", item);
    ckpt
}

/// [`export_recommender`] + [`Checkpoint::save`] in one call.
pub fn save_recommender(
    model: &impl EmbeddingExport,
    dataset: &str,
    path: &Path,
) -> Result<(), CheckpointError> {
    export_recommender(model, dataset).save(path)
}
