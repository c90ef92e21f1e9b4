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
//! A trained model is written by `Dgnn::save_checkpoint`, which stores
//! every parameter, the final embeddings, the τ matrix, and the users'
//! seen-item lists.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod checkpoint;
pub mod engine;
pub mod http;
pub mod segment;
pub mod shard;
pub mod trace;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::{Engine, Query, QueryError, ScoredItem};
pub use http::{ServeConfig, Server};
pub use segment::{save_segmented, SegmentedCheckpoint, SegmentedWriter, UserShard};
pub use shard::ShardStats;
pub use trace::{PhaseBreakdown, RequestTrace, ServeTelemetry};
