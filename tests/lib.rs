//! Shared fixtures for the cross-crate integration tests (see
//! `tests/tests/*.rs`).

use dgnn_baselines::BaselineConfig;
use dgnn_core::DgnnConfig;
use dgnn_data::{Dataset, TrainSampler, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fast DGNN config for integration tests.
pub fn quick_dgnn() -> DgnnConfig {
    DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 4,
        batch_size: 256,
        ..DgnnConfig::default()
    }
}

/// A fast baseline config for integration tests.
pub fn quick_baseline() -> BaselineConfig {
    BaselineConfig { dim: 8, layers: 2, epochs: 3, batch_size: 256, ..BaselineConfig::default() }
}

/// One fixed 64-triple BPR batch for tracing or replaying a training step.
pub fn sample_triples(data: &Dataset) -> Vec<Triple> {
    TrainSampler::new(&data.graph).batch(&mut StdRng::seed_from_u64(9), 64)
}

/// HR@10 of uniformly random ranking under the 100-negative protocol.
pub const RANDOM_HR10: f64 = 10.0 / 101.0;
