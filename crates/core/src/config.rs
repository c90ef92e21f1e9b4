//! DGNN hyperparameters and ablation switches.

/// Configuration of the DGNN model (Section V-A4 of the paper gives the
/// tuned values the defaults reflect).
#[derive(Debug, Clone, PartialEq)]
pub struct DgnnConfig {
    /// Hidden dimensionality `d` (paper tunes {4, 8, 16, 32}; 16 is best).
    pub dim: usize,
    /// Number of propagation layers `L` (paper: 2 is best, 0–3 swept).
    pub layers: usize,
    /// Number of latent memory units `|M|` per relation family
    /// (paper: 8 is best, {2, 4, 8, 16} swept).
    pub memory_units: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// Weight-decay coefficient λ of Eq. 11 (paper tunes
    /// {1e-3, 1e-4, 1e-5}).
    pub weight_decay: f32,
    /// Training epochs.
    pub epochs: usize,
    /// BPR batch size (paper searches 512–4096).
    pub batch_size: usize,
    /// LeakyReLU negative slope α (paper: 0.2).
    pub leaky_slope: f32,
    /// Ablation `-M`: `false` replaces the memory-augmented encoder with a
    /// single shared transformation per relation family.
    pub use_memory: bool,
    /// Ablation `-τ`: `false` drops the social recalibration term from the
    /// prediction (Eq. 9–10).
    pub use_recalibration: bool,
    /// Ablation `-LN`: `false` drops the per-layer LayerNorm of Eq. 7.
    pub use_layer_norm: bool,
    /// Ablation `-S`: `false` removes the social matrix `S` from the graph.
    pub use_social: bool,
    /// Ablation `-T`: `false` removes the item-relation matrix `T`.
    pub use_knowledge: bool,
    /// Kernel-pool thread count for training (`0` inherits the ambient
    /// setting: the `DGNN_THREADS` environment variable, falling back to
    /// the hardware parallelism). Results are bit-identical at every
    /// setting; `1` forces fully serial kernels.
    pub threads: usize,
}

impl Default for DgnnConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            layers: 2,
            memory_units: 8,
            learning_rate: 0.01,
            weight_decay: 1e-4,
            epochs: 30,
            batch_size: 2048,
            leaky_slope: 0.2,
            use_memory: true,
            use_recalibration: true,
            use_layer_norm: true,
            use_social: true,
            use_knowledge: true,
            threads: 0,
        }
    }
}

impl DgnnConfig {
    /// The `-M` variant of Figure 4.
    pub fn without_memory(mut self) -> Self {
        self.use_memory = false;
        self
    }

    /// The `-τ` variant of Figure 4.
    pub fn without_recalibration(mut self) -> Self {
        self.use_recalibration = false;
        self
    }

    /// The `-LN` variant of Figure 4.
    pub fn without_layer_norm(mut self) -> Self {
        self.use_layer_norm = false;
        self
    }

    /// The `-S` variant of Figure 5.
    pub fn without_social(mut self) -> Self {
        self.use_social = false;
        self
    }

    /// The `-T` variant of Figure 5.
    pub fn without_knowledge(mut self) -> Self {
        self.use_knowledge = false;
        self
    }

    /// The `-ST` variant of Figure 5.
    pub fn without_social_and_knowledge(self) -> Self {
        self.without_social().without_knowledge()
    }

    /// Pins the kernel-pool thread count for training (`0` = inherit).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Effective number of memory units after the `-M` ablation.
    pub fn effective_memory_units(&self) -> usize {
        if self.use_memory {
            self.memory_units
        } else {
            1
        }
    }

    /// Serializes every field as `(key, value)` pairs for checkpoint
    /// metadata. Floats use Rust's shortest round-trip formatting, so
    /// [`DgnnConfig::from_meta`] reconstructs them bit-exactly.
    pub fn to_meta(&self) -> Vec<(String, String)> {
        vec![
            ("cfg/dim".into(), self.dim.to_string()),
            ("cfg/layers".into(), self.layers.to_string()),
            ("cfg/memory_units".into(), self.memory_units.to_string()),
            ("cfg/learning_rate".into(), self.learning_rate.to_string()),
            ("cfg/weight_decay".into(), self.weight_decay.to_string()),
            ("cfg/epochs".into(), self.epochs.to_string()),
            ("cfg/batch_size".into(), self.batch_size.to_string()),
            ("cfg/leaky_slope".into(), self.leaky_slope.to_string()),
            ("cfg/use_memory".into(), self.use_memory.to_string()),
            ("cfg/use_recalibration".into(), self.use_recalibration.to_string()),
            ("cfg/use_layer_norm".into(), self.use_layer_norm.to_string()),
            ("cfg/use_social".into(), self.use_social.to_string()),
            ("cfg/use_knowledge".into(), self.use_knowledge.to_string()),
            ("cfg/threads".into(), self.threads.to_string()),
        ]
    }

    /// Rebuilds a configuration from checkpoint metadata (`lookup` maps a
    /// key like `cfg/dim` to its stored value). Every field is required;
    /// a missing or unparsable entry names itself in the error.
    pub fn from_meta(lookup: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn get<T: std::str::FromStr>(
            lookup: &dyn Fn(&str) -> Option<String>,
            key: &str,
        ) -> Result<T, String> {
            let raw = lookup(key).ok_or_else(|| format!("missing config entry {key:?}"))?;
            raw.parse().map_err(|_| format!("unparsable config entry {key:?} = {raw:?}"))
        }
        Ok(Self {
            dim: get(lookup, "cfg/dim")?,
            layers: get(lookup, "cfg/layers")?,
            memory_units: get(lookup, "cfg/memory_units")?,
            learning_rate: get(lookup, "cfg/learning_rate")?,
            weight_decay: get(lookup, "cfg/weight_decay")?,
            epochs: get(lookup, "cfg/epochs")?,
            batch_size: get(lookup, "cfg/batch_size")?,
            leaky_slope: get(lookup, "cfg/leaky_slope")?,
            use_memory: get(lookup, "cfg/use_memory")?,
            use_recalibration: get(lookup, "cfg/use_recalibration")?,
            use_layer_norm: get(lookup, "cfg/use_layer_norm")?,
            use_social: get(lookup, "cfg/use_social")?,
            use_knowledge: get(lookup, "cfg/use_knowledge")?,
            threads: get(lookup, "cfg/threads")?,
        })
    }

    /// Validates invariants; call before training.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid configuration.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.memory_units > 0, "memory_units must be positive");
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.learning_rate > 0.0, "learning_rate must be positive");
        assert!((0.0..1.0).contains(&self.leaky_slope), "leaky_slope must be in [0, 1)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tuning() {
        let c = DgnnConfig::default();
        assert_eq!(c.dim, 16);
        assert_eq!(c.layers, 2);
        assert_eq!(c.memory_units, 8);
        assert!((c.learning_rate - 0.01).abs() < 1e-9);
        assert!((c.leaky_slope - 0.2).abs() < 1e-9);
        assert_eq!(c.threads, 0, "default must inherit the ambient thread count");
        c.validate();
    }

    #[test]
    fn with_threads_pins_the_pool_width() {
        assert_eq!(DgnnConfig::default().with_threads(4).threads, 4);
    }

    #[test]
    fn ablation_builders_flip_flags() {
        let c = DgnnConfig::default()
            .without_memory()
            .without_recalibration()
            .without_layer_norm()
            .without_social_and_knowledge();
        assert!(!c.use_memory);
        assert!(!c.use_recalibration);
        assert!(!c.use_layer_norm);
        assert!(!c.use_social);
        assert!(!c.use_knowledge);
        assert_eq!(c.effective_memory_units(), 1);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        DgnnConfig { dim: 0, ..DgnnConfig::default() }.validate();
    }

    #[test]
    fn meta_round_trip_is_exact() {
        let cfg = DgnnConfig {
            learning_rate: 0.012_345_679,
            weight_decay: 3.3e-7,
            ..DgnnConfig::default().without_layer_norm().with_threads(4)
        };
        let meta: std::collections::BTreeMap<String, String> = cfg.to_meta().into_iter().collect();
        let back = DgnnConfig::from_meta(&|k| meta.get(k).cloned()).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(cfg.learning_rate.to_bits(), back.learning_rate.to_bits());
    }

    /// Checkpoints written before graph rewriting and static memory
    /// planning were removed carry stale `cfg/` entries; the lookup never
    /// asks for them.
    #[test]
    fn meta_from_an_older_checkpoint_still_loads() {
        let cfg = DgnnConfig::default();
        let mut meta: std::collections::BTreeMap<String, String> =
            cfg.to_meta().into_iter().collect();
        meta.insert("cfg/use_graph_opt".into(), "true".into());
        meta.insert("cfg/use_memory_plan".into(), "true".into());
        let back = DgnnConfig::from_meta(&|k| meta.get(k).cloned()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn from_meta_names_the_missing_field() {
        let err = DgnnConfig::from_meta(&|_| None).unwrap_err();
        assert!(err.contains("cfg/dim"), "got {err}");
    }
}
