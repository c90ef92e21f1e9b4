//! **DGNN** — the Disentangled Graph Neural Network for social
//! recommendation (ICDE 2023), the paper's primary contribution.
//!
//! The model runs memory-augmented, relation-type-specific message passing
//! over the collaborative heterogeneous graph:
//!
//! 1. **Memory-augmented relation heterogeneity encoder** (Eq. 3): every
//!    directed relation family (user←user social, user←item and user→item
//!    interaction, item←relation and relation←item knowledge, plus one
//!    self-loop bank per node type) owns `|M|` latent memory units. A node
//!    attends over the units (`η_m = LeakyReLU(h·w²_m + b_m)`) and its
//!    outgoing message is the attention-blended transformation
//!    `Σ_m η_m (h·W¹_m)`.
//! 2. **Heterogeneous message aggregation** (Eq. 4–6): each node averages
//!    incoming messages over *all* its relation families jointly
//!    (`1/(|N^S| + |N^Y|)` normalization for users, etc.).
//! 3. **LayerNorm + self-propagation** (Eq. 7) stabilize each layer;
//!    **cross-layer concatenation + LayerNorm** (Eq. 8) forms the final
//!    embeddings in `R^{(L+1)d}`.
//! 4. **Social recalibration** `τ` (Eq. 9–10) adds the socially-averaged
//!    user embedding to the prediction dot product.
//! 5. Training minimizes pairwise **BPR** with weight decay (Eq. 11).
//!
//! ### A note on Eq. 3 vs. Eq. 4/6
//!
//! The paper's Eq. 3 writes the memory attention as a function of the
//! *target* node, while Eq. 4 and Eq. 6 evaluate `η(H[v_j], ·)` at the
//! *source* (neighbor) node. The two are inconsistent as printed; we follow
//! Eq. 4/6 (source-conditioned attention applied to the source embedding),
//! which both matches the aggregation formulas and admits the cheap
//! factoring `Σ_m η_m (H_src W¹_m)` computed once per node —
//! `O(|M|·|V|·d²) + O(|E|·d)` instead of `O(|M|·|E|·d²)` — exactly the
//! efficiency edge over HGT that the paper's Table IV measures.
//!
//! The ablation switches in [`DgnnConfig`] implement every variant of the
//! paper's Figures 4–5 (`-M`, `-τ`, `-LN`, `-S`, `-T`, `-ST`).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::print_stdout, clippy::print_stderr)]

mod config;
mod model;
pub mod pretrain;
pub mod training;

pub use config::DgnnConfig;
pub use model::{Dgnn, MemoryBankKind};
pub use pretrain::{PretrainedEmbeddings, Pretrainer};
