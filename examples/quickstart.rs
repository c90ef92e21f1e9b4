//! Quickstart: build a heterogeneous social-recommendation dataset, train
//! DGNN, and produce top-5 recommendations for a user — the minimal
//! end-to-end tour of the public API.
//!
//! ```text
//! cargo run --release -p dgnn-examples --bin quickstart
//! ```

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::{Recommender, Trainable};
use dgnn_examples::report;

fn main() {
    // 1. A dataset: users, items, social ties, item categories, and a
    //    leave-one-out test split with 100 sampled negatives per user.
    //    (`tiny` is a synthetic world; see `dgnn_data::io` to load your
    //    own dumps.)
    let data = tiny(42);
    println!(
        "dataset `{}`: {} users, {} items, {} relations, {} train interactions, {} test users",
        data.name,
        data.graph.num_users(),
        data.graph.num_items(),
        data.graph.num_relations(),
        data.num_train(),
        data.num_test()
    );

    // 2. Configure and train DGNN. The defaults are the paper's tuned
    //    hyperparameters (d=16, L=2, |M|=8, Adam @ 0.01).
    let cfg = DgnnConfig { epochs: 15, batch_size: 512, ..DgnnConfig::default() };
    let mut model = Dgnn::new(cfg);
    model.fit(&data, 7);
    println!(
        "trained: final BPR loss {:.4}",
        model.loss_history.last().copied().unwrap_or(f32::NAN)
    );

    // 3. Evaluate with the paper's protocol.
    report(&model, &data.test, 10);

    // 4. Recommend: score every unseen item for one user, take the top 5.
    let user = 0usize;
    let seen = data.graph.items_of(user);
    let candidates: Vec<usize> =
        (0..data.graph.num_items()).filter(|v| !seen.contains(v)).collect();
    let scores = model.score(user, &candidates);
    let mut ranked: Vec<(usize, f32)> = candidates.into_iter().zip(scores).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
    println!("\ntop-5 recommendations for user {user}:");
    for (item, score) in ranked.iter().take(5) {
        let cats = data.graph.ir().row_cols(*item);
        println!("  item {item:>4}  score {score:+.4}  categories {cats:?}");
    }
}
