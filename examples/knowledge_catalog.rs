//! Knowledge-aware catalog: demonstrates the item-relation matrix `T` —
//! the paper's second motivating signal — and the custom-dataset workflow.
//!
//! Builds a small e-commerce-style catalog *by hand* through the
//! `HeteroGraphBuilder` API (no synthetic generator), persists it with
//! `dgnn_data::io`, reloads it, trains DGNN with and without the knowledge
//! edges, and shows that category information changes the ranking for a
//! user whose taste is concentrated in one category.
//!
//! ```text
//! cargo run --release -p dgnn-examples --bin knowledge_catalog
//! ```

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{io, Dataset};
use dgnn_eval::{Recommender, Trainable};
use dgnn_examples::report;
use dgnn_graph::HeteroGraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Categories: 0 = cameras, 1 = lenses, 2 = kitchen, 3 = garden.
const CATEGORIES: usize = 4;

fn build_catalog() -> dgnn_graph::HeteroGraph {
    let users = 40;
    let items = 160;
    let mut rng = StdRng::seed_from_u64(99);
    let mut b = HeteroGraphBuilder::new(users, items, CATEGORIES);
    // Items cycle through the categories.
    for v in 0..items {
        b.item_relation(v, v % CATEGORIES);
    }
    // Each user favors one category (80%) with occasional exploration.
    for u in 0..users {
        let fav = u % CATEGORIES;
        for t in 0..12u32 {
            let cat = if rng.gen_bool(0.8) { fav } else { rng.gen_range(0..CATEGORIES) };
            let item = (rng.gen_range(0..items / CATEGORIES)) * CATEGORIES + cat;
            b.interaction(u, item, t);
        }
        // A couple of same-taste friends.
        for _ in 0..2 {
            let friend = (u + CATEGORIES * rng.gen_range(1..users / CATEGORIES)) % users;
            if friend != u {
                b.social_tie(u, friend);
            }
        }
    }
    b.build()
}

fn main() {
    // Build → save → load roundtrip: the workflow for custom datasets.
    let catalog = build_catalog();
    let path = std::env::temp_dir().join("dgnn_knowledge_catalog.txt");
    io::save_graph(&catalog, &path).expect("save catalog");
    let reloaded = io::load_graph(&path).expect("load catalog");
    println!(
        "catalog saved to {} and reloaded ({} interactions)",
        path.display(),
        reloaded.interactions().len()
    );

    let mut rng = StdRng::seed_from_u64(1);
    let data = Dataset::leave_one_out("catalog", &reloaded, 2, 100, &mut rng);

    let cfg = DgnnConfig { epochs: 15, batch_size: 512, ..DgnnConfig::default() };
    let mut with_t = Dgnn::new(cfg.clone());
    with_t.fit(&data, 7);
    let mut without_t = Dgnn::new(cfg.without_knowledge());
    without_t.fit(&data, 7);

    println!("\neffect of the item-relation matrix T:");
    report(&with_t, &data.test, 10);
    print!("(-T)    ");
    report(&without_t, &data.test, 10);

    // Category purity of top recommendations for a camera lover (user 0).
    let user = 0usize;
    let seen = data.graph.items_of(user);
    let candidates: Vec<usize> =
        (0..data.graph.num_items()).filter(|v| !seen.contains(v)).collect();
    for (label, model) in [("with T", &with_t), ("without T", &without_t)] {
        let scores = model.score(user, &candidates);
        let mut ranked: Vec<(usize, f32)> = candidates.iter().copied().zip(scores).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        let top: Vec<usize> = ranked.iter().take(10).map(|&(v, _)| v).collect();
        let in_fav = top.iter().filter(|&&v| v % CATEGORIES == 0).count();
        println!("top-10 for camera-lover user 0 ({label}): {in_fav}/10 in the favorite category");
    }
}
