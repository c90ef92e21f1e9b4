//! The experiment table: every table and figure of the paper's evaluation
//! (Section V) plus the pretraining extension, as data, and the one loop
//! that runs them. The `reproduce` binary is its command line.
//!
//! Most experiments are lists of cells (a dataset, a model, a variant label
//! and a builder for a fresh model) evaluated at a set of cutoffs. Each
//! (cell, seed, cutoff) becomes one row of `results/experiments.csv`
//! (columns `HEADER`), and the printers read those rows. E9 (accuracy per
//! epoch) and EXT (pretraining) add their points to the same file. E1, E6,
//! E10 and E11 produce rows of other shapes: each writes `results/<ID>.csv`,
//! and E10 / E11 also a raw dump, `E10_tsne.csv` / `E11_attention.csv`.
//! Every file has a `seed` column.

use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use dgnn_baselines::{BaselineConfig, Dgcf, DiffNet, Han, Hgt, Kgat, Mhcn, Ngcf};
use dgnn_core::{Dgnn, DgnnConfig, MemoryBankKind, Pretrainer};
use dgnn_data::{Dataset, DatasetStats, PAPER_TABLE1};
use dgnn_eval::groups::{evaluate_by_group, NUM_GROUPS};
use dgnn_eval::{evaluate_at, RankingMetrics, Recommender, Trainable, TOP_NS};
use dgnn_graph::compose;
use dgnn_tensor::Matrix;
use dgnn_viz::{attention_similarity_gap, cluster_separation, silhouette, tsne_2d, TsneConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{baseline_config, cutoff_index, datasets, dgnn_config, improvement_pct, roster};
use crate::{run_cell, CellResult};

/// Seeds every experiment runs at. A seed fixes both the generated
/// datasets and the training run.
pub const SEEDS: &[u64] = &[2023];

/// Columns of `results/experiments.csv`, one row per measurement.
const HEADER: &str = "exp,dataset,model,variant,seed,n,hr,ndcg,train_ms,eval_ms";

const CIAO: &str = "ciao-s";
const YELP: &str = "yelp-s";
/// The names [`datasets`] generates, in its order.
const ALL: [&str; 3] = [CIAO, "epinions-s", YELP];

/// Epochs E8 averages its per-epoch training time over.
const TIMING_EPOCHS: usize = 3;

/// Every experiment, in the order `reproduce` runs them with no id. E3
/// (Table III) is printed by E2 from the same rows.
static EXPERIMENTS: &[Experiment] = &[
    custom("E1", "Table I: dataset statistics", e1),
    cells("E2", "Tables II and III: overall performance, top-N", e2_cells, &TOP_NS, print_e2),
    cells("E4", "Figure 4: module ablation", e4_cells, &[10], print_variants),
    cells("E5", "Figure 5: relation ablation", e5_cells, &TOP_NS, print_variants),
    custom("E6", "Figure 6: sparsity groups on yelp-s", e6),
    cells("E7", "Figure 7: hyperparameter study", e7_cells, &[10], print_e7),
    cells("E8", "Table IV: running time per epoch", e8_cells, &[10], print_e8),
    custom("E9", "Figure 8: accuracy vs. training epochs", e9),
    custom("E10", "Figure 9: embedding visualization on ciao-s", e10),
    custom("E11", "Figure 10: memory-attention similarity gaps on ciao-s", e11),
    custom("EXT", "Extension: side-relation pretraining on yelp-s", ext),
];

/// One entry of the experiment table.
pub struct Experiment {
    /// Positional id on the `reproduce` command line.
    id: &'static str,
    title: &'static str,
    kind: Kind,
}

enum Kind {
    /// Cells run through [`run_cell`] at these cutoffs; the printer reads
    /// one seed's rows.
    Cells(fn() -> Vec<Cell>, &'static [usize], fn(&[Row])),
    /// Anything else.
    Custom(CustomRun),
}

/// Runs one seed on the generated datasets and prints its own output.
type CustomRun = fn(&[Dataset], u64) -> Output;

const fn cells(
    id: &'static str,
    title: &'static str,
    cells: fn() -> Vec<Cell>,
    cutoffs: &'static [usize],
    print: fn(&[Row]),
) -> Experiment {
    Experiment { id, title, kind: Kind::Cells(cells, cutoffs, print) }
}

const fn custom(id: &'static str, title: &'static str, run: CustomRun) -> Experiment {
    Experiment { id, title, kind: Kind::Custom(run) }
}

/// One model trained on one dataset.
struct Cell {
    dataset: &'static str,
    model: String,
    variant: String,
    build: Box<dyn Fn() -> Box<dyn Trainable>>,
}

impl Cell {
    fn new<F: Fn() -> Box<dyn Trainable> + 'static>(
        dataset: &'static str,
        variant: &str,
        build: F,
    ) -> Self {
        let model = build().name().to_string();
        Cell { dataset, model, variant: variant.to_string(), build: Box::new(build) }
    }
}

/// One measurement: a line of `results/experiments.csv`.
#[derive(Debug, Clone)]
struct Row {
    exp: &'static str,
    dataset: String,
    model: String,
    variant: String,
    seed: u64,
    n: usize,
    metrics: RankingMetrics,
    /// Training and evaluation wall time of the cell, when the row is one.
    times: Option<(Duration, Duration)>,
}

impl Row {
    /// An untimed HR/NDCG@10 point (E9, EXT).
    fn point(exp: &'static str, key: [&str; 3], seed: u64, metrics: RankingMetrics) -> Self {
        let [dataset, model, variant] = key.map(str::to_string);
        Row { exp, dataset, model, variant, seed, n: 10, metrics, times: None }
    }

    fn csv(&self) -> String {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let (train, eval) = self.times.map_or_else(Default::default, |(t, e)| (ms(t), ms(e)));
        let (exp, seed, n, hr, ndcg) =
            (self.exp, self.seed, self.n, self.metrics.hr, self.metrics.ndcg);
        let key = [&self.dataset, &self.model, &self.variant].map(String::as_str).join(",");
        format!("{exp},{key},{seed},{n},{hr:.6},{ndcg:.6},{train},{eval}")
    }
}

/// A file of rows that are not measurements, `results/<name>.csv`; the
/// runner adds the leading `seed` column.
struct Table {
    name: &'static str,
    header: &'static str,
    lines: Vec<String>,
}

/// What one experiment produced for one seed.
struct Output {
    rows: Vec<Row>,
    tables: Vec<Table>,
}

/// Resolves command-line ids to experiments; no id selects them all.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    ids.iter()
        .map(|id| {
            EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
                format!("unknown experiment id `{id}`; valid ids: {}", valid.join(" "))
            })
        })
        .collect()
}

/// Runs `selected` at every seed of [`SEEDS`], printing each table as it
/// completes and writing each experiment's files once all its seeds ran.
pub fn run(selected: &[&Experiment]) -> io::Result<()> {
    let worlds: Vec<(u64, Vec<Dataset>)> = SEEDS.iter().map(|&s| (s, datasets(s))).collect();
    let results = Path::new("results");
    for exp in selected {
        let start = Instant::now();
        let (mut rows, mut tables) = (Vec::new(), Vec::<Table>::new());
        for (seed, data) in &worlds {
            println!("\n=== {} — {} (seed {seed}) ===\n", exp.id, exp.title);
            let out = exp.run(data, *seed);
            rows.extend(out.rows);
            for t in out.tables {
                let lines = t.lines.iter().map(|l| format!("{seed},{l}"));
                match tables.iter_mut().find(|have| have.name == t.name) {
                    Some(have) => have.lines.extend(lines),
                    None => tables.push(Table { lines: lines.collect(), ..t }),
                }
            }
        }
        if !rows.is_empty() {
            write_rows(&results.join("experiments.csv"), exp.id, &rows)?;
        }
        for t in &tables {
            let header = format!("seed,{}", t.header);
            write_csv(&results.join(format!("{}.csv", t.name)), &header, t.lines.iter().cloned())?;
        }
        eprintln!("{} done in {:.1} s", exp.id, start.elapsed().as_secs_f64());
    }
    Ok(())
}

impl Experiment {
    fn run(&self, data: &[Dataset], seed: u64) -> Output {
        let (cells, cutoffs, print) = match self.kind {
            Kind::Cells(cells, cutoffs, print) => (cells, cutoffs, print),
            Kind::Custom(run) => return run(data, seed),
        };
        let mut rows = Vec::new();
        for cell in cells() {
            let result = run_cell((cell.build)().as_mut(), dataset(data, cell.dataset), seed);
            let m = result.metrics[cutoff_index(10)];
            let (id, ds, model, variant) = (self.id, cell.dataset, &cell.model, &cell.variant);
            eprintln!("  {id} {ds} {model} {variant}: HR@10 {:.4}  NDCG@10 {:.4}", m.hr, m.ndcg);
            rows.extend(cell_rows(self.id, &cell, seed, cutoffs, &result));
        }
        print(&rows);
        Output { rows, tables: Vec::new() }
    }
}

/// One row per cutoff, each carrying the cell's timings.
fn cell_rows(
    exp: &'static str,
    cell: &Cell,
    seed: u64,
    cutoffs: &[usize],
    r: &CellResult,
) -> Vec<Row> {
    let key = [cell.dataset, &cell.model, &cell.variant];
    let times = Some((r.train_time, r.eval_time));
    let row = |n| Row { n, times, ..Row::point(exp, key, seed, r.metrics[cutoff_index(n)]) };
    cutoffs.iter().map(|&n| row(n)).collect()
}

/// Replaces `exp`'s rows in the long CSV at `path`, keeping every other
/// experiment's rows from earlier runs.
fn write_rows(path: &Path, exp: &str, rows: &[Row]) -> io::Result<()> {
    let old = fs::read_to_string(path).unwrap_or_default();
    let kept = match old.lines().next() {
        Some(HEADER) => old.lines().skip(1).filter(|l| l.split(',').next() != Some(exp)).collect(),
        _ => Vec::new(),
    };
    let lines = kept.into_iter().map(str::to_string).chain(rows.iter().map(Row::csv));
    write_csv(path, HEADER, lines)
}

fn write_csv(path: &Path, header: &str, lines: impl Iterator<Item = String>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = BufWriter::new(fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()?;
    println!("raw: {}", path.display());
    Ok(())
}

fn dataset<'a>(data: &'a [Dataset], name: &str) -> &'a Dataset {
    // PANICS: every name the table uses is one `datasets` generates
    // (pinned by a unit test).
    data.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("no dataset named {name}"))
}

/// Distinct values in first-appearance order.
fn distinct<'a>(values: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

// ---------------------------------------------------------------- cells

fn e2_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for ds in ALL {
        for i in 0..roster().len() {
            cells.push(Cell::new(ds, "default", move || roster().swap_remove(i)));
        }
    }
    cells
}

/// DGNN at each labelled config on each dataset (dataset-major).
fn dgnn_cells<L: AsRef<str>>(datasets: &[&'static str], variants: &[(L, DgnnConfig)]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &ds in datasets {
        for (label, cfg) in variants {
            let cfg = cfg.clone();
            cells.push(Cell::new(ds, label.as_ref(), move || Box::new(Dgnn::new(cfg.clone()))));
        }
    }
    cells
}

fn e4_cells() -> Vec<Cell> {
    let c = dgnn_config();
    let (m, tau) = (c.clone().without_memory(), c.clone().without_recalibration());
    let ln = c.clone().without_layer_norm();
    dgnn_cells(&ALL, &[("default", c), ("-M", m), ("-tau", tau), ("-LN", ln)])
}

/// The paper evaluates the relation ablation on Ciao and Yelp.
fn e5_cells() -> Vec<Cell> {
    let c = dgnn_config();
    let (s, t) = (c.clone().without_social(), c.clone().without_knowledge());
    let st = c.clone().without_social_and_knowledge();
    dgnn_cells(&[CIAO, YELP], &[("default", c), ("-S", s), ("-T", t), ("-ST", st)])
}

fn e7_cells() -> Vec<Cell> {
    let c = dgnn_config();
    let mut variants = Vec::new();
    for dim in [4, 8, 16, 32] {
        variants.push((format!("d={dim}"), DgnnConfig { dim, ..c.clone() }));
    }
    for layers in 0..=3 {
        variants.push((format!("L={layers}"), DgnnConfig { layers, ..c.clone() }));
    }
    for memory_units in [2, 4, 8, 16] {
        variants.push((format!("M={memory_units}"), DgnnConfig { memory_units, ..c.clone() }));
    }
    dgnn_cells(&ALL, &variants)
}

fn e8_cells() -> Vec<Cell> {
    let b = BaselineConfig { epochs: TIMING_EPOCHS, ..baseline_config() };
    let d = DgnnConfig { epochs: TIMING_EPOCHS, ..dgnn_config() };
    let variant = format!("epochs={TIMING_EPOCHS}");
    let mut cells = Vec::new();
    for ds in ALL {
        let (b1, b2, d) = (b.clone(), b.clone(), d.clone());
        cells.push(Cell::new(ds, &variant, move || Box::new(Dgcf::new(b1.clone()))));
        cells.push(Cell::new(ds, &variant, move || Box::new(Hgt::new(b2.clone()))));
        cells.push(Cell::new(ds, &variant, move || Box::new(Dgnn::new(d.clone()))));
    }
    cells
}

// ------------------------------------------------------------- printers

/// Rows = models, columns = datasets, in the layout of the paper's Table II.
fn print_metric_table(title: &str, rows: &[Row], n: usize) {
    let rows: Vec<&Row> = rows.iter().filter(|r| r.n == n).collect();
    let datasets = distinct(rows.iter().map(|r| r.dataset.as_str()));
    println!("\n--- {title} (N = {n}) ---");
    print!("{:<10}", "Model");
    for d in &datasets {
        print!("  {d:>11}-HR  {d:>9}-NDCG");
    }
    for m in distinct(rows.iter().map(|r| r.model.as_str())) {
        print!("\n{m:<10}");
        for r in rows.iter().filter(|r| r.model == m) {
            print!("  {:>14.4}  {:>14.4}", r.metrics.hr, r.metrics.ndcg);
        }
    }
    println!();
}

fn print_e2(rows: &[Row]) {
    print_metric_table("Table II: overall performance", rows, 10);
    println!("\n--- DGNN improvement over baselines (Imp, %) ---");
    let at10: Vec<&Row> = rows.iter().filter(|r| r.n == 10).collect();
    for ds in distinct(at10.iter().map(|r| r.dataset.as_str())) {
        let of_ds: Vec<&&Row> = at10.iter().filter(|r| r.dataset == ds).collect();
        let dgnn = of_ds.iter().find(|r| r.model == "DGNN").expect("the roster ends with DGNN");
        println!("{ds}:");
        for r in of_ds.iter().filter(|r| r.model != "DGNN") {
            let hr = improvement_pct(dgnn.metrics.hr, r.metrics.hr);
            let ndcg = improvement_pct(dgnn.metrics.ndcg, r.metrics.ndcg);
            println!("  vs {:<10} HR {hr:>+7.2}%   NDCG {ndcg:>+7.2}%", r.model);
        }
    }
    print_metric_table("Table III: varying top-N", rows, 5);
    print_metric_table("Table III: varying top-N", rows, 20);
}

/// Per dataset, one line per variant with every cutoff it was measured at.
fn print_variants(rows: &[Row]) {
    for ds in distinct(rows.iter().map(|r| r.dataset.as_str())) {
        println!("{ds}:");
        let of_ds: Vec<&Row> = rows.iter().filter(|r| r.dataset == ds).collect();
        for v in distinct(of_ds.iter().map(|r| r.variant.as_str())) {
            print!("  {v:<8}");
            for r in of_ds.iter().filter(|r| r.variant == v) {
                print!("  @{}: HR {:.4} NDCG {:.4}", r.n, r.metrics.hr, r.metrics.ndcg);
            }
            println!();
        }
    }
}

/// The paper's y-axis: HR@10 degradation relative to the best setting of
/// each sweep (`d`, `L`, `M`) on each dataset.
fn print_e7(rows: &[Row]) {
    let sweep = |r: &Row| (r.dataset.clone(), r.variant.split('=').next().map(str::to_string));
    for r in rows {
        let peers = rows.iter().filter(|o| sweep(o) == sweep(r));
        let best = peers.map(|o| o.metrics.hr).fold(0.0, f64::max);
        let degradation = (best - r.metrics.hr) / best.max(1e-12) * 100.0;
        let (ds, v, hr, ndcg) = (&r.dataset, &r.variant, r.metrics.hr, r.metrics.ndcg);
        println!(
            "  {ds:<10} {v:<5} HR@10 {hr:.4}  NDCG@10 {ndcg:.4}  (degradation {degradation:.2}%)"
        );
    }
}

fn print_e8(rows: &[Row]) {
    println!("{:<8} {:>14} {:>14} {:>14}", "Model", "Dataset", "Train s/epoch", "Test s");
    for r in rows {
        let (train, test) = r.times.expect("E8 rows are timed cells");
        let per_epoch = train.as_secs_f64() / TIMING_EPOCHS as f64;
        println!("{:<8} {:>14} {per_epoch:>14.3} {:>14.3}", r.model, r.dataset, test.as_secs_f64());
    }
}

// ------------------------------------------------- experiments of other shapes

/// E1: the scaled datasets' statistics beside the paper's, so their
/// calibration is auditable.
fn e1(data: &[Dataset], _seed: u64) -> Output {
    /// Users, items, interactions, their density %, social ties, their density %.
    type Stats = (usize, usize, usize, f64, usize, f64);
    let show = |label: String, (u, i, x, xd, t, td): Stats| {
        println!("{label:<24} {u:>10} {i:>10} {x:>12} {xd:>10.4} {t:>12} {td:>10.4}")
    };
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "Dataset", "#Users", "#Items", "#Interact", "IntDens%", "#SocialTies", "SocDens%"
    );
    let mut lines = Vec::new();
    for (p, ds) in PAPER_TABLE1.iter().zip(data) {
        let s = DatasetStats::compute(&ds.name, &ds.graph);
        let (xd, td) = (p.interaction_density_pct, p.social_density_pct);
        show(
            format!("{} (paper)", p.name),
            (p.users, p.items, p.interactions, xd, p.social_ties, td),
        );
        let (xd, td) = (s.interaction_density_pct, s.social_density_pct);
        let ours: Stats = (s.users, s.items, s.interactions, xd, s.social_ties, td);
        show(format!("{} (ours)", s.name), ours);
        let (ipu, tpu) = (p.interactions_per_user(), p.ties_per_user());
        println!(
            "  per-user rates: int/user {:.1} (paper {ipu:.1}), ties/user {:.1} (paper {tpu:.1})\n",
            s.interactions_per_user, s.ties_per_user
        );
        let (u, i, x, xd, t, td) = ours;
        lines.push(format!("{},{u},{i},{x},{xd:.6},{t},{td:.6}", s.name));
    }
    let header =
        "dataset,users,items,interactions,interaction_density_pct,social_ties,social_density_pct";
    Output { rows: Vec::new(), tables: vec![Table { name: "E1", header, lines }] }
}

/// E6: yelp-s users split into four equal-count groups by training
/// interactions and by social degree; DGNN and three representative
/// baselines evaluated per group (HR@10).
fn e6(data: &[Dataset], seed: u64) -> Output {
    let yelp = dataset(data, YELP);
    let b = baseline_config();
    let mut models: Vec<Box<dyn Trainable>> = vec![
        Box::new(DiffNet::new(b.clone())),
        Box::new(Ngcf::new(b.clone())),
        Box::new(Mhcn::new(b)),
        Box::new(Dgnn::new(dgnn_config())),
    ];
    for model in &mut models {
        model.fit(yelp, seed);
    }
    let mut lines = Vec::new();
    let axes =
        [("interactions", yelp.train_counts_per_user()), ("social", yelp.social_degree_per_user())];
    for (axis, values) in axes {
        println!("grouping by {axis}:");
        for model in &models {
            let report = evaluate_by_group(model.as_ref(), &yelp.test, &values, 10);
            print!("  {:<8}", model.name());
            for g in 0..NUM_GROUPS {
                let (mean, users) = (report.mean_value[g], report.test_users[g]);
                let hr = report.metrics[g].hr;
                print!("  q{} (avg {mean:.1}, {users} users): {hr:.4}", g + 1);
                lines.push(format!("{axis},{},{},{mean:.3},{users},{hr:.6}", model.name(), g + 1));
            }
            println!();
        }
    }
    let header = "axis,model,quartile,mean_value,test_users,hr10";
    Output { rows: Vec::new(), tables: vec![Table { name: "E6", header, lines }] }
}

/// E9: HR@10 / NDCG@10 after every epoch for DGNN, HGT and DGCF.
fn e9(data: &[Dataset], seed: u64) -> Output {
    let mut rows = Vec::new();
    for ds in data {
        let point = |model: &str, m: &dyn Recommender, epoch: usize| {
            let key = [ds.name.as_str(), model, &format!("epoch={epoch}")];
            Row::point("E9", key, seed, evaluate_at(m, &ds.test, 10))
        };
        Dgnn::new(dgnn_config()).fit_epochs(ds, seed, |m, e, _| rows.push(point("DGNN", m, e)));
        Hgt::new(baseline_config()).fit_epochs(ds, seed, |m, e, _| rows.push(point("HGT", m, e)));
        Dgcf::new(baseline_config()).fit_epochs(ds, seed, |m, e, _| rows.push(point("DGCF", m, e)));
        println!("{}:", ds.name);
        // A compact curve: HR@10 every 4th epoch.
        for model in ["DGNN", "HGT", "DGCF"] {
            print!("  {model:<5}");
            for r in rows.iter().filter(|r| r.dataset == ds.name && r.model == model).step_by(4) {
                print!("  {}: {:.4}", r.variant, r.metrics.hr);
            }
            println!();
        }
    }
    Output { rows, tables: Vec::new() }
}

/// Users sampled and items taken per user for E10.
const TSNE_USERS: usize = 8;
const TSNE_ITEMS_PER_USER: usize = 12;

/// E10: the most active users of ciao-s each label up to
/// [`TSNE_ITEMS_PER_USER`] of their items (no item twice). The learned item
/// embeddings of KGAT, HAN and DGNN are projected with t-SNE, and the
/// paper's visual claim is scored by silhouette and separation ratio.
fn e10(data: &[Dataset], seed: u64) -> Output {
    let ciao = dataset(data, CIAO);
    let counts = ciao.train_counts_per_user();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(counts[u]));
    let (mut items, mut labels) = (Vec::new(), Vec::new());
    let mut taken = vec![false; ciao.graph.num_items()];
    for (label, &u) in order.iter().take(TSNE_USERS).enumerate() {
        let mut n = 0;
        for &v in ciao.graph.items_of(u) {
            if !taken[v] && n < TSNE_ITEMS_PER_USER {
                taken[v] = true;
                items.push(v);
                labels.push(label);
                n += 1;
            }
        }
    }
    println!("{} items of {TSNE_USERS} users", items.len());
    let (mut scores, mut coords) = (Vec::new(), Vec::new());
    let mut report = |name: &str, item_emb: &Matrix| {
        let xy = tsne_2d(&item_emb.gather_rows(&items), &TsneConfig::default());
        let (sil, sep) = (silhouette(&xy, &labels), cluster_separation(&xy, &labels));
        println!("  {name:<6} silhouette {sil:+.4}   inter/intra ratio {sep:.4}");
        scores.push(format!("{name},{sil:.6},{sep:.6}"));
        for (i, (&item, &label)) in items.iter().zip(&labels).enumerate() {
            coords.push(format!("{name},{item},{label},{:.5},{:.5}", xy[(i, 0)], xy[(i, 1)]));
        }
    };
    let (mut kgat, mut han, mut dgnn) =
        (Kgat::new(baseline_config()), Han::new(baseline_config()), Dgnn::new(dgnn_config()));
    kgat.fit(ciao, seed);
    report("KGAT", kgat.embeddings().1);
    han.fit(ciao, seed);
    report("HAN", han.embeddings().1);
    dgnn.fit(ciao, seed);
    report("DGNN", dgnn.item_embeddings());
    println!("(expected shape: DGNN silhouette > HAN silhouette > KGAT silhouette)");
    let tables = vec![
        Table { name: "E10", header: "model,silhouette,separation", lines: scores },
        Table { name: "E10_tsne", header: "model,item,user_label,x,y", lines: coords },
    ];
    Output { rows: Vec::new(), tables }
}

/// E11: users tied socially should share user–user memory attention but
/// not user–item attention, and co-interacting users the reverse. Measured
/// as the cosine-similarity gap (connected pairs minus random pairs) per
/// bank × relation; the raw attention vectors are dumped for plotting.
fn e11(data: &[Dataset], seed: u64) -> Output {
    let ciao = dataset(data, CIAO);
    let g = &ciao.graph;
    let mut dgnn = Dgnn::new(dgnn_config());
    dgnn.fit(ciao, seed);
    let social = dgnn.memory_attention(MemoryBankKind::SocialToUser);
    let inter = dgnn.memory_attention(MemoryBankKind::UserToItem);

    let social_pairs: Vec<(usize, usize)> =
        g.social_ties().iter().map(|&(a, b)| (a as usize, b as usize)).collect();
    let co = compose(g.ui(), g.iu(), 20);
    let co_pairs: Vec<(usize, usize)> = (0..g.num_users())
        .flat_map(|u| co.row_cols(u).iter().filter(move |&&f| u < f).map(move |&f| (u, f)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let random_pairs: Vec<(usize, usize)> = (0..2000)
        .map(|_| (rng.gen_range(0..g.num_users()), rng.gen_range(0..g.num_users())))
        .filter(|&(a, b)| a != b)
        .collect();

    println!("gap = mean cosine(connected pairs) − mean cosine(random pairs)\n");
    println!("{:<24} {:>16} {:>16}", "pair relation", "user-user bank", "user-item bank");
    let mut gaps = Vec::new();
    let relations =
        [("social", "social ties", social_pairs), ("co_interaction", "co-interactions", co_pairs)];
    for (relation, label, pairs) in relations {
        let uu = attention_similarity_gap(social, &pairs, &random_pairs);
        let ui = attention_similarity_gap(inter, &pairs, &random_pairs);
        println!("{label:<24} {uu:>16.4} {ui:>16.4}");
        gaps.push(format!("{relation},user_user,{uu:.6}"));
        gaps.push(format!("{relation},user_item,{ui:.6}"));
    }
    println!(
        "\n(expected shape: social ties align the user-user bank more than the \
         user-item bank; co-interactions the reverse)"
    );
    let join = |m: &Matrix, u: usize| {
        m.row(u).iter().map(|v| format!("{v:.5}")).collect::<Vec<_>>().join(";")
    };
    let vectors = (0..g.num_users()).map(|u| format!("{u},{},{}", join(social, u), join(inter, u)));
    let header = "user,social_attention,interaction_attention";
    let tables = vec![
        Table { name: "E11", header: "pair_relation,bank,gap", lines: gaps },
        Table { name: "E11_attention", header, lines: vectors.collect() },
    ];
    Output { rows: Vec::new(), tables }
}

/// EXT (the paper's future work, §VI): DGNN from random init against DGNN
/// warm-started by `Pretrainer` (self-supervised link prediction on `S`
/// and `T` only), overall and per training-interaction quartile on yelp-s;
/// behavioural data is scarcest in the coldest quartile.
fn ext(data: &[Dataset], seed: u64) -> Output {
    let yelp = dataset(data, YELP);
    let counts = yelp.train_counts_per_user();
    let mut plain = Dgnn::new(dgnn_config());
    plain.fit(yelp, seed);
    let pre = Pretrainer { dim: dgnn_config().dim, epochs: 30, ..Pretrainer::default() };
    let mut warm = Dgnn::new(dgnn_config()).with_pretrained(pre.run(&yelp.graph, seed));
    warm.fit(yelp, seed);
    let mut rows = Vec::new();
    for (name, model) in [("DGNN", &plain), ("DGNN+pretrain", &warm)] {
        let overall = evaluate_at(model, &yelp.test, 10);
        let groups = evaluate_by_group(model, &yelp.test, &counts, 10);
        let (hr, coldest) = (overall.hr, groups.metrics[0].hr);
        println!("{name:<14} overall HR@10 {hr:.4}   coldest-quartile HR@10 {coldest:.4}");
        let quartiles = (0..NUM_GROUPS).map(|g| (format!("q{}", g + 1), groups.metrics[g]));
        for (variant, m) in std::iter::once(("overall".to_string(), overall)).chain(quartiles) {
            rows.push(Row::point("EXT", [YELP, name, &variant], seed, m));
        }
    }
    Output { rows, tables: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell experiment's rows for one seed, from a stand-in result.
    fn cell_experiment_rows() -> Vec<(&'static str, Vec<Row>)> {
        let result = CellResult {
            metrics: [RankingMetrics { hr: 0.5, ndcg: 0.25 }; 3],
            train_time: Duration::from_millis(1500),
            eval_time: Duration::from_millis(20),
        };
        let rows = |id, cells: Vec<Cell>, cutoffs| {
            cells.iter().flat_map(|c| cell_rows(id, c, SEEDS[0], cutoffs, &result)).collect()
        };
        EXPERIMENTS
            .iter()
            .filter_map(|e| match e.kind {
                Kind::Cells(cells, cutoffs, _) => Some((e.id, rows(e.id, cells(), cutoffs))),
                Kind::Custom(_) => None,
            })
            .collect()
    }

    #[test]
    fn ids_are_unique_and_cover_the_evaluation() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["E1", "E2", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "EXT"]);
    }

    #[test]
    fn every_cell_names_a_generated_dataset() {
        let generated: Vec<String> = datasets(SEEDS[0]).into_iter().map(|d| d.name).collect();
        assert_eq!(generated, ALL);
        for (id, rows) in cell_experiment_rows() {
            assert!(rows.iter().all(|r| ALL.contains(&r.dataset.as_str())), "{id}");
        }
    }

    #[test]
    fn generic_experiments_yield_the_expected_rows_per_seed() {
        let counts: Vec<(&str, usize)> =
            cell_experiment_rows().into_iter().map(|(id, rows)| (id, rows.len())).collect();
        assert_eq!(counts, [("E2", 135), ("E4", 12), ("E5", 24), ("E7", 36), ("E8", 9)]);
    }

    #[test]
    fn every_row_has_as_many_fields_as_the_header() {
        let fields = HEADER.split(',').count();
        for (_, rows) in cell_experiment_rows() {
            for row in rows {
                assert_eq!(row.csv().split(',').count(), fields, "{}", row.csv());
                let untimed = Row { times: None, ..row };
                assert_eq!(untimed.csv().split(',').count(), fields, "{}", untimed.csv());
            }
        }
    }

    #[test]
    fn unknown_id_is_rejected() {
        let ids = |v: &[&str]| {
            let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            select(&args).map(|sel| sel.iter().map(|e| e.id).collect::<Vec<_>>())
        };
        let err = ids(&["E5", "E3"]).expect_err("E3 is printed by E2, not an id");
        assert!(err.contains("`E3`") && err.contains("E1 E2 E4") && err.contains("EXT"), "{err}");
        assert_eq!(ids(&[]).map(|v| v.len()), Ok(EXPERIMENTS.len()));
        assert_eq!(ids(&["E5", "E1"]), Ok(vec!["E5", "E1"]));
    }

    #[test]
    fn rerunning_an_experiment_replaces_only_its_rows() {
        let dir = std::env::temp_dir().join(format!("dgnn-bench-rows-{}", std::process::id()));
        let path = dir.join("experiments.csv");
        let point =
            |exp, seed| Row::point(exp, [YELP, "DGNN", "q1"], seed, RankingMetrics::default());
        for (exp, seed) in [("E4", 1), ("E8", 1), ("E4", 2)] {
            write_rows(&path, exp, &[point(exp, seed)]).expect("write rows");
        }
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(text, format!("{HEADER}\n{}\n{}\n", point("E8", 1).csv(), point("E4", 2).csv()));
        fs::remove_dir_all(&dir).expect("clean up");
    }
}
