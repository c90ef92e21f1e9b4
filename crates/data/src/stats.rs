//! Dataset statistics (the paper's Table I).

use dgnn_graph::HeteroGraph;

/// Statistics for one dataset in the shape of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// `|U|`.
    pub users: usize,
    /// `|V|`.
    pub items: usize,
    /// Number of (deduplicated) user–item interactions.
    pub interactions: usize,
    /// Interaction density, percent.
    pub interaction_density_pct: f64,
    /// Number of directed social ties (each undirected tie counts twice,
    /// matching the paper's convention).
    pub social_ties: usize,
    /// Social density, percent.
    pub social_density_pct: f64,
    /// `|R|` — item relation nodes (not in Table I but reported alongside).
    pub relations: usize,
    /// Average interactions per user.
    pub interactions_per_user: f64,
    /// Average directed social ties per user.
    pub ties_per_user: f64,
}

impl DatasetStats {
    /// Computes statistics for a graph.
    pub fn compute(name: impl Into<String>, g: &HeteroGraph) -> Self {
        let interactions = g.ui().nnz();
        let users = g.num_users();
        Self {
            name: name.into(),
            users,
            items: g.num_items(),
            interactions,
            interaction_density_pct: g.interaction_density() * 100.0,
            social_ties: g.num_social_ties_directed(),
            social_density_pct: g.social_density() * 100.0,
            relations: g.num_relations(),
            interactions_per_user: interactions as f64 / users as f64,
            ties_per_user: g.num_social_ties_directed() as f64 / users as f64,
        }
    }
}

/// The original published statistics, used for side-by-side reporting in
/// `reproduce E1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperDatasetStats {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// `# of Users`.
    pub users: usize,
    /// `# of Items`.
    pub items: usize,
    /// `# of User-Item Interactions`.
    pub interactions: usize,
    /// `Interaction Density Degree`, percent.
    pub interaction_density_pct: f64,
    /// `# of Social Ties`.
    pub social_ties: usize,
    /// `Social Tie Density Degree`, percent.
    pub social_density_pct: f64,
}

impl PaperDatasetStats {
    /// Average interactions per user in the original crawl.
    pub fn interactions_per_user(&self) -> f64 {
        self.interactions as f64 / self.users as f64
    }

    /// Average directed ties per user in the original crawl.
    pub fn ties_per_user(&self) -> f64 {
        self.social_ties as f64 / self.users as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::HeteroGraphBuilder;

    #[test]
    fn computes_expected_numbers() {
        let mut b = HeteroGraphBuilder::new(2, 4, 1);
        b.interaction(0, 0, 0).interaction(0, 1, 1).interaction(1, 2, 0).social_tie(0, 1);
        let s = DatasetStats::compute("toy", &b.build());
        assert_eq!(s.users, 2);
        assert_eq!(s.items, 4);
        assert_eq!(s.interactions, 3);
        assert!((s.interaction_density_pct - 37.5).abs() < 1e-9);
        assert_eq!(s.social_ties, 2);
        assert!((s.social_density_pct - 50.0).abs() < 1e-9);
        assert!((s.interactions_per_user - 1.5).abs() < 1e-9);
    }

    #[test]
    fn paper_table1_aggregates() {
        let ciao = crate::PAPER_TABLE1[0];
        assert!((ciao.interactions_per_user() - 15.777).abs() < 0.01);
        assert!((ciao.ties_per_user() - 33.81).abs() < 0.01);
    }
}
