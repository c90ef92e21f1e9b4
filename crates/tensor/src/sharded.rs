//! Contiguous id-range sharding for embedding tables.
//!
//! A [`ShardSpec`] partitions a table of `rows` rows into fixed-size
//! contiguous id ranges (`shard_rows` rows per shard, last shard possibly
//! short). The spec is pure arithmetic — it owns no data — so the same
//! range math drives the streaming generator in `dgnn-data`, the segmented
//! checkpoint writer, and the engine's shard store in `dgnn-serve`, and
//! those layers cannot disagree about which shard a row lives in.

/// Pure id-range arithmetic for a table sharded by contiguous row ranges.
///
/// Shard `s` covers rows `[s * shard_rows, min((s + 1) * shard_rows, rows))`.
/// Every row belongs to exactly one shard; ranges are ascending, disjoint,
/// and cover `0..rows` with no gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    rows: usize,
    shard_rows: usize,
}

impl ShardSpec {
    /// Builds a spec for `rows` total rows in chunks of `shard_rows`.
    ///
    /// # Panics
    /// Panics when `shard_rows == 0`; a zero-row *table* is allowed (zero
    /// shards) so empty worlds round-trip.
    pub fn new(rows: usize, shard_rows: usize) -> Self {
        assert!(shard_rows > 0, "ShardSpec: shard_rows must be positive");
        Self { rows, shard_rows }
    }

    /// Total rows across all shards.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per full shard (the last shard may hold fewer).
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards (`ceil(rows / shard_rows)`; 0 for an empty table).
    pub fn num_shards(&self) -> usize {
        self.rows.div_ceil(self.shard_rows)
    }

    /// Global row range `[start, end)` covered by shard `s`.
    ///
    /// # Panics
    /// Panics when `s >= num_shards()`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        assert!(s < self.num_shards(), "ShardSpec: shard {s} out of {}", self.num_shards());
        let start = s * self.shard_rows;
        (start, (start + self.shard_rows).min(self.rows))
    }

    /// Row count of shard `s` (equals `shard_rows` except possibly last).
    pub fn shard_len(&self, s: usize) -> usize {
        let (start, end) = self.shard_range(s);
        end - start
    }

    /// Maps a global row id to `(shard, local_row)`.
    ///
    /// # Panics
    /// Panics when `row >= rows()`.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows, "ShardSpec: row {row} out of {} rows", self.rows);
        (row / self.shard_rows, row % self.shard_rows)
    }

    /// Iterates `(shard, start, end)` over all shards in ascending order.
    pub fn iter_ranges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.num_shards()).map(|s| {
            let (start, end) = self.shard_range(s);
            (s, start, end)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ranges_cover_rows_exactly() {
        for (rows, shard_rows) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (8, 4), (9, 4), (7, 1), (3, 100)] {
            let spec = ShardSpec::new(rows, shard_rows);
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for (s, start, end) in spec.iter_ranges() {
                assert_eq!(start, prev_end, "gap before shard {s}");
                assert!(end > start, "empty shard {s}");
                assert_eq!(end - start, spec.shard_len(s));
                covered += end - start;
                prev_end = end;
            }
            assert_eq!(covered, rows, "rows={rows} shard_rows={shard_rows}");
            assert_eq!(spec.num_shards(), rows.div_ceil(shard_rows));
        }
    }

    #[test]
    fn locate_agrees_with_ranges() {
        let spec = ShardSpec::new(10, 3);
        for row in 0..10 {
            let (s, local) = spec.locate(row);
            let (start, end) = spec.shard_range(s);
            assert!(row >= start && row < end);
            assert_eq!(local, row - start);
        }
    }

    #[test]
    #[should_panic(expected = "shard_rows must be positive")]
    fn zero_shard_rows_panics() {
        let _ = ShardSpec::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn locate_out_of_bounds_panics() {
        ShardSpec::new(4, 2).locate(4);
    }
}
