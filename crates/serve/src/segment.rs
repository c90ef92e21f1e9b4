//! Segmented checkpoints: one `DGCK` file per embedding shard plus a
//! checksummed manifest.
//!
//! A segmented checkpoint is a *directory*:
//!
//! ```text
//! ckpt.d/
//!   MANIFEST.dgck     manifest (itself a DGCK checkpoint)
//!   user-00000.seg    user shard 0: rows [0, shard_rows)
//!   user-00001.seg    …
//!   item-00000.seg    item shard 0
//!   …
//! ```
//!
//! The manifest records the id-range spec (total rows, rows per shard),
//! the segment count per role, the exact `[lo, hi)` range of every
//! segment, and — the corruption anchor — each segment file's byte length
//! and whole-file CRC32. Every segment is an ordinary versioned DGCK
//! checkpoint, so all the monolithic format's guarantees (magic/version
//! checks, length-validated fields, metadata digest, payload CRC, typed
//! errors, never a panic on untrusted bytes) hold per segment; the
//! manifest adds cross-file guarantees on top: a missing or extra `.seg`
//! file is detected at open, and a flipped byte anywhere in a segment is
//! caught by the manifest digest before the segment is even parsed.
//!
//! Segments store the *serving* tables — the user scoring embeddings
//! (`final/user_scoring`, recalibrated by the model before it is saved),
//! final item embeddings, and per-user seen lists rebased to shard-local
//! offsets. [`save_segmented`] splits a monolithic checkpoint
//! by contiguous row ranges ([`ShardSpec`]);
//! [`SegmentedCheckpoint::reassemble`] stitches the segments back into one
//! bit-identically.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use dgnn_tensor::{Matrix, ShardSpec};

use crate::checkpoint::{crc32, Checkpoint, CheckpointError};
use crate::engine::{serving_tables, validate_lists};
use crate::shard::read_segment_bytes;

/// Manifest file name inside a segmented-checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST.dgck";

/// File name of user segment `s`.
pub fn user_segment_name(s: usize) -> String {
    format!("user-{s:05}.seg")
}

/// File name of item segment `s`.
pub fn item_segment_name(s: usize) -> String {
    format!("item-{s:05}.seg")
}

/// One loaded user shard: embeddings plus shard-local seen lists.
#[derive(Debug, Clone)]
pub struct UserShard {
    /// Scoring embeddings for this shard's id range (rows × dim).
    pub emb: Matrix,
    /// Local CSR offsets: user `lo + i`'s items are
    /// `seen_items[seen_indptr[i]..seen_indptr[i + 1]]`.
    pub seen_indptr: Vec<u32>,
    /// Concatenated seen items for this shard's users.
    pub seen_items: Vec<u32>,
}

struct SegAccum {
    role: &'static str,
    ranges: Vec<(u32, u32)>,
    digests: Vec<u32>,
    lens: Vec<u32>,
    rows: usize,
    shard_rows: Option<usize>,
    last_was_short: bool,
}

impl SegAccum {
    fn new(role: &'static str) -> Self {
        Self {
            role,
            ranges: Vec::new(),
            digests: Vec::new(),
            lens: Vec::new(),
            rows: 0,
            shard_rows: None,
            last_was_short: false,
        }
    }

    fn admit(&mut self, rows: usize) -> Result<(u32, u32), CheckpointError> {
        if rows == 0 {
            return Err(CheckpointError::BadShape(format!("{} segment with zero rows", self.role)));
        }
        if self.last_was_short {
            return Err(CheckpointError::BadShape(format!(
                "{} segment after a short segment — only the final shard may be short",
                self.role
            )));
        }
        let shard_rows = *self.shard_rows.get_or_insert(rows);
        if rows > shard_rows {
            return Err(CheckpointError::BadShape(format!(
                "{} segment of {rows} rows exceeds shard size {shard_rows}",
                self.role
            )));
        }
        self.last_was_short = rows < shard_rows;
        let lo = self.rows as u32;
        self.rows += rows;
        let range = (lo, self.rows as u32);
        self.ranges.push(range);
        Ok(range)
    }
}

/// Streaming writer: accepts shards one at a time (so a generator can emit
/// a million-user world without ever holding the full table), writes each
/// as its own DGCK segment, and records lengths/digests for the manifest
/// written by [`SegmentedWriter::finish`].
pub struct SegmentedWriter {
    dir: PathBuf,
    meta: BTreeMap<String, String>,
    dim: Option<usize>,
    user: SegAccum,
    item: SegAccum,
}

impl SegmentedWriter {
    /// Creates (or wipes) a segmented-checkpoint directory.
    ///
    /// Pre-existing `MANIFEST.dgck` / `*.seg` files are removed so a
    /// shorter re-save can never leave stale extra segments behind for
    /// the manifest check to trip over.
    pub fn create(dir: &Path) -> Result<Self, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == MANIFEST_NAME || name.ends_with(".seg") {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            meta: BTreeMap::new(),
            dim: None,
            user: SegAccum::new("user"),
            item: SegAccum::new("item"),
        })
    }

    /// Records a metadata entry for the manifest (same sanitization rules
    /// as [`Checkpoint::set_meta`]).
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    fn check_dim(&mut self, cols: usize, role: &str) -> Result<(), CheckpointError> {
        if cols == 0 {
            return Err(CheckpointError::BadShape(format!("{role} segment with zero columns")));
        }
        match self.dim {
            None => {
                self.dim = Some(cols);
                Ok(())
            }
            Some(d) if d == cols => Ok(()),
            Some(d) => Err(CheckpointError::BadShape(format!(
                "{role} segment dim {cols} != established dim {d}"
            ))),
        }
    }

    fn write_segment(
        &mut self,
        name: &str,
        seg: Checkpoint,
    ) -> Result<(u32, u32), CheckpointError> {
        let bytes = seg.to_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| CheckpointError::BadShape(format!("segment {name} exceeds 4 GiB")))?;
        let path = self.dir.join(name);
        let mut f = File::create(&path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        Ok((len, crc32(&bytes)))
    }

    /// Appends the next user shard (ascending contiguous id ranges).
    /// `seen_indptr`/`seen_items` are shard-local (see [`UserShard`]).
    pub fn push_user_shard(
        &mut self,
        emb: &Matrix,
        seen_indptr: &[u32],
        seen_items: &[u32],
    ) -> Result<(), CheckpointError> {
        self.check_dim(emb.cols(), "user")?;
        if seen_indptr.len() != emb.rows() + 1
            || seen_indptr.windows(2).any(|w| w[0] > w[1])
            || seen_indptr.first().copied().unwrap_or(1) != 0
            || seen_indptr.last().copied().unwrap_or(0) as usize != seen_items.len()
        {
            return Err(CheckpointError::BadShape(
                "user segment seen_indptr is not a local prefix-sum of seen_items".into(),
            ));
        }
        let idx = self.user.ranges.len();
        let (lo, hi) = self.user.admit(emb.rows())?;
        let mut seg = Checkpoint::new();
        seg.set_meta("seg_role", "user");
        seg.set_meta("seg_index", &idx.to_string());
        seg.set_meta("seg_lo", &lo.to_string());
        seg.set_meta("seg_hi", &hi.to_string());
        seg.push_matrix("shard/emb", emb);
        seg.push_u32("shard/seen_indptr", seen_indptr.to_vec());
        seg.push_u32("shard/seen_items", seen_items.to_vec());
        let (len, digest) = self.write_segment(&user_segment_name(idx), seg)?;
        self.user.lens.push(len);
        self.user.digests.push(digest);
        Ok(())
    }

    /// Appends the next item shard.
    pub fn push_item_shard(&mut self, emb: &Matrix) -> Result<(), CheckpointError> {
        self.check_dim(emb.cols(), "item")?;
        let idx = self.item.ranges.len();
        let (lo, hi) = self.item.admit(emb.rows())?;
        let mut seg = Checkpoint::new();
        seg.set_meta("seg_role", "item");
        seg.set_meta("seg_index", &idx.to_string());
        seg.set_meta("seg_lo", &lo.to_string());
        seg.set_meta("seg_hi", &hi.to_string());
        seg.push_matrix("shard/emb", emb);
        let (len, digest) = self.write_segment(&item_segment_name(idx), seg)?;
        self.item.lens.push(len);
        self.item.digests.push(digest);
        Ok(())
    }

    /// Writes the manifest and finishes the checkpoint.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.user.ranges.is_empty() || self.item.ranges.is_empty() {
            return Err(CheckpointError::BadShape(
                "segmented checkpoint needs ≥1 user and ≥1 item segment".into(),
            ));
        }
        let dim = self.dim.unwrap_or(0);
        let mut m = Checkpoint::new();
        for (k, v) in &self.meta {
            m.set_meta(k, v);
        }
        m.set_meta("seg_kind", "segmented-checkpoint");
        m.set_meta("seg_dim", &dim.to_string());
        m.set_meta("seg_users", &self.user.rows.to_string());
        m.set_meta("seg_items", &self.item.rows.to_string());
        m.set_meta("seg_user_shard_rows", &self.user.shard_rows.unwrap_or(0).to_string());
        m.set_meta("seg_item_shard_rows", &self.item.shard_rows.unwrap_or(0).to_string());
        m.set_meta("seg_user_segments", &self.user.ranges.len().to_string());
        m.set_meta("seg_item_segments", &self.item.ranges.len().to_string());
        m.push_u32("seg/user_ranges", self.user.ranges.iter().flat_map(|&(a, b)| [a, b]).collect());
        m.push_u32("seg/item_ranges", self.item.ranges.iter().flat_map(|&(a, b)| [a, b]).collect());
        m.push_u32("seg/user_digests", self.user.digests.clone());
        m.push_u32("seg/item_digests", self.item.digests.clone());
        m.push_u32("seg/user_lens", self.user.lens.clone());
        m.push_u32("seg/item_lens", self.item.lens.clone());
        m.save(&self.dir.join(MANIFEST_NAME))
    }
}

/// Splits a monolithic checkpoint into a segmented one.
///
/// The tables are the ones [`crate::Engine`] serves (`final/user_scoring`
/// and `final/item`), so a segmented save is always a *serving* artifact
/// whose shards need no cross-shard math at load time.
pub fn save_segmented(
    ckpt: &Checkpoint,
    dir: &Path,
    user_shard_rows: usize,
    item_shard_rows: usize,
) -> Result<(), CheckpointError> {
    if user_shard_rows == 0 || item_shard_rows == 0 {
        return Err(CheckpointError::BadShape("shard_rows must be positive".into()));
    }
    let (user, item) = serving_tables(ckpt)?;
    let rows = |m: &Matrix, lo: usize, hi: usize| {
        Matrix::from_vec(hi - lo, m.cols(), m.as_slice()[lo * m.cols()..hi * m.cols()].to_vec())
    };
    let mut w = SegmentedWriter::create(dir)?;
    for (k, v) in ckpt.meta_entries() {
        w.set_meta(k, v);
    }
    let seen = &user.seen_indptr;
    for (_, lo, hi) in ShardSpec::new(user.emb.rows(), user_shard_rows).iter_ranges() {
        let local_indptr: Vec<u32> = seen[lo..=hi].iter().map(|&p| p - seen[lo]).collect();
        let local_items = &user.seen_items[seen[lo] as usize..seen[hi] as usize];
        w.push_user_shard(&rows(&user.emb, lo, hi), &local_indptr, local_items)?;
    }
    for (_, lo, hi) in ShardSpec::new(item.rows(), item_shard_rows).iter_ranges() {
        w.push_item_shard(&rows(&item, lo, hi))?;
    }
    w.finish()
}

/// A validated segmented-checkpoint directory: manifest parsed, segment
/// inventory checked, segments loadable on demand.
pub struct SegmentedCheckpoint {
    dir: PathBuf,
    meta: BTreeMap<String, String>,
    dim: usize,
    user_spec: ShardSpec,
    item_spec: ShardSpec,
    user_digests: Vec<u32>,
    item_digests: Vec<u32>,
    user_lens: Vec<u32>,
    item_lens: Vec<u32>,
}

fn meta_usize(c: &Checkpoint, key: &str) -> Result<usize, CheckpointError> {
    c.meta(key)
        .ok_or_else(|| CheckpointError::MetaMismatch(format!("manifest missing {key}")))?
        .parse::<usize>()
        .map_err(|_| CheckpointError::MetaMismatch(format!("manifest {key} is not an integer")))
}

fn ranges_of(
    c: &Checkpoint,
    name: &str,
    spec: ShardSpec,
) -> Result<Vec<(u32, u32)>, CheckpointError> {
    let raw = c.u32s(name)?;
    if raw.len() != spec.num_shards() * 2 {
        return Err(CheckpointError::Corrupt(format!(
            "{name}: {} entries for {} shards",
            raw.len(),
            spec.num_shards()
        )));
    }
    let ranges: Vec<(u32, u32)> = raw.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    for (s, lo, hi) in spec.iter_ranges() {
        if ranges[s] != (lo as u32, hi as u32) {
            return Err(CheckpointError::Corrupt(format!(
                "{name}: shard {s} range {:?} disagrees with spec [{lo}, {hi})",
                ranges[s]
            )));
        }
    }
    Ok(ranges)
}

fn digests_of(c: &Checkpoint, name: &str, want: usize) -> Result<Vec<u32>, CheckpointError> {
    let v = c.u32s(name)?;
    if v.len() != want {
        return Err(CheckpointError::Corrupt(format!(
            "{name}: {} entries for {want} shards",
            v.len()
        )));
    }
    Ok(v.to_vec())
}

impl SegmentedCheckpoint {
    /// Opens and validates: manifest parse, spec consistency, and the
    /// segment inventory (every named segment present, no strays).
    /// Segment *contents* are validated lazily on first load.
    pub fn open(dir: &Path) -> Result<Self, CheckpointError> {
        let manifest = Checkpoint::load(&dir.join(MANIFEST_NAME))?;
        if manifest.meta("seg_kind") != Some("segmented-checkpoint") {
            return Err(CheckpointError::MetaMismatch(
                "manifest seg_kind is not segmented-checkpoint".into(),
            ));
        }
        let dim = meta_usize(&manifest, "seg_dim")?;
        let users = meta_usize(&manifest, "seg_users")?;
        let items = meta_usize(&manifest, "seg_items")?;
        let user_shard_rows = meta_usize(&manifest, "seg_user_shard_rows")?;
        let item_shard_rows = meta_usize(&manifest, "seg_item_shard_rows")?;
        if dim == 0 || users == 0 || items == 0 || user_shard_rows == 0 || item_shard_rows == 0 {
            return Err(CheckpointError::MetaMismatch(
                "manifest dim/users/items/shard_rows must be positive".into(),
            ));
        }
        let user_spec = ShardSpec::new(users, user_shard_rows);
        let item_spec = ShardSpec::new(items, item_shard_rows);
        if meta_usize(&manifest, "seg_user_segments")? != user_spec.num_shards()
            || meta_usize(&manifest, "seg_item_segments")? != item_spec.num_shards()
        {
            return Err(CheckpointError::Corrupt(
                "manifest segment counts disagree with the id-range spec".into(),
            ));
        }
        ranges_of(&manifest, "seg/user_ranges", user_spec)?;
        ranges_of(&manifest, "seg/item_ranges", item_spec)?;
        let user_digests = digests_of(&manifest, "seg/user_digests", user_spec.num_shards())?;
        let item_digests = digests_of(&manifest, "seg/item_digests", item_spec.num_shards())?;
        let user_lens = digests_of(&manifest, "seg/user_lens", user_spec.num_shards())?;
        let item_lens = digests_of(&manifest, "seg/item_lens", item_spec.num_shards())?;

        // Inventory: the manifest is the source of truth for which `.seg`
        // files may exist. Anything missing or unaccounted for is a
        // corruption signal, not something to silently skip.
        let mut expected: BTreeSet<String> =
            (0..user_spec.num_shards()).map(user_segment_name).collect();
        expected.extend((0..item_spec.num_shards()).map(item_segment_name));
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(".seg") && !expected.remove(&name) {
                return Err(CheckpointError::ExtraSegment(name));
            }
        }
        if let Some(name) = expected.into_iter().next() {
            return Err(CheckpointError::MissingSegment(name));
        }

        Ok(Self {
            dir: dir.to_path_buf(),
            meta: manifest.meta_entries().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            dim,
            user_spec,
            item_spec,
            user_digests,
            item_digests,
            user_lens,
            item_lens,
        })
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// User-table id-range spec.
    pub fn user_spec(&self) -> ShardSpec {
        self.user_spec
    }

    /// Item-table id-range spec.
    pub fn item_spec(&self) -> ShardSpec {
        self.item_spec
    }

    /// Loads, digest-checks, parses, and shape-validates one segment.
    #[expect(clippy::too_many_arguments, reason = "one manifest entry's fields, each checked")]
    fn load_segment(
        &self,
        name: &str,
        len: u32,
        digest: u32,
        role: &str,
        idx: usize,
        lo: u32,
        hi: u32,
    ) -> Result<Checkpoint, CheckpointError> {
        let path = self.dir.join(name);
        let bytes = read_segment_bytes(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CheckpointError::MissingSegment(name.to_string())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        if bytes.len() != len as usize {
            return if bytes.len() < len as usize {
                Err(CheckpointError::Truncated)
            } else {
                Err(CheckpointError::Corrupt(format!(
                    "segment {name}: {} bytes on disk, manifest says {len}",
                    bytes.len()
                )))
            };
        }
        let computed = crc32(&bytes);
        if computed != digest {
            return Err(CheckpointError::SegmentDigestMismatch {
                segment: name.to_string(),
                stored: digest,
                computed,
            });
        }
        let seg = Checkpoint::from_bytes(&bytes)?;
        if seg.meta("seg_role") != Some(role)
            || seg.meta("seg_index") != Some(idx.to_string().as_str())
            || seg.meta("seg_lo") != Some(lo.to_string().as_str())
            || seg.meta("seg_hi") != Some(hi.to_string().as_str())
        {
            return Err(CheckpointError::MetaMismatch(format!(
                "segment {name}: role/index/range metadata disagrees with the manifest"
            )));
        }
        Ok(seg)
    }

    /// Loads and validates user shard `s`.
    pub fn load_user_shard(&self, s: usize) -> Result<UserShard, CheckpointError> {
        let (lo, hi) = self.user_spec.shard_range(s);
        let name = user_segment_name(s);
        let seg = self.load_segment(
            &name,
            self.user_lens[s],
            self.user_digests[s],
            "user",
            s,
            lo as u32,
            hi as u32,
        )?;
        let emb = seg.matrix("shard/emb")?;
        if emb.rows() != hi - lo || emb.cols() != self.dim {
            return Err(CheckpointError::BadShape(format!(
                "segment {name}: emb is {}×{}, manifest says {}×{}",
                emb.rows(),
                emb.cols(),
                hi - lo,
                self.dim
            )));
        }
        let seen_indptr = seg.u32s("shard/seen_indptr")?.to_vec();
        let seen_items = seg.u32s("shard/seen_items")?.to_vec();
        validate_lists(&seen_indptr, &seen_items, emb.rows(), self.item_spec.rows())
            .map_err(|e| CheckpointError::BadShape(format!("segment {name}: {e}")))?;
        Ok(UserShard { emb, seen_indptr, seen_items })
    }

    /// Loads and validates item shard `s`.
    pub fn load_item_shard(&self, s: usize) -> Result<Matrix, CheckpointError> {
        let (lo, hi) = self.item_spec.shard_range(s);
        let name = item_segment_name(s);
        let seg = self.load_segment(
            &name,
            self.item_lens[s],
            self.item_digests[s],
            "item",
            s,
            lo as u32,
            hi as u32,
        )?;
        let emb = seg.matrix("shard/emb")?;
        if emb.rows() != hi - lo || emb.cols() != self.dim {
            return Err(CheckpointError::BadShape(format!(
                "segment {name}: emb is {}×{}, manifest says {}×{}",
                emb.rows(),
                emb.cols(),
                hi - lo,
                self.dim
            )));
        }
        Ok(emb)
    }

    /// Loads and validates every segment, then stitches them back into one
    /// monolithic checkpoint holding the serving tensors
    /// (`final/user_scoring`, `final/item`, `seen/{indptr,items}`) plus the
    /// manifest metadata. Bit-identical to what was split (sharding is a
    /// layout change, never numeric). Serving never calls this — it defeats
    /// laziness.
    pub fn reassemble(&self) -> Result<Checkpoint, CheckpointError> {
        let mut user_shards = Vec::with_capacity(self.user_spec.num_shards());
        let mut seen_indptr: Vec<u32> = vec![0];
        let mut seen_items: Vec<u32> = Vec::new();
        for s in 0..self.user_spec.num_shards() {
            let shard = self.load_user_shard(s)?;
            let base = *seen_indptr.last().unwrap_or(&0);
            seen_indptr.extend(shard.seen_indptr[1..].iter().map(|&p| base + p));
            seen_items.extend_from_slice(&shard.seen_items);
            user_shards.push(shard.emb);
        }
        let item_shards = (0..self.item_spec.num_shards())
            .map(|s| self.load_item_shard(s))
            .collect::<Result<Vec<_>, _>>()?;
        // `open` admits no table without rows, so neither list is empty.
        let user = Matrix::concat_rows(&user_shards.iter().collect::<Vec<_>>());
        let item = Matrix::concat_rows(&item_shards.iter().collect::<Vec<_>>());
        let mut out = Checkpoint::new();
        for (k, v) in &self.meta {
            out.set_meta(k, v);
        }
        out.push_matrix("final/user_scoring", &user);
        out.push_matrix("final/item", &item);
        out.push_u32("seen/indptr", seen_indptr);
        out.push_u32("seen/items", seen_items);
        Ok(out)
    }
}
