//! Shard-loader: the single module that touches segment files as raw
//! bytes, via `mmap(2)` or positional reads, and the per-shard store the
//! engine serves from.
//!
//! Everything above this layer (manifest validation, DGCK parsing, the
//! engine) consumes a [`SegmentBytes`] — an owned-or-mapped byte region —
//! and never does its own file-length arithmetic or raw paging. Clippy holds
//! that boundary: `FileExt::read_at`/`read_exact_at` are disallowed methods
//! (`clippy.toml`) and inline `asm!`, this module's route to `mmap`, is a
//! denied lint, so either one anywhere else needs an `#[expect(.., reason)]`.
//!
//! The platform picks the read path: segment files are memory-mapped on
//! Linux/x86_64 (the raw-syscall path) and read into one owned buffer
//! elsewhere, or wherever mapping fails at runtime (e.g. a filesystem
//! without mmap support). Mapping reads the file through the page cache
//! with no intermediate heap buffer and returns the pages to the kernel on
//! drop (`munmap`). Both paths produce identical bytes, so every checksum
//! and every parsed tensor is independent of which one ran.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::OnceLock;

use dgnn_tensor::gemm::PackedPanels;
use dgnn_tensor::{Matrix, ShardSpec};

use crate::checkpoint::CheckpointError;
use crate::engine::pack_items;
use crate::segment::{SegmentedCheckpoint, UserShard};

/// A segment file's bytes: either one owned buffer (positional-read
/// path) or a read-only private mapping (unmapped on drop).
pub enum SegmentBytes {
    /// Whole file read into a heap buffer.
    Owned(Vec<u8>),
    /// Whole file mapped read-only.
    Mapped(MappedFile),
}

impl std::ops::Deref for SegmentBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Self::Owned(v) => v,
            Self::Mapped(m) => m.as_bytes(),
        }
    }
}

/// Reads `path` fully: mapped where the platform can, otherwise (or when
/// mapping fails) into one owned buffer.
pub fn read_segment_bytes(path: &Path) -> io::Result<SegmentBytes> {
    match MappedFile::open(path) {
        Ok(Some(m)) => return Ok(SegmentBytes::Mapped(m)),
        Ok(None) => {} // no mapping path on this target
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
        Err(e) => {
            // Mapping can fail where plain reads still work (e.g. a
            // filesystem without mmap support); serving must degrade,
            // not die.
            eprintln!("mmap of {} failed ({e}); falling back to reads", path.display());
        }
    }
    read_owned(path).map(SegmentBytes::Owned)
}

/// The positional-read path: the whole file in one heap buffer.
fn read_owned(path: &Path) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "segment larger than address space")
    })?;
    let mut buf = Vec::with_capacity(len);
    io::Read::read_to_end(&mut file, &mut buf)?;
    Ok(buf)
}

/// A read-only, private, whole-file memory mapping.
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) and owned
// exclusively by this struct until munmap in Drop, so sharing the region
// across threads is no different from sharing a &[u8].
unsafe impl Send for MappedFile {}
// SAFETY: see Send — the region is read-only for the mapping's lifetime.
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps `path` read-only. `Ok(None)` on targets without the raw
    /// syscall path (caller falls back to positional reads).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub fn open(path: &Path) -> io::Result<Option<Self>> {
        use std::os::fd::AsRawFd;
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "segment larger than address space")
        })?;
        if len == 0 {
            // mmap(len = 0) is EINVAL by spec; an empty segment can never
            // be a valid DGCK file anyway, so surface it as such.
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "zero-length segment file"));
        }
        const SYS_MMAP: i64 = 9;
        const PROT_READ: i64 = 1;
        const MAP_PRIVATE: i64 = 2;
        let fd = i64::from(file.as_raw_fd());
        let ret: i64;
        #[expect(
            clippy::inline_asm_x86_intel_syntax,
            reason = "the loader owns its mmap/munmap syscalls"
        )]
        // SAFETY: raw mmap(2): addr=NULL (kernel placement), read-only and
        // private over an fd we own across the call; the kernel returns a
        // fresh mapping aliasing no Rust-managed memory, or -errno in rax.
        // The asm clobbers only rax/rcx/r11 per the x86_64 syscall ABI.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0i64,
                in("rsi") len as i64,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd,
                in("r9") 0i64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // mmap returns a (page-aligned) pointer on success or -errno in
        // [-4095, -1] on failure.
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        // The fd can be closed once the mapping exists; `file` drops here.
        Ok(Some(Self { ptr: ret as usize as *const u8, len }))
    }

    /// No raw mapping path on this target.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub fn open(_path: &Path) -> io::Result<Option<Self>> {
        Ok(None)
    }

    /// The mapped region as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len delimit a live PROT_READ mapping owned by self;
        // the kernel guarantees the range is readable until munmap, which
        // only Drop performs, and &self borrows prevent outliving it.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            const SYS_MUNMAP: i64 = 11;
            let ret: i64;
            #[expect(
                clippy::inline_asm_x86_intel_syntax,
                reason = "the loader owns its mmap/munmap syscalls"
            )]
            // SAFETY: raw munmap(2) over exactly the region mmap returned;
            // after this call nothing dereferences ptr (self is being
            // dropped and as_bytes borrows cannot outlive it). Clobbers
            // only rax/rcx/r11 per the syscall ABI.
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP => ret,
                    in("rdi") self.ptr as usize as i64,
                    in("rsi") self.len as i64,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            debug_assert_eq!(ret, 0, "munmap of a valid mapping cannot fail");
        }
    }
}

/// The engine's one store: the user and item tables as per-shard slots.
///
/// Each slot is a tiny state machine — `Empty → Loading → Resident` or
/// `Empty → Loading → Failed` — realized with a `OnceLock`. A table loaded
/// whole is one user slot and one item slot, both filled at construction.
/// A segmented checkpoint starts with every slot empty: the first query to
/// touch a shard pays the load (digest check + DGCK parse), every later one
/// reads the resident table, and concurrent first-touches coalesce into a
/// single load. A failed load is sticky: the typed error message is cached
/// so repeated queries against a corrupt shard answer 503 deterministically
/// instead of re-reading a bad file forever.
///
/// A segmented store publishes residency and load latency through
/// `dgnn-obs` shared metrics (`serve/shard/*`) and [`ShardStore::stats`],
/// so tests can assert "residency bounded by touched shards" from loader
/// ground truth rather than noisy process RSS alone. A store loaded whole
/// has nothing to report and publishes no `serve/shard/*` series.
pub(crate) struct ShardStore {
    /// Where empty slots load from; `None` for a table loaded whole.
    seg: Option<SegmentedCheckpoint>,
    user_spec: ShardSpec,
    item_spec: ShardSpec,
    dim: usize,
    user_slots: Vec<OnceLock<Result<UserShard, String>>>,
    item_slots: Vec<OnceLock<Result<PackedPanels, String>>>,
}

/// Loader ground truth for residency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// User shards in the manifest.
    pub user_total: usize,
    /// User shards currently resident (successfully loaded).
    pub user_resident: usize,
    /// Bytes of resident user embedding rows (`rows × dim × 4`).
    pub user_resident_bytes: u64,
    /// Bytes the full user table would occupy resident.
    pub user_table_bytes: u64,
    /// Item shards in the manifest.
    pub item_total: usize,
    /// Item shards currently resident.
    pub item_resident: usize,
    /// Bytes of resident item panels (the one layout item embeddings are
    /// held in; the last panel's zero padding included).
    pub item_panel_bytes: u64,
}

impl ShardStore {
    /// A table loaded whole: one user shard and one item shard, resident.
    pub(crate) fn whole(user: UserShard, item: &Matrix) -> Self {
        let item = pack_items(item);
        dgnn_obs::shared::gauge("serve/engine/item_panel_bytes").set(item.bytes() as f64);
        Self {
            seg: None,
            user_spec: ShardSpec::new(user.emb.rows(), user.emb.rows().max(1)),
            item_spec: ShardSpec::new(item.rows(), item.rows().max(1)),
            dim: user.emb.cols(),
            user_slots: vec![OnceLock::from(Ok(user))],
            item_slots: vec![OnceLock::from(Ok(item))],
        }
    }

    /// Empty slots over an opened segmented checkpoint; loads nothing yet.
    pub(crate) fn lazy(seg: SegmentedCheckpoint) -> Self {
        let (user_spec, item_spec) = (seg.user_spec(), seg.item_spec());
        dgnn_obs::shared::gauge("serve/shard/user_total").set(user_spec.num_shards() as f64);
        dgnn_obs::shared::gauge("serve/shard/item_total").set(item_spec.num_shards() as f64);
        Self {
            dim: seg.dim(),
            seg: Some(seg),
            user_spec,
            item_spec,
            user_slots: (0..user_spec.num_shards()).map(|_| OnceLock::new()).collect(),
            item_slots: (0..item_spec.num_shards()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Total users covered by the store.
    pub(crate) fn num_users(&self) -> usize {
        self.user_spec.rows()
    }

    /// Total items covered by the store.
    pub(crate) fn num_items(&self) -> usize {
        self.item_spec.rows()
    }

    /// Embedding dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The value in `slot`, loading it from the segments on first touch.
    fn slot<'a, T>(
        &'a self,
        slot: &'a OnceLock<Result<T, String>>,
        load: impl FnOnce(&SegmentedCheckpoint) -> Result<T, CheckpointError>,
    ) -> Result<&'a T, String> {
        let mut loaded_now = false;
        let r = slot.get_or_init(|| {
            let t0 = dgnn_obs::now_ns();
            // A store loaded whole has every slot filled at construction,
            // so only a segmented store gets here.
            let loaded = match &self.seg {
                Some(seg) => load(seg).map_err(|e| e.to_string()),
                None => Err("no segment source".to_string()),
            };
            dgnn_obs::shared::counter("serve/shard/loads").add(1);
            dgnn_obs::shared::hist("serve/shard/load_ms")
                .record(dgnn_obs::now_ns().saturating_sub(t0) as f64 / 1e6);
            loaded_now = true;
            loaded
        });
        if loaded_now {
            if let Some(stats) = self.stats() {
                dgnn_obs::shared::gauge("serve/shard/user_resident")
                    .set(stats.user_resident as f64);
                dgnn_obs::shared::gauge("serve/shard/user_resident_bytes")
                    .set(stats.user_resident_bytes as f64);
                dgnn_obs::shared::gauge("serve/shard/item_resident")
                    .set(stats.item_resident as f64);
                dgnn_obs::shared::gauge("serve/engine/item_panel_bytes")
                    .set(stats.item_panel_bytes as f64);
            }
        }
        r.as_ref().map_err(Clone::clone)
    }

    fn user_shard(&self, s: usize) -> Result<&UserShard, String> {
        self.slot(&self.user_slots[s], |seg| seg.load_user_shard(s))
    }

    /// Scoring-embedding row for one user, loading its shard on demand.
    /// Errors carry `(shard, detail)` for the 503 path.
    pub(crate) fn user_row(&self, user: usize) -> Result<&[f32], (usize, String)> {
        let (s, local) = self.user_spec.locate(user);
        let shard = self.user_shard(s).map_err(|e| (s, e))?;
        Ok(shard.emb.row(local))
    }

    /// Every item shard as the packed panels it is scored from, loading and
    /// packing each on first touch (the row-major copy is dropped there).
    /// Errors carry `(shard, detail)` of the first unloadable shard.
    pub(crate) fn item_panels(&self) -> Result<Vec<&PackedPanels>, (usize, String)> {
        (0..self.item_slots.len())
            .map(|s| {
                self.slot(&self.item_slots[s], |seg| {
                    seg.load_item_shard(s).map(|emb| pack_items(&emb))
                })
                .map_err(|e| (s, e))
            })
            .collect()
    }

    /// The user's seen items (empty when the shard is unloadable — seen
    /// filtering is advisory and must not turn a scoring query into 503
    /// on its own).
    pub(crate) fn seen(&self, user: usize) -> &[u32] {
        if user >= self.num_users() {
            return &[];
        }
        let (s, local) = self.user_spec.locate(user);
        match self.user_shard(s) {
            Ok(shard) => {
                let lo = shard.seen_indptr[local] as usize;
                let hi = shard.seen_indptr[local + 1] as usize;
                &shard.seen_items[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Residency snapshot of a segmented store; `None` for one loaded whole.
    pub(crate) fn stats(&self) -> Option<ShardStats> {
        self.seg.as_ref()?;
        let row_bytes = self.dim as u64 * 4;
        let mut user_resident = 0usize;
        let mut user_resident_bytes = 0u64;
        for slot in &self.user_slots {
            if let Some(Ok(u)) = slot.get() {
                user_resident += 1;
                user_resident_bytes += u.emb.rows() as u64 * row_bytes;
            }
        }
        let mut item_resident = 0usize;
        let mut item_panel_bytes = 0u64;
        for slot in &self.item_slots {
            if let Some(Ok(panels)) = slot.get() {
                item_resident += 1;
                item_panel_bytes += panels.bytes() as u64;
            }
        }
        Some(ShardStats {
            user_total: self.user_slots.len(),
            user_resident,
            user_resident_bytes,
            user_table_bytes: self.num_users() as u64 * row_bytes,
            item_total: self.item_slots.len(),
            item_resident,
            item_panel_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Targets on which `MappedFile::open` must map rather than decline.
    const MAPS: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("dgnn-shard-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_and_owned_bytes_agree() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        let path = tmp_file("agree", &payload);
        assert_eq!(read_owned(&path).unwrap(), payload);
        let mapped = MappedFile::open(&path).unwrap();
        assert_eq!(
            mapped.is_some(),
            MAPS,
            "mapping must be used exactly where the target supports it"
        );
        if let Some(mapped) = mapped {
            assert_eq!(mapped.as_bytes(), &payload[..]);
        }
        let read = read_segment_bytes(&path).unwrap();
        assert_eq!(matches!(read, SegmentBytes::Mapped(_)), MAPS);
        assert_eq!(&*read, &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found_in_both_modes() {
        let path = std::env::temp_dir().join("dgnn-shard-definitely-absent.seg");
        for read in [read_owned(&path).map(|_| ()), read_segment_bytes(&path).map(|_| ())] {
            match read {
                Err(err) => assert_eq!(err.kind(), io::ErrorKind::NotFound),
                Ok(()) => panic!("absent file must not read"),
            }
        }
    }

    #[test]
    fn zero_length_file_errs_when_mapped() {
        let path = tmp_file("empty", &[]);
        let opened = MappedFile::open(&path);
        if MAPS {
            assert!(opened.is_err(), "an empty file must err where mapping is supported");
        } else {
            assert!(matches!(opened, Ok(None)), "no mapping path: open must decline");
        }
        std::fs::remove_file(&path).ok();
    }
}
