//! Shard-loader: the single module that touches segment files as raw
//! bytes, via `mmap(2)` or positional reads.
//!
//! Everything above this layer (manifest validation, DGCK parsing, the
//! lazy engine backend) consumes a [`SegmentBytes`] — an owned-or-mapped
//! byte region — and never does its own file-length arithmetic or raw
//! paging. Lint rule 15 (`shard-bounds`) enforces that boundary: raw
//! `mmap`/`pread`-family calls anywhere else in the workspace need a
//! `// SHARD:` justification.
//!
//! The read mechanism is selected by `DGNN_MMAP`:
//!
//! * `auto` (default) — memory-map on Linux/x86_64, positional reads
//!   elsewhere;
//! * `on` — require mapping; degrades to reads with a stderr warning on
//!   targets without the raw-syscall path (never crashes);
//! * `off` — always positional reads.
//!
//! Mapping reads the file through the page cache with no intermediate
//! heap buffer: DGCK parsing walks the mapped region directly, and the
//! pages are returned to the kernel on drop (`munmap`). The fallback
//! path reads the whole file into one owned buffer first. Both produce
//! identical bytes, so every checksum and every parsed tensor is
//! independent of the knob.

use std::fs::File;
use std::io;
use std::path::Path;

/// `DGNN_MMAP` knob: how segment files are brought into memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapMode {
    /// Map when the platform supports it, otherwise positional reads.
    Auto,
    /// Map; warn and fall back to reads where unsupported.
    On,
    /// Never map.
    Off,
}

impl MapMode {
    /// Parses `DGNN_MMAP` (`auto` when unset; unknown values warn and
    /// fall back to `auto` rather than failing startup).
    pub fn from_env() -> Self {
        match std::env::var("DGNN_MMAP").ok().as_deref() {
            None | Some("auto") | Some("") => Self::Auto,
            Some("on") | Some("1") => Self::On,
            Some("off") | Some("0") => Self::Off,
            Some(other) => {
                eprintln!("DGNN_MMAP={other:?} not recognized (want auto|on|off); using auto");
                Self::Auto
            }
        }
    }

    /// Whether this mode resolves to mapping on the current target.
    pub fn resolves_to_map(self) -> bool {
        match self {
            Self::Off => false,
            Self::Auto => map_supported(),
            Self::On => {
                if !map_supported() {
                    eprintln!("DGNN_MMAP=on but this target has no mmap path; using positional reads");
                }
                map_supported()
            }
        }
    }
}

/// Returns `true` on targets with the raw-syscall mapping path.
pub fn map_supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

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

/// Reads `path` fully, by mapping when `mode` resolves to it. Returns the
/// bytes plus whether a mapping was actually used (for metrics).
pub fn read_segment_bytes(path: &Path, mode: MapMode) -> io::Result<(SegmentBytes, bool)> {
    if mode.resolves_to_map() {
        match MappedFile::open(path) {
            Ok(Some(m)) => return Ok((SegmentBytes::Mapped(m), true)),
            Ok(None) => {} // unsupported target (cfg'd out); fall through
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
            Err(e) => {
                // Mapping can fail where plain reads still work (e.g. a
                // filesystem without mmap support); serving must degrade,
                // not die.
                eprintln!("mmap of {} failed ({e}); falling back to reads", path.display());
            }
        }
    }
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "segment larger than address space"))?;
    let mut buf = Vec::with_capacity(len);
    io::Read::read_to_end(&mut file, &mut buf)?;
    Ok((SegmentBytes::Owned(buf), false))
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
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "segment larger than address space"))?;
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
        // SAFETY: raw mmap(2): addr=NULL (kernel placement), read-only and
        // private over an fd we own across the call; the kernel returns a
        // fresh mapping aliasing no Rust-managed memory, or -errno in rax.
        // The asm clobbers only rax/rcx/r11 per the x86_64 syscall ABI.
        unsafe {
            // SIMD: inline asm for a raw syscall, not data-path vector
            // code — the GEMM subsystem's SIMD contracts do not apply.
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

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never constructed today; mapping a
    /// zero-length file is rejected at open).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            const SYS_MUNMAP: i64 = 11;
            let ret: i64;
            // SAFETY: raw munmap(2) over exactly the region mmap returned;
            // after this call nothing dereferences ptr (self is being
            // dropped and as_bytes borrows cannot outlive it). Clobbers
            // only rax/rcx/r11 per the syscall ABI.
            unsafe {
                // SIMD: inline asm for a raw syscall, not data-path vector
                // code — the GEMM subsystem's SIMD contracts do not apply.
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

/// Lazily-loaded sharded embedding store.
///
/// Each shard slot is a tiny state machine — `Empty → Loading → Resident`
/// or `Empty → Loading → Failed` — realized with a `OnceLock`: the first
/// query to touch a shard pays the load (digest check + DGCK parse), every
/// later one reads the resident table, and concurrent first-touches
/// coalesce into a single load. A failed load is sticky: the typed error
/// message is cached so repeated queries against a corrupt shard answer
/// 503 deterministically instead of re-reading a bad file forever.
///
/// Residency and load latency are published through `dgnn-obs` shared
/// metrics (`serve/shard/*`) and exposed directly via [`LazyStore::stats`]
/// so tests can assert "residency bounded by touched shards" from loader
/// ground truth rather than noisy process RSS alone.
pub struct LazyStore {
    seg: crate::segment::SegmentedCheckpoint,
    user_slots: Vec<std::sync::OnceLock<Result<crate::segment::UserShard, String>>>,
    item_slots: Vec<std::sync::OnceLock<Result<dgnn_tensor::gemm::PackedPanels, String>>>,
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
    /// Whether loads go through the mmap path.
    pub mapped: bool,
}

impl LazyStore {
    /// Wraps an opened segmented checkpoint; loads nothing yet.
    pub fn new(seg: crate::segment::SegmentedCheckpoint) -> Self {
        let user_slots = (0..seg.user_spec().num_shards()).map(|_| std::sync::OnceLock::new()).collect();
        let item_slots = (0..seg.item_spec().num_shards()).map(|_| std::sync::OnceLock::new()).collect();
        dgnn_obs::shared::gauge("serve/shard/user_total").set(seg.user_spec().num_shards() as f64);
        dgnn_obs::shared::gauge("serve/shard/item_total").set(seg.item_spec().num_shards() as f64);
        Self { seg, user_slots, item_slots }
    }

    /// Total users covered by the store.
    pub fn num_users(&self) -> usize {
        self.seg.user_spec().rows()
    }

    /// Total items covered by the store.
    pub fn num_items(&self) -> usize {
        self.seg.item_spec().rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.seg.dim()
    }

    /// Item-table id-range spec (drives the per-shard scoring loop).
    pub fn item_spec(&self) -> dgnn_tensor::ShardSpec {
        self.seg.item_spec()
    }

    /// User-table id-range spec.
    pub fn user_spec(&self) -> dgnn_tensor::ShardSpec {
        self.seg.user_spec()
    }

    fn record_load(t0: u64) {
        let dt = dgnn_obs::now_ns().saturating_sub(t0) as f64 / 1e6;
        dgnn_obs::shared::counter("serve/shard/loads").add(1);
        dgnn_obs::shared::hist("serve/shard/load_ms").record(dt);
    }

    fn publish_residency(&self) {
        let stats = self.stats();
        dgnn_obs::shared::gauge("serve/shard/user_resident").set(stats.user_resident as f64);
        dgnn_obs::shared::gauge("serve/shard/user_resident_bytes").set(stats.user_resident_bytes as f64);
        dgnn_obs::shared::gauge("serve/shard/item_resident").set(stats.item_resident as f64);
        dgnn_obs::shared::gauge("serve/engine/item_panel_bytes").set(stats.item_panel_bytes as f64);
    }

    /// User shard `s`, loading it on first touch.
    pub fn user_shard(&self, s: usize) -> Result<&crate::segment::UserShard, String> {
        let mut loaded_now = false;
        let r = self.user_slots[s].get_or_init(|| {
            let t0 = dgnn_obs::now_ns();
            let loaded = self.seg.load_user_shard(s).map_err(|e| e.to_string());
            Self::record_load(t0);
            loaded_now = true;
            loaded
        });
        if loaded_now {
            self.publish_residency();
        }
        r.as_ref().map_err(|e| e.clone())
    }

    /// Item shard `s` as the packed panels it is scored from, loading and
    /// packing it on first touch; the row-major copy is dropped there.
    pub fn item_shard(&self, s: usize) -> Result<&dgnn_tensor::gemm::PackedPanels, String> {
        let mut loaded_now = false;
        let r = self.item_slots[s].get_or_init(|| {
            let t0 = dgnn_obs::now_ns();
            let loaded = self
                .seg
                .load_item_shard(s)
                .map(|emb| crate::engine::pack_items(&emb))
                .map_err(|e| e.to_string());
            Self::record_load(t0);
            loaded_now = true;
            loaded
        });
        if loaded_now {
            self.publish_residency();
        }
        r.as_ref().map_err(|e| e.clone())
    }

    /// Scoring-embedding row for one user, loading its shard on demand.
    /// Errors carry `(shard, detail)` for the 503 path.
    pub fn user_row(&self, user: usize) -> Result<&[f32], (usize, String)> {
        let (s, local) = self.user_spec().locate(user);
        let shard = self.user_shard(s).map_err(|e| (s, e))?;
        Ok(shard.emb.row(local))
    }

    /// The user's seen items (empty when the shard is unloadable — seen
    /// filtering is advisory and must not turn a scoring query into 503
    /// on its own).
    pub fn seen(&self, user: usize) -> &[u32] {
        if user >= self.num_users() {
            return &[];
        }
        let (s, local) = self.user_spec().locate(user);
        match self.user_shard(s) {
            Ok(shard) => {
                let lo = shard.seen_indptr[local] as usize;
                let hi = shard.seen_indptr[local + 1] as usize;
                &shard.seen_items[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Current residency snapshot.
    pub fn stats(&self) -> ShardStats {
        let row_bytes = self.dim() as u64 * 4;
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
        ShardStats {
            user_total: self.user_spec().num_shards(),
            user_resident,
            user_resident_bytes,
            user_table_bytes: self.num_users() as u64 * row_bytes,
            item_total: self.item_spec().num_shards(),
            item_resident,
            item_panel_bytes,
            mapped: self.seg.uses_map(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("dgnn-shard-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_and_owned_bytes_agree() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        let path = tmp_file("agree", &payload);
        let (owned, used_map) = read_segment_bytes(&path, MapMode::Off).unwrap();
        assert!(!used_map);
        assert_eq!(&*owned, &payload[..]);
        if map_supported() {
            let (mapped, used_map) = read_segment_bytes(&path, MapMode::On).unwrap();
            assert!(used_map);
            assert_eq!(&*mapped, &payload[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found_in_both_modes() {
        let path = std::env::temp_dir().join("dgnn-shard-definitely-absent.seg");
        for mode in [MapMode::Off, MapMode::Auto, MapMode::On] {
            match read_segment_bytes(&path, mode) {
                Err(err) => assert_eq!(err.kind(), io::ErrorKind::NotFound),
                Ok(_) => panic!("absent file must not read"),
            }
        }
    }

    #[test]
    fn zero_length_file_errs_when_mapped() {
        if !map_supported() {
            return;
        }
        let path = tmp_file("empty", &[]);
        assert!(MappedFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_knob_parses() {
        // Only exercises the pure resolution logic; the env var itself is
        // owned by the process launcher.
        assert!(!MapMode::Off.resolves_to_map());
        assert_eq!(MapMode::Auto.resolves_to_map(), map_supported());
    }
}
