//! Versioned, checksummed binary checkpoint format.
//!
//! A checkpoint is an ordered list of named 2-D tensors (`f32` or `u32`
//! payloads) plus a small UTF-8 metadata block of sorted `key=value` lines.
//! Everything is little-endian and self-delimiting:
//!
//! ```text
//! offset  size        field
//! 0       4           magic "DGCK"
//! 4       4           format version (u32, currently 1)
//! 8       8           FNV-1a64 digest of the metadata block
//! 16      4           metadata length in bytes (u32)
//! 20      m           metadata: sorted "key=value\n" UTF-8 lines
//! ·       4           tensor count (u32)
//! per tensor:
//!         4           name length (u32)
//!         n           name (UTF-8)
//!         1           dtype (0 = f32, 1 = u32)
//!         8           rows (u64)
//!         8           cols (u64)
//!         rows·cols·4 payload (little-endian)
//! end     4           CRC32 (IEEE) over every payload byte, in file order
//! ```
//!
//! Readers validate the magic, version, metadata digest, per-tensor bounds
//! (every length is checked against the remaining bytes *before* any
//! allocation, so corrupt headers cannot trigger huge allocations), the
//! trailing CRC, and that no bytes follow it. Every failure is a
//! [`CheckpointError`] — loading untrusted bytes never panics.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use dgnn_tensor::Matrix;

/// File magic: "DGnn ChecKpoint".
pub const MAGIC: [u8; 4] = *b"DGCK";
/// Current format version written by [`Checkpoint::save`].
pub const FORMAT_VERSION: u32 = 1;

const MAX_META_BYTES: usize = 1 << 20;
const MAX_NAME_BYTES: usize = 4096;
const MAX_TENSORS: usize = 65_536;

/// Why a checkpoint could not be read or interpreted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this reader understands.
    UnsupportedVersion(u32),
    /// The file ended before a declared field.
    Truncated,
    /// A structural invariant failed (oversized field, non-UTF-8 name,
    /// trailing bytes, unknown dtype, …).
    Corrupt(String),
    /// The trailing CRC32 does not match the payload bytes.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC recomputed from the payload.
        computed: u32,
    },
    /// The stored metadata digest does not match the metadata block.
    DigestMismatch,
    /// A tensor the consumer requires is absent.
    MissingTensor(String),
    /// A tensor exists but with an unusable shape or dtype.
    BadShape(String),
    /// The metadata block disagrees with what the consumer expects
    /// (wrong model kind, undecodable config, …).
    MetaMismatch(String),
    /// A segment named by a segmented-checkpoint manifest is absent.
    MissingSegment(String),
    /// A `.seg` file exists that the manifest does not name.
    ExtraSegment(String),
    /// A segment file's bytes do not hash to the digest the manifest
    /// recorded for it (whole-file CRC32, checked before parsing).
    SegmentDigestMismatch {
        /// Segment file name.
        segment: String,
        /// Digest stored in the manifest.
        stored: u32,
        /// Digest recomputed from the file bytes.
        computed: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
            Self::BadMagic => write!(f, "not a DGCK checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v} (reader supports {FORMAT_VERSION})")
            }
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint payload checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            Self::DigestMismatch => write!(f, "checkpoint metadata digest mismatch"),
            Self::MissingTensor(name) => write!(f, "checkpoint is missing tensor {name:?}"),
            Self::BadShape(why) => write!(f, "checkpoint tensor has unusable shape: {why}"),
            Self::MetaMismatch(why) => write!(f, "checkpoint metadata mismatch: {why}"),
            Self::MissingSegment(name) => write!(f, "manifest names segment {name:?} but the file is missing"),
            Self::ExtraSegment(name) => write!(f, "segment file {name:?} is not named by the manifest"),
            Self::SegmentDigestMismatch { segment, stored, computed } => write!(
                f,
                "segment {segment:?} digest mismatch (manifest {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Payload of one stored tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// 32-bit float payload (embeddings, parameters).
    F32(Vec<f32>),
    /// 32-bit unsigned payload (index arrays such as the seen lists).
    U32(Vec<u32>),
}

/// One named 2-D tensor inside a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Unique name, e.g. `param/e_user` or `seen/indptr`.
    pub name: String,
    /// Row count (index arrays use a single row).
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// The payload; `rows * cols` elements.
    pub data: TensorData,
}

/// An in-memory checkpoint: ordered named tensors plus metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    meta: BTreeMap<String, String>,
    tensors: Vec<Tensor>,
}

impl Checkpoint {
    /// Empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a metadata entry. Keys and values must not contain `=` or
    /// newlines (the serialized form is `key=value` lines); offending
    /// characters are replaced with `_` rather than corrupting the block.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        let clean = |s: &str, eq: bool| {
            s.chars()
                .map(|c| if c == '\n' || c == '\r' || (eq && c == '=') { '_' } else { c })
                .collect::<String>()
        };
        self.meta.insert(clean(key, true), clean(value, false));
    }

    /// Looks up a metadata entry.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// All metadata entries (sorted by key).
    pub fn meta_entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Appends an `f32` tensor.
    pub fn push_f32(&mut self, name: &str, rows: usize, cols: usize, data: Vec<f32>) {
        debug_assert_eq!(rows * cols, data.len(), "tensor {name}: shape/payload mismatch");
        self.tensors.push(Tensor {
            name: name.to_string(),
            rows,
            cols,
            data: TensorData::F32(data),
        });
    }

    /// Appends a dense matrix as an `f32` tensor.
    pub fn push_matrix(&mut self, name: &str, m: &Matrix) {
        self.push_f32(name, m.rows(), m.cols(), m.as_slice().to_vec());
    }

    /// Appends a `u32` index tensor as a single row.
    pub fn push_u32(&mut self, name: &str, data: Vec<u32>) {
        self.tensors.push(Tensor {
            name: name.to_string(),
            rows: 1,
            cols: data.len(),
            data: TensorData::U32(data),
        });
    }

    /// Tensors in storage order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Finds a tensor by name.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.tensors.iter().find(|t| t.name == name)
    }

    /// Returns the named tensor as a dense matrix.
    ///
    /// Errors with [`CheckpointError::MissingTensor`] when absent and
    /// [`CheckpointError::BadShape`] when the payload is not `f32`.
    pub fn matrix(&self, name: &str) -> Result<Matrix, CheckpointError> {
        let t =
            self.tensor(name).ok_or_else(|| CheckpointError::MissingTensor(name.to_string()))?;
        match &t.data {
            TensorData::F32(v) => Ok(Matrix::from_vec(t.rows, t.cols, v.clone())),
            TensorData::U32(_) => {
                Err(CheckpointError::BadShape(format!("tensor {name:?} is u32, expected f32")))
            }
        }
    }

    /// Returns the named tensor's `u32` payload.
    pub fn u32s(&self, name: &str) -> Result<&[u32], CheckpointError> {
        let t =
            self.tensor(name).ok_or_else(|| CheckpointError::MissingTensor(name.to_string()))?;
        match &t.data {
            TensorData::U32(v) => Ok(v),
            TensorData::F32(_) => {
                Err(CheckpointError::BadShape(format!("tensor {name:?} is f32, expected u32")))
            }
        }
    }

    fn meta_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for (k, v) in &self.meta {
            out.push_str(k);
            out.push('=');
            out.push_str(v);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Serializes to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = self.meta_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&meta).to_le_bytes());
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&meta);
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        let mut crc = Crc32::new();
        for t in &self.tensors {
            let name = t.name.as_bytes();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name);
            let dtype: u8 = match &t.data {
                TensorData::F32(_) => 0,
                TensorData::U32(_) => 1,
            };
            out.push(dtype);
            out.extend_from_slice(&(t.rows as u64).to_le_bytes());
            out.extend_from_slice(&(t.cols as u64).to_le_bytes());
            let start = out.len();
            match &t.data {
                TensorData::F32(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                TensorData::U32(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
            crc.update(&out[start..]);
        }
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Parses a checkpoint from bytes, validating every structural
    /// invariant. Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        if cur.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = cur.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let stored_digest = cur.u64()?;
        let meta_len = cur.u32()? as usize;
        if meta_len > MAX_META_BYTES {
            return Err(CheckpointError::Corrupt(format!(
                "metadata block of {meta_len} bytes exceeds cap"
            )));
        }
        let meta_raw = cur.take(meta_len)?;
        if fnv1a64(meta_raw) != stored_digest {
            return Err(CheckpointError::DigestMismatch);
        }
        let meta_text = std::str::from_utf8(meta_raw)
            .map_err(|_| CheckpointError::Corrupt("metadata is not UTF-8".into()))?;
        let mut meta = BTreeMap::new();
        for line in meta_text.lines().filter(|l| !l.is_empty()) {
            let (k, v) = line.split_once('=').ok_or_else(|| {
                CheckpointError::Corrupt(format!("metadata line {line:?} has no '='"))
            })?;
            meta.insert(k.to_string(), v.to_string());
        }
        let count = cur.u32()? as usize;
        if count > MAX_TENSORS {
            return Err(CheckpointError::Corrupt(format!("{count} tensors exceeds cap")));
        }
        let mut tensors = Vec::with_capacity(count.min(1024));
        let mut crc = Crc32::new();
        for _ in 0..count {
            let name_len = cur.u32()? as usize;
            if name_len > MAX_NAME_BYTES {
                return Err(CheckpointError::Corrupt(format!(
                    "tensor name of {name_len} bytes exceeds cap"
                )));
            }
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| CheckpointError::Corrupt("tensor name is not UTF-8".into()))?
                .to_string();
            let dtype = cur.u8()?;
            let rows = cur.u64()?;
            let cols = cur.u64()?;
            let elems =
                rows.checked_mul(cols).and_then(|n| usize::try_from(n).ok()).ok_or_else(|| {
                    CheckpointError::Corrupt(format!("tensor {name:?} shape overflows"))
                })?;
            let byte_len = elems.checked_mul(4).ok_or_else(|| {
                CheckpointError::Corrupt(format!("tensor {name:?} payload overflows"))
            })?;
            // Bounds-check against the remaining bytes BEFORE allocating.
            let payload = cur.take(byte_len)?;
            crc.update(payload);
            let data = match dtype {
                0 => TensorData::F32(
                    payload
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                ),
                1 => TensorData::U32(
                    payload
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                ),
                d => {
                    return Err(CheckpointError::Corrupt(format!(
                        "tensor {name:?} has unknown dtype {d}"
                    )))
                }
            };
            tensors.push(Tensor { name, rows: rows as usize, cols: cols as usize, data });
        }
        let stored_crc = cur.u32()?;
        let computed = crc.finish();
        if stored_crc != computed {
            return Err(CheckpointError::ChecksumMismatch { stored: stored_crc, computed });
        }
        if cur.pos != bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after checksum",
                bytes.len() - cur.pos
            )));
        }
        Ok(Self { meta, tensors })
    }

    /// Writes the checkpoint to `path` (creating parent directories).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        Ok(())
    }

    /// Reads and parses a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// FNV-1a 64-bit digest (the metadata/config fingerprint).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
pub struct Crc32 {
    table: [u32; 256],
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        Self { table, state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ u32::from(b)) & 0xFF) as usize;
            self.state = self.table[idx] ^ (self.state >> 8);
        }
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.set_meta("model", "TEST");
        c.set_meta("dim", "3");
        c.push_matrix(
            "a",
            &Matrix::from_vec(2, 3, vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE, 3.25, -0.0]),
        );
        c.push_u32("idx", vec![0, 7, 42, u32::MAX]);
        c
    }

    #[test]
    fn round_trip_is_identity() {
        let c = sample();
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c, back);
        assert_eq!(back.meta("model"), Some("TEST"));
        assert_eq!(back.u32s("idx").unwrap(), &[0, 7, 42, u32::MAX]);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_truncation_errs_not_panics() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let r = Checkpoint::from_bytes(&bytes[..len]);
            assert!(r.is_err(), "prefix of {len} bytes must be rejected");
        }
    }

    #[test]
    fn payload_flip_is_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        // Flip one bit inside tensor "a"'s payload (locate it after the
        // 17-byte tensor header that follows the count).
        let payload_off = bytes.len() - 4 - 4 * 4 - 21 - 4; // last f32 of "a"
        bytes[payload_off] ^= 0x01;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn version_bump_is_unsupported() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion(99)) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn meta_flip_is_digest_mismatch() {
        let mut bytes = sample().to_bytes();
        bytes[21] ^= 0x02; // inside the metadata block
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::DigestMismatch) => {}
            other => panic!("expected digest mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadMagic)));
    }

    #[test]
    fn meta_sanitizes_separators() {
        let mut c = Checkpoint::new();
        c.set_meta("k=ey\n", "v\nal");
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.meta("k_ey_"), Some("v_al"));
    }
}
