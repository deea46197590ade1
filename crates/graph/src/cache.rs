//! On-disk CSR dataset cache.
//!
//! `paper`/`full` sweeps regenerate multi-GiB R-MAT stand-ins on every
//! run, so sweep start-up used to be minutes of generator time before the
//! first experiment cycle ran. The cache stores each generated graph in a
//! versioned binary file keyed by `(dataset, divisor, seed)` so any later
//! run — including every worker process of a sharded sweep — loads the
//! CSR arrays back in seconds.
//!
//! The format is deliberately boring: a fixed little-endian header
//! carrying the key, followed by the raw edge list, with an FNV-1a
//! checksum over both (every header field after the magic, plus the
//! payload), so no flipped bit anywhere in an entry reaches the
//! simulator. A loaded graph is rebuilt through [`Graph::from_edges`],
//! the same constructor the generators use, so a cache hit is
//! structurally identical (`==`) to regeneration. Every validation
//! failure — short file, bad magic, version or key mismatch, checksum
//! mismatch, edge out of range — falls back to regeneration and
//! rewrites the entry, so a corrupt or stale cache can slow a run down
//! but never change its output.
//!
//! Writes go through a temp file plus atomic rename, which makes
//! concurrent writers filling the same cache directory safe: the temp
//! name is unique per process *and* per call ([`unique_tmp_path`]), so
//! neither shard workers nor `--jobs N` threads ever share a tmp file,
//! the last renamer wins with a complete file, and readers never
//! observe a partial entry. A failed store removes its tmp file; a
//! killed writer's `*.tmp*` file is never opened as an entry. The
//! directory is unbounded: one entry per `(dataset, divisor)`.

use crate::csr::{Edge, Graph};
use crate::datasets::Dataset;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump whenever the on-disk layout (header or payload) changes; older
/// entries are then different file names and are never read.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// `b"DVMGCSR\0"` — identifies a cache entry regardless of version.
const MAGIC: [u8; 8] = *b"DVMGCSR\0";

/// Header: magic + version + seed + divisor + num_vertices + num_edges +
/// checksum.
const HEADER_BYTES: usize = 8 + 4 + 8 + 4 + 4 + 8 + 8;

/// Offset of the checksum field. It covers the header bytes between the
/// magic and itself (version, seed, divisor, vertex and edge counts)
/// followed by the payload.
const CHECKSUM_AT: usize = HEADER_BYTES - 8;

/// Bytes per serialized edge: src u32, dst u32, weight f32 bits.
const EDGE_BYTES: usize = 12;

/// A collision-free temp path next to `path`: unique per process (pid)
/// *and* per call (atomic counter), so two threads of one `--jobs N`
/// process storing the same entry never interleave writes on one tmp
/// file and rename a torn result into place.
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let token = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp{}-{token}", std::process::id()))
}

/// A directory of cached dataset graphs plus hit/miss accounting.
///
/// # Examples
///
/// ```no_run
/// use dvm_graph::{Dataset, DatasetCache};
/// let cache = DatasetCache::new("results/.dataset-cache").unwrap();
/// let first = cache.get_or_generate(Dataset::Flickr, 1024); // miss: generates + stores
/// let again = cache.get_or_generate(Dataset::Flickr, 1024); // hit: loads from disk
/// assert_eq!(first, again);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct DatasetCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl DatasetCache {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Graphs served from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Graphs that had to be generated (absent or invalid entries).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries that existed but failed validation (subset of misses).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The entry path for a key. One file per `(dataset, divisor)`; the
    /// seed and version ride in the header (and the name, so stale
    /// versions are simply different files).
    pub fn entry_path(&self, dataset: Dataset, divisor: u32) -> PathBuf {
        self.dir.join(format!(
            "{}_div{}_v{}.csr",
            dataset.short_name(),
            divisor,
            CACHE_FORMAT_VERSION
        ))
    }

    /// Load the graph for `(dataset, divisor)` from disk, or generate and
    /// store it. Never fails: every cache problem degrades to
    /// regeneration, and a failed store only warns on stderr.
    pub fn get_or_generate(&self, dataset: Dataset, divisor: u32) -> Graph {
        let path = self.entry_path(dataset, divisor);
        match std::fs::read(&path) {
            Ok(bytes) => match decode(&bytes, dataset.seed(), divisor) {
                Some(graph) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return graph;
                }
                None => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let graph = dataset.generate(divisor);
        if let Err(e) = self.store(&path, dataset.seed(), divisor, &graph) {
            eprintln!(
                "dataset-cache: failed to store {} ({e}); continuing uncached",
                path.display()
            );
        }
        graph
    }

    /// Serialize `graph` to `path` via a temp file + atomic rename.
    fn store(&self, path: &Path, seed: u64, divisor: u32, graph: &Graph) -> io::Result<()> {
        let bytes = encode(seed, divisor, graph);
        // Temp name unique per process *and* per call, so concurrent
        // writers (shard processes or --jobs threads racing on the same
        // entry) never interleave writes; rename is atomic on POSIX.
        let tmp = unique_tmp_path(path);
        let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            // Never leak a tmp file: a partial write or failed rename
            // leaves it behind otherwise.
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// A whole cache entry: header, then the edge array as raw little-endian
/// bytes in CSR order, with the checksum patched in last.
fn encode(seed: u64, divisor: u32, graph: &Graph) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + graph.edges().len() * EDGE_BYTES);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&divisor.to_le_bytes());
    bytes.extend_from_slice(&graph.num_vertices().to_le_bytes());
    bytes.extend_from_slice(&graph.num_edges().to_le_bytes());
    bytes.extend_from_slice(&[0; 8]);
    for e in graph.edges() {
        bytes.extend_from_slice(&e.src.to_le_bytes());
        bytes.extend_from_slice(&e.dst.to_le_bytes());
        bytes.extend_from_slice(&e.weight.to_bits().to_le_bytes());
    }
    let checksum = checksum(&bytes);
    bytes[CHECKSUM_AT..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// FNV-1a over every header field after the magic, then the payload —
/// everything in the entry except the magic and the checksum itself.
/// Callers guarantee `bytes.len() >= HEADER_BYTES`.
fn checksum(bytes: &[u8]) -> u64 {
    fnv1a_extend(
        fnv1a_extend(FNV_OFFSET, &bytes[MAGIC.len()..CHECKSUM_AT]),
        &bytes[HEADER_BYTES..],
    )
}

/// Validate and decode a cache entry; `None` means "treat as a miss".
fn decode(bytes: &[u8], want_seed: u64, want_divisor: u32) -> Option<Graph> {
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC {
        return None;
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    if u32_at(8) != CACHE_FORMAT_VERSION || u64_at(12) != want_seed || u32_at(20) != want_divisor {
        return None;
    }
    let num_vertices = u32_at(24);
    let num_edges = u64_at(28);
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() as u64 != num_edges.checked_mul(EDGE_BYTES as u64)?
        || checksum(bytes) != u64_at(CHECKSUM_AT)
    {
        return None;
    }
    let mut edges = Vec::with_capacity(num_edges as usize);
    for chunk in payload.chunks_exact(EDGE_BYTES) {
        let src = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
        let dst = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        if src >= num_vertices || dst >= num_vertices {
            return None;
        }
        edges.push(Edge {
            src,
            dst,
            weight: f32::from_bits(u32::from_le_bytes(chunk[8..12].try_into().unwrap())),
        });
    }
    Some(Graph::from_edges(num_vertices, edges))
}

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a hash over `bytes` — a cheap,
/// dependency-free corruption check.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::DetRng;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dvm-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Published FNV-1a test vectors.
        let fnv1a = |bytes: &[u8]| fnv1a_extend(FNV_OFFSET, bytes);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Hashing in pieces equals hashing the concatenation.
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn decode_rejects_truncation_and_bit_flips() {
        let dir = scratch_dir("flip");
        let cache = DatasetCache::new(&dir).unwrap();
        let graph = cache.get_or_generate(Dataset::Flickr, 1024);
        let path = cache.entry_path(Dataset::Flickr, 1024);
        let bytes = std::fs::read(&path).unwrap();
        assert!(decode(&bytes, Dataset::Flickr.seed(), 1024).is_some());
        // Truncated payload.
        assert!(decode(&bytes[..bytes.len() - 1], Dataset::Flickr.seed(), 1024).is_none());
        // A single flipped payload bit fails the checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(decode(&corrupt, Dataset::Flickr.seed(), 1024).is_none());
        // Wrong key.
        assert!(decode(&bytes, Dataset::Flickr.seed() ^ 1, 1024).is_none());
        assert!(decode(&bytes, Dataset::Flickr.seed(), 512).is_none());
        drop(graph);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_header_bit_and_sampled_payload_bits_are_checked() {
        // Regression test: the checksum used to cover the payload only,
        // so a flipped vertex-count bit (byte 24) decoded as a graph
        // with 1025 vertices instead of 1024.
        const SEED: u64 = 0xC5_F11B;
        const PAYLOAD_SAMPLES: usize = 256;
        let dir = scratch_dir("headerflip");
        let cache = DatasetCache::new(&dir).unwrap();
        cache.get_or_generate(Dataset::Flickr, 1024);
        let bytes = std::fs::read(cache.entry_path(Dataset::Flickr, 1024)).unwrap();
        let seed = Dataset::Flickr.seed();
        assert!(decode(&bytes, seed, 1024).is_some());
        let flipped_decodes = |bit: usize| {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            decode(&corrupt, seed, 1024).is_some()
        };
        for bit in 0..HEADER_BYTES * 8 {
            assert!(
                !flipped_decodes(bit),
                "header bit {bit} flipped and decoded"
            );
        }
        let mut rng = DetRng::new(SEED);
        let payload_bits = ((bytes.len() - HEADER_BYTES) * 8) as u64;
        for case in 0..PAYLOAD_SAMPLES {
            let bit = HEADER_BYTES * 8 + rng.below(payload_bits) as usize;
            assert!(
                !flipped_decodes(bit),
                "seed {SEED:#x} case {case}: payload bit {bit} flipped and decoded"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_tmp_paths_never_collide() {
        let path = Path::new("/cache/FR_div4_v2.csr");
        let a = unique_tmp_path(path);
        let b = unique_tmp_path(path);
        assert_ne!(a, b);
        for tmp in [&a, &b] {
            let ext = tmp.extension().unwrap().to_str().unwrap();
            assert!(ext.starts_with("tmp"), "tmp extension, got {ext}");
        }
    }

    #[test]
    fn store_then_decode_round_trips() {
        let dir = scratch_dir("roundtrip");
        let cache = DatasetCache::new(&dir).unwrap();
        let generated = Dataset::Netflix.generate(1024);
        let loaded = cache.get_or_generate(Dataset::Netflix, 1024);
        assert_eq!(generated, loaded);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.get_or_generate(Dataset::Netflix, 1024), generated);
        assert_eq!(cache.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
