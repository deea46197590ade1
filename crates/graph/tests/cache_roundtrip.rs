//! The dataset cache's contract: a hit is indistinguishable from
//! regeneration, and any damaged or stale entry silently falls back to
//! the generator (and is repaired on disk).

use dvm_graph::{Dataset, DatasetCache};
use dvm_sim::DetRng;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dvm-cache-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn hit_equals_regeneration_across_cache_instances() {
    let dir = scratch_dir("hit");
    let expected = Dataset::Flickr.generate(1024);

    // First instance populates the entry.
    let cache = DatasetCache::new(&dir).unwrap();
    assert_eq!(cache.get_or_generate(Dataset::Flickr, 1024), expected);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // A fresh instance (fresh process, in real use) loads it from disk.
    let reopened = DatasetCache::new(&dir).unwrap();
    assert_eq!(reopened.get_or_generate(Dataset::Flickr, 1024), expected);
    assert_eq!((reopened.hits(), reopened.misses()), (1, 0));
    assert_eq!(reopened.rejected(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_divisors_are_distinct_entries() {
    let dir = scratch_dir("divisors");
    let cache = DatasetCache::new(&dir).unwrap();
    let big = cache.get_or_generate(Dataset::Bip1, 512);
    let small = cache.get_or_generate(Dataset::Bip1, 1024);
    assert_ne!(big, small);
    assert_eq!(cache.misses(), 2);
    // Both entries now hit independently.
    assert_eq!(cache.get_or_generate(Dataset::Bip1, 512), big);
    assert_eq!(cache.get_or_generate(Dataset::Bip1, 1024), small);
    assert_eq!(cache.hits(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_falls_back_and_is_repaired() {
    let dir = scratch_dir("corrupt");
    let expected = Dataset::Rmat24.generate(1024);

    let cache = DatasetCache::new(&dir).unwrap();
    cache.get_or_generate(Dataset::Rmat24, 1024);
    let path = cache.entry_path(Dataset::Rmat24, 1024);

    // Flip one payload byte: the checksum must reject the entry.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let reopened = DatasetCache::new(&dir).unwrap();
    assert_eq!(reopened.get_or_generate(Dataset::Rmat24, 1024), expected);
    assert_eq!(reopened.rejected(), 1);
    assert_eq!(reopened.misses(), 1);

    // The bad entry was rewritten; the next lookup is a clean hit.
    assert_eq!(reopened.get_or_generate(Dataset::Rmat24, 1024), expected);
    assert_eq!(reopened.hits(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_on_one_entry_never_publish_a_torn_file() {
    // Regression test for the tmp-name race: tmp files used to be
    // unique per *process* only, so two threads storing the same entry
    // interleaved writes on one tmp path and could rename a torn file
    // into place. Hammer a single entry from many threads, forcing
    // repeated concurrent stores by deleting it between lookups; every
    // served graph must be the generated one and no load may ever be
    // rejected (a rejection means a torn entry reached the rename).
    let dir = scratch_dir("hammer");
    let cache = DatasetCache::new(&dir).unwrap();
    let expected = Dataset::Flickr.generate(2048);
    let path = cache.entry_path(Dataset::Flickr, 2048);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..6 {
                    let _ = std::fs::remove_file(&path);
                    assert_eq!(cache.get_or_generate(Dataset::Flickr, 2048), expected);
                }
            });
        }
    });
    assert_eq!(cache.rejected(), 0, "a torn entry was renamed into place");
    // The winning rename left a complete, loadable entry behind.
    let reopened = DatasetCache::new(&dir).unwrap();
    assert_eq!(reopened.get_or_generate(Dataset::Flickr, 2048), expected);
    assert_eq!((reopened.hits(), reopened.rejected()), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_store_cleans_up_its_tmp_file() {
    // A store whose rename fails (here: the entry path is a directory)
    // must remove its tmp file instead of leaking it.
    let dir = scratch_dir("tmpleak");
    let cache = DatasetCache::new(&dir).unwrap();
    let path = cache.entry_path(Dataset::Flickr, 2048);
    std::fs::create_dir_all(&path).unwrap();
    let expected = Dataset::Flickr.generate(2048);
    assert_eq!(cache.get_or_generate(Dataset::Flickr, 2048), expected);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert_eq!(leftovers, Vec::<String>::new(), "tmp files leaked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_file_falls_back_cleanly() {
    let dir = scratch_dir("garbage");
    let cache = DatasetCache::new(&dir).unwrap();
    let path = cache.entry_path(Dataset::Wikipedia, 1024);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, b"not a cache entry").unwrap();
    let expected = Dataset::Wikipedia.generate(1024);
    assert_eq!(cache.get_or_generate(Dataset::Wikipedia, 1024), expected);
    assert_eq!(cache.rejected(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_entries_always_regenerate_the_same_graph() {
    // Fuzz the DVMGCSR reader through the public path: every truncation
    // inside the header, then seeded byte replace/insert/delete cases.
    // Each damaged entry goes to disk and `get_or_generate` must serve
    // the generated graph without panicking.
    const SEED: u64 = 0xD5_6C5A;
    const CASES: usize = 96;
    const HEADER_BYTES: usize = 44;
    let dir = scratch_dir("fuzz");
    let cache = DatasetCache::new(&dir).unwrap();
    let expected = Dataset::Flickr.generate(1024);
    assert_eq!(cache.get_or_generate(Dataset::Flickr, 1024), expected);
    let path = cache.entry_path(Dataset::Flickr, 1024);
    let entry = std::fs::read(&path).unwrap();
    let serves_expected = |damaged: &[u8], case: &str| {
        std::fs::write(&path, damaged).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_generate(Dataset::Flickr, 1024) == expected
        }));
        let served = outcome.unwrap_or_else(|_| panic!("seed {SEED:#x} {case}: reader panicked"));
        assert!(served, "seed {SEED:#x} {case}: served a different graph");
    };
    for cut in 0..=HEADER_BYTES {
        serves_expected(&entry[..cut], &format!("truncated at {cut}"));
    }
    let mut rng = DetRng::new(SEED);
    for case in 0..CASES {
        let mut bytes = entry.clone();
        for _ in 0..=rng.below(3) {
            // Aim half the edits at the header, where a single bad field
            // used to matter most.
            let span = if rng.chance(0.5) {
                HEADER_BYTES
            } else {
                bytes.len()
            };
            let at = rng.below(span as u64) as usize;
            let byte = rng.below(256) as u8;
            match rng.below(3) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => drop(bytes.remove(at)),
            }
        }
        serves_expected(&bytes, &format!("case {case}"));
    }
    assert_eq!(
        cache.hits() + cache.misses(),
        (HEADER_BYTES + 2 + CASES) as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}
