//! On-disk memo of per-unit sweep reports.
//!
//! Figures 2, 8 and 9 sweep the *same* (workload × dataset × scheme)
//! grid — fig2 a 2-scheme subset, fig8 and fig9 the full 7-scheme set —
//! and each binary used to re-simulate every unit from scratch. A
//! [`ReportCache`] plugged into [`dvm_core::SweepRunner::report_store`]
//! records each unit's [`GraphRunReport`] as it completes and replays it
//! on the next request, so one simulation pass serves every figure that
//! shares the grid.
//!
//! Correctness rests on the same round-trip contract as the shard
//! fragments: entries hold exactly the [`report_json`] serialization the
//! formatters consume, and re-serializing a reconstructed report yields
//! the bytes it was parsed from (asserted by the fragment tests in
//! [`crate::shard`]). A cached run's output is therefore byte-identical
//! to an uncached one. Simulations are deterministic, so the *values*
//! are the runs' values — the cache only skips redundant replay.
//!
//! Entries are keyed by the full unit identity (workload with all its
//! parameters, dataset, shrink divisor, MMU scheme); the key is stored
//! inside the entry and cross-checked on load, so a filename collision
//! degrades to a miss, never a wrong report. An FNV-1a checksum of the
//! report's rendering rides beside it, so a damaged entry that still
//! parses is a miss too. File names cap the readable slug at
//! [`MAX_SLUG_CHARS`] — the FNV-1a hash plus the in-entry cross-check
//! carry identity — so an arbitrarily long parameter set can never
//! overflow the 255-byte file-name limit and silently disable the
//! cache. Writes go through a temp-file rename with a per-process *and*
//! per-call tmp name ([`dvm_graph::unique_tmp_path`]), so neither shard
//! workers nor `--jobs N` threads racing on one entry ever publish a
//! torn file. The directory is unbounded — entries are well under a
//! kilobyte each — and is meant to live for one `reproduce_all.sh`
//! invocation (the script clears it up front): entries do not try to
//! survive simulator changes.

use crate::shard::report_from_json;
use crate::{parse, report_json, validate_header, Json, JsonDoc};
use dvm_core::{GraphRunReport, ReportStore, UnitKey};
use dvm_graph::unique_tmp_path;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Longest readable slug embedded in an entry file name. With the 17
/// hash characters and the `.json` suffix the name stays well under
/// every mainstream filesystem's 255-byte limit.
pub const MAX_SLUG_CHARS: usize = 160;

/// Directory-backed store of per-unit sweep reports.
#[derive(Debug)]
pub struct ReportCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReportCache {
    /// Open (creating if needed) a report cache in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Units served from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Units that had to be simulated (no entry, or a stale/foreign one).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The canonical textual identity of a unit. Uses the `Debug` form
    /// of the workload so every parameter (PageRank iteration count, CF
    /// feature count, ...) is part of the key, and the scheme's
    /// *registry name* — never its registration index — so entries stay
    /// valid no matter what order schemes were registered in and an
    /// at-runtime registration can never alias a builtin's entries.
    fn key_string(key: &UnitKey<'_>) -> String {
        format!(
            "{:?}|{}|div{}|{}",
            key.workload,
            key.dataset.short_name(),
            key.divisor,
            key.mmu.name()
        )
    }

    /// The file name for a key text: a readable slug plus an FNV-1a
    /// hash of the exact key. The slug is lossy *and* truncated to
    /// [`MAX_SLUG_CHARS`] — identity rests on the hash and the in-entry
    /// key cross-check — so a workload with an arbitrarily long `Debug`
    /// form can never exceed the 255-byte file-name limit (which would
    /// make every store fail silently and the cache never hit).
    fn file_name_for(text: &str) -> String {
        let hash = fnv1a(text);
        let slug: String = text
            .chars()
            .take(MAX_SLUG_CHARS)
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{slug}-{hash:016x}.json")
    }

    /// Where the entry for `key` lives.
    pub fn entry_path(&self, key: &UnitKey<'_>) -> PathBuf {
        self.dir.join(Self::file_name_for(&Self::key_string(key)))
    }
}

impl ReportStore for ReportCache {
    fn load(&self, key: &UnitKey<'_>) -> Option<GraphRunReport> {
        let path = self.entry_path(key);
        let loaded = (|| {
            let text = std::fs::read_to_string(&path).ok()?;
            let doc = parse(&text).ok()?;
            validate_header(&doc, Some("report-cache")).ok()?;
            let report = doc.get("report")?;
            if doc.expect_str("kind") != Ok("unit-report")
                || doc.expect_str("key") != Ok(&Self::key_string(key))
                || doc.expect_str("checksum") != Ok(&report_checksum(report))
            {
                return None;
            }
            report_from_json(report, key.mmu, key.workload).ok()
        })();
        if loaded.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    fn store(&self, key: &UnitKey<'_>, report: &GraphRunReport) {
        let report = report_json(report);
        let doc = JsonDoc::new("report-cache")
            .field("kind", Json::Str("unit-report".to_string()))
            .field("key", Json::Str(Self::key_string(key)))
            .field("checksum", Json::Str(report_checksum(&report)))
            .field("report", report)
            .build();
        let path = self.entry_path(key);
        let text = format!("{doc}\n");
        // Write-then-rename so a concurrently reading worker never sees
        // a torn entry; the tmp name is unique per process and per call
        // so racing writers never share one, and a lost rename race
        // overwrites with identical content. Any failure removes the
        // tmp file instead of leaking it.
        let tmp = unique_tmp_path(&path);
        let written = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// 64-bit FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a hash of a report's rendering, as stored beside it. A
/// parsed report re-renders to the bytes it was parsed from, so a
/// damaged digit that still parses — `10773` read back as `710773` —
/// fails this check instead of replaying a wrong number.
fn report_checksum(report: &Json) -> String {
    format!("{:016x}", fnv1a(&report.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_core::{
        run_graph_experiment, Dataset, ExperimentConfig, SchemeId, SweepRunner, SweepSpec, Workload,
    };
    use dvm_graph::rmat;
    use dvm_sim::DetRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dvm-reportcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips_serialized_form() {
        let dir = tmp_dir("roundtrip");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, dvm_graph::RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        for mmu in [SchemeId::CONV_4K, SchemeId::DVM_PE_PLUS, SchemeId::IDEAL] {
            let report =
                run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
            let key = UnitKey {
                workload: &workload,
                dataset: Dataset::Rmat24,
                divisor: 999,
                mmu,
            };
            assert!(cache.load(&key).is_none(), "cold cache must miss");
            cache.store(&key, &report);
            let loaded = cache.load(&key).expect("stored entry loads");
            // The serialized form — everything the formatters read — is
            // identical; that is the byte-identity contract.
            assert_eq!(report_json(&loaded), report_json(&report));
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_keys_produce_capped_distinct_writable_names() {
        // Regression test for the file-name overflow: the slug used to
        // embed the full key text, so a long parameter set exceeded the
        // 255-byte name limit, every store failed silently and the
        // cache never hit. The slug is now capped; identity rides on
        // the hash plus the in-entry key cross-check.
        let long_a = "x".repeat(4000);
        let long_b = format!("{}y", "x".repeat(3999));
        let name_a = ReportCache::file_name_for(&long_a);
        let name_b = ReportCache::file_name_for(&long_b);
        assert!(
            name_a.len() <= 255,
            "name still overflows: {}",
            name_a.len()
        );
        assert_ne!(name_a, name_b, "hash must distinguish shared prefixes");
        // The capped name is actually storable on the real filesystem.
        let dir = tmp_dir("longname");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&name_a), "x").expect("capped name stores");
        // Short keys keep their full readable slug.
        let short = ReportCache::file_name_for("BFS|FR|div64|Ideal");
        assert!(short.starts_with("BFS_FR_div64_Ideal-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_entry_never_publish_a_torn_report() {
        // Regression test for the tmp-name race: tmp names used to be
        // unique per process only, so two --jobs threads storing the
        // same unit interleaved writes on one tmp path and could rename
        // a torn file into place. Every load must round-trip the exact
        // serialized form; a None (parse failure) means a torn entry.
        let dir = tmp_dir("hammer");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, dvm_graph::RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::IDEAL,
        };
        let expected = report_json(&report).to_string();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        cache.store(&key, &report);
                        let loaded = cache.load(&key).expect("complete entry always loads");
                        assert_eq!(report_json(&loaded).to_string(), expected);
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 0, "a torn entry was renamed into place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_load_as_misses_or_the_original() {
        // Fuzz the entry reader: every truncation, then seeded byte
        // replace/insert/delete cases. A damaged entry must load as a
        // miss or as a report serializing to the original bytes, and
        // no case may panic.
        const SEED: u64 = 0x2E_9C4C;
        const CASES: usize = 512;
        let dir = tmp_dir("fuzz");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, dvm_graph::RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::DVM_PE_PLUS),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::DVM_PE_PLUS,
        };
        cache.store(&key, &report);
        let path = cache.entry_path(&key);
        let entry = std::fs::read(&path).unwrap();
        let expected = report_json(&report);
        let check = |damaged: &[u8], case: &str| {
            std::fs::write(&path, damaged).unwrap();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.load(&key).map(|loaded| report_json(&loaded))
            }));
            let loaded = outcome.unwrap_or_else(|_| panic!("seed {SEED:#x} {case}: load panicked"));
            if let Some(json) = loaded {
                assert_eq!(
                    json, expected,
                    "seed {SEED:#x} {case}: loaded a different report"
                );
            }
        };
        for cut in 0..entry.len() {
            check(&entry[..cut], &format!("truncated at {cut}"));
        }
        let mut rng = DetRng::new(SEED);
        for case in 0..CASES {
            let mut bytes = entry.clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                let byte = rng.below(256) as u8;
                match rng.below(3) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => drop(bytes.remove(at)),
                }
            }
            check(&bytes, &format!("case {case}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_use_registry_names_not_positions() {
        // The on-disk identity must be the scheme's registered name so a
        // cache survives reordering/registration of schemes; an ordinal
        // (e.g. "SchemeId(4)") would silently alias entries across
        // registry layouts.
        let workload = Workload::Bfs { root: 0 };
        for mmu in SchemeId::all() {
            let key = UnitKey {
                workload: &workload,
                dataset: Dataset::Flickr,
                divisor: 64,
                mmu,
            };
            let text = ReportCache::key_string(&key);
            assert!(
                text.ends_with(&format!("|{}", mmu.name())),
                "key not name-based: {text}"
            );
            assert!(!text.contains("SchemeId"), "ordinal leaked into {text}");
        }
    }

    #[test]
    fn key_mismatch_degrades_to_miss() {
        let dir = tmp_dir("mismatch");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, dvm_graph::RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::IDEAL,
        };
        cache.store(&key, &report);
        // Same path contents, different expected key (divisor differs):
        // copy the entry onto the other key's path to force a collision.
        let other = UnitKey { divisor: 65, ..key };
        std::fs::copy(cache.entry_path(&key), cache.entry_path(&other)).unwrap();
        assert!(cache.load(&other).is_none(), "foreign entry must not load");
        // Distinct workload parameters key distinct entries.
        let rooted = Workload::Bfs { root: 7 };
        let rekeyed = UnitKey {
            workload: &rooted,
            ..key
        };
        assert_ne!(cache.entry_path(&key), cache.entry_path(&rekeyed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_reuses_cached_units_without_perturbing_results() {
        let dir = tmp_dir("sweep");
        let cache = ReportCache::new(&dir).unwrap();
        let spec = SweepSpec::for_pairs(
            [
                (Workload::Bfs { root: 0 }, Dataset::Flickr),
                (Workload::PageRank { iterations: 1 }, Dataset::Flickr),
            ],
            &[SchemeId::IDEAL, SchemeId::DVM_PE],
            |_| 1024,
        );
        let plain = SweepRunner::new(&spec).run().unwrap();
        let first = SweepRunner::new(&spec).report_store(&cache).run().unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
        let second = SweepRunner::new(&spec).report_store(&cache).run().unwrap();
        assert_eq!(cache.hits(), 4, "second sweep replays every unit");
        for (a, b) in plain.iter().zip(&second) {
            for (ra, rb) in a.reports.iter().zip(&b.reports) {
                assert_eq!(report_json(ra), report_json(rb));
            }
        }
        // A scheme the cache has not seen still simulates.
        let wider = SweepSpec::for_pairs(
            [(Workload::Bfs { root: 0 }, Dataset::Flickr)],
            &[SchemeId::IDEAL, SchemeId::DVM_BM],
            |_| 1024,
        );
        let mixed = SweepRunner::new(&wider).report_store(&cache).run().unwrap();
        assert_eq!(mixed[0].reports.len(), 2);
        assert_eq!(cache.hits(), 5);
        assert_eq!(cache.misses(), 5);
        drop(first);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
