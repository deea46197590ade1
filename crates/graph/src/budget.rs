//! Byte-budgeted LRU eviction for the on-disk caches.
//!
//! Both on-disk caches — the dataset cache in this crate and the report
//! cache in `dvm-bench` — grow without bound by default, and a `full`
//! scale sweep writes multi-GiB entries. A [`CacheBudget`] bounds a
//! cache directory to `max_bytes` of *entry* files: after every store
//! the owning cache calls [`CacheBudget::enforce`], which unlinks the
//! least-recently-used complete entries until the directory fits.
//!
//! Recency is tracked in a small append-only index (`budget.log` inside
//! the cache directory). Every hit or store appends one `A` (access)
//! line; evictions append `E` lines so the eviction total survives
//! across processes; when the log grows past a threshold it is
//! compacted (tmp file + atomic rename) down to a `C` carry-over line
//! plus one `A` line per present entry.
//!
//! Concurrency model — the budget must be safe under the same
//! multi-process regime as the caches themselves (`--farm` workers
//! sharing one directory):
//!
//! * Appends are single `write` calls on an `O_APPEND` handle, so
//!   concurrent writers never interleave within a line.
//! * Eviction only ever unlinks *complete* entries (files matching the
//!   cache's entry suffix), never in-flight `*.tmp*` files. A reader
//!   holding an evicted file open keeps its data (POSIX unlink); a
//!   reader that opens after the unlink sees a miss and regenerates —
//!   the caches' existing fallback path, so output bytes never change.
//! * A compaction racing an append can drop that one access record;
//!   the entry then merely looks colder than it is. LRU order is
//!   advisory — losing it costs a regeneration, never correctness.
//!
//! Orphaned temp files (left by a crashed or killed writer) are swept
//! by [`CacheBudget::sweep_orphans`]: any `*.tmp*` file whose mtime
//! predates this process's start by more than a grace period is
//! removed. The grace period keeps a live writer's in-flight tmp —
//! whose mtime advances as it is written — out of reach.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The recency index's file name inside the cache directory. Does not
/// end in any cache's entry suffix, so scans never mistake it for an
/// entry.
pub const BUDGET_LOG: &str = "budget.log";

/// Compact the log once it exceeds this many bytes.
const LOG_COMPACT_BYTES: u64 = 64 * 1024;

/// A `*.tmp*` file is an orphan only if its mtime predates the budget's
/// creation by at least this many seconds — a live writer in another
/// process keeps its tmp's mtime fresh while `fs::write` runs.
const ORPHAN_GRACE_SECS: u64 = 60;

/// Seconds since the Unix epoch, saturating at 0 on pre-epoch clocks.
fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// A collision-free temp path next to `path`: unique per process (pid)
/// *and* per call (atomic counter), so two threads of one `--jobs N`
/// process storing the same entry never interleave writes on one tmp
/// file and rename a torn result into place.
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let token = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp{}-{token}", std::process::id()))
}

/// One complete entry as the budget sees it, for `--cache-stats` dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetEntry {
    /// Entry file name inside the cache directory.
    pub name: String,
    /// Size on disk.
    pub bytes: u64,
    /// Seconds since the file was last written.
    pub age_secs: u64,
    /// Seconds since the last recorded access (hit or store), if the
    /// index has one.
    pub last_use_secs: Option<u64>,
}

/// Recency state replayed from the on-disk index.
struct LogState {
    /// name -> (line rank of the latest access, its timestamp). Higher
    /// rank = more recently used.
    recency: HashMap<String, (u64, u64)>,
    /// Evictions recorded by every process that ever shared this
    /// directory (`E` lines plus compaction `C` carry-overs).
    evictions: u64,
}

/// LRU byte budget over one cache directory. See the module docs for
/// the concurrency contract.
#[derive(Debug)]
pub struct CacheBudget {
    dir: PathBuf,
    entry_suffix: &'static str,
    max_bytes: Option<u64>,
    epoch_secs: u64,
    evictions: AtomicU64,
    /// Serializes this process's log writes and eviction scans; cross-
    /// process safety comes from `O_APPEND` and atomic renames instead.
    lock: Mutex<()>,
}

impl CacheBudget {
    /// A budget over `dir`, treating files ending in `entry_suffix`
    /// (e.g. `".csr"`) as entries. `max_bytes: None` disables eviction
    /// but still records accesses, so a later budgeted run inherits
    /// real recency history.
    pub fn new(
        dir: impl Into<PathBuf>,
        entry_suffix: &'static str,
        max_bytes: Option<u64>,
    ) -> Self {
        Self {
            dir: dir.into(),
            entry_suffix,
            max_bytes,
            epoch_secs: unix_secs(),
            evictions: AtomicU64::new(0),
            lock: Mutex::new(()),
        }
    }

    /// The byte budget, if one is set.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Entries this process evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted by every process that ever shared this
    /// directory, replayed from the index.
    pub fn evictions_total(&self) -> u64 {
        self.read_log().evictions
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(BUDGET_LOG)
    }

    /// Append one line to the index. Errors are swallowed: the index is
    /// advisory, and a cache must never fail a run over bookkeeping.
    fn append_line(&self, line: &str) {
        let result = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.log_path())
            .and_then(|mut file| file.write_all(line.as_bytes()));
        let _ = result;
    }

    /// Record a hit or store of `name` (`bytes` on disk) and compact
    /// the index if it has grown past the threshold.
    pub fn record_access(&self, name: &str, bytes: u64) {
        let _guard = self.lock.lock().expect("budget lock poisoned");
        self.append_line(&format!("A {} {bytes} {name}\n", unix_secs()));
        let too_big = std::fs::metadata(self.log_path())
            .map(|m| m.len() > LOG_COMPACT_BYTES)
            .unwrap_or(false);
        if too_big {
            self.compact();
        }
    }

    /// Replay the index. Unparseable lines (torn tail after a crash,
    /// future extensions) are skipped.
    fn read_log(&self) -> LogState {
        let mut state = LogState {
            recency: HashMap::new(),
            evictions: 0,
        };
        let Ok(text) = std::fs::read_to_string(self.log_path()) else {
            return state;
        };
        for (rank, line) in text.lines().enumerate() {
            let mut fields = line.split_ascii_whitespace();
            match fields.next() {
                Some("A") => {
                    let ts = fields.next().and_then(|f| f.parse::<u64>().ok());
                    let _bytes = fields.next();
                    let name = fields.next();
                    if let (Some(ts), Some(name)) = (ts, name) {
                        state.recency.insert(name.to_string(), (rank as u64, ts));
                    }
                }
                Some("E") => state.evictions += 1,
                Some("C") => {
                    if let Some(n) = fields.next().and_then(|f| f.parse::<u64>().ok()) {
                        state.evictions += n;
                    }
                }
                _ => {}
            }
        }
        state
    }

    /// Rewrite the index as one `C` carry-over line plus one `A` line
    /// per present entry, in recency order (tmp file + atomic rename).
    /// Caller holds the lock.
    fn compact(&self) {
        let state = self.read_log();
        let mut lines = vec![format!("C {}\n", state.evictions)];
        let mut present: Vec<(u64, u64, String)> = self
            .scan_entries()
            .into_iter()
            .filter_map(|(name, bytes, _)| {
                state
                    .recency
                    .get(&name)
                    .map(|&(rank, ts)| (rank, ts, format!("A {ts} {bytes} {name}\n")))
            })
            .collect();
        present.sort();
        lines.extend(present.into_iter().map(|(_, _, line)| line));
        let log = self.log_path();
        let tmp = unique_tmp_path(&log);
        let result =
            std::fs::write(&tmp, lines.concat()).and_then(|()| std::fs::rename(&tmp, &log));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// `(name, bytes, mtime_secs)` of every complete entry on disk.
    fn scan_entries(&self) -> Vec<(String, u64, u64)> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        for entry in dir.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(self.entry_suffix) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_secs());
            entries.push((name, meta.len(), mtime));
        }
        entries
    }

    /// Every complete entry with its size, age and last recorded use,
    /// most recently used first — the `--cache-stats` view.
    pub fn entries(&self) -> Vec<BudgetEntry> {
        let state = self.read_log();
        let now = unix_secs();
        let mut scanned = self.scan_entries();
        // Most recent first: by log rank descending, unknowns last,
        // name as the deterministic tie-break.
        scanned.sort_by(|a, b| {
            let rank = |name: &str| state.recency.get(name).map(|&(rank, _)| rank);
            (rank(&b.0), &a.0).cmp(&(rank(&a.0), &b.0))
        });
        scanned
            .into_iter()
            .map(|(name, bytes, mtime)| BudgetEntry {
                last_use_secs: state
                    .recency
                    .get(&name)
                    .map(|&(_, ts)| now.saturating_sub(ts)),
                age_secs: now.saturating_sub(mtime),
                name,
                bytes,
            })
            .collect()
    }

    /// Total bytes of complete entries currently on disk.
    pub fn used_bytes(&self) -> u64 {
        self.scan_entries().iter().map(|&(_, bytes, _)| bytes).sum()
    }

    /// Evict least-recently-used entries until the directory fits the
    /// budget (no-op without one). Also sweeps orphaned temp files.
    /// Returns the number of entries evicted by this call.
    pub fn enforce(&self) -> u64 {
        let Some(max) = self.max_bytes else { return 0 };
        let _guard = self.lock.lock().expect("budget lock poisoned");
        self.sweep_orphans_locked();
        let mut entries = self.scan_entries();
        let mut total: u64 = entries.iter().map(|&(_, bytes, _)| bytes).sum();
        if total <= max {
            return 0;
        }
        let state = self.read_log();
        // Oldest first: entries the index has never seen rank before
        // everything it has, ordered by mtime then name.
        entries.sort_by(|a, b| {
            let rank = |name: &str| state.recency.get(name).map(|&(rank, _)| rank);
            (rank(&a.0), a.2, &a.0).cmp(&(rank(&b.0), b.2, &b.0))
        });
        let mut evicted = 0;
        for (name, bytes, _) in entries {
            if total <= max {
                break;
            }
            if std::fs::remove_file(self.dir.join(&name)).is_ok() {
                evicted += 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.append_line(&format!("E {} {name}\n", unix_secs()));
            }
            // A failed unlink means another process evicted it first;
            // either way those bytes are gone.
            total = total.saturating_sub(bytes);
        }
        evicted
    }

    /// Remove `*.tmp*` files abandoned by earlier runs (crashed or
    /// killed writers). Returns how many were removed.
    pub fn sweep_orphans(&self) -> usize {
        let _guard = self.lock.lock().expect("budget lock poisoned");
        self.sweep_orphans_locked()
    }

    fn sweep_orphans_locked(&self) -> usize {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in dir.filter_map(Result::ok) {
            let path = entry.path();
            let is_tmp = path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.starts_with("tmp"));
            if !is_tmp {
                continue;
            }
            let stale = entry
                .metadata()
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .is_some_and(|mtime| mtime.as_secs() + ORPHAN_GRACE_SECS < self.epoch_secs);
            if stale && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::FileTimes;
    use std::time::Duration;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dvm-budget-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(dir: &Path, name: &str, bytes: usize) {
        std::fs::write(dir.join(name), vec![0u8; bytes]).unwrap();
    }

    fn names(budget: &CacheBudget) -> Vec<String> {
        let mut names: Vec<String> = budget.entries().into_iter().map(|e| e.name).collect();
        names.sort();
        names
    }

    #[test]
    fn unique_tmp_paths_never_collide() {
        let path = Path::new("/cache/FR_div4_v1.csr");
        let a = unique_tmp_path(path);
        let b = unique_tmp_path(path);
        assert_ne!(a, b);
        for tmp in [&a, &b] {
            let ext = tmp.extension().unwrap().to_str().unwrap();
            assert!(ext.starts_with("tmp"), "tmp extension, got {ext}");
        }
    }

    #[test]
    fn eviction_is_lru_and_respects_the_budget() {
        let dir = scratch("lru");
        let budget = CacheBudget::new(&dir, ".csr", Some(250));
        for name in ["a.csr", "b.csr", "c.csr"] {
            put(&dir, name, 100);
            budget.record_access(name, 100);
        }
        // Re-touch the oldest so "b" becomes the LRU victim.
        budget.record_access("a.csr", 100);
        assert_eq!(budget.enforce(), 1);
        assert_eq!(names(&budget), ["a.csr", "c.csr"]);
        assert!(budget.used_bytes() <= 250);
        assert_eq!(budget.evictions(), 1);
        assert_eq!(budget.evictions_total(), 1);
        // Already under budget: nothing more to do.
        assert_eq!(budget.enforce(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unindexed_entries_evict_first_by_mtime() {
        let dir = scratch("unindexed");
        let budget = CacheBudget::new(&dir, ".csr", Some(150));
        put(&dir, "old.csr", 100);
        let old = std::fs::File::options()
            .write(true)
            .open(dir.join("old.csr"))
            .unwrap();
        old.set_times(FileTimes::new().set_modified(SystemTime::now() - Duration::from_secs(3600)))
            .unwrap();
        put(&dir, "used.csr", 100);
        budget.record_access("used.csr", 100);
        assert_eq!(budget.enforce(), 1);
        assert_eq!(names(&budget), ["used.csr"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enforce_ignores_foreign_files_and_no_budget_means_no_eviction() {
        let dir = scratch("foreign");
        put(&dir, "x.csr", 500);
        put(&dir, "keep.json", 500);
        let unbounded = CacheBudget::new(&dir, ".csr", None);
        unbounded.record_access("x.csr", 500);
        assert_eq!(unbounded.enforce(), 0);
        let capped = CacheBudget::new(&dir, ".csr", Some(100));
        assert_eq!(capped.enforce(), 1);
        // Only the matching entry was eligible; the other file and the
        // index survive even though the directory is over budget.
        assert!(dir.join("keep.json").exists());
        assert!(dir.join(BUDGET_LOG).exists());
        assert!(!dir.join("x.csr").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_entries_report_size_age_and_last_use() {
        let dir = scratch("stats");
        let budget = CacheBudget::new(&dir, ".csr", None);
        put(&dir, "seen.csr", 40);
        put(&dir, "unseen.csr", 60);
        budget.record_access("seen.csr", 40);
        let entries = budget.entries();
        assert_eq!(entries.len(), 2);
        // Most recently used first; the never-accessed entry trails.
        assert_eq!(entries[0].name, "seen.csr");
        assert_eq!(entries[0].bytes, 40);
        assert!(entries[0].last_use_secs.is_some());
        assert_eq!(entries[1].name, "unseen.csr");
        assert_eq!(entries[1].last_use_secs, None);
        assert_eq!(budget.used_bytes(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_sweep_removes_stale_tmp_but_keeps_live_ones() {
        let dir = scratch("orphans");
        let budget = CacheBudget::new(&dir, ".csr", None);
        put(&dir, "entry.csr", 10);
        put(&dir, "entry.tmp123-0", 10);
        put(&dir, "fresh.tmp456-1", 10);
        let stale = std::fs::File::options()
            .write(true)
            .open(dir.join("entry.tmp123-0"))
            .unwrap();
        stale
            .set_times(FileTimes::new().set_modified(SystemTime::now() - Duration::from_secs(7200)))
            .unwrap();
        assert_eq!(budget.sweep_orphans(), 1);
        assert!(!dir.join("entry.tmp123-0").exists());
        // A tmp younger than the grace period is an in-flight write.
        assert!(dir.join("fresh.tmp456-1").exists());
        assert!(dir.join("entry.csr").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_log_and_keeps_state() {
        let dir = scratch("compact");
        let budget = CacheBudget::new(&dir, ".csr", Some(50));
        put(&dir, "hot.csr", 10);
        put(&dir, "cold.csr", 60);
        budget.record_access("cold.csr", 60);
        budget.record_access("hot.csr", 10);
        assert_eq!(budget.enforce(), 1, "cold entry evicted over budget");
        // Hammer the index well past the compaction threshold.
        let line_guess = 40u64;
        for _ in 0..(LOG_COMPACT_BYTES / line_guess + 64) {
            budget.record_access("hot.csr", 10);
        }
        let log_len = std::fs::metadata(dir.join(BUDGET_LOG)).unwrap().len();
        assert!(
            log_len <= LOG_COMPACT_BYTES + 2 * line_guess,
            "log stayed bounded, got {log_len}"
        );
        // The carried-over eviction count and recency survive.
        assert_eq!(budget.evictions_total(), 1);
        let entries = budget.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "hot.csr");
        assert!(entries[0].last_use_secs.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_lines_are_skipped() {
        let dir = scratch("torn");
        std::fs::write(
            dir.join(BUDGET_LOG),
            "A 100 10 a.csr\nE 100\ngarbage line\nC notanumber\nA 200 20 b.cs",
        )
        .unwrap();
        let budget = CacheBudget::new(&dir, ".csr", None);
        put(&dir, "a.csr", 10);
        assert_eq!(budget.evictions_total(), 1);
        let entries = budget.entries();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].last_use_secs.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
