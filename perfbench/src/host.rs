//! The host a run measured on, its memory high-water mark, and the
//! order statistics every reported timing goes through.

use dvm_bench::Json;
use std::path::Path;
use std::process::Command;

/// Everything that tells two hosts apart. Timings from different
/// fingerprints are never compared.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// Read the fingerprint of this host and of the checkout at `root`.
    pub fn probe(root: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("-V")),
            // Only the checkout's own repository: git would otherwise
            // report whichever repository encloses a plain source tree.
            commit: if root.join(".git").exists() {
                command_line(
                    Command::new("git")
                        .arg("-C")
                        .arg(root)
                        .args(["rev-parse", "HEAD"]),
                )
            } else {
                "unknown".to_string()
            },
        }
    }

    pub fn to_json(&self, cache_hits: u64, cache_misses: u64) -> Json {
        Json::obj([
            ("nproc", Json::UInt(self.nproc as u64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("commit", Json::Str(self.commit.clone())),
            ("dataset_cache_hits", Json::UInt(cache_hits)),
            ("dataset_cache_misses", Json::UInt(cache_misses)),
        ])
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails.
fn command_line(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// This process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Median, minimum and maximum of a non-empty sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty sample: every caller measures at least once.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::Float(self.median)),
            ("min", Json::Float(self.min)),
            ("max", Json::Float(self.max)),
            ("n", Json::UInt(self.n as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_the_middle_of_odd_and_even_samples() {
        let odd = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max), (2.0, 1.0, 3.0));
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }
}
