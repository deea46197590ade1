//! The sharding contract, end to end over real binaries: N shards run by
//! hand (`--shard I/N`) and merged later (`--merge-dir`) produce stdout
//! and `--json` output byte-identical to a serial run, and concurrent
//! workers filling one cold dataset cache never load a torn entry. The
//! same fragments shipped through a live farm are checked by the farm
//! crate's `farm_loopback` test.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-shard-merge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &str, args: &[&str]) -> Output {
    let output = Command::new(exe).args(args).output().expect("binary ran");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Run `count` `experiment` workers by hand — the multi-machine
/// workflow — all at once, each with `common` plus its `--shard I/N`
/// slice, writing fragments under their canonical names into `frags`.
/// Returns each worker's output; none of them prints to stdout.
fn run_manual_shards(
    exe: &str,
    experiment: &str,
    common: &[&str],
    count: usize,
    frags: &Path,
) -> Vec<Output> {
    let workers: Vec<Child> = (0..count)
        .map(|i| {
            let out = frags.join(format!("{experiment}_shard{i}of{count}.json"));
            Command::new(exe)
                .args(common)
                .args(["--shard", &format!("{i}/{count}"), "--shard-out"])
                .arg(out)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("worker spawned")
        })
        .collect();
    workers
        .into_iter()
        .map(|worker| {
            let output = worker.wait_with_output().expect("worker finished");
            assert!(
                output.status.success(),
                "{exe} worker failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(output.stdout.is_empty(), "worker stdout should be empty");
            output
        })
        .collect()
}

#[test]
fn fig2_manual_shards_merge_through_merge_dir() {
    let exe = env!("CARGO_BIN_EXE_fig2");
    let dir = scratch("fig2-manual");
    let serial_json = dir.join("serial.json");
    let serial = run(
        exe,
        &[
            "--scale",
            "smoke",
            "--jobs",
            "1",
            "--json",
            serial_json.to_str().unwrap(),
        ],
    );

    // Two and three shards (an even and an uneven split of the grid),
    // all workers sharing one on-disk dataset cache. The two-shard
    // workers race to fill it cold, so both store the same entries at
    // once; atomic renames mean neither may ever load a torn one.
    let cache = dir.join("cache");
    let common = ["--scale", "smoke", "--cache-dir", cache.to_str().unwrap()];
    for count in [2, 3] {
        let frags = dir.join(format!("frags{count}"));
        for worker in run_manual_shards(exe, "fig2", &common, count, &frags) {
            let stderr = String::from_utf8_lossy(&worker.stderr);
            assert!(
                stderr.contains("dataset-cache:"),
                "worker stderr should report cache stats"
            );
            assert!(
                stderr.contains("rejected=0"),
                "a worker loaded a torn entry: {stderr}"
            );
        }
        let merged_json = dir.join(format!("merged{count}.json"));
        let merged = run(
            exe,
            &[
                "--scale",
                "smoke",
                "--merge-dir",
                frags.to_str().unwrap(),
                "--json",
                merged_json.to_str().unwrap(),
            ],
        );
        assert_eq!(
            serial.stdout, merged.stdout,
            "stdout of {count} merged shards differs from serial"
        );
        assert_eq!(
            read(&serial_json),
            read(&merged_json),
            "--json of {count} merged shards differs from serial"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grid_binary_shards_match_serial_byte_for_byte() {
    // virt runs the non-sweep grid path (run_grid); it has no datasets,
    // so it is the cheapest end-to-end check of that runner.
    let exe = env!("CARGO_BIN_EXE_virt");
    let dir = scratch("virt");
    let serial_json = dir.join("serial.json");
    let serial = run(exe, &["--json", serial_json.to_str().unwrap()]);
    let frags = dir.join("frags");
    run_manual_shards(exe, "virt", &[], 2, &frags);
    let merged_json = dir.join("merged.json");
    let merged = run(
        exe,
        &[
            "--merge-dir",
            frags.to_str().unwrap(),
            "--json",
            merged_json.to_str().unwrap(),
        ],
    );
    assert_eq!(serial.stdout, merged.stdout);
    assert_eq!(read(&serial_json), read(&merged_json));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_cached_run_skips_generation() {
    let exe = env!("CARGO_BIN_EXE_table3");
    let dir = scratch("cache-counts");
    let cache = dir.join("cache");
    let args = [
        "--scale",
        "smoke",
        "--datasets",
        "FR,NF",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let first = run(exe, &args);
    let second = run(exe, &args);
    let stderr_of = |o: &Output| String::from_utf8_lossy(&o.stderr).to_string();
    assert!(
        stderr_of(&first).contains("hits=0 misses=2"),
        "first run should generate both datasets: {}",
        stderr_of(&first)
    );
    assert!(
        stderr_of(&second).contains("hits=2 misses=0"),
        "second run should hit the cache twice: {}",
        stderr_of(&second)
    );
    assert_eq!(first.stdout, second.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
