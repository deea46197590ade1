//! The multi-process sweep runner.
//!
//! A bench binary invoked with `--shard I/N` is a **worker**: it runs the
//! round-robin slice of the grid ([`SweepSpec::shard`]), writes a
//! *fragment* — raw per-unit results keyed by global grid index — and
//! exits. Fragments reach a merging process in one of two ways: a
//! `--farm HOST:PORT` run receives them from `farmworker`s over TCP, and
//! `--merge-dir DIR` reads fragment files copied from other machines.
//! Either way the merger reassembles the results **in spec order** and
//! runs the ordinary formatting path exactly once. Because formatting
//! consumes the same values a single-process run would produce (integers
//! exactly, floats through the shortest-representation render and
//! correctly-rounded parse), the merged text table and `--json` document
//! are byte-identical to a `--jobs 1` run by construction.
//!
//! Parallelism on one host is `--jobs N` threads, which run the same
//! grid at least as fast as N local worker processes (DESIGN.md, "Why
//! local parallelism is threads").
//!
//! Farm workers receive the submitting process's cache flags verbatim
//! (see [`BenchArgs::farm_argv`]), so workers on one host share its
//! cache directories. That is safe because both caches publish entries
//! by atomic rename and treat any unreadable entry as a miss: a worker
//! never loads a torn entry, and caches never change sweep output bytes.
//!
//! Reconstructed [`GraphRunReport`]s carry only the fields
//! [`report_json`] serializes; `engine_cycles`, `walker_cycles` and the
//! latency histogram come back empty. No formatting path reads them, and
//! re-serializing a reconstructed report yields the bytes it was parsed
//! from.

use crate::{
    pair_label, parse, report_json, validate_header, BenchArgs, Json, JsonDoc, Shard, ShardRole,
};
use dvm_core::{
    parallel_map_ordered, CellReports, GraphRunReport, RunResult, SchemeId, SweepProgress,
    SweepRunner, SweepSpec, Workload,
};
use dvm_pagetable::SizeReport;
use dvm_sim::Histogram;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-unit result that can cross a process boundary through a shard
/// fragment and come back *value-identical*: `from_json(to_json(x))`
/// reproduces every bit the figure formatters read.
pub trait ShardValue: Sized {
    /// Serialize for a fragment.
    fn to_json(&self) -> Json;
    /// Deserialize from a fragment.
    ///
    /// # Errors
    ///
    /// Describes the first shape or type mismatch.
    fn from_json(value: &Json) -> Result<Self, String>;
}

impl ShardValue for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("expected a number, got {value}"))
    }
}

impl ShardValue for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_u64()
            .ok_or_else(|| format!("expected an integer, got {value}"))
    }
}

impl<const N: usize> ShardValue for [u64; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&v| Json::UInt(v)).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        array_from_json(value, |v| {
            v.as_u64()
                .ok_or_else(|| format!("expected an integer, got {v}"))
        })
    }
}

impl<const N: usize> ShardValue for [f64; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&v| Json::Float(v)).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        array_from_json(value, |v| {
            v.as_f64()
                .ok_or_else(|| format!("expected a number, got {v}"))
        })
    }
}

fn array_from_json<T: Copy + Default, const N: usize>(
    value: &Json,
    element: impl Fn(&Json) -> Result<T, String>,
) -> Result<[T; N], String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("expected an array, got {value}"))?;
    if arr.len() != N {
        return Err(format!("expected {N} elements, got {}", arr.len()));
    }
    let mut out = [T::default(); N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = element(item)?;
    }
    Ok(out)
}

fn size_report_json(r: &SizeReport) -> Json {
    Json::obj([
        ("table_frames", r.table_frames.to_json()),
        ("present_entries", r.present_entries.to_json()),
        ("l1_pte_count", Json::UInt(r.l1_pte_count)),
        ("pe_entries", r.pe_entries.to_json()),
        ("huge_leaf_entries", Json::UInt(r.huge_leaf_entries)),
    ])
}

fn size_report_from_json(value: &Json) -> Result<SizeReport, String> {
    Ok(SizeReport {
        table_frames: ShardValue::from_json(
            value
                .get("table_frames")
                .ok_or("missing field 'table_frames'")?,
        )?,
        present_entries: ShardValue::from_json(
            value
                .get("present_entries")
                .ok_or("missing field 'present_entries'")?,
        )?,
        l1_pte_count: value.expect_u64("l1_pte_count")?,
        pe_entries: ShardValue::from_json(
            value
                .get("pe_entries")
                .ok_or("missing field 'pe_entries'")?,
        )?,
        huge_leaf_entries: value.expect_u64("huge_leaf_entries")?,
    })
}

impl ShardValue for dvm_core::PageTableStudy {
    fn to_json(&self) -> Json {
        Json::obj([
            ("conventional", size_report_json(&self.conventional)),
            ("with_pes", size_report_json(&self.with_pes)),
            ("heap_bytes", Json::UInt(self.heap_bytes)),
        ])
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Self {
            conventional: size_report_from_json(
                value
                    .get("conventional")
                    .ok_or("missing field 'conventional'")?,
            )?,
            with_pes: size_report_from_json(
                value.get("with_pes").ok_or("missing field 'with_pes'")?,
            )?,
            heap_bytes: value.expect_u64("heap_bytes")?,
        })
    }
}

/// A churn unit's whole trajectory crosses the fragment boundary as an
/// array of per-epoch counter objects. Only integers are carried —
/// derived rates are computed at format time by the merging process, so no
/// float round-trip (or 0/0 rate) can perturb merged output.
impl ShardValue for Vec<dvm_core::ChurnEpoch> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(churn_epoch_json).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let arr = value
            .as_arr()
            .ok_or_else(|| format!("expected an epoch array, got {value}"))?;
        arr.iter()
            .enumerate()
            .map(|(i, e)| churn_epoch_from_json(e).map_err(|err| format!("epoch {i}: {err}")))
            .collect()
    }
}

fn churn_epoch_json(e: &dvm_core::ChurnEpoch) -> Json {
    Json::obj([
        ("epoch", Json::UInt(u64::from(e.epoch))),
        ("live_procs", Json::UInt(e.live_procs)),
        ("identity_maps", Json::UInt(e.identity_maps)),
        ("identity_fallbacks", Json::UInt(e.identity_fallbacks)),
        (
            "identity_bytes_requested",
            Json::UInt(e.identity_bytes_requested),
        ),
        ("identity_bytes_padded", Json::UInt(e.identity_bytes_padded)),
        ("demand_bytes", Json::UInt(e.demand_bytes)),
        ("cow_breaks", Json::UInt(e.cow_breaks)),
        ("oom_events", Json::UInt(e.oom_events)),
        ("free_frames", Json::UInt(e.free_frames)),
        ("free_runs", Json::UInt(e.free_runs)),
        ("largest_run", Json::UInt(e.largest_run)),
        ("sub_granule_runs", Json::UInt(e.sub_granule_runs)),
    ])
}

fn churn_epoch_from_json(value: &Json) -> Result<dvm_core::ChurnEpoch, String> {
    Ok(dvm_core::ChurnEpoch {
        epoch: u32::try_from(value.expect_u64("epoch")?)
            .map_err(|_| "epoch out of range".to_string())?,
        live_procs: value.expect_u64("live_procs")?,
        identity_maps: value.expect_u64("identity_maps")?,
        identity_fallbacks: value.expect_u64("identity_fallbacks")?,
        identity_bytes_requested: value.expect_u64("identity_bytes_requested")?,
        identity_bytes_padded: value.expect_u64("identity_bytes_padded")?,
        demand_bytes: value.expect_u64("demand_bytes")?,
        cow_breaks: value.expect_u64("cow_breaks")?,
        oom_events: value.expect_u64("oom_events")?,
        free_frames: value.expect_u64("free_frames")?,
        free_runs: value.expect_u64("free_runs")?,
        largest_run: value.expect_u64("largest_run")?,
        sub_granule_runs: value.expect_u64("sub_granule_runs")?,
    })
}

/// Rebuild a [`GraphRunReport`] from its [`report_json`] serialization,
/// in the context of the cell (`mmu`, `workload`) the merging process's own
/// spec says the unit belongs to — the names stored in the fragment are
/// cross-checked against that context.
pub(crate) fn report_from_json(
    obj: &Json,
    mmu: SchemeId,
    workload: &Workload,
) -> Result<GraphRunReport, String> {
    let found_mmu = obj.expect_str("mmu")?;
    if found_mmu != mmu.name() {
        return Err(format!("scheme '{found_mmu}' != expected '{}'", mmu.name()));
    }
    let found_workload = obj.expect_str("workload")?;
    if found_workload != workload.name() {
        return Err(format!(
            "workload '{found_workload}' != expected '{}'",
            workload.name()
        ));
    }
    let hit_miss = |key: &str| -> Result<Option<(u64, u64)>, String> {
        match obj.get(key) {
            None => Err(format!("missing field '{key}'")),
            Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some((v.expect_u64("hits")?, v.expect_u64("misses")?))),
        }
    };
    let cycles = obj.expect_u64("cycles")?;
    Ok(GraphRunReport {
        mmu,
        workload: workload.name(),
        cycles,
        run: RunResult {
            cycles,
            engine_cycles: Vec::new(),
            edges_processed: obj.expect_u64("edges_processed")?,
            iterations: u32::try_from(obj.expect_u64("iterations")?)
                .map_err(|_| "iterations out of range".to_string())?,
            walker_cycles: 0,
            latency_hist: Histogram::new("latency"),
        },
        accesses: obj.expect_u64("accesses")?,
        tlb: hit_miss("tlb")?,
        ptc: hit_miss("ptc")?,
        bitmap_cache: hit_miss("bitmap_cache")?,
        walk_mem_refs: obj.expect_u64("walk_mem_refs")?,
        identity_validations: obj.expect_u64("identity_validations")?,
        fallback_translations: obj.expect_u64("fallback_translations")?,
        preload_squashes: obj.expect_u64("preload_squashes")?,
        mm_energy_pj: obj.expect_f64("mm_energy_pj")?,
        dram_accesses: obj.expect_u64("dram_accesses")?,
        heap_bytes: obj.expect_u64("heap_bytes")?,
    })
}

/// Canonical fragment file name: `<experiment>_shard<I>of<N>.json`.
pub fn fragment_name(experiment: &str, index: usize, count: usize) -> String {
    format!("{experiment}_shard{index}of{count}.json")
}

fn fragment_doc(
    experiment: &str,
    scale: &str,
    shard: Shard,
    total_units: usize,
    units: Vec<(usize, String, Json)>,
) -> Json {
    JsonDoc::new(experiment)
        .field("kind", Json::Str("shard-fragment".to_string()))
        .field("scale", Json::Str(scale.to_string()))
        .field("shard", Json::UInt(shard.index as u64))
        .field("shards", Json::UInt(shard.count as u64))
        .field("total_units", Json::UInt(total_units as u64))
        .field(
            "units",
            Json::Arr(
                units
                    .into_iter()
                    .map(|(index, label, value)| {
                        Json::obj([
                            ("index", Json::UInt(index as u64)),
                            ("label", Json::Str(label)),
                            ("value", value),
                        ])
                    })
                    .collect(),
            ),
        )
        .build()
}

/// Validate and flatten fragments into one `(label, value)` slot per
/// global unit index. Every unit must appear exactly once, and the
/// fragments must form a complete, consistent shard set.
fn merge_fragments(
    fragments: &[Json],
    experiment: &str,
    scale: &str,
    total: usize,
) -> Result<Vec<(String, Json)>, String> {
    if fragments.is_empty() {
        return Err("no shard fragments found".to_string());
    }
    let mut slots: Vec<Option<(String, Json)>> = vec![None; total];
    let mut count = None;
    let mut shards_seen: Vec<u64> = Vec::new();
    for frag in fragments {
        validate_header(frag, Some(experiment))?;
        let kind = frag.expect_str("kind")?;
        if kind != "shard-fragment" {
            return Err(format!("document kind '{kind}' is not a shard fragment"));
        }
        let found_scale = frag.expect_str("scale")?;
        if found_scale != scale {
            return Err(format!(
                "fragment scale '{found_scale}' != run scale '{scale}'"
            ));
        }
        let found_total = frag.expect_u64("total_units")? as usize;
        if found_total != total {
            return Err(format!(
                "fragment grid has {found_total} units, this run has {total}"
            ));
        }
        let shards = frag.expect_u64("shards")?;
        let shard = frag.expect_u64("shard")?;
        if shard >= shards {
            return Err(format!("fragment claims shard {shard} of {shards}"));
        }
        match count {
            None => count = Some(shards),
            Some(c) if c == shards => {}
            Some(c) => {
                return Err(format!(
                    "fragments disagree on shard count ({c} vs {shards})"
                ))
            }
        }
        if shards_seen.contains(&shard) {
            return Err(format!("shard {shard} appears in two fragments"));
        }
        shards_seen.push(shard);
        for unit in frag.expect_arr("units")? {
            let index = unit.expect_u64("index")? as usize;
            if index >= total {
                return Err(format!("unit index {index} out of range ({total} units)"));
            }
            if slots[index].is_some() {
                return Err(format!("unit {index} appears twice"));
            }
            let label = unit.expect_str("label")?.to_string();
            let value = unit.get("value").ok_or("unit missing 'value'")?.clone();
            slots[index] = Some((label, value));
        }
    }
    let count = count.expect("at least one fragment") as usize;
    if shards_seen.len() != count {
        return Err(format!(
            "found {} of {count} shard fragments",
            shards_seen.len()
        ));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or_else(|| format!("unit {i} missing from every fragment")))
        .collect()
}

fn fail(context: &str, message: &str) -> ! {
    eprintln!("{context}: {message}");
    std::process::exit(1);
}

fn write_fragment(
    args: &BenchArgs,
    experiment: &str,
    shard: Shard,
    total: usize,
    units: Vec<(usize, String, Json)>,
) {
    let path = args.shard_out.clone().unwrap_or_else(|| {
        PathBuf::from("results/shards").join(fragment_name(experiment, shard.index, shard.count))
    });
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating fragment directory failed");
        }
    }
    let doc = fragment_doc(experiment, args.scale.name(), shard, total, units);
    std::fs::write(&path, format!("{doc}\n")).expect("writing shard fragment failed");
}

/// Submit the sweep to the `--farm` coordinator and return the parsed
/// fragments its workers produced, in slice order. The farm ships
/// fragment *bytes*; they are the same documents `--shard` workers
/// write, so the ordinary merge path downstream keeps the output
/// byte-identical to a serial run.
fn farm_fragments(
    args: &BenchArgs,
    experiment: &str,
    total_units: usize,
) -> Result<Vec<Json>, String> {
    let addr = args.farm.as_deref().expect("farm role has an address");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bin = exe
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("cannot name own executable")?
        .to_string();
    let req = dvm_farm::JobRequest {
        bin,
        experiment: experiment.to_string(),
        slices: args.shards.unwrap_or(0),
        total_units,
        argv: args.farm_argv(),
    };
    let progress = args.progress;
    let mut on_event = |event: dvm_farm::JobEvent<'_>| match event {
        dvm_farm::JobEvent::Progress { done, total, label } => {
            if progress {
                dvm_farm::emit_stderr_line(&format!("progress: {done}/{total} ({label})"));
            }
        }
        dvm_farm::JobEvent::Line(line) => dvm_farm::emit_stderr_line(line),
    };
    let fragments = dvm_farm::run_job(addr, &req, &mut on_event)?;
    fragments
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| format!("farm fragment {i} is not UTF-8"))?;
            parse(text).map_err(|e| format!("farm fragment {i} is not valid JSON: {e}"))
        })
        .collect()
}

fn read_fragment(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fragment {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("fragment {} is not valid JSON: {e}", path.display()))
}

/// Read every `<experiment>_shard*.json` under `dir`.
fn read_merge_dir(dir: &Path, experiment: &str) -> Result<Vec<Json>, String> {
    let prefix = format!("{experiment}_shard");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read --merge-dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no {prefix}*.json fragments in {}", dir.display()));
    }
    paths.iter().map(|path| read_fragment(path)).collect()
}

/// Run a graph sweep under this process's sharding role, returning
/// merged results in spec order. Workers write their fragment and exit
/// inside this call; the single/farm/merge roles return.
///
/// # Panics
///
/// Panics if any experiment fails — harness binaries have no recovery
/// path.
pub fn run_sharded_sweep(
    args: &BenchArgs,
    experiment: &str,
    schemes: &[SchemeId],
) -> Vec<CellReports> {
    let spec = args.sweep_spec(schemes);
    match args.role() {
        ShardRole::Single => {
            let cells = sweep_with_options(args, &spec, None);
            args.print_cache_counts();
            cells
        }
        ShardRole::Worker(shard) => {
            let sub = spec.shard(shard.index, shard.count);
            let cells = sweep_with_options(args, &sub, Some(shard));
            let units = spec
                .shard_indices(shard.index, shard.count)
                .zip(&cells)
                .map(|(index, cell)| {
                    (
                        index,
                        pair_label(&cell.workload, cell.dataset),
                        Json::Arr(cell.reports.iter().map(report_json).collect()),
                    )
                })
                .collect();
            write_fragment(args, experiment, shard, spec.cells.len(), units);
            args.print_cache_counts();
            std::process::exit(0);
        }
        ShardRole::Farm => {
            let fragments = farm_fragments(args, experiment, spec.unit_count())
                .unwrap_or_else(|e| fail(experiment, &e));
            cells_from_fragments(args, experiment, &spec, &fragments)
        }
        ShardRole::Merge => {
            let dir = args.merge_dir.as_deref().expect("merge role has a dir");
            let fragments =
                read_merge_dir(dir, experiment).unwrap_or_else(|e| fail(experiment, &e));
            cells_from_fragments(args, experiment, &spec, &fragments)
        }
    }
}

fn cells_from_fragments(
    args: &BenchArgs,
    experiment: &str,
    spec: &SweepSpec,
    fragments: &[Json],
) -> Vec<CellReports> {
    let slots = merge_fragments(fragments, experiment, args.scale.name(), spec.cells.len())
        .unwrap_or_else(|e| fail(experiment, &e));
    spec.cells
        .iter()
        .zip(slots)
        .map(|(cell, (label, value))| {
            let want = pair_label(&cell.workload, cell.dataset);
            if label != want {
                fail(
                    experiment,
                    &format!("unit label '{label}' != expected '{want}'"),
                );
            }
            let arr = value.as_arr().unwrap_or_else(|| {
                fail(experiment, &format!("unit '{label}' value is not an array"))
            });
            if arr.len() != cell.schemes.len() {
                fail(
                    experiment,
                    &format!(
                        "unit '{label}' has {} reports, expected {}",
                        arr.len(),
                        cell.schemes.len()
                    ),
                );
            }
            let reports = cell
                .schemes
                .iter()
                .zip(arr)
                .map(|(&mmu, obj)| {
                    report_from_json(obj, mmu, &cell.workload)
                        .unwrap_or_else(|e| fail(experiment, &format!("unit '{label}': {e}")))
                })
                .collect();
            CellReports {
                workload: cell.workload,
                dataset: cell.dataset,
                reports,
            }
        })
        .collect()
}

fn sweep_with_options(
    args: &BenchArgs,
    spec: &SweepSpec,
    shard: Option<Shard>,
) -> Vec<CellReports> {
    let tag = shard.map_or(String::new(), |s| format!("shard {s} "));
    let report = move |p: SweepProgress<'_>| {
        eprintln!(
            "progress: {tag}{}/{} ({}/{} {})",
            p.done, p.total, p.workload, p.dataset, p.scheme
        );
    };
    let mut runner = SweepRunner::new(spec).jobs(args.jobs);
    if let Some(cache) = args.cache.as_ref() {
        runner = runner.cache(cache);
    }
    if args.progress {
        runner = runner.progress(&report);
    }
    if let Some(reports) = args.reports.as_ref() {
        runner = runner.report_store(reports);
    }
    runner.run().expect("experiment failed")
}

/// Run an arbitrary shared-nothing grid — `compute(i)` for each of
/// `labels.len()` units — under this process's sharding role, returning
/// values in unit order. The non-sweep harnesses (Figure 10's CPU grid,
/// the table studies, the nested-translation study) all route through
/// here, so every binary honours `--shard`/`--merge-dir`/`--farm`
/// identically.
///
/// # Panics
///
/// Panics if `compute` panics; exits with a diagnostic on fragment
/// problems.
pub fn run_grid<T, F>(args: &BenchArgs, experiment: &str, labels: &[String], compute: F) -> Vec<T>
where
    T: ShardValue + Send,
    F: Fn(usize) -> T + Sync,
{
    match args.role() {
        ShardRole::Single => {
            let indices: Vec<usize> = (0..labels.len()).collect();
            let values = grid_indices(args, labels, &indices, &compute);
            args.print_cache_counts();
            values
        }
        ShardRole::Worker(shard) => {
            let indices: Vec<usize> = (shard.index..labels.len()).step_by(shard.count).collect();
            let values = grid_indices(args, labels, &indices, &compute);
            let units = indices
                .iter()
                .zip(&values)
                .map(|(&i, v)| (i, labels[i].clone(), v.to_json()))
                .collect();
            write_fragment(args, experiment, shard, labels.len(), units);
            args.print_cache_counts();
            std::process::exit(0);
        }
        ShardRole::Farm => {
            let fragments = farm_fragments(args, experiment, labels.len())
                .unwrap_or_else(|e| fail(experiment, &e));
            grid_from_fragments(args, experiment, labels, &fragments)
        }
        ShardRole::Merge => {
            let dir = args.merge_dir.as_deref().expect("merge role has a dir");
            let fragments =
                read_merge_dir(dir, experiment).unwrap_or_else(|e| fail(experiment, &e));
            grid_from_fragments(args, experiment, labels, &fragments)
        }
    }
}

fn grid_indices<T, F>(args: &BenchArgs, labels: &[String], indices: &[usize], compute: &F) -> Vec<T>
where
    T: ShardValue + Send,
    F: Fn(usize) -> T + Sync,
{
    let done = AtomicUsize::new(0);
    let total = indices.len();
    parallel_map_ordered(indices, args.jobs, |&i| {
        let value = compute(i);
        if args.progress {
            eprintln!(
                "progress: {}/{} ({})",
                done.fetch_add(1, Ordering::AcqRel) + 1,
                total,
                labels[i]
            );
        }
        value
    })
}

fn grid_from_fragments<T: ShardValue>(
    args: &BenchArgs,
    experiment: &str,
    labels: &[String],
    fragments: &[Json],
) -> Vec<T> {
    let slots = merge_fragments(fragments, experiment, args.scale.name(), labels.len())
        .unwrap_or_else(|e| fail(experiment, &e));
    labels
        .iter()
        .zip(slots)
        .map(|(want, (label, value))| {
            if &label != want {
                fail(
                    experiment,
                    &format!("unit label '{label}' != expected '{want}'"),
                );
            }
            T::from_json(&value)
                .unwrap_or_else(|e| fail(experiment, &format!("unit '{label}': {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_core::{page_table_study, run_graph_experiment, ExperimentConfig};
    use dvm_graph::{rmat, RmatParams};
    use dvm_sim::DetRng;

    fn labeled(units: Vec<(usize, &str, Json)>) -> Vec<(usize, String, Json)> {
        units
            .into_iter()
            .map(|(i, l, v)| (i, l.to_string(), v))
            .collect()
    }

    fn shard(index: usize, count: usize) -> Shard {
        Shard { index, count }
    }

    #[test]
    fn scalar_and_array_values_round_trip() {
        for v in [0.1f64, -2.5e-9, 3.0, 1e300] {
            assert_eq!(
                f64::from_json(&parse(&v.to_json().to_string()).unwrap()),
                Ok(v)
            );
        }
        assert_eq!(u64::from_json(&Json::UInt(u64::MAX)), Ok(u64::MAX));
        let a = [1u64, u64::MAX, 0];
        assert_eq!(
            <[u64; 3]>::from_json(&parse(&a.to_json().to_string()).unwrap()),
            Ok(a)
        );
        let f = [0.25f64, 3.0, -1.5];
        assert_eq!(
            <[f64; 3]>::from_json(&parse(&f.to_json().to_string()).unwrap()),
            Ok(f)
        );
        assert!(<[u64; 2]>::from_json(&a.to_json()).is_err());
        assert!(f64::from_json(&Json::Str("x".into())).is_err());
    }

    #[test]
    fn page_table_study_round_trips() {
        let graph = rmat(12, 4, RmatParams::default(), 5);
        let study = page_table_study(&graph, &Workload::PageRank { iterations: 1 }).unwrap();
        let round =
            dvm_core::PageTableStudy::from_json(&parse(&study.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(format!("{study:?}"), format!("{round:?}"));
    }

    #[test]
    fn graph_report_round_trips_through_fragment_form() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        for mmu in [
            SchemeId::CONV_4K,
            SchemeId::DVM_BM,
            SchemeId::DVM_PE_PLUS,
            SchemeId::IDEAL,
        ] {
            let report =
                run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
            let serialized = report_json(&report);
            let parsed = parse(&serialized.to_string()).unwrap();
            let round = report_from_json(&parsed, mmu, &workload).unwrap();
            // Re-serializing the reconstruction gives the same bytes the
            // formatters would have consumed.
            assert_eq!(report_json(&round), serialized);
            assert_eq!(round.tlb_miss_rate(), report.tlb_miss_rate());
            assert_eq!(round.cycles, report.cycles);
            assert_eq!(round.mm_energy_pj, report.mm_energy_pj);
        }
    }

    #[test]
    fn report_context_mismatch_is_rejected() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let doc = report_json(&report);
        assert!(report_from_json(&doc, SchemeId::DVM_BM, &workload).is_err());
        assert!(
            report_from_json(&doc, SchemeId::IDEAL, &Workload::PageRank { iterations: 1 }).is_err()
        );
    }

    #[test]
    fn fragments_merge_in_unit_order() {
        let f0 = fragment_doc(
            "t",
            "smoke",
            shard(0, 2),
            3,
            labeled(vec![(0, "a", Json::UInt(10)), (2, "c", Json::UInt(30))]),
        );
        let f1 = fragment_doc(
            "t",
            "smoke",
            shard(1, 2),
            3,
            labeled(vec![(1, "b", Json::UInt(20))]),
        );
        // Order of fragments must not matter.
        for frags in [[f0.clone(), f1.clone()], [f1, f0]] {
            let slots = merge_fragments(&frags, "t", "smoke", 3).unwrap();
            let labels: Vec<&str> = slots.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, ["a", "b", "c"]);
            assert_eq!(slots[2].1, Json::UInt(30));
        }
    }

    #[test]
    fn merge_rejects_inconsistent_fragment_sets() {
        let full = |units| fragment_doc("t", "smoke", shard(0, 1), 2, units);
        // Missing unit.
        let frag = full(labeled(vec![(0, "a", Json::UInt(1))]));
        assert!(merge_fragments(&[frag], "t", "smoke", 2)
            .unwrap_err()
            .contains("missing"));
        // Duplicate unit.
        let frag = full(labeled(vec![
            (0, "a", Json::UInt(1)),
            (0, "a", Json::UInt(1)),
        ]));
        assert!(merge_fragments(&[frag], "t", "smoke", 2)
            .unwrap_err()
            .contains("twice"));
        // Wrong experiment / scale / grid size.
        let frag = full(labeled(vec![
            (0, "a", Json::UInt(1)),
            (1, "b", Json::UInt(2)),
        ]));
        assert!(merge_fragments(std::slice::from_ref(&frag), "other", "smoke", 2).is_err());
        assert!(merge_fragments(std::slice::from_ref(&frag), "t", "quick", 2).is_err());
        assert!(merge_fragments(std::slice::from_ref(&frag), "t", "smoke", 5).is_err());
        // Incomplete shard set.
        let partial = fragment_doc(
            "t",
            "smoke",
            shard(0, 2),
            2,
            labeled(vec![(0, "a", Json::UInt(1)), (1, "b", Json::UInt(2))]),
        );
        assert!(merge_fragments(&[partial], "t", "smoke", 2)
            .unwrap_err()
            .contains("1 of 2"));
        // Empty set.
        assert!(merge_fragments(&[], "t", "smoke", 2).is_err());
    }

    /// Fragments reach a merging process from remote farm workers or as
    /// copied files, so every decoder they pass through — `parse`,
    /// `merge_fragments`, `report_from_json`, `ShardValue::from_json` —
    /// must answer truncated or mutated text with `Err`, never a panic.
    #[test]
    fn damaged_fragments_fail_cleanly() {
        const SEED: u64 = 0x5eed_f4a9;
        const CASES: usize = 3000;
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let mmu = SchemeId::DVM_PE_PLUS;
        let report =
            run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
        let graph_frag = fragment_doc(
            "fig2",
            "smoke",
            shard(0, 1),
            1,
            labeled(vec![(0, "BFS/FR", Json::Arr(vec![report_json(&report)]))]),
        )
        .to_string();
        let epochs: Vec<dvm_core::ChurnEpoch> = (0..3u32)
            .map(|epoch| dvm_core::ChurnEpoch {
                epoch,
                live_procs: 4,
                identity_maps: 10,
                identity_fallbacks: 2,
                identity_bytes_requested: 1 << 20,
                identity_bytes_padded: 2 << 20,
                demand_bytes: 4096,
                cow_breaks: 3,
                oom_events: 0,
                free_frames: 1000,
                free_runs: 7,
                largest_run: 512,
                sub_granule_runs: 1,
            })
            .collect();
        let churn_frag = fragment_doc(
            "churn",
            "smoke",
            shard(0, 1),
            1,
            labeled(vec![(0, "dvm-pe", epochs.to_json())]),
        )
        .to_string();

        let decode_graph = |text: &str| -> Result<(), String> {
            let slots = merge_fragments(&[parse(text)?], "fig2", "smoke", 1)?;
            for obj in slots[0].1.as_arr().ok_or("unit value is not an array")? {
                report_from_json(obj, mmu, &workload)?;
            }
            Ok(())
        };
        let decode_churn = |text: &str| -> Result<(), String> {
            let slots = merge_fragments(&[parse(text)?], "churn", "smoke", 1)?;
            Vec::<dvm_core::ChurnEpoch>::from_json(&slots[0].1).map(drop)
        };
        type Decode<'a> = &'a dyn Fn(&str) -> Result<(), String>;
        let decoders: [(&str, Decode); 2] =
            [(&graph_frag, &decode_graph), (&churn_frag, &decode_churn)];
        let survives = |decode: Decode, text: &str, case: &str| {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(text).is_ok()));
            outcome.unwrap_or_else(|_| panic!("seed {SEED:#x} {case}: decoder panicked"))
        };

        for (text, decode) in decoders {
            assert!(survives(decode, text, "intact"), "intact fragment rejected");
            // Every truncation of a fragment is an incomplete document.
            for cut in 0..text.len() {
                let case = format!("truncated at {cut}");
                assert!(!survives(decode, &text[..cut], &case), "{case} accepted");
            }
        }
        let mut rng = DetRng::new(SEED);
        for case in 0..CASES {
            let (text, decode) = decoders[case % decoders.len()];
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                // Printable ASCII keeps the text valid UTF-8.
                let byte = 0x20 + rng.below(0x5f) as u8;
                match rng.below(3) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => drop(bytes.remove(at)),
                }
            }
            let damaged = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            survives(decode, &damaged, &format!("case {case}"));
        }
    }

    #[test]
    fn fragment_documents_survive_render_and_parse() {
        let doc = fragment_doc(
            "fig2",
            "smoke",
            shard(1, 3),
            15,
            labeled(vec![(1, "BFS/Wiki", Json::Arr(vec![Json::Float(0.5)]))]),
        );
        let round = parse(&doc.to_string()).unwrap();
        assert_eq!(round, doc);
        assert_eq!(round.expect_str("kind"), Ok("shard-fragment"));
        assert_eq!(fragment_name("fig2", 1, 3), "fig2_shard1of3.json");
    }
}
