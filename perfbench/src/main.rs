//! The repository's benchmark: host time of the simulator, measured from
//! outside the program by timing calls into each crate's public entry
//! points.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload xlate-graph|cf-vector|os-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets its workload up several times (set-up time is the median),
//! then runs the workload's units round-robin until `--seconds` have
//! passed, at least once each, checking every unit's output. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! every unit a second time composed from the layer calls with a span
//! around each, then the microprobes, and prints the per-layer metrics.
//! The last line of standard output is the result object; the host
//! fingerprint, every metric, per-unit samples and the spans go to a
//! sidecar under `perfbench/out/`. See `perfbench/README.md`.

mod check;
mod host;
mod probe;
mod trace;
mod units;

use check::{functional_work, Goldens, Reference, Work};
use dvm_bench::{Json, Scale};
use dvm_core::SchemeId;
use host::{Fingerprint, Summary};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use units::{scheme_key, Bench, Outcome, Unit};

const USAGE: &str = "usage: perfbench --workload xlate-graph|cf-vector|os-churn --seed N \
--seconds S --trace 0|1 [--scale quick|smoke] [--wrong-expectation]";

/// Set-up repetitions of the graph workloads (a warm load is ~0.25 s).
const GRAPH_SETUP_SAMPLES: usize = 5;
/// Set-up samples of `os-churn` (see `units::prepare`).
const CHURN_SETUP_SAMPLES: usize = 21;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    /// Expect one more processed edge than the first unit of each
    /// workload reports, so every graph unit fails its check: proves
    /// the check can fail.
    wrong_expectation: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Quick;
    let mut wrong_expectation = false;
    while let Some(flag) = argv.next() {
        if flag == "--wrong-expectation" {
            wrong_expectation = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            "--scale" => {
                scale = match Scale::from_name(&value) {
                    Some(s @ (Scale::Quick | Scale::Smoke)) => s,
                    _ => return Err(format!("--scale takes quick or smoke, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        wrong_expectation,
    })
}

/// Every figure a run measured, by name, with its unit.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn json(&self, names: impl IntoIterator<Item = String>) -> Json {
        Json::Obj(
            names
                .into_iter()
                .map(|name| {
                    let (value, unit) = self.0[&name];
                    let entry = Json::obj([
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]);
                    (name, entry)
                })
                .collect(),
        )
    }
}

/// What a run learned about one unit.
#[derive(Default, Clone)]
struct UnitRecord {
    untraced_s: Vec<f64>,
    /// Simulated work of one execution (the last that succeeded).
    work: u64,
    /// The first successful outcome, for the per-layer counters.
    first: Option<Outcome>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `json` on one line: its renderer indents, and escapes every newline
/// inside strings, so the raw newlines are all structural.
fn one_line(json: &Json) -> String {
    json.to_string().lines().map(str::trim_start).collect()
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

fn run(args: &Args) -> Result<(), String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("the benchmark sits inside the repository");
    // Graph inputs are the goldens' only at seed 0; `os-churn` runs the
    // golden churn scenario at every seed.
    let goldens = if args.scale == Scale::Quick && (args.seed == 0 || args.bench == Bench::OsChurn)
    {
        Some(Goldens::load(&root.join("results/golden"))?)
    } else {
        None
    };
    let mut tracer = args.trace.then(Tracer::new);
    let samples = match args.bench {
        Bench::OsChurn => CHURN_SETUP_SAMPLES,
        _ => GRAPH_SETUP_SAMPLES,
    };
    let prepared = units::prepare(
        args.bench,
        args.scale,
        args.seed,
        &bench_dir.join(".cache/datasets"),
        samples,
        tracer.as_mut(),
    )?;

    let units = &prepared.units;
    let mut records = vec![UnitRecord::default(); units.len()];
    let mut expected: HashMap<&'static str, Work> = HashMap::new();
    let mut references: HashMap<&'static str, Reference> = HashMap::new();
    let mut identity = (0u64, 0u64);
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < units.len() || Instant::now() < deadline {
        let (u, first_pass) = (i % units.len(), i < units.len());
        i += 1;
        let unit = &units[u];
        attempted += 1;
        let start = Instant::now();
        let outcome = units::run_untraced(unit, &prepared);
        records[u].untraced_s.push(start.elapsed().as_secs_f64());
        let mut errors = Vec::new();
        match outcome {
            Err(e) => errors.push(format!("error: {e}")),
            Ok(outcome) => {
                records[u].work = outcome.work();
                if let Some(goldens) = &goldens {
                    let checked = match unit {
                        Unit::Graph {
                            workload, dataset, ..
                        } => goldens
                            .check_report(&dvm_bench::pair_label(workload, *dataset), &outcome),
                        Unit::Churn { name, .. } => match &outcome {
                            Outcome::Churn(result) => goldens.check_churn(name, result),
                            Outcome::Graph(_) => Err("churn unit produced a graph report".into()),
                        },
                    };
                    errors.extend(checked.err());
                }
                let want = match unit {
                    Unit::Graph { workload, .. } => functional_work(&outcome).map(|got| {
                        *expected
                            .entry(workload.name())
                            .or_insert_with(|| (got.0 + u64::from(args.wrong_expectation), got.1))
                    }),
                    Unit::Churn { .. } => None,
                };
                errors.extend(check::check_invariants(&outcome, want).err());
                if let Some(tracer) = tracer.as_mut() {
                    errors.extend(
                        traced_unit(
                            unit,
                            u,
                            &prepared,
                            tracer,
                            first_pass,
                            &outcome,
                            &mut references,
                            &mut identity,
                        )
                        .err(),
                    );
                }
                records[u].first.get_or_insert(outcome);
            }
        }
        if !errors.is_empty() {
            failed += 1;
            let label = unit.label();
            failures.extend(errors.into_iter().map(|e| format!("{label}: {e}")));
        }
    }

    let mut metrics = Metrics::default();
    let wall_s: f64 = records.iter().map(|r| median(&r.untraced_s)).sum();
    let work: u64 = records.iter().map(|r| r.work).sum();
    metrics.set("wall_s", wall_s, "s");
    metrics.set("setup_s", median(&prepared.setup_samples), "s");
    metrics.set("sim_work_per_s", work as f64 / wall_s, "1/s");
    match args.bench {
        Bench::OsChurn => metrics.set("churn_epochs_per_s", work as f64 / wall_s, "1/s"),
        _ => metrics.set("sim_maccess_per_s", work as f64 / wall_s / 1e6, "M/s"),
    }
    metrics.set("failed_frac", failed as f64 / attempted as f64, "ratio");

    let mut probes = Vec::new();
    if let Some(tracer) = &tracer {
        layer_metrics(
            &mut metrics,
            args,
            &prepared,
            &records,
            tracer,
            identity,
            wall_s,
        );
        probes = probe::run_all(args.seed).map_err(|e| format!("microprobe failed: {e}"))?;
        for p in &probes {
            metrics.set(p.name.clone(), p.summary.median, p.unit);
        }
    }
    metrics.set("peak_rss_mb", host::peak_rss_mb(), "MB");

    let host = Fingerprint::probe(root).to_json(prepared.cache_hits, prepared.cache_misses);
    eprintln!("host: {}", one_line(&host));
    for (name, (value, unit)) in &metrics.0 {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    for f in &failures {
        eprintln!("FAILED {f}");
    }

    let printed: Vec<String> = if args.trace {
        probes
            .iter()
            .map(|p| p.name.clone())
            .chain(["os.identity_frac".to_string()])
            .collect()
    } else {
        ["wall_s", "setup_s", "sim_work_per_s"]
            .map(String::from)
            .to_vec()
    };
    let sidecar = Json::obj([
        ("workload", Json::Str(args.bench.name().to_string())),
        ("scale", Json::Str(args.scale.name().to_string())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host),
        ("metrics", metrics.json(metrics.0.keys().cloned())),
        (
            "units",
            Json::Arr(
                units
                    .iter()
                    .zip(&records)
                    .map(|(unit, r)| {
                        Json::obj([
                            ("label", Json::Str(unit.label())),
                            ("work", Json::UInt(r.work)),
                            (
                                "untraced_s",
                                Json::Arr(r.untraced_s.iter().map(|&s| Json::Float(s)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "probes",
            Json::Obj(
                probes
                    .iter()
                    .map(|p| (p.name.clone(), p.summary.to_json()))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("spans", tracer.as_ref().map_or(Json::Null, Tracer::to_json)),
    ]);
    let out_dir = bench_dir.join("out");
    let out_path = out_dir.join(format!(
        "{}-{}-seed{}-trace{}.json",
        args.bench.name(),
        args.scale.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&out_path, format!("{sidecar}\n")))
    {
        eprintln!("perfbench: writing {} failed: {e}", out_path.display());
    }

    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics.json(printed)),
    ]);
    println!("{}", one_line(&result));
    Ok(())
}

/// Run `unit` composed from the layer calls and check it against the
/// untraced `outcome`; on the first pass also check its property array
/// against the host reference and count its identity mappings.
#[allow(clippy::too_many_arguments)]
fn traced_unit(
    unit: &Unit,
    u: usize,
    prepared: &units::Prepared,
    tracer: &mut Tracer,
    first_pass: bool,
    outcome: &Outcome,
    references: &mut HashMap<&'static str, Reference>,
    identity: &mut (u64, u64),
) -> Result<(), String> {
    let traced = units::run_traced(unit, u, prepared, tracer, first_pass)
        .map_err(|e| format!("traced error: {e}"))?;
    let same = match (&traced.outcome, outcome) {
        (Outcome::Graph(a), Outcome::Graph(b)) => {
            dvm_bench::report_json(a).to_string() == dvm_bench::report_json(b).to_string()
        }
        (Outcome::Churn(a), Outcome::Churn(b)) => a == b,
        _ => false,
    };
    if !same {
        return Err("layer-composed unit differs from the experiment API's result".into());
    }
    if first_pass {
        identity.0 += traced.identity.0;
        identity.1 += traced.identity.1;
    }
    if let (
        Some(props),
        Unit::Graph {
            workload, dataset, ..
        },
    ) = (&traced.props, unit)
    {
        if !references.contains_key(workload.name()) {
            let span = tracer.enter("check", Some(u));
            let reference = Reference::compute(workload, prepared.graph(*dataset));
            tracer.exit(span);
            references.insert(workload.name(), reference);
        }
        references[workload.name()].check(props)?;
    }
    Ok(())
}

/// The per-layer figures of a traced run, from its spans and the first
/// outcome of each unit.
fn layer_metrics(
    metrics: &mut Metrics,
    args: &Args,
    prepared: &units::Prepared,
    records: &[UnitRecord],
    tracer: &Tracer,
    identity: (u64, u64),
    wall_s: f64,
) {
    let mut per_unit: HashMap<(usize, &str), Vec<f64>> = HashMap::new();
    for span in tracer.spans() {
        if let Some(u) = span.unit {
            per_unit
                .entry((u, span.name))
                .or_default()
                .push(span.seconds());
        }
    }
    // Sum over units of each unit's median time in span `name`.
    let layer = |name: &str, keep: &dyn Fn(&Unit) -> bool| -> f64 {
        prepared
            .units
            .iter()
            .enumerate()
            .filter(|(_, unit)| keep(unit))
            .filter_map(|(u, _)| per_unit.get(&(u, name)).map(|s| median(s)))
            .sum()
    };
    let all = |_: &Unit| true;
    let traced_wall = layer("unit", &all);
    metrics.set("trace.traced_wall_s", traced_wall, "s");
    metrics.set("trace.overhead_s", traced_wall - wall_s, "s");
    metrics.set("trace.overhead_frac", traced_wall / wall_s - 1.0, "ratio");
    for (name, secs) in tracer.self_seconds() {
        metrics.set(format!("self_s.{name}"), secs, "s");
    }
    let (maps, fallbacks) = identity;
    metrics.set(
        "os.identity_frac",
        maps as f64 / (maps + fallbacks).max(1) as f64,
        "ratio",
    );

    if args.bench == Bench::OsChurn {
        for (u, unit) in prepared.units.iter().enumerate() {
            if let (Unit::Churn { name, .. }, Some(s)) = (unit, per_unit.get(&(u, "os.churn"))) {
                metrics.set(
                    format!("os.churn_s.{}", name.to_lowercase()),
                    median(s),
                    "s",
                );
            }
        }
        return;
    }

    metrics.set("graph.load_s", median(&prepared.load_samples), "s");
    let mut generate_s = 0.0;
    let mut csr_bytes = 0;
    for (dataset, graph) in &prepared.graphs {
        let start = Instant::now();
        std::hint::black_box(dataset.generate(args.scale.divisor(*dataset)));
        generate_s += start.elapsed().as_secs_f64();
        csr_bytes += graph.offsets().len() as u64 * 8 + graph.num_edges() * 12;
    }
    metrics.set("graph.generate_s", generate_s, "s");
    metrics.set("graph.csr_mb", csr_bytes as f64 / 1e6, "MB");
    metrics.set("os.map_s", layer("os.map", &all), "s");

    let schemes = match args.bench {
        Bench::XlateGraph => &units::XLATE_SCHEMES[..],
        _ => &units::CF_SCHEMES[..],
    };
    let of_scheme =
        |s: SchemeId| move |unit: &Unit| matches!(unit, Unit::Graph { scheme, .. } if *scheme == s);
    let ideal_s = layer("accel.run", &of_scheme(SchemeId::IDEAL));
    for &s in schemes {
        let key = scheme_key(s);
        let sim_s = layer("accel.run", &of_scheme(s));
        let reports: Vec<_> = prepared
            .units
            .iter()
            .zip(records)
            .filter(|(unit, _)| of_scheme(s)(unit))
            .filter_map(|(_, r)| match &r.first {
                Some(Outcome::Graph(report)) => Some(&**report),
                _ => None,
            })
            .collect();
        let sum = |f: &dyn Fn(&dvm_core::GraphRunReport) -> u64| -> u64 {
            reports.iter().map(|r| f(r)).sum()
        };
        let accesses = sum(&|r| r.accesses).max(1) as f64;
        metrics.set(format!("accel.sim_s.{key}"), sim_s, "s");
        metrics.set(
            format!("accel.ns_per_access.{key}"),
            sim_s * 1e9 / accesses,
            "ns",
        );
        if s != SchemeId::IDEAL {
            metrics.set(
                format!("mmu.xlate_share.{key}"),
                1.0 - ideal_s / sim_s,
                "ratio",
            );
        }
        let miss_frac = |stats: &dyn Fn(&dvm_core::GraphRunReport) -> Option<(u64, u64)>| {
            let (hits, misses) = reports
                .iter()
                .filter_map(|r| stats(r))
                .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));
            (hits + misses > 0).then(|| misses as f64 / (hits + misses) as f64)
        };
        if let Some(frac) = miss_frac(&|r| r.tlb) {
            metrics.set(format!("mmu.tlb_miss_frac.{key}"), frac, "ratio");
        }
        if let Some(frac) = miss_frac(&|r| r.ptc) {
            metrics.set(format!("mmu.ptc_miss_frac.{key}"), frac, "ratio");
        }
        metrics.set(
            format!("mmu.walk_refs_per_kaccess.{key}"),
            sum(&|r| r.walk_mem_refs) as f64 * 1e3 / accesses,
            "count",
        );
        if s == SchemeId::DVM_PE_PLUS {
            metrics.set(
                "mmu.preload_squash_frac.dvm-pe-plus",
                sum(&|r| r.preload_squashes) as f64 / accesses,
                "ratio",
            );
        }
        metrics.set(
            format!("mem.dram_accesses.{key}"),
            sum(&|r| r.dram_accesses) as f64,
            "count",
        );
    }
}
