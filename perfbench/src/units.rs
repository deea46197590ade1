//! The three workloads as lists of simulation units, their set-up, and
//! the two ways to run a unit: through the public experiment entry
//! points (untraced), or composed from the layer calls with a span
//! around each (traced).

use crate::trace::Tracer;
use dvm_accel::{dump_props_f32, dump_props_u32, layout, run_via, GraphInMemory, RunResult};
use dvm_bench::Scale;
use dvm_core::{
    flavor_for, run_graph_experiment, ChurnConfig, ChurnResult, Dataset, DatasetCache,
    ExperimentConfig, GraphRunReport, MapFlavor, Os, OsConfig, SchemeId, Workload,
};
use dvm_graph::Graph;
use dvm_mem::{Dram, MachineConfig};
use dvm_mmu::{Iommu, MemSystem};
use dvm_os::churn;
use dvm_sim::DetRng;
use dvm_types::{DvmError, Fault, PageSize};
use std::path::Path;
use std::time::Instant;

/// Run `$body` with `$d` bound to the static dispatch token of
/// `$scheme` (the monomorphized path the experiment API takes), or to
/// the dynamic token for schemes without one.
macro_rules! by_scheme {
    ($scheme:expr, $d:ident => $body:expr) => {{
        use dvm_mmu::dispatch;
        match $scheme {
            SchemeId::IDEAL => {
                type $d = dispatch::Ideal;
                $body
            }
            SchemeId::CONV_4K => {
                type $d = dispatch::Conv4K;
                $body
            }
            SchemeId::CONV_2M => {
                type $d = dispatch::Conv2M;
                $body
            }
            SchemeId::DVM_PE_PLUS => {
                type $d = dispatch::DvmPePlus;
                $body
            }
            SchemeId::SVA_IOMMU => {
                type $d = dispatch::SvaIommu;
                $body
            }
            _ => {
                type $d = dispatch::Dyn;
                $body
            }
        }
    }};
}
pub(crate) use by_scheme;

/// The schemes `xlate-graph` sweeps: the Ideal floor, the two page
/// sizes on either side of TLB reach, the paper's headline scheme and
/// the strongest rival IOMMU.
pub const XLATE_SCHEMES: [SchemeId; 5] = [
    SchemeId::IDEAL,
    SchemeId::CONV_4K,
    SchemeId::CONV_2M,
    SchemeId::DVM_PE_PLUS,
    SchemeId::SVA_IOMMU,
];

/// The schemes `cf-vector` sweeps.
pub const CF_SCHEMES: [SchemeId; 3] = [SchemeId::IDEAL, SchemeId::CONV_4K, SchemeId::DVM_PE_PLUS];

/// The churn bin's configurations, in its column-group order.
pub const CHURN_CONFIGS: [(&str, MapFlavor); 3] = [
    ("DVM-PE", MapFlavor::DvmPe),
    ("Paged-4K", MapFlavor::Paged(PageSize::Size4K)),
    ("Paged-2M", MapFlavor::Paged(PageSize::Size2M)),
];

/// Metric-name suffix of a scheme.
pub fn scheme_key(scheme: SchemeId) -> &'static str {
    match scheme {
        SchemeId::IDEAL => "ideal",
        SchemeId::CONV_4K => "4k",
        SchemeId::CONV_2M => "2m",
        SchemeId::DVM_PE_PLUS => "dvm-pe-plus",
        SchemeId::SVA_IOMMU => "sva-iommu",
        _ => "other",
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// BFS, PageRank and SSSP over LJ under every [`XLATE_SCHEMES`] entry.
    XlateGraph,
    /// CF over NF under every [`CF_SCHEMES`] entry.
    CfVector,
    /// The churn bin's three configurations.
    OsChurn,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::XlateGraph, Bench::CfVector, Bench::OsChurn];

    pub fn name(self) -> &'static str {
        match self {
            Bench::XlateGraph => "xlate-graph",
            Bench::CfVector => "cf-vector",
            Bench::OsChurn => "os-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    fn datasets(self) -> &'static [Dataset] {
        match self {
            Bench::XlateGraph => &[Dataset::LiveJournal],
            Bench::CfVector => &[Dataset::Netflix],
            Bench::OsChurn => &[],
        }
    }
}

/// One simulation unit.
#[derive(Debug, Clone)]
pub enum Unit {
    Graph {
        workload: Workload,
        dataset: Dataset,
        scheme: SchemeId,
    },
    Churn {
        name: &'static str,
        config: ChurnConfig,
    },
}

impl Unit {
    pub fn label(&self) -> String {
        match self {
            Unit::Graph {
                workload,
                dataset,
                scheme,
            } => format!(
                "{}/{}",
                dvm_bench::pair_label(workload, *dataset),
                scheme.name()
            ),
            Unit::Churn { name, .. } => format!("churn/{name}"),
        }
    }
}

/// What a unit produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    Graph(Box<GraphRunReport>),
    Churn(ChurnResult),
}

impl Outcome {
    /// Simulated work: IOMMU accesses of a graph unit, epochs of a churn
    /// unit.
    pub fn work(&self) -> u64 {
        match self {
            Outcome::Graph(r) => r.accesses,
            Outcome::Churn(r) => r.epochs.len() as u64,
        }
    }
}

/// The workload's inputs, ready for the first unit.
pub struct Prepared {
    pub units: Vec<Unit>,
    pub graphs: Vec<(Dataset, Graph)>,
    /// Host seconds of each repetition of the set-up.
    pub setup_samples: Vec<f64>,
    /// Host seconds of each repetition's graph loads alone.
    pub load_samples: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Prepared {
    pub fn graph(&self, dataset: Dataset) -> &Graph {
        &self
            .graphs
            .iter()
            .find(|(d, _)| *d == dataset)
            .expect("every unit's dataset is loaded in set-up")
            .1
    }
}

/// The churn bin's scenario at `scale`, schedule seed included, so the
/// quick scenario is the golden's input at every benchmark seed.
///
/// The benchmark seed is not mixed into the schedule: on about one
/// schedule in five an out-of-memory `Os::fork` leaves a partially built
/// child whose CoW references are never dropped, so frames leak through
/// the churn drain (a `dvm-os` defect), and the benchmark's workloads
/// must be ones on which no operation fails.
pub fn churn_scenario(scale: Scale) -> ChurnConfig {
    let base = ChurnConfig::default();
    match scale {
        // The churn bin's smoke scenario.
        Scale::Smoke => ChurnConfig {
            mem_bytes: 128 << 20,
            epochs: 12,
            arrivals_per_epoch: 5,
            cow_fork_fraction: 0.4,
            mean_lifetime_epochs: 3,
            regions_per_proc: 2,
            min_region_bytes: 64 << 10,
            max_region_bytes: 2 << 20,
            ..base
        },
        _ => base,
    }
}

/// The OS `churn::run` boots for `config`.
pub fn churn_os_config(config: &ChurnConfig) -> OsConfig {
    OsConfig {
        machine: MachineConfig {
            mem_bytes: config.mem_bytes,
        },
        flavor: config.flavor,
        maintain_bitmap: false,
        identity_enabled: config.identity_enabled,
        aslr_seed: config.seed,
    }
}

/// Boots of the three churn machines timed together as one set-up sample.
const CHURN_BOOTS_PER_SAMPLE: u32 = 200;

/// BFS root: vertex 0 at seed 0 (the goldens' input), otherwise a
/// seeded pick among vertices with at least one out-edge.
fn pick_root(graph: &Graph, rng: &mut DetRng, seed: u64) -> u32 {
    if seed == 0 {
        return 0;
    }
    loop {
        let v = rng.below(u64::from(graph.num_vertices())) as u32;
        if !graph.out_edges(v).is_empty() {
            return v;
        }
    }
}

/// Set the workload up `samples` times (each a full repetition: open
/// the dataset cache and load every graph from it warm, or boot the
/// churn machines) and build its unit list. A cold cache is filled
/// first, outside the timed repetitions.
pub fn prepare(
    bench: Bench,
    scale: Scale,
    seed: u64,
    cache_dir: &Path,
    samples: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let datasets = bench.datasets();
    let mut prepared = Prepared {
        units: Vec::new(),
        graphs: Vec::new(),
        setup_samples: Vec::new(),
        load_samples: Vec::new(),
        cache_hits: 0,
        cache_misses: 0,
    };
    let open = || {
        DatasetCache::new(cache_dir)
            .map_err(|e| format!("opening dataset cache {}: {e}", cache_dir.display()))
    };
    if !datasets.is_empty() {
        let cache = open()?;
        for &d in datasets {
            if !cache.entry_path(d, scale.divisor(d)).exists() {
                cache.get_or_generate(d, scale.divisor(d));
            }
        }
        prepared.cache_misses += cache.misses();
    }
    let churn_configs: Vec<ChurnConfig> = CHURN_CONFIGS
        .iter()
        .map(|&(_, flavor)| ChurnConfig {
            flavor,
            ..churn_scenario(scale)
        })
        .collect();

    // A churn boot takes microseconds, so one sample times
    // `CHURN_BOOTS_PER_SAMPLE` boots of the three machines. The machines
    // stay alive until every sample is taken, so each boot pays for fresh
    // memory as a new process would, whatever the allocator recycled
    // before.
    let mut booted = Vec::new();
    for _ in 0..samples {
        let span = tracer.as_deref_mut().map(|t| t.enter("setup", None));
        let start = Instant::now();
        let mut load_s = 0.0;
        let mut repeats = 1;
        if bench == Bench::OsChurn {
            repeats = CHURN_BOOTS_PER_SAMPLE;
            for _ in 0..repeats {
                for config in &churn_configs {
                    booted.push(std::hint::black_box(Os::new(churn_os_config(config))));
                }
            }
        } else {
            let cache = open()?;
            prepared.graphs.clear();
            for &d in datasets {
                let load = tracer.as_deref_mut().map(|t| t.enter("graph.load", None));
                let t = Instant::now();
                let graph = cache.get_or_generate(d, scale.divisor(d));
                load_s += t.elapsed().as_secs_f64();
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), load) {
                    t.exit(id);
                }
                prepared.graphs.push((d, graph));
            }
            prepared.cache_hits += cache.hits();
            prepared.cache_misses += cache.misses();
        }
        prepared
            .setup_samples
            .push(start.elapsed().as_secs_f64() / repeats as f64);
        prepared.load_samples.push(load_s);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
    }
    drop(booted);

    prepared.units = match bench {
        Bench::XlateGraph => {
            let lj = prepared.graph(Dataset::LiveJournal);
            let mut rng = DetRng::new(seed);
            let bfs_root = pick_root(lj, &mut rng, seed);
            // BFS does the same work from any root. SSSP's work depends on
            // its root (28.6-50.0 M accesses over thirty seeds), which
            // would put the seed, not the simulator, into `wall_s`'s
            // spread, so SSSP keeps the goldens' root.
            let workloads = [
                Workload::Bfs { root: bfs_root },
                Workload::PageRank { iterations: 1 },
                Workload::Sssp {
                    root: 0,
                    max_iterations: 64,
                },
            ];
            graph_units(&workloads, Dataset::LiveJournal, &XLATE_SCHEMES)
        }
        Bench::CfVector => graph_units(
            &[Workload::Cf {
                iterations: 1,
                features: 32,
            }],
            Dataset::Netflix,
            &CF_SCHEMES,
        ),
        Bench::OsChurn => CHURN_CONFIGS
            .iter()
            .zip(churn_configs)
            .map(|(&(name, _), config)| Unit::Churn { name, config })
            .collect(),
    };
    Ok(prepared)
}

fn graph_units(workloads: &[Workload], dataset: Dataset, schemes: &[SchemeId]) -> Vec<Unit> {
    workloads
        .iter()
        .flat_map(|&workload| {
            schemes.iter().map(move |&scheme| Unit::Graph {
                workload,
                dataset,
                scheme,
            })
        })
        .collect()
}

/// Run a unit through the public entry points.
pub fn run_untraced(unit: &Unit, prepared: &Prepared) -> Result<Outcome, DvmError> {
    match unit {
        Unit::Graph {
            workload,
            dataset,
            scheme,
        } => run_graph_experiment(
            workload,
            prepared.graph(*dataset),
            &ExperimentConfig::for_mmu(*scheme),
        )
        .map(|r| Outcome::Graph(Box::new(r))),
        Unit::Churn { config, .. } => churn::run(config).map(Outcome::Churn),
    }
}

/// The property array a graph unit left in simulated memory.
#[derive(Debug, Clone)]
pub enum Props {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

/// What a traced unit adds to its outcome.
pub struct Traced {
    pub outcome: Outcome,
    /// Read back when asked for (graph units only).
    pub props: Option<Props>,
    /// `mmap`s identity mapped and fallen back to paging.
    pub identity: (u64, u64),
}

/// Run a unit composed from the layer calls, one span per layer:
/// `os.map` (boot, spawn, `load_graph`) and `accel.run` (`run_via` over
/// a `MemSystem`) for graph units, `os.boot` and `os.churn` for churn
/// units. The outcome must equal [`run_untraced`]'s exactly.
pub fn run_traced(
    unit: &Unit,
    unit_id: usize,
    prepared: &Prepared,
    tracer: &mut Tracer,
    want_props: bool,
) -> Result<Traced, DvmError> {
    let span = tracer.enter("unit", Some(unit_id));
    let result = match unit {
        Unit::Graph {
            workload,
            dataset,
            scheme,
        } => traced_graph(
            workload,
            prepared.graph(*dataset),
            *scheme,
            unit_id,
            tracer,
            want_props,
        ),
        Unit::Churn { config, .. } => {
            let boot = tracer.enter("os.boot", Some(unit_id));
            let mut os = Os::new(churn_os_config(config));
            tracer.exit(boot);
            let run = tracer.enter("os.churn", Some(unit_id));
            let result = churn::run_on(&mut os, config);
            tracer.exit(run);
            drop(os);
            result.map(|r| {
                let maps = r.epochs.iter().map(|e| e.identity_maps).sum();
                let fallbacks = r.epochs.iter().map(|e| e.identity_fallbacks).sum();
                (Outcome::Churn(r), None, (maps, fallbacks))
            })
        }
    };
    tracer.exit(span);
    result.map(|(outcome, props, identity)| Traced {
        outcome,
        props,
        identity,
    })
}

type GraphParts = (Outcome, Option<Props>, (u64, u64));

fn traced_graph(
    workload: &Workload,
    graph: &Graph,
    scheme: SchemeId,
    unit_id: usize,
    tracer: &mut Tracer,
    want_props: bool,
) -> Result<GraphParts, DvmError> {
    let config = ExperimentConfig::for_mmu(scheme);
    let map = tracer.enter("os.map", Some(unit_id));
    // The experiment API's machine sizing: the scheme's padding hint,
    // rounded up to whole GiB.
    let mem_bytes = scheme
        .scheme()
        .machine_bytes_hint(graph.footprint_bytes())
        .next_multiple_of(1 << 30);
    let mut os = Os::new(OsConfig {
        machine: MachineConfig { mem_bytes },
        flavor: flavor_for(scheme),
        maintain_bitmap: scheme.needs_bitmap(),
        ..OsConfig::default()
    });
    let mapped = os.spawn().and_then(|pid| {
        let g = layout::load_graph(&mut os, pid, graph, workload.prop_stride())?;
        Ok((os.process(pid)?.page_table, g))
    });
    tracer.exit(map);
    let (pt, g) = mapped?;

    let run = tracer.enter("accel.run", Some(unit_id));
    let mut iommu = Iommu::new(scheme, config.energy);
    let mut dram = Dram::new(config.dram);
    let bitmap = os.bitmap;
    let mut sys = MemSystem::new(
        &mut iommu,
        &pt,
        bitmap.as_ref(),
        &mut os.machine.mem,
        &mut dram,
    );
    let result = accel_run(workload, &g, &mut sys, &config, scheme);
    tracer.exit(run);
    let result = result?;

    let props = want_props.then(|| read_props(workload, &sys, &g));
    drop(sys);
    let stats = &iommu.stats;
    let report = GraphRunReport {
        mmu: scheme,
        workload: workload.name(),
        cycles: result.cycles,
        accesses: stats.accesses.get(),
        tlb: iommu.tlb_stats().map(|s| (s.hits(), s.misses())),
        ptc: iommu.ptc_stats().map(|s| (s.hits(), s.misses())),
        bitmap_cache: iommu.bitmap_cache_stats().map(|s| (s.hits(), s.misses())),
        walk_mem_refs: stats.walk_mem_refs.get(),
        identity_validations: stats.identity_validations.get(),
        fallback_translations: stats.fallback_translations.get(),
        preload_squashes: stats.preload_squashes.get(),
        mm_energy_pj: iommu.energy.total_pj(),
        dram_accesses: dram.accesses(),
        heap_bytes: g.heap_bytes(),
        run: result,
    };
    let identity = (os.stats.identity_maps, os.stats.identity_fallbacks);
    Ok((Outcome::Graph(Box::new(report)), props, identity))
}

fn accel_run(
    workload: &Workload,
    g: &GraphInMemory,
    sys: &mut MemSystem<'_>,
    config: &ExperimentConfig,
    scheme: SchemeId,
) -> Result<RunResult, Fault> {
    by_scheme!(scheme, D => run_via::<D>(workload, g, sys, &config.accel))
}

fn read_props(workload: &Workload, sys: &MemSystem<'_>, g: &GraphInMemory) -> Props {
    match workload {
        Workload::Bfs { .. } => Props::U32(dump_props_u32(sys, g)),
        _ => Props::F32(dump_props_f32(sys, g)),
    }
}
