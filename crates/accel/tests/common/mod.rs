//! Shared harness for the whole-system equivalence tests: build the OS a
//! scheme needs, run one workload, and capture everything observable.

#![allow(dead_code)] // each test binary uses its own subset

use dvm_accel::{layout, AccelConfig, GraphInMemory, RunResult, Workload};
use dvm_energy::EnergyParams;
use dvm_graph::Graph;
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{Iommu, MemSystem, SchemeId, TranslationMemo};
use dvm_os::{MapFlavor, Os, OsConfig};
use dvm_types::Fault;

/// The nine builtin schemes: the paper's seven plus SVA-Pf and SVA-IOMMU.
pub const BUILTINS: [SchemeId; 9] = [
    SchemeId::CONV_4K,
    SchemeId::CONV_2M,
    SchemeId::CONV_1G,
    SchemeId::DVM_BM,
    SchemeId::DVM_PE,
    SchemeId::DVM_PE_PLUS,
    SchemeId::IDEAL,
    SchemeId::SVA_PF,
    SchemeId::SVA_IOMMU,
];

/// An OS laid out the way `config` needs its address space.
pub fn os_for(config: SchemeId) -> Os {
    let flavor = match config.required_leaf_size() {
        Some(page_size) => MapFlavor::Paged(page_size),
        None => MapFlavor::DvmPe,
    };
    Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 8 << 30, // roomy: the 1G flavour pads every region
        },
        flavor,
        maintain_bitmap: config.needs_bitmap(),
        ..OsConfig::default()
    })
}

/// How a run is executed: [`dvm_accel::run`] or `run_via` with a token.
pub type Runner = for<'s, 'a> fn(
    &Workload,
    &GraphInMemory,
    &'s mut MemSystem<'a>,
    &AccelConfig,
) -> Result<RunResult, Fault>;

/// Everything observable about a run, formatted so a plain `assert_eq!`
/// reports the first diverging component.
pub struct Observation {
    pub result: String,
    pub props_u32: Vec<u32>,
    pub props_f32: Vec<u32>,
    pub iommu: String,
    pub dram: String,
}

/// Run `workload` over `graph` under `config` through `runner`, with the
/// untimed-path and walker memos on or off.
pub fn observe(
    config: SchemeId,
    workload: &Workload,
    graph: &Graph,
    memos: bool,
    runner: Runner,
) -> Observation {
    let mut os = os_for(config);
    let pid = os.spawn().unwrap();
    let g = layout::load_graph(&mut os, pid, graph, workload.prop_stride()).unwrap();
    let mut iommu = Iommu::new(config, EnergyParams::default());
    iommu.set_walk_memo(memos);
    let mut dram = Dram::new(DramConfig::default());
    let pt = os.process(pid).unwrap().page_table;
    let bitmap = os.bitmap;
    let mut sys = MemSystem::new(
        &mut iommu,
        &pt,
        bitmap.as_ref(),
        &mut os.machine.mem,
        &mut dram,
    );
    if !memos {
        sys.memo = TranslationMemo::disabled();
    }
    let result = runner(workload, &g, &mut sys, &AccelConfig::default()).unwrap();
    let props_u32 = dvm_accel::dump_props_u32(&sys, &g);
    // Compare float properties by bit pattern: equality must be exact,
    // including any NaN payloads.
    let props_f32 = dvm_accel::dump_props_f32(&sys, &g)
        .into_iter()
        .map(f32::to_bits)
        .collect();
    Observation {
        result: format!("{result:?}"),
        props_u32,
        props_f32,
        iommu: format!(
            "{:?} tlb={:?} ptc={:?} bitmap={:?} energy={:?}",
            sys.iommu.stats,
            sys.iommu.tlb_stats(),
            sys.iommu.ptc_stats(),
            sys.iommu.bitmap_cache_stats(),
            sys.iommu.energy,
        ),
        dram: format!(
            "reads={} writes={} channels={:?}",
            sys.dram.reads(),
            sys.dram.writes(),
            sys.dram.channel_accesses(),
        ),
    }
}

/// Assert two observations are identical, component by component.
pub fn assert_same(a: &Observation, b: &Observation, what: &str) {
    assert_eq!(a.result, b.result, "{what}: run result");
    assert_eq!(a.props_u32, b.props_u32, "{what}: u32 props");
    assert_eq!(a.props_f32, b.props_f32, "{what}: f32 props");
    assert_eq!(a.iommu, b.iommu, "{what}: IOMMU state");
    assert_eq!(a.dram, b.dram, "{what}: DRAM counters");
}
