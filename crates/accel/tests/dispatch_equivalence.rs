//! Static dispatch is an exact rewrite of dynamic dispatch:
//! `run_via::<token>` for each builtin scheme must be *bit-identical* —
//! run result, property arrays, IOMMU/TLB/PTC statistics, energy and DRAM
//! counters — to `run`, which reaches the same scheme through the
//! registry's virtual call (`dispatch::Dyn`). The sweep engine selects
//! the tokens (`dvm_core::experiment`); this is the oracle it relies on.

mod common;

use common::{assert_same, observe, Runner, BUILTINS};
use dvm_accel::{run, run_via, Workload};
use dvm_graph::{rmat, to_bipartite, Graph, RmatParams};
use dvm_mmu::{dispatch, SchemeId};

/// The monomorphized runner for a builtin scheme.
fn static_runner(config: SchemeId) -> Runner {
    match config {
        SchemeId::CONV_4K => run_via::<dispatch::Conv4K>,
        SchemeId::CONV_2M => run_via::<dispatch::Conv2M>,
        SchemeId::CONV_1G => run_via::<dispatch::Conv1G>,
        SchemeId::DVM_BM => run_via::<dispatch::DvmBm>,
        SchemeId::DVM_PE => run_via::<dispatch::DvmPe>,
        SchemeId::DVM_PE_PLUS => run_via::<dispatch::DvmPePlus>,
        SchemeId::IDEAL => run_via::<dispatch::Ideal>,
        SchemeId::SVA_PF => run_via::<dispatch::SvaPf>,
        SchemeId::SVA_IOMMU => run_via::<dispatch::SvaIommu>,
        other => panic!("{other} has no static token"),
    }
}

fn assert_equivalent(workload: &Workload, graph: &Graph) {
    for config in BUILTINS {
        let dynamic = observe(config, workload, graph, true, run);
        let fixed = observe(config, workload, graph, true, static_runner(config));
        assert_same(&fixed, &dynamic, config.name());
    }
}

#[test]
fn bfs_static_dispatch_matches_dynamic() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::Bfs { root: 0 }, &graph);
}

#[test]
fn pagerank_static_dispatch_matches_dynamic() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::PageRank { iterations: 2 }, &graph);
}

#[test]
fn sssp_static_dispatch_matches_dynamic() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(
        &Workload::Sssp {
            root: 0,
            max_iterations: 64,
        },
        &graph,
    );
}

#[test]
fn cf_static_dispatch_matches_dynamic() {
    let graph = to_bipartite(&rmat(9, 8, RmatParams::default(), 43), 400, 80);
    assert_equivalent(
        &Workload::Cf {
            iterations: 1,
            features: 8,
        },
        &graph,
    );
}
