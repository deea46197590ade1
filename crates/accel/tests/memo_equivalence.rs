//! The translation memos are pure caches: a run with the untimed-path
//! memo and the walker memo disabled must be *bit-identical* — results,
//! property arrays, every IOMMU counter, every DRAM counter — to the
//! default run on all nine builtin schemes. This is the whole-system
//! counterpart of the unit tests in `dvm_mmu::memo`.

mod common;

use common::{assert_same, observe, BUILTINS};
use dvm_accel::{run, Workload};
use dvm_graph::{rmat, to_bipartite, Graph, RmatParams};

fn assert_equivalent(workload: &Workload, graph: &Graph) {
    for config in BUILTINS {
        let with = observe(config, workload, graph, true, run);
        let without = observe(config, workload, graph, false, run);
        assert_same(&with, &without, config.name());
    }
}

#[test]
fn bfs_is_memo_invariant_on_all_configs() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::Bfs { root: 0 }, &graph);
}

#[test]
fn pagerank_is_memo_invariant_on_all_configs() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::PageRank { iterations: 2 }, &graph);
}

#[test]
fn sssp_is_memo_invariant_on_all_configs() {
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
fn cf_is_memo_invariant_on_all_configs() {
    let graph = to_bipartite(&rmat(9, 8, RmatParams::default(), 43), 400, 80);
    assert_equivalent(
        &Workload::Cf {
            iterations: 1,
            features: 8,
        },
        &graph,
    );
}
