//! Output checks: exact equality with the quick goldens (graph units at
//! seed 0, churn units at every seed), cross-scheme agreement and
//! leak-freedom at every seed, and the property arrays against the host
//! references in the traced run.

use crate::units::{Outcome, Props};
use dvm_accel::reference;
use dvm_bench::{parse, report_json, Json};
use dvm_core::{ChurnEpoch, ChurnResult, EpochGrid, Workload};
use dvm_graph::Graph;
use std::collections::HashMap;
use std::path::Path;

/// Golden rows, rendered, keyed by row label (plus scheme name for
/// graph reports).
pub struct Goldens {
    reports: HashMap<(String, String), String>,
    churn: HashMap<String, String>,
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading golden {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("parsing golden {}: {e}", path.display()))
}

impl Goldens {
    /// Load the quick goldens the benchmark checks against: Figure 8 and
    /// Figure 11 per-scheme reports and the churn time-series.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut reports = HashMap::new();
        for file in ["fig8_quick.json", "fig11_quick.json"] {
            let doc = read_doc(&dir.join(file))?;
            for row in doc.expect_arr("rows")? {
                let label = row.expect_str("label")?;
                for report in row.expect_arr("reports")? {
                    let mmu = report.expect_str("mmu")?;
                    reports.insert((label.to_string(), mmu.to_string()), report.to_string());
                }
            }
        }
        let doc = read_doc(&dir.join("churn_quick.json"))?;
        let mut churn = HashMap::new();
        for row in doc.expect_arr("rows")? {
            let values = row.get("values").ok_or("churn golden row without values")?;
            churn.insert(row.expect_str("label")?.to_string(), values.to_string());
        }
        Ok(Self { reports, churn })
    }

    /// Compare a graph unit's report, every field as the golden renders
    /// it, with its row (`pair` is e.g. `BFS/LJ`).
    pub fn check_report(&self, pair: &str, outcome: &Outcome) -> Result<(), String> {
        let Outcome::Graph(report) = outcome else {
            return Err("graph unit produced a churn result".into());
        };
        let key = (pair.to_string(), report.mmu.name().to_string());
        let want = self
            .reports
            .get(&key)
            .ok_or_else(|| format!("no golden report for {pair} under {}", key.1))?;
        let got = report_json(report).to_string();
        if &got == want {
            Ok(())
        } else {
            Err(format!("differs from golden\n  got  {got}\n  want {want}"))
        }
    }

    /// Compare every epoch of a churn unit with the golden time-series.
    pub fn check_churn(&self, name: &str, result: &ChurnResult) -> Result<(), String> {
        let grid = EpochGrid::new([name], result.epochs.len() as u32);
        for (e, epoch) in result.epochs.iter().enumerate() {
            let label = grid.row_label(0, e as u32);
            let got = churn_row(epoch).to_string();
            match self.churn.get(&label) {
                Some(want) if *want == got => {}
                Some(want) => {
                    return Err(format!(
                        "{label} differs from golden\n  got  {got}\n  want {want}"
                    ))
                }
                None => return Err(format!("no golden row {label}")),
            }
        }
        Ok(())
    }
}

/// One churn row's values in the churn bin's column order.
fn churn_row(epoch: &ChurnEpoch) -> Json {
    Json::Arr(vec![
        Json::UInt(epoch.live_procs),
        Json::UInt(epoch.mmaps()),
        epoch.identity_rate().map_or(Json::Null, Json::Float),
        Json::UInt(epoch.identity_bytes_requested),
        Json::UInt(epoch.identity_bytes_padded),
        Json::UInt(epoch.demand_bytes),
        Json::UInt(epoch.cow_breaks),
        Json::UInt(epoch.oom_events),
        Json::UInt(epoch.free_frames),
        Json::UInt(epoch.free_runs),
        Json::UInt(epoch.largest_run),
        Json::UInt(epoch.sub_granule_runs),
    ])
}

/// Functional work every scheme of one workload must agree on.
pub type Work = (u64, u32);

pub fn functional_work(outcome: &Outcome) -> Option<Work> {
    match outcome {
        Outcome::Graph(r) => Some((r.run.edges_processed, r.run.iterations)),
        Outcome::Churn(_) => None,
    }
}

/// The checks that hold at every seed: a graph unit did the functional
/// work `expected` (the first report of its workload), a churn unit
/// returned every frame.
pub fn check_invariants(outcome: &Outcome, expected: Option<Work>) -> Result<(), String> {
    match outcome {
        Outcome::Graph(_) => {
            let got = functional_work(outcome).expect("graph outcome");
            match expected {
                Some(want) if want != got => Err(format!(
                    "(edges_processed, iterations) = {got:?}, other schemes did {want:?}"
                )),
                _ => Ok(()),
            }
        }
        Outcome::Churn(r) if r.leaked_frames != 0 => Err(format!(
            "{} frames leaked through the churn drain",
            r.leaked_frames
        )),
        Outcome::Churn(_) => Ok(()),
    }
}

/// A workload's reference property array, as the accelerator lays it
/// out (first feature only for CF).
pub enum Reference {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

impl Reference {
    pub fn compute(workload: &Workload, graph: &Graph) -> Self {
        match *workload {
            Workload::Bfs { root } => Reference::U32(reference::bfs_levels(graph, root)),
            Workload::PageRank { iterations } => {
                Reference::F32(reference::pagerank(graph, iterations))
            }
            Workload::Sssp { root, .. } => Reference::F32(reference::sssp_distances(graph, root)),
            Workload::Cf {
                iterations,
                features,
            } => Reference::F32(
                reference::cf_factors(graph, iterations, features)
                    .into_iter()
                    .step_by(features as usize)
                    .collect(),
            ),
        }
    }

    /// Integers exactly; floats within 1e-4 relative (both infinite
    /// counts as equal).
    pub fn check(&self, props: &Props) -> Result<(), String> {
        let close = |got: f32, want: f32| {
            (got.is_infinite() && want.is_infinite())
                || (got - want).abs() <= 1e-4 * want.abs().max(1.0)
        };
        let mismatch = match (self, props) {
            (Reference::U32(want), Props::U32(got)) if got.len() == want.len() => {
                got.iter().zip(want).position(|(g, w)| g != w)
            }
            (Reference::F32(want), Props::F32(got)) if got.len() == want.len() => {
                got.iter().zip(want).position(|(&g, &w)| !close(g, w))
            }
            _ => return Err("property array has the wrong type or length".into()),
        };
        match mismatch {
            None => Ok(()),
            Some(v) => Err(format!("vertex {v} differs from the host reference")),
        }
    }
}
