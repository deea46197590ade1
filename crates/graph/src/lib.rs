//! Graph substrate for the Graphicionado-style accelerator: CSR graphs,
//! the graph500 R-MAT generator, the Satish-et-al bipartite conversion,
//! and a registry of the paper's Table 3 datasets with synthetic
//! stand-ins.
//!
//! # Examples
//!
//! ```
//! use dvm_graph::{Dataset, rmat, RmatParams};
//!
//! // A scaled-down Flickr stand-in (1/64 of the published size).
//! let g = Dataset::Flickr.generate(64);
//! assert!(g.num_edges() > 100_000);
//!
//! // Or a raw graph500 R-MAT graph.
//! let g = rmat(12, 16, RmatParams::default(), 42);
//! assert_eq!(g.num_vertices(), 4096);
//! ```

pub mod cache;
pub mod csr;
pub mod datasets;
pub mod rmat;

pub use cache::{unique_tmp_path, DatasetCache, CACHE_FORMAT_VERSION};
pub use csr::{Edge, Graph};
pub use datasets::{Dataset, DatasetSpec};
pub use rmat::{rmat, to_bipartite, RmatParams};
