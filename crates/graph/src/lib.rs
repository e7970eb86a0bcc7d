//! # imre-graph
//!
//! The implicit-mutual-relation substrate (paper §III-A): builds the entity
//! proximity graph from unlabeled-corpus co-occurrence counts, embeds its
//! vertices with LINE (first + second order, negative sampling), and serves
//! the queries the rest of the system needs — per-entity vectors, the
//! mutual-relation difference `MR_ij = U_j − U_i`, nearest-neighbour lookups
//! for the paper's case study, and a PCA projection for Figure 8.
//!
//! Skip-gram word pretraining ([`train_skipgram`]) lives here too: it is
//! the same negative-sampling SGD as LINE — one update rule, one ¾-power
//! noise table, one linear rate decay — over corpus windows instead of
//! graph edges.
//!
//! ```
//! use imre_graph::{ProximityGraph, LineConfig, train_line, nearest};
//!
//! // co-occurrence counts from any unlabeled corpus
//! let counts = vec![((0usize, 1usize), 12u32), ((1, 2), 9), ((0, 2), 11)];
//! let graph = ProximityGraph::from_counts(counts, 3, 2);
//! let emb = train_line(&graph, &LineConfig { dim: 8, samples_per_epoch: 1_000, epochs: 1, ..Default::default() });
//! let mr = emb.mutual_relation(0, 1); // the paper's MR_ij
//! assert_eq!(mr.len(), 8);
//! let _similar = nearest(&emb, 0, 2);
//! ```

pub mod alias;
pub mod knn;
pub mod line;
mod negsample;
pub mod pca;
pub mod proximity;
pub mod skipgram;

pub use alias::AliasTable;
pub use knn::{nearest, nearest_pairs};
pub use line::{train_line, EntityEmbedding, LineConfig};
pub use pca::pca_project;
pub use proximity::ProximityGraph;
pub use skipgram::train_skipgram;
