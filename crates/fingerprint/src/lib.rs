#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! RSS fingerprinting engine for the MoLoc reproduction.
//!
//! This crate implements the classic fingerprinting half of MoLoc:
//!
//! * [`fingerprint`] — the [`fingerprint::Fingerprint`] RSS vector.
//! * [`metric`] — dissimilarity functions, including the paper's
//!   Euclidean metric (Eq. 1) plus Manhattan/cosine alternatives.
//! * [`db`] — the fingerprint database mapping reference locations to
//!   surveyed fingerprints.
//! * [`index`] — the columnar [`index::FingerprintIndex`]: a flattened
//!   structure-of-arrays view of the database and the k-NN candidate
//!   generator of Eq. 3. Four methods make up the whole k-NN layer —
//!   `k_nearest_into` (one clean query), `k_nearest_masked_into` (one
//!   query with missing APs), `k_nearest_block_into` (a block of
//!   queries) and `rank_all_into` (every row's distance) — and each
//!   picks its strategy from the query's shape.
//! * [`block`] — multi-query [`block::QueryBlock`] batches for the f32
//!   quantized index mirror's prefilter-and-rescore scan (bit-identical
//!   to per-query scans; see DESIGN.md §15).
//! * [`knn`] — the [`knn::Neighbor`] result type and the generic
//!   k-nearest walk for custom metrics.
//! * [`nn_localizer`] — the plain WiFi fingerprinting baseline the paper
//!   compares against (Eq. 2).
//! * [`centroid`] — the weighted-centroid k-NN refinement (continuous
//!   position estimates).
//! * [`horus`] — a Horus-style probabilistic baseline (extension: each
//!   location modeled as per-AP Gaussians, maximum-likelihood decision).
//!
//! # Examples
//!
//! ```
//! use moloc_fingerprint::db::FingerprintDb;
//! use moloc_fingerprint::fingerprint::Fingerprint;
//! use moloc_fingerprint::nn_localizer::NnLocalizer;
//! use moloc_geometry::LocationId;
//!
//! let db = FingerprintDb::from_fingerprints(vec![
//!     (LocationId::new(1), Fingerprint::new(vec![-40.0, -70.0])),
//!     (LocationId::new(2), Fingerprint::new(vec![-70.0, -40.0])),
//! ])?;
//! let query = Fingerprint::new(vec![-42.0, -69.0]);
//! let est = NnLocalizer::new(&db).localize(&query)?;
//! assert_eq!(est, LocationId::new(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod block;
pub mod centroid;
pub mod db;
pub mod fingerprint;
pub mod horus;
pub mod index;
pub mod knn;
pub mod metric;
pub mod nn_localizer;

pub use block::{BlockNeighbors, BlockScratch, QueryBlock};
pub use db::FingerprintDb;
pub use fingerprint::Fingerprint;
pub use index::{FingerprintIndex, KnnScratch};
pub use metric::{Dissimilarity, Euclidean};
