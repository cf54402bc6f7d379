//! The result type of the k-nearest-neighbor candidate selection of
//! the paper's Eq. 3: the k locations whose stored fingerprints are
//! nearest to the query. [`crate::index::FingerprintIndex`] computes
//! them.

use moloc_geometry::LocationId;

/// One k-NN match: a location and its dissimilarity `mᵢ = φ(F, Fᵢ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The candidate location.
    pub location: LocationId,
    /// Its fingerprint dissimilarity to the query.
    pub dissimilarity: f64,
}
