//! The owning MoLoc facade.
//!
//! [`MoLoc`] bundles the fingerprint database, motion database, and
//! configuration into one deployable unit — the thing a venue operator
//! would ship — and hands out per-session [`BatchLocalizer`]s.

use crate::batch::BatchLocalizer;
use crate::config::MoLocConfig;
use crate::error::MolocError;
use crate::matching::build_kernel;
use crate::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;

/// A deployed MoLoc system.
///
/// Construction precomputes the two serving artifacts — the columnar
/// [`FingerprintIndex`] and the [`MotionKernel`] — once; every
/// per-session engine handed out shares them instead of rebuilding.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone)]
pub struct MoLoc {
    fingerprint_db: FingerprintDb,
    motion_db: MotionDb,
    config: MoLocConfig,
    index: FingerprintIndex,
    kernel: MotionKernel,
}

/// Builder for [`MoLoc`].
#[derive(Debug)]
pub struct MoLocBuilder {
    fingerprint_db: FingerprintDb,
    motion_db: MotionDb,
    config: MoLocConfig,
}

impl MoLocBuilder {
    /// Overrides the configuration (default: [`MoLocConfig::paper`]).
    pub fn config(mut self, config: MoLocConfig) -> Self {
        self.config = config;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn build(self) -> MoLoc {
        self.config.validate();
        let index = FingerprintIndex::build(&self.fingerprint_db);
        let kernel = build_kernel(&self.motion_db, &self.config);
        MoLoc {
            fingerprint_db: self.fingerprint_db,
            motion_db: self.motion_db,
            config: self.config,
            index,
            kernel,
        }
    }
}

impl MoLoc {
    /// Starts building a system from its two databases.
    pub fn builder(fingerprint_db: FingerprintDb, motion_db: MotionDb) -> MoLocBuilder {
        MoLocBuilder {
            fingerprint_db,
            motion_db,
            config: MoLocConfig::paper(),
        }
    }

    /// The fingerprint database.
    pub fn fingerprint_db(&self) -> &FingerprintDb {
        &self.fingerprint_db
    }

    /// The motion database.
    pub fn motion_db(&self) -> &MotionDb {
        &self.motion_db
    }

    /// The configuration.
    pub fn config(&self) -> MoLocConfig {
        self.config
    }

    /// The prebuilt columnar fingerprint index.
    pub fn index(&self) -> &FingerprintIndex {
        &self.index
    }

    /// The prebuilt motion kernel.
    pub fn kernel(&self) -> &MotionKernel {
        &self.kernel
    }

    /// A fresh per-session localizer sharing the prebuilt kernel and
    /// index (no per-session artifact builds); its scratch buffers make
    /// repeated observations allocation-free.
    pub fn tracker(&self) -> BatchLocalizer<'_> {
        BatchLocalizer::new_with_index(&self.index, &self.kernel, self.config)
    }

    /// Localizes a whole query sequence, as the trace-driven evaluation
    /// does: the first element carries no motion, subsequent elements
    /// carry the RLM measured since the previous query.
    ///
    /// # Errors
    ///
    /// Returns the first [`MolocError`] encountered.
    pub fn localize_sequence(
        &self,
        queries: &[(Fingerprint, Option<MotionMeasurement>)],
    ) -> Result<Vec<LocationId>, MolocError> {
        self.tracker().localize_trace(queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_motion::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    fn system() -> MoLoc {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-40.0, -70.0])),
            (l(2), fp(&[-55.0, -55.0])),
            (l(3), fp(&[-70.0, -40.0])),
        ])
        .unwrap();
        let mut mdb = MotionDb::new(3);
        let east = PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(4.0, 0.3).unwrap(),
            sample_count: 10,
        };
        mdb.insert(l(1), l(2), east);
        mdb.insert(l(2), l(3), east);
        MoLoc::builder(fdb, mdb).build()
    }

    #[test]
    fn sequence_localization_walks_east() {
        let moloc = system();
        let east = Some(MotionMeasurement {
            direction_deg: 90.0,
            offset_m: 4.0,
        });
        let estimates = moloc
            .localize_sequence(&[
                (fp(&[-41.0, -69.0]), None),
                (fp(&[-54.0, -56.0]), east),
                (fp(&[-69.0, -41.0]), east),
            ])
            .unwrap();
        assert_eq!(estimates, vec![l(1), l(2), l(3)]);
    }

    #[test]
    fn accessors_expose_components() {
        let moloc = system();
        assert_eq!(moloc.fingerprint_db().len(), 3);
        assert_eq!(moloc.motion_db().pair_count(), 2);
        assert_eq!(moloc.config().alpha_deg, 20.0);
    }

    #[test]
    fn trackers_are_independent_sessions() {
        let moloc = system();
        let mut a = moloc.tracker();
        let mut b = moloc.tracker();
        let at_a = a.observe(&fp(&[-41.0, -69.0]), None).unwrap();
        assert!(!a.posterior().is_empty());
        assert!(b.posterior().is_empty());
        let at_b = b.observe(&fp(&[-69.0, -41.0]), None).unwrap();
        assert_ne!(at_a, at_b);
    }

    #[test]
    fn sequence_error_propagates() {
        let moloc = system();
        let err = moloc
            .localize_sequence(&[(fp(&[-41.0]), None)])
            .unwrap_err();
        assert!(matches!(err, MolocError::QueryLength { .. }));
    }
}
