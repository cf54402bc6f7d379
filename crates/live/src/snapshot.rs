//! An epoch-stamped immutable database snapshot.
//!
//! One [`DbSnapshot`] is the complete read-side world for a
//! localization epoch: the fingerprint query index over the condensed
//! per-location means, and the sanitized motion database with its
//! construction report. Snapshots are shared behind `Arc`s by the
//! publisher, every in-flight reader, and every live localizer — they
//! are never mutated, only replaced wholesale at an epoch boundary. The
//! update log builds a new epoch in the buffers of one two epochs back
//! only once nothing holds them (`Arc::make_mut`), so a snapshot that
//! anyone holds never changes.
//!
//! A snapshot also carries derived data. The motion database's
//! [`PairTable`], which the motion builder keeps in step with the
//! database at publish time, is the config-free half of every motion
//! kernel: each reader wraps it with its own configuration's scalars,
//! so adoption builds nothing and readers of every configuration share
//! one table. A [`FingerprintDb`] view of the index is built on the
//! first [`DbSnapshot::fdb`] call, which no reader makes.

use moloc_core::config::MoLocConfig;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_motion::builder::BuildReport;
use moloc_motion::kernel::{MotionKernel, PairTable};
use moloc_motion::matrix::MotionDb;
use std::sync::{Arc, OnceLock};

/// The immutable databases one epoch serves from.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The publish generation this snapshot belongs to. Epoch 0 is the
    /// initial (pre-update) database; every successful publish
    /// increments it by one.
    pub epoch: u64,
    /// The k-NN query index over the condensed per-location means.
    pub index: Arc<FingerprintIndex>,
    /// The sanitized crowdsourced motion database.
    pub motion_db: Arc<MotionDb>,
    /// Construction counters for the motion database (coarse/fine
    /// rejections, underpopulated pairs). Part of the content digest:
    /// two logs that saw different RLM streams must hash differently
    /// even when every difference was filtered out.
    pub motion_report: BuildReport,
    /// [`PairTable::build`] of `motion_db`, as the motion builder
    /// maintains it. Derived data: not part of the digest.
    pub(crate) pairs: Arc<PairTable>,
    /// The index's rows as a database, filled by the first
    /// [`DbSnapshot::fdb`] call. Derived data: not part of the digest.
    pub(crate) fdb: OnceLock<FingerprintDb>,
}

impl DbSnapshot {
    /// FNV-1a digest over the snapshot's *content* — every fingerprint
    /// bit, every motion pair's fitted Gaussian bits, and the build
    /// report counters. The `epoch` stamp is deliberately excluded:
    /// the incremental-vs-rebuild equivalence contract compares a
    /// published epoch-N snapshot against a from-scratch epoch-0
    /// rebuild, and those must collide exactly when their databases
    /// are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.index.ap_count() as u64);
        for (position, id) in self.index.ids().iter().enumerate() {
            h.eat(u64::from(id.get()));
            for &v in self.index.row(position) {
                h.eat(v.to_bits());
            }
        }
        h.eat(self.motion_db.pair_count() as u64);
        for (a, b, stats) in self.motion_db.iter() {
            h.eat(u64::from(a.get()));
            h.eat(u64::from(b.get()));
            h.eat(stats.direction.mean().to_bits());
            h.eat(stats.direction.std().to_bits());
            h.eat(stats.offset.mean().to_bits());
            h.eat(stats.offset.std().to_bits());
            h.eat(stats.sample_count);
        }
        let r = &self.motion_report;
        for counter in [
            r.observed,
            r.rejected_coarse,
            r.rejected_unmapped,
            r.rejected_fine,
            r.underpopulated_pairs,
            r.pairs_built,
        ] {
            h.eat(counter);
        }
        h.finish()
    }

    /// The condensed per-location fingerprint database: the index's
    /// ids and rows, in the same order. Built on the first call and
    /// kept; the serving path reads the index and never calls this.
    pub fn fdb(&self) -> &FingerprintDb {
        self.fdb.get_or_init(|| {
            let entries = (0..self.index.len())
                .map(|position| {
                    let row = self.index.row(position).to_vec();
                    (self.index.ids()[position], Fingerprint::new(row))
                })
                .collect();
            FingerprintDb::from_fingerprints(entries).expect("an index holds a valid database")
        })
    }

    /// The motion kernel of this epoch for `config`: the epoch's shared
    /// pair table under `config`'s scalars, in `O(1)`. Every kernel of
    /// the epoch, whatever its configuration, reads the same table.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`MoLocConfig::validate`]), as
    /// [`build_kernel`] does.
    ///
    /// [`build_kernel`]: moloc_core::matching::build_kernel
    pub fn kernel(&self, config: &MoLocConfig) -> MotionKernel {
        config.validate();
        MotionKernel::with_pairs(Arc::clone(&self.pairs), &config.kernel_config())
    }
}

/// Minimal FNV-1a accumulator (same constants as the checkpoint and
/// chaos digests elsewhere in the workspace).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::LocationId;

    fn snap(epoch: u64, values: &[f64]) -> DbSnapshot {
        let mut matrix = values.to_vec();
        matrix.resize(2 * values.len(), -70.0);
        let ids = vec![LocationId::new(1), LocationId::new(2)];
        let index = FingerprintIndex::from_rows(ids, matrix, values.len()).expect("valid rows");
        let motion_db = MotionDb::new(4);
        DbSnapshot {
            epoch,
            index: Arc::new(index),
            pairs: Arc::new(PairTable::build(&motion_db)),
            motion_db: Arc::new(motion_db),
            motion_report: BuildReport::default(),
            fdb: OnceLock::new(),
        }
    }

    #[test]
    fn fdb_is_the_index_rows_in_id_order() {
        let s = snap(0, &[-40.0, -55.0]);
        let want = FingerprintDb::from_fingerprints(vec![
            (LocationId::new(2), Fingerprint::new(vec![-70.0, -70.0])),
            (LocationId::new(1), Fingerprint::new(vec![-40.0, -55.0])),
        ])
        .unwrap();
        assert_eq!(*s.fdb(), want);
        assert!(std::ptr::eq(s.fdb(), s.fdb()), "built once, then kept");
        assert_eq!(FingerprintIndex::build(s.fdb()), *s.index);
    }

    #[test]
    fn digest_ignores_epoch_but_sees_content() {
        let a = snap(0, &[-40.0, -55.0]);
        let b = snap(17, &[-40.0, -55.0]);
        assert_eq!(a.digest(), b.digest(), "epoch must not enter the digest");

        let c = snap(0, &[-40.0, -55.5]);
        assert_ne!(a.digest(), c.digest(), "a changed RSS bit must change it");
    }

    #[test]
    fn digest_sees_report_counters() {
        let a = snap(0, &[-40.0]);
        let mut b = snap(0, &[-40.0]);
        b.motion_report.rejected_coarse = 1;
        assert_ne!(
            a.digest(),
            b.digest(),
            "a filtered-out RLM still distinguishes the streams"
        );

        let mut c = snap(0, &[-40.0]);
        c.motion_report.rejected_unmapped = 1;
        assert_ne!(a.digest(), c.digest(), "unmapped drops are content too");
        assert_ne!(
            b.digest(),
            c.digest(),
            "coarse and unmapped rejections must hash differently"
        );
    }
}
