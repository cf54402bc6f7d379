//! Evaluation harness for the MoLoc reproduction.
//!
//! This crate rebuilds the paper's testbed and every experiment of
//! Sec. VI:
//!
//! * [`scenario`] — the simulated 40.8 m × 16 m office hall: 28
//!   reference locations (Fig. 5), 6 sparsely placed APs, partitions.
//! * [`pipeline`] — the end-to-end trace-driven protocol: site survey →
//!   crowdsourced motion database → WiFi-baseline and MoLoc
//!   localization over held-out traces.
//! * [`cache`] — the keyed scenario-artifact cache: experiments sharing
//!   a `(floorplan, AP layout, seed)` scenario reuse one built
//!   [`Setting`] + fingerprint index + motion kernel.
//! * [`metrics`] — localization errors, accuracy, error CDFs.
//! * [`convergence`] — erroneous-localizations-before-first-accurate
//!   statistics (Table I).
//! * [`experiments`] — one module per paper artifact: Fig. 4, Fig. 6,
//!   Fig. 7, Fig. 8, Table I, plus the ablations listed in DESIGN.md.
//! * [`observe`] — the canonical metric taxonomy emitted through
//!   `moloc-obs` (`repro --metrics FILE` writes the snapshot).
//! * [`parallel`] — order-preserving parallel maps over the persistent
//!   work-stealing [`runtime`] (`MOLOC_THREADS` controls the width;
//!   results are byte-identical to a serial run at every width and
//!   chunk size).
//! * [`runtime`] — the process-wide work-stealing worker pool:
//!   per-worker deques, chunked shards, lock-free slot collection, and
//!   panics rethrown on the submitter once the job drains.
//! * [`arena`] — per-worker pools of reusable localization scratch so
//!   steady-state evaluation does zero hot-path allocation.
//! * [`report`] — plain-text rendering of tables and CDF series in the
//!   shape the paper reports them.
//! * [`audit`] — seeded differential suites shared by the `moloc-audit`
//!   gate and its pinned regression seeds.
//!
//! The `repro` binary regenerates everything:
//!
//! ```text
//! cargo run -p moloc-eval --bin repro --release -- --exp all
//! ```

pub mod arena;
pub mod audit;
pub mod cache;
pub mod convergence;
pub mod experiments;
pub mod metrics;
pub mod observe;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod scenario;

pub use cache::{ScenarioCache, SettingArtifacts};
pub use pipeline::{EvalWorld, Setting};
pub use scenario::OfficeHall;
