//! The MoLoc motion database (paper Sec. IV).
//!
//! A *relative location measurement* (RLM) is the direction and offset a
//! user traverses between two adjacent reference locations. The motion
//! database stores, for every location pair, Gaussian statistics
//! `(μᵈ, σᵈ, μᵒ, σᵒ)` of the crowdsourced RLMs:
//!
//! * [`rlm`] — the RLM type, its mirror (reverse) and canonical forms.
//! * [`reassemble`] — the paper's *data reassembling*: exploit mutual
//!   reachability so each measurement trains both directions.
//! * [`filter`] — the two-level sanitation: coarse (against map-derived
//!   values, 20°/3 m thresholds) and fine (Gaussian 2σ outlier
//!   rejection).
//! * [`matrix`] — the n×n database with mirror-derived reverse entries.
//! * [`kernel`] — a precomputed view of the database for the Eq. 5/6
//!   hot path (per-origin sorted runs of the trained pairs + tabulated
//!   CDF, `O(n + pairs)` memory).
//! * [`builder`] — the crowdsourcing pipeline putting it all together.
//! * [`map_based`] — the rejected straight-line alternative of
//!   Sec. IV-A, kept as an ablation comparator.
//!
//! # Examples
//!
//! ```
//! use moloc_geometry::LocationId;
//! use moloc_motion::rlm::Rlm;
//!
//! let r = Rlm::new(LocationId::new(5), LocationId::new(2), 270.0, 5.8)?;
//! let canonical = r.canonical();
//! assert_eq!(canonical.from, LocationId::new(2));
//! assert_eq!(canonical.direction_deg, 90.0);
//! assert_eq!(canonical.offset_m, 5.8);
//! # Ok::<(), moloc_motion::rlm::InvalidRlmError>(())
//! ```

pub mod builder;
pub mod filter;
pub mod kernel;
pub mod map_based;
pub mod matrix;
pub mod reassemble;
pub mod rlm;

pub use builder::{BuildReport, MapReference, MotionDbBuilder};
pub use filter::SanitationConfig;
pub use kernel::{KernelConfig, MotionKernel};
pub use matrix::{MotionDb, PairStats};
pub use rlm::Rlm;
