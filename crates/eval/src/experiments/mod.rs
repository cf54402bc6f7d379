//! Experiment runners, one per paper artifact.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig4`] | Fig. 4 — acceleration signature of 10 steps |
//! | [`fig6`] | Fig. 6 — motion-database direction/offset error CDFs |
//! | [`fig7`] | Fig. 7 — overall error CDFs, MoLoc vs WiFi, 4/5/6 APs |
//! | [`fig8`] | Fig. 8 — error CDFs at large-error (twin) locations |
//! | [`table1`] | Table I — convergence statistics |
//! | [`ablations`] | the design-choice ablations listed in DESIGN.md |
//! | [`baselines`] | extension: MoLoc vs Horus vs HMM vs particle filter vs WiFi NN |
//! | [`seeds`] | extension: seed-sensitivity sweep of the headline comparison |
//! | [`robustness`] | extension: fault-injection sweeps and the degradation ladder |
//! | [`chaos`] | extension: crash-safe streaming under stream faults, kill matrices, checkpoint corruption |
//! | [`drift`] | extension: static vs dynamic database under live crowdsourced updates |

pub mod ablations;
pub mod baselines;
pub mod chaos;
pub mod drift;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod robustness;
pub mod seeds;
pub mod table1;
