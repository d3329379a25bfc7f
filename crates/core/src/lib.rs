//! # pm-core
//!
//! Continuous monitoring of Pareto frontiers on partially ordered attributes
//! for many users — the primary contribution of Sultana & Li (EDBT 2018).
//!
//! Given a set of users whose preferences are strict partial orders (one per
//! attribute) and a stream of objects, a monitor answers, for every arriving
//! object, the set of *target users*: the users for whom the object is
//! Pareto-optimal (Def. 3.4).
//!
//! Implemented algorithms:
//!
//! | Paper | Type | Semantics |
//! |-------|------|-----------|
//! | Alg. 1 `Baseline` | [`BaselineMonitor`] | append-only, per-user maintenance |
//! | Alg. 2 `FilterThenVerify` | [`FilterThenVerifyMonitor`] | append-only, shared cluster filter |
//! | Sec. 6 `FilterThenVerifyApprox` | [`FilterThenVerifyMonitor`] built via [`FilterThenVerifyMonitor::with_approx_clusters`] | append-only, approximate common preferences |
//! | Alg. 4 `BaselineSW` | [`BaselineSwMonitor`] | sliding window, per-user buffers |
//! | Alg. 5 `FilterThenVerifySW` | [`FilterThenVerifySwMonitor`] | sliding window, shared cluster buffers |
//! | Sec. 7+6 `FilterThenVerifyApproxSW` | [`FilterThenVerifySwMonitor`] built via [`FilterThenVerifySwMonitor::with_approx_clusters`] | sliding window, approximate common preferences |
//!
//! The [`accuracy`] module computes the precision / recall / F-measure used
//! by Tables 11 and 12 of the paper to quantify the cost of approximation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod baseline;
mod buckets;
mod clusters;
pub mod delta;
pub mod filter_then_verify;
pub mod history;
pub mod monitor;
pub mod sliding_window;
pub mod stats;
pub mod timers;

pub use accuracy::{AccuracyReport, ConfusionMatrix};
pub use baseline::BaselineMonitor;
pub use delta::FrontierDelta;
pub use filter_then_verify::FilterThenVerifyMonitor;
pub use history::{History, HistoryMode};
pub use monitor::{Arrival, ContinuousMonitor, HistoryState, MonitorState};
pub use sliding_window::{BaselineSwMonitor, FilterThenVerifySwMonitor};
pub use stats::MonitorStats;
pub use timers::MonitorTimers;
