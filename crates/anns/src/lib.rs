//! Graph-based approximate nearest neighbor search and black-box tuners.
//!
//! WACO casts auto-scheduling as a nearest neighbor search (§4.2): the
//! dataset is the set of SuperSchedules, the query is the input matrix, and
//! the "distance" is the predicted cost `ŷ(m, s)`. This crate provides:
//!
//! * [`hnsw::Hnsw`] — a from-scratch Hierarchical Navigable Small World
//!   graph (Malkov & Yashunin), the hnswlib substitute. Built on the **l2
//!   distance between program embeddings**; searched with a **generic,
//!   memoized distance** — the paper's two-metric trick (§4.2.2).
//! * [`index::ScheduleIndex`] — the WACO search pipeline: sample the vertex
//!   set, embed every schedule once, build the graph, and answer queries by
//!   running ANNS with the cost model's predictor head as the distance,
//!   timing the feature-extraction and ANNS phases separately
//!   (Figure 16b). An index lives in memory only: building one is a few
//!   milliseconds per shape, so every process builds its own.
//! * [`blackbox`] — the search-strategy baselines of Figure 16a: pure
//!   random search, a TPE-style optimizer (the HyperOpt stand-in), and a
//!   multi-armed-bandit ensemble (the OpenTuner stand-in), each reporting a
//!   best-so-far trace and the fraction of time spent actually evaluating
//!   the cost model.

pub mod blackbox;
pub mod hnsw;
pub mod index;

pub use hnsw::Hnsw;
pub use index::{ScheduleIndex, SearchBreakdown};
