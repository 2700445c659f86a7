//! `waco-serve`: an online auto-tuning service with a persistent,
//! fingerprint-keyed tuning cache.
//!
//! WACO's value proposition is amortization: train the cost model once,
//! then answer "which format + schedule for *this* sparsity pattern"
//! cheaply at deployment time. This crate turns the one-shot pipeline into
//! a long-running service that amortizes further, BestFormat-style —
//! decisions are reusable across structurally similar matrices, so they are
//! cached under a sparsity [`Fingerprint`] and survive restarts:
//!
//! * [`fingerprint`] — a 128-bit digest of the sparsity structure (dims,
//!   nnz, row/column nnz histograms, block-density statistics), FNV-1a
//!   hashed ([`waco_runtime::hash`]) over a canonical byte encoding.
//! * [`lru`] + [`journal`] + [`cache`] — the two-tier [`TuningCache`]: an
//!   in-memory [`Lru`] under one lock over an append-only, checksummed
//!   on-disk journal with corrupt-tail truncation and compaction on load.
//!   The same `Lru` holds the plan cache and the request memo.
//! * [`protocol`] + [`reactor`] — the wire and the one event loop that
//!   speaks it: length-prefixed JSON (`tune` / `lookup` / `stats` / `sync` /
//!   `shutdown`) over loopback TCP, pipelined with in-order replies, at most
//!   [`reactor::MAX_PIPELINED`] unanswered requests per connection, a
//!   connection cap, an idle sweep, and graceful drain. The loop only
//!   frames; what a request *means*, decoding its body included, is a
//!   [`reactor::Handler`]; there are two.
//! * [`server`] + [`client`] — handler one, the tuning server: an executor
//!   pool, in-flight tune coalescing, and the `stats` frame; plus the
//!   blocking client.
//! * `memo` — the request memo both handlers keep on their loop thread: a
//!   repeated `tune`/`lookup` frame's exact bytes → the kernel, dense extent
//!   and fingerprint its first parse derived, within
//!   [`protocol::MEMO_BUDGET`] bytes, probed before the frame is decoded.
//! * [`ring`] + [`router`] + [`sync`] — the distributed tier: a consistent
//!   hash ring over the fingerprint, handler two — a proxy that shards
//!   requests across N servers with failover to the ring's next live shard
//!   — and peer journal streaming so a joining shard starts warm.
//! * [`tuner`] — the serving backend: lazily-trained [`waco_core::Waco`]
//!   pipelines whose ANNS indices are rebuilt in memory per process; the
//!   journal is the one thing the service persists.
//!
//! Everything is std-only, instrumented through `waco-obs`, and fallible
//! through [`waco_core::WacoError`]; the wire's JSON is `waco-obs`'s one
//! codec, re-exported as [`json`] / [`Json`].

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod journal;
pub mod lru;
mod memo;
pub mod plan_cache;
pub mod protocol;
pub mod reactor;
pub mod ring;
pub mod router;
pub mod server;
pub mod sync;
pub mod tuner;

pub use cache::{CacheStats, Decision, TuningCache};
pub use client::{Client, QueryReply};
pub use fingerprint::Fingerprint;
pub use journal::Journal;
pub use json::Json;
pub use lru::Lru;
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use server::{ServeConfig, Server};
pub use sync::{warm_from_peer, SyncReport};
pub use tuner::{Tuner, WacoTuner, WacoTunerConfig};
pub use waco_obs::json;
