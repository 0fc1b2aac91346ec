//! # minex-congest
//!
//! A deterministic, synchronous simulator of the **CONGEST model**
//! (Section 1.3.1 of Haeupler–Li–Zuzic, PODC 2018): communication proceeds
//! in rounds; per round, each node may send one `O(log n)`-bit message to
//! each neighbor; local computation is free.
//!
//! The simulator enforces the model exactly — message sizes are accounted in
//! bits and per-edge-per-round uniqueness is checked — so the *round counts*
//! it reports are the model's true cost measure.
//!
//! One engine runs one per-node round body over contiguous node-id shards:
//! inline on the caller's thread by default, or deterministically across
//! worker threads selected via [`CongestConfig::with_threads`] (or the
//! `MINEX_THREADS` environment variable). Successful runs are
//! byte-identical across shard counts — [`RunStats`], program outputs, and
//! the error *selection* on failing runs (see [`run`]); threads only trade
//! wall-clock time.
//!
//! The engine is instrumented with the zero-cost-when-off
//! [`telemetry`] layer: a [`Sink`] receives per-round, per-send,
//! per-delivery, and rejection events, and the [`CongestionProfile`]
//! recorder turns them into per-edge congestion maps, per-round
//! histograms, and phase attribution — byte-identical across thread
//! counts. The default [`NoopSink`] monomorphizes every hook away.
//!
//! ## Example
//!
//! ```
//! use minex_congest::{primitives, CongestConfig};
//! use minex_graphs::generators;
//!
//! let g = generators::grid(8, 8);
//! let tree = primitives::build_bfs_tree(&g, 0, CongestConfig::for_nodes(g.n()))?;
//! assert_eq!(tree.dist[63], 14); // opposite corner of the grid
//! # Ok::<(), minex_congest::SimError>(())
//! ```
//!
//! ## Recording a congestion profile
//!
//! [`telemetry::record`] scopes a recorder over unmodified [`run`] call
//! sites; [`run_with_sink`] passes one explicitly:
//!
//! ```
//! use minex_congest::telemetry::{self, CongestionProfile};
//! use minex_congest::{primitives, CongestConfig};
//! use minex_graphs::generators;
//!
//! let g = generators::grid(8, 8);
//! let mut profile = CongestionProfile::new();
//! let tree = telemetry::record(&mut profile, || {
//!     primitives::build_bfs_tree(&g, 0, CongestConfig::for_nodes(g.n()))
//! })?;
//! assert_eq!(profile.total_messages(), tree.stats.messages);
//! let (hottest_edge, load) = profile.hot_links(1)[0];
//! assert!(load.messages >= 1 && hottest_edge < g.m());
//! # Ok::<(), minex_congest::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod message;
mod parallel;
pub mod primitives;
mod program;
mod runtime;
mod soa;
pub mod telemetry;

pub use message::{bits_for, Payload};
pub use program::{Ctx, NodeProgram};
pub use runtime::{run, run_with_sink, CongestConfig, RunStats, SimError};
pub use telemetry::{CongestionProfile, NoopSink, PhaseLabel, Sink};
