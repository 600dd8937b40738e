//! # vgbl-stream — simulated network delivery of interactive video
//!
//! The paper's related work (§2) places the platform among "PC-based
//! systems … integrating network, video encoding and transmission
//! technologies", and §4.1 has designers "select video files from
//! network". Real sockets would measure the test machine, not the
//! design, so this crate *simulates* delivery (see `DESIGN.md`):
//!
//! * [`chunk`] — the unit of delivery: one GOP per chunk, derived from a
//!   real encoded stream's payload sizes.
//! * [`link`] — a bandwidth + latency link model with deterministic
//!   transfer times.
//! * [`prefetch`] — fetch-ahead policies: on-demand, linear look-ahead,
//!   and **branch-aware** (follow the scenario graph's outgoing edges —
//!   the policy interactive video uniquely enables).
//! * [`client`] — the streaming client simulation: plays a trace of
//!   segment visits against a link and policy, reporting startup delay,
//!   rebuffering and byte efficiency (EXP-7).
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   of chunk loss, byte corruption and stall events, a
//!   [`FaultyLink`] wrapper composing faults with any link model
//!   (EXP-12), and [`LoadSpike`] windows that multiply fault rates for
//!   overload experiments (EXP-14).
//! * [`breaker`] — a closed/open/half-open [`CircuitBreaker`] on
//!   simulated time, so clients fail fast on persistently sick links
//!   instead of burning retry budget (EXP-14).
//! * [`batch`] — per-tick fetch batching: a [`BatchPlanner`] coalesces
//!   the chunk requests of a whole cooperative-executor tick into one
//!   deduplicated, breaker-gated plan (EXP-18).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod breaker;
pub mod chunk;
pub mod client;
pub mod fault;
pub mod link;
pub mod prefetch;

pub use batch::{BatchPlan, BatchPlanner, ChunkPlanner, PlannerStats};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use chunk::{ChunkId, ChunkMap};
pub use client::{
    simulate, simulate_faulty, FaultyStreamReport, RetryPolicy, StreamStats, TraceStep,
};
pub use fault::{ChunkFault, FaultPlan, FaultyLink, LoadSpike};
pub use link::{Link, LinkModel, VariableLink};
pub use prefetch::{warm_decoded_gops, PrefetchContext, PrefetchPolicy};

/// Errors from the streaming simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A trace step references a segment outside the map.
    UnknownSegment(u32),
    /// The link model is degenerate (zero bandwidth).
    InvalidLink(String),
    /// The chunk map is empty (no video).
    EmptyVideo,
    /// Decoding a GOP for cache warming failed.
    Decode(String),
    /// The video has more GOP-chunks than a `u32` chunk id can address
    /// (carries the first out-of-range index).
    TooManyChunks(usize),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnknownSegment(id) => write!(f, "unknown segment {id} in trace"),
            StreamError::InvalidLink(msg) => write!(f, "invalid link model: {msg}"),
            StreamError::EmptyVideo => write!(f, "no chunks to stream"),
            StreamError::Decode(msg) => write!(f, "decode during warm-up failed: {msg}"),
            StreamError::TooManyChunks(i) => {
                write!(f, "chunk index {i} exceeds the u32 chunk-id space")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Result alias for streaming operations.
pub type Result<T> = std::result::Result<T, StreamError>;
