//! Learner-session benchmark for the VGBL platform.
//!
//! One command generates a workload from a seed, plays it through the
//! repository's public APIs, checks every output against a reference made
//! during set-up, and prints each metric by name with its unit. The
//! workloads (see `README.md` in this directory for the rationale):
//!
//! * `classroom_burst` — a class starts the same published game together;
//!   session set-up and scheduling dominate, decoding is nearly absent.
//! * `branchy_watch` — a few long sessions branch across larger footage
//!   through a cache that holds a quarter of the GOPs; decode, eviction
//!   and seek dominate.
//! * `author_import` — the authoring pipeline: shot detection, encode,
//!   editing, `.vgp`/VGV save, publish, the first frame, then loading.
//! * `fleet_recovery` — the sharded fleet serving real engine sessions
//!   through a shard crash and a power loss, with a durable store and
//!   journeys on.
//!
//! Layers are timed from outside: [`trace::span`] wraps each call into a
//! layer's public function, and a traced run folds those spans into
//! per-layer self times that sum to the run's wall time.
//!
//! End-to-end times are rescaled to a reference host by two calibration
//! kernels timed between rounds ([`calib`]), so load from other tenants
//! of a shared machine does not move them.

#![forbid(unsafe_code)]

pub mod author;
pub mod calib;
pub mod fleet;
pub mod game;
pub mod learner;
pub mod report;
pub mod run;
pub mod trace;
pub mod watch;

/// Worker threads for every parallel stage (encode, shot detection,
/// batch prewarm): one, so the whole workload runs on the thread that
/// times the calibration kernels ([`calib`]). On a virtual machine whose
/// vCPUs run at different speeds under other tenants' load, the kernels
/// then measure the speed of the CPU the work ran on.
pub const WORKERS: usize = 1;

/// SplitMix64 finaliser: derives independent sub-seeds from the
/// workload seed, so every generated input is a pure function of it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
