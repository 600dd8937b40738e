//! The streaming-client simulation (EXP-7, EXP-12).
//!
//! Plays a *trace* — the sequence of segments a player visited and for
//! how long (loops included, since scenarios loop their segment while the
//! player explores) — against a [`crate::LinkModel`] and a
//! [`PrefetchPolicy`], accounting startup delay, rebuffering stalls and
//! byte efficiency. Time is simulated; results are exactly reproducible.
//!
//! The fault-aware entry point [`simulate_faulty`] additionally drives a
//! [`FaultyLink`]: chunk fetches get per-chunk deadlines, bounded retries
//! with capped exponential back-off and deterministic jitter, corrupted
//! arrivals are detected by the container checksum and re-fetched, and a
//! chunk whose retry budget runs out is *concealed* (freeze-frame for its
//! play duration) instead of aborting the session. It optionally asks a
//! caller-owned [`CircuitBreaker`] before each chunk, and records its
//! counters and session trace into the `&Obs` it is given
//! ([`Obs::noop`] records nothing).

use std::collections::{HashMap, HashSet};

use vgbl_media::SegmentId;
use vgbl_obs::{us_from_ms, Counter, Histogram, Obs, Series, SeriesSpec, SpanRecorder};

use crate::breaker::CircuitBreaker;
use crate::chunk::{ChunkId, ChunkMap};
use crate::fault::{FaultPlan, FaultyLink};
use crate::link::Link;
#[cfg(test)]
use crate::link::LinkModel;
use crate::prefetch::{PrefetchContext, PrefetchPolicy};
use crate::{Result, StreamError};

/// One step of a playback trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The segment the player is in.
    pub segment: SegmentId,
    /// How long they stay (the segment loops to fill the time).
    pub watch_ms: f64,
    /// Segments reachable in one transition from here (the scenario
    /// graph's out-edges; input to branch-aware prefetch).
    pub branch_targets: Vec<SegmentId>,
}

/// Results of one simulated session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Milliseconds from pressing play to the first frame.
    pub startup_ms: f64,
    /// Mid-session rebuffer events.
    pub stalls: usize,
    /// Total milliseconds spent rebuffering (excluding startup).
    pub stall_ms: f64,
    /// Bytes fetched, including the container header.
    pub bytes_fetched: usize,
    /// Bytes fetched for chunks that never played.
    pub wasted_bytes: usize,
    /// Total milliseconds of content played.
    pub play_ms: f64,
    /// Re-requests issued after a lost or corrupted delivery attempt.
    pub retries: usize,
    /// Delivery attempts that hit their deadline (lost responses).
    pub timeouts: usize,
    /// Chunks abandoned after exhausting the retry budget (or rejected
    /// outright by an open circuit breaker; see
    /// [`StreamStats::fast_failed`]).
    pub gave_up: usize,
    /// Milliseconds covered by freeze-frame concealment of abandoned
    /// chunks (never part of [`StreamStats::play_ms`]).
    pub conceal_ms: f64,
    /// Chunk requests rejected by an open [`crate::CircuitBreaker`]
    /// without touching the link (a subset of
    /// [`StreamStats::gave_up`]; 0 when no breaker is attached).
    pub fast_failed: usize,
}

impl StreamStats {
    /// Fraction of fetched payload bytes that never played. Lower is
    /// better; **empty input (nothing fetched) returns the perfect
    /// value `0.0`** — the workspace-wide convention for ratio metrics.
    pub fn waste_ratio(&self) -> f64 {
        if self.bytes_fetched == 0 {
            0.0
        } else {
            self.wasted_bytes as f64 / self.bytes_fetched as f64
        }
    }

    /// Rebuffering ratio: stall time over play time. Lower is better;
    /// **empty input (no stalls, no playback) returns the perfect value
    /// `0.0`**. A session that stalled without ever playing a frame is
    /// the *worst* possible playback, not a perfect one, so it returns
    /// `f64::INFINITY` rather than silently reporting `0.0`.
    pub fn rebuffer_ratio(&self) -> f64 {
        if self.play_ms == 0.0 {
            if self.stall_ms > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.stall_ms / self.play_ms
        }
    }

    /// Fraction of watched time served from real content rather than
    /// concealment; 1.0 for a fault-free session. Higher is better;
    /// **empty input (nothing watched) returns the perfect value
    /// `1.0`** — the workspace-wide convention for ratio metrics.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.play_ms + self.conceal_ms;
        if total == 0.0 {
            1.0
        } else {
            self.play_ms / total
        }
    }
}

/// Bounded-retry schedule for chunk fetches over a faulty link: capped
/// exponential back-off deadlines plus deterministic jitter (drawn from
/// the fault plan's seed, so runs reproduce exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-requests allowed per chunk after the initial attempt.
    pub max_retries: u32,
    /// Deadline for the first attempt, in milliseconds.
    pub base_timeout_ms: f64,
    /// Multiplier applied to the deadline per retry (≥ 1).
    pub backoff: f64,
    /// Upper bound on any single deadline, in milliseconds.
    pub max_timeout_ms: f64,
    /// Amplitude of the deterministic jitter added to each deadline.
    pub jitter_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_timeout_ms: 250.0,
            backoff: 2.0,
            max_timeout_ms: 2000.0,
            jitter_ms: 25.0,
        }
    }
}

impl RetryPolicy {
    /// The deadline of attempt `attempt` (0-based), given a uniform
    /// jitter draw in `[0, 1)`.
    ///
    /// Saturates rather than overflowing: the exponent is clamped before
    /// `powi` (beyond ~2^64 every realistic back-off has hit the cap
    /// anyway), and a back-off product that still lands on ±inf/NaN —
    /// possible for degenerate, unvalidated policies — collapses to
    /// `max_timeout_ms` instead of poisoning the simulated clock.
    pub fn deadline_ms(&self, attempt: u32, jitter_unit: f64) -> f64 {
        let backed_off = self.base_timeout_ms * self.backoff.powi(attempt.min(64) as i32);
        let capped = if backed_off.is_finite() {
            backed_off.min(self.max_timeout_ms)
        } else {
            self.max_timeout_ms
        };
        // The jitter term can still be ±inf/NaN for an unvalidated
        // policy (infinite jitter_ms, or a hostile jitter_unit); the
        // final sum must stay finite or the caller's clock is poisoned.
        let deadline = capped + jitter_unit * self.jitter_ms;
        if deadline.is_finite() {
            deadline
        } else {
            self.max_timeout_ms
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    /// [`StreamError::InvalidLink`] when the base timeout is not positive,
    /// the backoff factor is below 1, the timeout cap is below the base
    /// timeout, the jitter is negative, or any of them is non-finite.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| StreamError::InvalidLink(msg.into());
        if !self.base_timeout_ms.is_finite() || self.base_timeout_ms <= 0.0 {
            return Err(bad("retry base timeout must be positive"));
        }
        if !self.backoff.is_finite() || self.backoff < 1.0 {
            return Err(bad("retry backoff factor must be >= 1"));
        }
        if !self.max_timeout_ms.is_finite() || self.max_timeout_ms < self.base_timeout_ms {
            return Err(bad("retry timeout cap must be >= the base timeout"));
        }
        if !self.jitter_ms.is_finite() || self.jitter_ms < 0.0 {
            return Err(bad("retry jitter must be non-negative"));
        }
        Ok(())
    }
}

/// Outcome of one fault-aware session: the stats plus exactly which
/// chunks arrived intact and which were abandoned to concealment —
/// the inputs a bit-exactness check needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyStreamReport {
    /// Session statistics (same schema as the fault-free path).
    pub stats: StreamStats,
    /// Chunks delivered intact (checksum-verified), ascending.
    pub delivered: Vec<ChunkId>,
    /// Chunks abandoned after the retry budget, ascending.
    pub concealed: Vec<ChunkId>,
}

/// Resolved observability handles plus the session's span recorder,
/// threaded through the simulation core. Resolved from [`Obs::noop`]
/// (what [`simulate`] uses) it costs one `Option`/`bool` check per
/// event site, keeping the hot path unaffected.
///
/// The counters accumulate in the obs registry *independently* of
/// [`StreamStats`]' own accounting — two separate tallies of the same
/// event sites — which is exactly what lets EXP-13 cross-check them
/// against each other and catch silent drift in either.
struct SimObs {
    rec: SpanRecorder,
    requests: Counter,
    retries: Counter,
    timeouts: Counter,
    gave_up: Counter,
    fast_failed: Counter,
    delivered: Counter,
    stalls: Counter,
    concealed_chunks: Counter,
    fetch_latency_us: Histogram,
    // Windowed time series on the simulated playback clock, so a
    // latency spike or stall burst is attributable to *when* it
    // happened, not just that it happened somewhere in the session.
    fetch_latency_series: Series,
    timeout_series: Series,
    stall_series: Series,
}

/// Bin width for the stream time series: quarter-second bins over a
/// 16 s sliding horizon, matching the scale of a chunked session.
const STREAM_BIN_US: u64 = 250_000;
/// Ring length for the stream time series.
const STREAM_BINS: usize = 64;

impl SimObs {
    fn new(obs: &Obs, label: String) -> SimObs {
        let labels: &[(&str, &str)] = &[("pillar", "stream")];
        SimObs {
            rec: obs.recorder(label),
            requests: obs.counter("fetch.requests", labels),
            retries: obs.counter("fetch.retries", labels),
            timeouts: obs.counter("fetch.timeouts", labels),
            gave_up: obs.counter("fetch.gave_up", labels),
            fast_failed: obs.counter("fetch.fast_failed", labels),
            delivered: obs.counter("fetch.delivered", labels),
            stalls: obs.counter("session.stalls", labels),
            concealed_chunks: obs.counter("conceal.chunks", labels),
            fetch_latency_us: obs.histogram("fetch.latency_us", labels),
            fetch_latency_series: obs.series(SeriesSpec::histogram(
                "stream.fetch_latency_us",
                STREAM_BIN_US,
                STREAM_BINS,
            )),
            timeout_series: obs
                .series(SeriesSpec::counter("stream.timeouts", STREAM_BIN_US, STREAM_BINS)),
            stall_series: obs
                .series(SeriesSpec::counter("stream.stalls", STREAM_BIN_US, STREAM_BINS)),
        }
    }
}

/// How a chunk request resolved.
enum Fetched {
    /// Intact payload available at the given time.
    Delivered(f64),
    /// Retry budget exhausted at the given time; the chunk never arrives.
    Failed(f64),
}

struct Net<'a, L: Link + ?Sized> {
    link: &'a L,
    faults: Option<(&'a FaultPlan, &'a RetryPolicy)>,
    breaker: Option<&'a mut CircuitBreaker>,
    busy_until: f64,
    completion: HashMap<ChunkId, f64>,
    failed: HashSet<ChunkId>,
    bytes: usize,
    retries: usize,
    timeouts: usize,
    fast_failed: usize,
}

impl<L: Link + ?Sized> Net<'_, L> {
    /// Resolves a chunk fetch at `now` (memoised: a chunk is fetched —
    /// or abandoned — at most once per session) and returns when its
    /// payload is available, or when the client gave up on it.
    fn fetch(&mut self, map: &ChunkMap, id: ChunkId, now: f64, sobs: &mut SimObs) -> Fetched {
        if let Some(&done) = self.completion.get(&id) {
            return Fetched::Delivered(done);
        }
        if self.failed.contains(&id) {
            return Fetched::Failed(now);
        }
        sobs.requests.inc();
        let (bytes, checksum) = map
            .get(id)
            .map(|c| (c.bytes, c.checksum))
            .unwrap_or((0, 0));
        let Some((plan, retry)) = self.faults else {
            // Pristine pipe: one attempt, always delivered.
            let start = self.busy_until.max(now);
            let done = self.link.complete_at(start, bytes);
            self.busy_until = done;
            self.bytes += bytes;
            self.completion.insert(id, done);
            sobs.delivered.inc();
            sobs.fetch_latency_us.record(us_from_ms(done - now));
            sobs.fetch_latency_series.record(us_from_ms(done), us_from_ms(done - now));
            return Fetched::Delivered(done);
        };
        let mut t = self.busy_until.max(now);
        // Fail fast on an open breaker: the chunk is abandoned to
        // concealment without burning any retry budget or link time.
        if let Some(b) = self.breaker.as_deref_mut() {
            if !b.allow(t) {
                self.fast_failed += 1;
                sobs.fast_failed.inc();
                self.failed.insert(id);
                sobs.gave_up.inc();
                return Fetched::Failed(t);
            }
        }
        for attempt in 0..=retry.max_retries {
            if attempt > 0 {
                self.retries += 1;
                sobs.retries.inc();
            }
            let fault = plan.chunk_fault_at(id, attempt, t);
            if fault.lost {
                // The response never arrives: the pipe is blocked until
                // the attempt's deadline expires, then we re-request.
                self.timeouts += 1;
                sobs.timeouts.inc();
                sobs.timeout_series.record(us_from_ms(t), 1);
                t += retry.deadline_ms(attempt, plan.jitter(id, attempt));
                if let Some(b) = self.breaker.as_deref_mut() {
                    b.on_failure(t);
                }
                continue;
            }
            let done = self.link.complete_at(t, bytes);
            self.bytes += bytes;
            // Integrity check on arrival: the container checksum path.
            // A corrupted payload hashes to a different FNV-1a value
            // than the chunk map recorded at build time.
            let received = if fault.corrupted {
                checksum ^ (1u64 << (attempt % 64)).max(1)
            } else {
                checksum
            };
            if received != checksum {
                // Discard the damaged payload and re-request.
                t = done;
                if let Some(b) = self.breaker.as_deref_mut() {
                    b.on_failure(t);
                }
                continue;
            }
            self.busy_until = done;
            self.completion.insert(id, done);
            if let Some(b) = self.breaker.as_deref_mut() {
                b.on_success(done);
            }
            sobs.delivered.inc();
            sobs.fetch_latency_us.record(us_from_ms(done - now));
            sobs.fetch_latency_series.record(us_from_ms(done), us_from_ms(done - now));
            return Fetched::Delivered(done);
        }
        self.busy_until = t;
        self.failed.insert(id);
        sobs.gave_up.inc();
        Fetched::Failed(t)
    }
}

/// Simulates one session over a pristine link.
///
/// # Errors
/// Propagates unknown segments in the trace.
pub fn simulate<L: Link + ?Sized>(
    map: &ChunkMap,
    link: &L,
    policy: PrefetchPolicy,
    trace: &[TraceStep],
) -> Result<StreamStats> {
    let mut sobs = SimObs::new(&Obs::noop(), String::new());
    sim_core(map, link, None, None, policy, trace, &mut sobs).map(|r| r.stats)
}

/// Simulates one session over a faulty link: deadlines, bounded retries
/// with capped exponential back-off + deterministic jitter, checksum
/// verification of arrivals, and freeze-frame concealment of chunks
/// whose retry budget runs out. Never panics and never errors on
/// delivery failures — only on structural problems (unknown segments,
/// invalid retry policy).
///
/// With a `breaker`, each chunk request first asks it; while it is
/// open, chunks are abandoned to concealment immediately (counted in
/// [`StreamStats::fast_failed`]) instead of burning the retry budget.
/// Per-attempt outcomes (timeouts, corrupt arrivals, deliveries) feed
/// the breaker, and the caller's breaker carries its state across
/// sessions — the supervisor shares one per link.
///
/// Fetch events feed the `fetch.*` / `session.stalls` /
/// `conceal.chunks` counters and the `fetch.latency_us` histogram of
/// `obs` (labelled `pillar=stream`), and the session exports a trace
/// under `label` with a `session` root span, one `dwell` span per trace
/// step (arg = the segment id), `stall` spans over rebuffer waits and
/// `conceal` spans (arg = the abandoned chunk id) — all on the
/// simulated millisecond clock, never wall time. These counters tally
/// the same event sites as [`FaultyStreamReport::stats`] through an
/// independent accumulation path, so EXP-13 can cross-check the two
/// exactly. With [`Obs::noop`] nothing is recorded.
///
/// # Errors
/// Propagates unknown segments in the trace (the partial trace recorded
/// up to one is still attached, panic-safe-flush style) and invalid
/// [`RetryPolicy`] parameters.
#[allow(clippy::too_many_arguments)]
pub fn simulate_faulty<L: Link>(
    map: &ChunkMap,
    link: &FaultyLink<L>,
    policy: PrefetchPolicy,
    retry: &RetryPolicy,
    breaker: Option<&mut CircuitBreaker>,
    trace: &[TraceStep],
    obs: &Obs,
    label: String,
) -> Result<FaultyStreamReport> {
    retry.validate()?;
    let mut sobs = SimObs::new(obs, label);
    let out = sim_core(map, link, Some((link.plan(), retry)), breaker, policy, trace, &mut sobs);
    obs.attach(sobs.rec);
    out
}

fn sim_core<L: Link + ?Sized>(
    map: &ChunkMap,
    link: &L,
    faults: Option<(&FaultPlan, &RetryPolicy)>,
    breaker: Option<&mut CircuitBreaker>,
    policy: PrefetchPolicy,
    trace: &[TraceStep],
    sobs: &mut SimObs,
) -> Result<FaultyStreamReport> {
    let mut net = Net {
        link,
        faults,
        breaker,
        busy_until: 0.0,
        completion: HashMap::new(),
        failed: HashSet::new(),
        bytes: 0,
        retries: 0,
        timeouts: 0,
        fast_failed: 0,
    };
    let mut now: f64;
    let mut played: HashSet<ChunkId> = HashSet::new();
    let mut stats = StreamStats {
        startup_ms: 0.0,
        stalls: 0,
        stall_ms: 0.0,
        bytes_fetched: 0,
        wasted_bytes: 0,
        play_ms: 0.0,
        retries: 0,
        timeouts: 0,
        gave_up: 0,
        conceal_ms: 0.0,
        fast_failed: 0,
    };

    // The container header must arrive before anything can play.
    let header_done = link.complete_at(0.0, map.header_bytes());
    net.busy_until = header_done;
    net.bytes += map.header_bytes();
    now = header_done;

    sobs.rec.enter("session", 0);
    let mut started = false;
    for step in trace {
        let chunks = match map.segment_chunks(step.segment) {
            Ok(chunks) => chunks,
            Err(e) => {
                // Panic-safe-flush convention: the partial trace stays
                // well-formed even when the session dies structurally.
                sobs.rec.close_all(us_from_ms(now));
                return Err(e);
            }
        };
        if chunks.is_empty() {
            continue;
        }
        sobs.rec.enter_with("dwell", step.segment.0 as u64, us_from_ms(now));
        let mut watched = 0.0f64;
        let mut idx = 0usize;
        while watched < step.watch_ms || idx == 0 {
            let id = chunks[idx % chunks.len()];
            let (available, delivered) = match net.fetch(map, id, now, sobs) {
                Fetched::Delivered(t) => (t, true),
                Fetched::Failed(t) => (t, false),
            };
            if available > now {
                let wait = available - now;
                if started {
                    stats.stalls += 1;
                    stats.stall_ms += wait;
                    sobs.stalls.inc();
                    sobs.stall_series.record(us_from_ms(now), 1);
                    sobs.rec.enter_with("stall", id.0 as u64, us_from_ms(now));
                    sobs.rec.exit(us_from_ms(available));
                }
                now = available;
            }
            if !started {
                stats.startup_ms = now;
                started = true;
            }
            let play = map.chunk_play_ms(id);
            if delivered {
                // Prefetch while this chunk plays.
                let ctx = PrefetchContext {
                    map,
                    playing: id,
                    segment: step.segment,
                    branch_targets: &step.branch_targets,
                };
                for want in policy.plan(&ctx) {
                    net.fetch(map, want, now, sobs);
                }
                stats.play_ms += play;
                played.insert(id);
            } else {
                // Freeze-frame concealment: wall time advances over the
                // chunk's duration, but no new content plays.
                stats.conceal_ms += play;
                sobs.concealed_chunks.inc();
                sobs.rec.enter_with("conceal", id.0 as u64, us_from_ms(now));
                sobs.rec.exit(us_from_ms(now + play));
            }
            now += play;
            watched += play;
            idx += 1;
        }
        sobs.rec.exit(us_from_ms(now));
    }
    sobs.rec.exit(us_from_ms(now));

    stats.bytes_fetched = net.bytes;
    stats.retries = net.retries;
    stats.timeouts = net.timeouts;
    stats.gave_up = net.failed.len();
    stats.fast_failed = net.fast_failed;
    stats.wasted_bytes = net
        .completion
        .keys()
        .filter(|id| !played.contains(id))
        .map(|id| map.get(*id).map(|c| c.bytes).unwrap_or(0))
        .sum();
    let mut delivered: Vec<ChunkId> = net.completion.keys().copied().collect();
    delivered.sort_unstable();
    let mut concealed: Vec<ChunkId> = net.failed.iter().copied().collect();
    concealed.sort_unstable();
    Ok(FaultyStreamReport { stats, delivered, concealed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder, Quality};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
    use vgbl_media::timeline::FrameRate;
    use vgbl_media::SegmentTable;

    /// 4 segments × 30 frames, busy content so chunks have real weight.
    fn setup() -> ChunkMap {
        let shots = (0..4)
            .map(|i| ShotSpec {
                frames: 30,
                background: Rgb::from_seed(i * 7 + 1),
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(12, 10),
                    color: Rgb::from_seed(i * 13 + 5),
                    pos: (10.0, 10.0),
                    vel: (2.5, 1.5),
                }],
                luma_drift: 5,
                noise: 2,
            })
            .collect();
        let footage = FootageSpec {
            width: 64,
            height: 48,
            rate: FrameRate::FPS30,
            shots,
            noise_seed: 77,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig {
            gop: 10,
            quality: Quality::Medium,
            ..Default::default()
        })
        .encode(&footage.frames, footage.rate)
        .unwrap();
        let table = SegmentTable::from_cuts(120, &[30, 60, 90]).unwrap();
        ChunkMap::build(&video, &table).unwrap()
    }

    fn linear_trace() -> Vec<TraceStep> {
        (0..4)
            .map(|i| TraceStep {
                segment: SegmentId(i),
                watch_ms: 1000.0,
                branch_targets: if i + 1 < 4 { vec![SegmentId(i + 1)] } else { vec![] },
            })
            .collect()
    }

    #[test]
    fn fast_link_never_stalls_after_startup_with_linear_prefetch() {
        let map = setup();
        let link = LinkModel::mbps(100.0, 5.0).unwrap();
        let stats = simulate(&map, &link, PrefetchPolicy::Linear { lookahead: 3 }, &linear_trace())
            .unwrap();
        assert!(stats.startup_ms > 0.0);
        assert_eq!(stats.stalls, 0, "{stats:?}");
        assert!(stats.play_ms >= 4000.0);
    }

    #[test]
    fn no_prefetch_on_slow_link_stalls_every_new_chunk() {
        let map = setup();
        let link = LinkModel::mbps(0.3, 40.0).unwrap();
        let stats = simulate(&map, &link, PrefetchPolicy::None, &linear_trace()).unwrap();
        assert!(stats.stalls > 0, "{stats:?}");
        assert!(stats.stall_ms > 0.0);
        assert_eq!(stats.wasted_bytes, 0); // on-demand never wastes
    }

    #[test]
    fn prefetch_reduces_stalling_at_equal_bandwidth() {
        let map = setup();
        let link = LinkModel::mbps(1.2, 30.0).unwrap();
        let none = simulate(&map, &link, PrefetchPolicy::None, &linear_trace()).unwrap();
        let linear = simulate(&map, &link, PrefetchPolicy::Linear { lookahead: 3 }, &linear_trace())
            .unwrap();
        assert!(
            linear.stall_ms < none.stall_ms,
            "linear {:?} vs none {:?}",
            linear.stall_ms,
            none.stall_ms
        );
    }

    /// A branching trace: the player jumps 0 → 2 → 1 (non-linear).
    fn branchy_trace() -> Vec<TraceStep> {
        vec![
            TraceStep {
                segment: SegmentId(0),
                watch_ms: 2500.0,
                branch_targets: vec![SegmentId(2), SegmentId(3)],
            },
            TraceStep {
                segment: SegmentId(2),
                watch_ms: 2500.0,
                branch_targets: vec![SegmentId(1)],
            },
            TraceStep {
                segment: SegmentId(1),
                watch_ms: 1000.0,
                branch_targets: vec![],
            },
        ]
    }

    #[test]
    fn branch_aware_beats_linear_on_jumps() {
        let map = setup();
        let link = LinkModel::mbps(1.5, 30.0).unwrap();
        let linear =
            simulate(&map, &link, PrefetchPolicy::Linear { lookahead: 2 }, &branchy_trace())
                .unwrap();
        let branch =
            simulate(&map, &link, PrefetchPolicy::BranchAware { per_branch: 2 }, &branchy_trace())
                .unwrap();
        assert!(
            branch.stall_ms < linear.stall_ms,
            "branch {:?} vs linear {:?}",
            branch.stall_ms,
            linear.stall_ms
        );
    }

    #[test]
    fn branch_aware_wastes_unvisited_branches() {
        let map = setup();
        let link = LinkModel::mbps(50.0, 5.0).unwrap();
        let stats =
            simulate(&map, &link, PrefetchPolicy::BranchAware { per_branch: 2 }, &branchy_trace())
                .unwrap();
        // Segment 3 was prefetched but never visited.
        assert!(stats.wasted_bytes > 0);
        assert!(stats.waste_ratio() > 0.0 && stats.waste_ratio() < 1.0);
    }

    #[test]
    fn startup_scales_with_bandwidth() {
        let map = setup();
        let slow = simulate(
            &map,
            &LinkModel::mbps(0.5, 30.0).unwrap(),
            PrefetchPolicy::None,
            &linear_trace(),
        )
        .unwrap();
        let fast = simulate(
            &map,
            &LinkModel::mbps(16.0, 30.0).unwrap(),
            PrefetchPolicy::None,
            &linear_trace(),
        )
        .unwrap();
        assert!(fast.startup_ms < slow.startup_ms);
    }

    #[test]
    fn unknown_segment_in_trace_errors() {
        let map = setup();
        let link = LinkModel::mbps(1.0, 10.0).unwrap();
        let trace = vec![TraceStep {
            segment: SegmentId(99),
            watch_ms: 100.0,
            branch_targets: vec![],
        }];
        assert!(simulate(&map, &link, PrefetchPolicy::None, &trace).is_err());
    }

    #[test]
    fn simulation_is_deterministic() {
        let map = setup();
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let a = simulate(&map, &link, PrefetchPolicy::BranchAware { per_branch: 1 }, &branchy_trace())
            .unwrap();
        let b = simulate(&map, &link, PrefetchPolicy::BranchAware { per_branch: 1 }, &branchy_trace())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuffer_ratio_sane() {
        let map = setup();
        let link = LinkModel::mbps(0.4, 30.0).unwrap();
        let stats = simulate(&map, &link, PrefetchPolicy::None, &linear_trace()).unwrap();
        assert!(stats.rebuffer_ratio() > 0.0);
        let zero = StreamStats {
            startup_ms: 0.0,
            stalls: 0,
            stall_ms: 0.0,
            bytes_fetched: 0,
            wasted_bytes: 0,
            play_ms: 0.0,
            retries: 0,
            timeouts: 0,
            gave_up: 0,
            conceal_ms: 0.0,
            fast_failed: 0,
        };
        assert_eq!(zero.rebuffer_ratio(), 0.0);
        assert_eq!(zero.waste_ratio(), 0.0);
        assert_eq!(zero.delivery_ratio(), 1.0);
    }

    /// Regression: a session that only ever stalled (stall time but zero
    /// play time) used to report a *perfect* rebuffer ratio of 0.0.
    #[test]
    fn rebuffer_ratio_stalled_forever_is_degraded_not_perfect() {
        let stalled = StreamStats {
            startup_ms: 0.0,
            stalls: 3,
            stall_ms: 1500.0,
            bytes_fetched: 0,
            wasted_bytes: 0,
            play_ms: 0.0,
            retries: 0,
            timeouts: 0,
            gave_up: 0,
            conceal_ms: 0.0,
            fast_failed: 0,
        };
        assert_eq!(stalled.rebuffer_ratio(), f64::INFINITY);
        // And a normal session is unaffected by the fix.
        let playing = StreamStats { play_ms: 1000.0, ..stalled };
        assert!((playing.rebuffer_ratio() - 1.5).abs() < 1e-12);
    }

    // ---- fault-injection coverage ----------------------------------

    #[test]
    fn fault_free_faulty_path_matches_pristine_simulation() {
        let map = setup();
        let link = LinkModel::mbps(1.5, 25.0).unwrap();
        let plain = simulate(&map, &link, PrefetchPolicy::Linear { lookahead: 2 }, &linear_trace())
            .unwrap();
        let faulty = FaultyLink::new(link, FaultPlan::new(1));
        let report = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::Linear { lookahead: 2 },
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        assert_eq!(plain, report.stats);
        assert!(report.concealed.is_empty());
    }

    #[test]
    fn fault_loss_triggers_timeouts_and_retries() {
        let map = setup();
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let faulty =
            FaultyLink::new(link, FaultPlan::new(42).with_loss(0.3).unwrap());
        let report = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        assert!(report.stats.timeouts > 0, "{:?}", report.stats);
        assert!(report.stats.retries > 0);
        assert!(report.stats.retries >= report.stats.timeouts - report.stats.gave_up);
        // Heavy loss costs wall time versus the clean run.
        let clean = simulate(&map, &link, PrefetchPolicy::None, &linear_trace()).unwrap();
        assert!(report.stats.stall_ms + report.stats.startup_ms > clean.stall_ms + clean.startup_ms);
    }

    #[test]
    fn fault_corruption_refetches_until_checksum_matches() {
        let map = setup();
        let link = LinkModel::mbps(4.0, 10.0).unwrap();
        let faulty =
            FaultyLink::new(link, FaultPlan::new(7).with_corruption(0.4).unwrap());
        let report = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        // Corrupted arrivals are discarded and re-fetched: more bytes
        // than the clean run, no timeouts (payloads do arrive).
        let clean = simulate(&map, &link, PrefetchPolicy::None, &linear_trace()).unwrap();
        assert!(report.stats.retries > 0);
        assert_eq!(report.stats.timeouts, 0);
        assert!(report.stats.bytes_fetched > clean.bytes_fetched);
    }

    #[test]
    fn fault_total_loss_conceals_everything_and_terminates() {
        let map = setup();
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let faulty = FaultyLink::new(link, FaultPlan::new(5).with_loss(1.0).unwrap());
        let report = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        assert_eq!(report.stats.play_ms, 0.0);
        assert!(report.stats.conceal_ms > 0.0);
        assert!(report.delivered.is_empty());
        assert!(!report.concealed.is_empty());
        assert_eq!(report.stats.gave_up, report.concealed.len());
        assert_eq!(report.stats.delivery_ratio(), 0.0);
    }

    #[test]
    fn fault_runs_are_byte_identical_across_repeats() {
        let map = setup();
        let link = LinkModel::mbps(1.0, 30.0).unwrap();
        let plan = FaultPlan::new(99)
            .with_loss(0.2)
            .unwrap()
            .with_corruption(0.1)
            .unwrap()
            .with_stalls(0.1, 250.0)
            .unwrap();
        let run = || {
            simulate_faulty(
                &map,
                &FaultyLink::new(link, plan),
                PrefetchPolicy::BranchAware { per_branch: 1 },
                &RetryPolicy::default(),
                None,
                &branchy_trace(),
                &Obs::noop(),
                String::new(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + same plan must reproduce exactly");
    }

    #[test]
    fn fault_retry_policy_validation() {
        let map = setup();
        let faulty =
            FaultyLink::new(LinkModel::mbps(1.0, 10.0).unwrap(), FaultPlan::new(0));
        for bad in [
            RetryPolicy { base_timeout_ms: 0.0, ..Default::default() },
            RetryPolicy { base_timeout_ms: f64::NAN, ..Default::default() },
            RetryPolicy { backoff: 0.5, ..Default::default() },
            RetryPolicy { max_timeout_ms: 1.0, ..Default::default() },
            RetryPolicy { jitter_ms: -2.0, ..Default::default() },
        ] {
            let out = simulate_faulty(
                &map,
                &faulty,
                PrefetchPolicy::None,
                &bad,
                None,
                &linear_trace(),
                &Obs::noop(),
                String::new(),
            );
            assert!(out.is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn fault_backoff_deadlines_grow_and_cap() {
        let retry = RetryPolicy::default();
        let d0 = retry.deadline_ms(0, 0.0);
        let d1 = retry.deadline_ms(1, 0.0);
        let d4 = retry.deadline_ms(4, 0.0);
        assert_eq!(d0, 250.0);
        assert_eq!(d1, 500.0);
        assert_eq!(d4, 2000.0, "capped at max_timeout_ms");
        // Jitter adds at most jitter_ms.
        assert!(retry.deadline_ms(0, 0.999) < d0 + retry.jitter_ms);
    }

    /// Regression (overflow audit): huge attempt counts and extreme
    /// back-off factors must saturate at the cap, never produce inf/NaN
    /// or wrap, and the deadline must be non-decreasing in `attempt`.
    #[test]
    fn fault_backoff_deadlines_saturate_at_extreme_attempts() {
        let retry = RetryPolicy::default();
        for attempt in [64, 65, 1000, u32::MAX] {
            let d = retry.deadline_ms(attempt, 0.0);
            assert!(d.is_finite(), "attempt {attempt} gave {d}");
            assert_eq!(d, retry.max_timeout_ms);
        }
        // A back-off factor whose powi overflows f64 to +inf.
        let extreme = RetryPolicy { backoff: 1e300, ..RetryPolicy::default() };
        let d = extreme.deadline_ms(2, 0.5);
        assert!(d.is_finite());
        assert_eq!(d, extreme.max_timeout_ms + 0.5 * extreme.jitter_ms);
        // Monotone non-decreasing into the cap.
        let mut prev = 0.0;
        for attempt in 0..200u32 {
            let d = retry.deadline_ms(attempt, 0.0);
            assert!(d >= prev, "deadline shrank at attempt {attempt}: {prev} -> {d}");
            prev = d;
        }
    }

    /// Regression (overflow audit, PR 9): the *jitter term* can also go
    /// non-finite on an unvalidated policy — infinite jitter amplitude
    /// or a hostile jitter draw — and used to leak straight into the
    /// returned deadline, poisoning the caller's simulated clock.
    #[test]
    fn fault_backoff_deadline_saturates_nonfinite_jitter() {
        let inf_jitter = RetryPolicy { jitter_ms: f64::INFINITY, ..RetryPolicy::default() };
        let d = inf_jitter.deadline_ms(0, 0.5);
        assert!(d.is_finite(), "infinite jitter amplitude gave {d}");
        assert_eq!(d, inf_jitter.max_timeout_ms);

        let retry = RetryPolicy::default();
        for unit in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let d = retry.deadline_ms(0, unit);
            assert!(d.is_finite(), "jitter draw {unit} gave {d}");
            assert_eq!(d, retry.max_timeout_ms);
        }
    }

    // ---- circuit-breaker coverage -----------------------------------

    use crate::breaker::{BreakerConfig, BreakerState};

    fn sick_plan() -> FaultPlan {
        FaultPlan::new(13).with_loss(0.95).unwrap()
    }

    #[test]
    fn breaker_fails_fast_and_saves_retry_budget_on_a_sick_link() {
        let map = setup();
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let faulty = FaultyLink::new(link, sick_plan());
        let retry = RetryPolicy::default();
        let without = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &retry,
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_ratio: 0.5,
            cooldown_ms: 60_000.0,
            probes: 1,
        })
        .unwrap();
        let with = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &retry,
            Some(&mut breaker),
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        assert!(breaker.trips() >= 1, "a 95%-loss link must trip the breaker");
        assert!(with.stats.fast_failed > 0, "{:?}", with.stats);
        assert!(
            with.stats.timeouts < without.stats.timeouts,
            "fail-fast must burn fewer deadlines: {} vs {}",
            with.stats.timeouts,
            without.stats.timeouts
        );
        assert!(with.stats.fast_failed <= with.stats.gave_up, "fast-fails are a subset");
        assert_eq!(with.stats.gave_up, with.concealed.len());
        assert_eq!(breaker.fast_failures(), with.stats.fast_failed as u64);
    }

    #[test]
    fn breaker_closed_on_clean_link_changes_nothing() {
        let map = setup();
        let link = LinkModel::mbps(1.5, 25.0).unwrap();
        let faulty = FaultyLink::new(link, FaultPlan::new(1));
        let retry = RetryPolicy::default();
        let plain = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::Linear { lookahead: 2 },
            &retry,
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        let mut breaker = CircuitBreaker::new(BreakerConfig::default()).unwrap();
        let guarded = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::Linear { lookahead: 2 },
            &retry,
            Some(&mut breaker),
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        assert_eq!(plain, guarded);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.trips(), 0);
    }

    #[test]
    fn breaker_runs_are_byte_identical_across_repeats() {
        let map = setup();
        let link = LinkModel::mbps(1.0, 30.0).unwrap();
        let run = || {
            let faulty = FaultyLink::new(link, sick_plan());
            let mut breaker = CircuitBreaker::new(BreakerConfig {
                window: 8,
                min_samples: 4,
                trip_ratio: 0.5,
                cooldown_ms: 2000.0,
                probes: 1,
            })
            .unwrap();
            let report = simulate_faulty(
                &map,
                &faulty,
                PrefetchPolicy::None,
                &RetryPolicy::default(),
                Some(&mut breaker),
                &linear_trace(),
                &Obs::noop(),
                String::new(),
            )
            .unwrap();
            (report, breaker.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn breaker_observed_counters_match_stats() {
        let map = setup();
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let faulty = FaultyLink::new(link, sick_plan());
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_ratio: 0.5,
            cooldown_ms: 60_000.0,
            probes: 1,
        })
        .unwrap();
        let obs = Obs::recording();
        let report = simulate_faulty(
            &map,
            &faulty,
            PrefetchPolicy::None,
            &RetryPolicy::default(),
            Some(&mut breaker),
            &linear_trace(),
            &obs,
            "stream-0000".into(),
        )
        .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("fetch.fast_failed"), report.stats.fast_failed as u64);
        assert_eq!(snap.counter_total("fetch.gave_up"), report.stats.gave_up as u64);
        assert_eq!(snap.counter_total("fetch.timeouts"), report.stats.timeouts as u64);
        assert!(report.stats.fast_failed > 0);
    }

    #[test]
    fn obs_observed_sim_matches_unobserved_and_counters_match_stats() {
        let map = setup();
        let link = LinkModel::mbps(1.0, 30.0).unwrap();
        let plan = FaultPlan::new(99).with_loss(0.2).unwrap().with_corruption(0.1).unwrap();
        let unobserved = simulate_faulty(
            &map,
            &FaultyLink::new(link, plan),
            PrefetchPolicy::Linear { lookahead: 1 },
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        let obs = Obs::recording();
        let observed = simulate_faulty(
            &map,
            &FaultyLink::new(link, plan),
            PrefetchPolicy::Linear { lookahead: 1 },
            &RetryPolicy::default(),
            None,
            &linear_trace(),
            &obs,
            "stream-0000".into(),
        )
        .unwrap();
        // Observability must not perturb the simulation.
        assert_eq!(observed, unobserved);
        // The registry's independent tally agrees with StreamStats exactly.
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("fetch.retries"), observed.stats.retries as u64);
        assert_eq!(snap.counter_total("fetch.timeouts"), observed.stats.timeouts as u64);
        assert_eq!(snap.counter_total("fetch.gave_up"), observed.stats.gave_up as u64);
        assert_eq!(snap.counter_total("fetch.gave_up"), observed.concealed.len() as u64);
        assert_eq!(snap.counter_total("fetch.delivered"), observed.delivered.len() as u64);
        assert_eq!(snap.counter_total("session.stalls"), observed.stats.stalls as u64);
        // The trace is a session root with one dwell per trace step.
        assert_eq!(snap.traces.len(), 1);
        let trace = &snap.traces[0];
        assert_eq!(trace.label, "stream-0000");
        assert_eq!(trace.spans[0].name, "session");
        let dwells = trace.spans.iter().filter(|s| s.name == "dwell").count();
        assert_eq!(dwells, 4, "one dwell span per trace step");
        // Spans run on the simulated clock, microsecond units. The two
        // f64 sums accumulate in different orders, so allow 1 µs of
        // rounding slack.
        let session = trace.spans[0];
        let total_ms =
            observed.stats.startup_ms + observed.stats.play_ms + observed.stats.stall_ms
                + observed.stats.conceal_ms;
        let diff = session.end_us.abs_diff(us_from_ms(total_ms));
        assert!(diff <= 1, "session end {} vs stats total {}", session.end_us, total_ms);
    }

    #[test]
    fn obs_observed_sim_exports_are_byte_identical_across_runs() {
        let map = setup();
        let link = LinkModel::mbps(1.0, 30.0).unwrap();
        let run = || {
            let obs = Obs::recording();
            let plan = FaultPlan::new(7).with_loss(0.3).unwrap();
            simulate_faulty(
                &map,
                &FaultyLink::new(link, plan),
                PrefetchPolicy::None,
                &RetryPolicy::default(),
                None,
                &linear_trace(),
                &obs,
                "stream-0000".into(),
            )
            .unwrap();
            let snap = obs.snapshot();
            (snap.to_table(), snap.metrics_csv(), snap.spans_csv(), snap.to_jsonl())
        };
        assert_eq!(run(), run());
    }
}
