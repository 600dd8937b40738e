//! The measurement protocol shared by every workload.
//!
//! Untraced run (`--trace 0`): set up, play one warm-up round, then play
//! rounds until the time budget is spent and report the end-to-end
//! metrics: throughputs and the first-frame latency as the median over
//! rounds of each round's value. Every time in them is in reference-host
//! seconds: the calibration kernels ([`calib`]) are timed between rounds,
//! and each round's wall time is divided by the host's slowdown around
//! it, so a spell of load from other tenants does not move the result.
//! [`SETUPS`] set-ups are timed in all, calibrated the same way, the
//! first before the rounds and the others between rounds at even steps
//! through the budget; `setup_s` is their median.
//!
//! Traced run (`--trace 1`): set up once, play one warm-up round, play
//! rounds untraced for half the budget, then play the same rounds again
//! inside [`trace::traced`]. The traced pass gives the per-layer metrics;
//! the ratio of the two walls gives `trace.overhead_ratio`.

use std::time::{Duration, Instant};

use vgbl::media::CacheStats;

use crate::calib::{self, Sample};
use crate::game::Game;
use crate::report::{
    mean, median, peak_rss_mb, per_layer, percentile, ratio, Metrics, Outcome, Tally, END_TO_END,
    SPANS,
};
use crate::trace::{self, Profile};
use crate::{author, fleet, watch};

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// [`Workload::MEMORY_SHARE`] of every set-up: rendering, encoding and
/// decoding footage is memory-bound work, like the author's import.
pub const SETUP_MEMORY_SHARE: f64 = 1.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "classroom_burst",
    "branchy_watch",
    "author_import",
    "fleet_recovery",
];

/// One workload: inputs generated from a seed, measured in rounds.
pub trait Workload: Sized {
    /// Generates every input from `seed` (the timed set-up). `tiny`
    /// shrinks every size for the smoke test.
    fn setup(seed: u64, tiny: bool) -> Self;

    /// Share of a round's time in memory-bound code (allocation, maps,
    /// codec buffers) as against compute-bound code (hashing); it weights
    /// the two calibration kernels ([`calib::slowdown`]) for the round's
    /// throughputs. Each value is the weight under which a workload's
    /// figures spread least over runs at different host loads.
    const MEMORY_SHARE: f64;

    /// [`Self::MEMORY_SHARE`] of the code a first-frame latency spans,
    /// where that differs from the round's as a whole.
    const FIRST_FRAME_MEMORY_SHARE: f64 = Self::MEMORY_SHARE;

    /// The game whose reference digests the correctness gate uses.
    fn game_mut(&mut self) -> &mut Game;

    /// Plays measured round `round`; its inputs derive from the seed and
    /// the round index, so a round replays identically.
    fn round(&self, round: u64, tally: &mut Tally);

    /// Per-layer metrics that need extra untraced passes over the
    /// measured rounds (ablations). Only the fleet has ablations;
    /// elsewhere their costs are 0.
    fn ablations(&self, _rounds: u64, m: &mut Metrics) {
        for name in [
            "journey.cost_ms",
            "journey.cost_iqr_ms",
            "store.cost_ms",
            "store.cost_iqr_ms",
        ] {
            m.set(name, 0.0);
        }
    }
}

/// Adds the cache counters accumulated between two snapshots.
pub fn add_cache_delta(tally: &mut Tally, before: CacheStats, after: CacheStats) {
    tally.cache_hits += after.hits - before.hits;
    tally.cache_misses += after.misses - before.misses;
    tally.cache_evictions += after.evictions - before.evictions;
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub tiny: bool,
    /// Damage one reference frame so the gate must fail (smoke test).
    pub corrupt_reference: bool,
}

/// Runs one workload and returns its result line.
///
/// # Errors
/// An unknown workload name.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "classroom_burst" => Ok(measure::<watch::Classroom>(cfg)),
        "branchy_watch" => Ok(measure::<watch::Branchy>(cfg)),
        "author_import" => Ok(measure::<author::Author>(cfg)),
        "fleet_recovery" => Ok(measure::<fleet::Fleet>(cfg)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// One measured pass: the tally, the summed wall time of its rounds,
/// its round count, and per round the host's slowdown, its sessions and
/// frames per reference second and its median first-frame latency in
/// reference milliseconds.
#[derive(Default)]
struct Pass {
    tally: Tally,
    wall: Duration,
    rounds: u64,
    slowdowns: Vec<f64>,
    session_rates: Vec<f64>,
    frame_rates: Vec<f64>,
    first_frame_p50s: Vec<f64>,
}

/// How long a pass plays.
enum Length<'a> {
    /// Rounds until `budget` of round time is spent (at least one round),
    /// timing a set-up into `setups` at each further `budget / SETUPS`.
    Budget {
        budget: Duration,
        setups: &'a mut dyn FnMut(),
    },
    /// Exactly this many rounds.
    Rounds(u64),
}

/// Plays rounds `0..` for `length`. A budgeted pass times the
/// calibration kernels between rounds and records each round's rates and
/// latency in reference-host seconds (see [`calib`]).
fn pass<W: Workload>(w: &W, mut length: Length<'_>) -> Pass {
    let mut p = Pass::default();
    let mut setups_done = 1;
    let (mut first_stride, mut branch_stride) = (1, 1);
    let calibrated = matches!(length, Length::Budget { .. });
    let sample = || {
        if calibrated {
            Sample::take()
        } else {
            Sample::REFERENCE
        }
    };
    let mut before = sample();
    loop {
        let more = match &mut length {
            Length::Budget { budget, setups } => {
                let step = budget.mul_f64(setups_done as f64 / SETUPS as f64);
                if setups_done < SETUPS && p.wall >= step {
                    setups();
                    setups_done += 1;
                    before = sample();
                }
                p.rounds == 0 || p.wall < *budget
            }
            Length::Rounds(n) => p.rounds < *n,
        };
        if !more {
            break;
        }
        let (sessions, frames, frame_s) = (p.tally.sessions, p.tally.frames, p.tally.frame_s);
        let (first_frames, branches) = (p.tally.first_frame_ms.len(), p.tally.branch_ms.len());
        let t = Instant::now();
        w.round(p.rounds, &mut p.tally);
        let elapsed = t.elapsed();
        let after = sample();
        let slowdown = calib::slowdown(before, after, W::MEMORY_SHARE);
        let first_frame_slowdown = calib::slowdown(before, after, W::FIRST_FRAME_MEMORY_SHARE);
        before = after;
        let secs = elapsed.as_secs_f64();
        p.wall += elapsed;
        p.slowdowns.push(slowdown);
        if p.tally.first_frame_ms.len() > first_frames {
            p.first_frame_p50s
                .push(median(&p.tally.first_frame_ms[first_frames..]) / first_frame_slowdown);
        }
        thin(&mut p.tally.first_frame_ms, first_frames, &mut first_stride);
        thin(&mut p.tally.branch_ms, branches, &mut branch_stride);
        let frame_secs = match p.tally.frame_s - frame_s {
            s if s > 0.0 => s,
            _ => secs,
        };
        p.session_rates
            .push((p.tally.sessions - sessions) as f64 / secs * slowdown);
        p.frame_rates
            .push((p.tally.frames - frames) as f64 / frame_secs * slowdown);
        p.rounds += 1;
    }
    // Set-ups the budget did not reach (a round longer than a step).
    if let Length::Budget { setups, .. } = &mut length {
        for _ in setups_done..SETUPS {
            setups();
        }
    }
    p
}

/// Most latency samples of one kind a pass keeps. Past this, every other
/// kept sample is dropped and later rounds keep one sample in `stride`,
/// so what is kept stays an even thinning of every sample, and the
/// benchmark's own bookkeeping stays out of `peak_rss_mb` (the fleet
/// serves about two million branch frames in a run).
const KEEP: usize = 1 << 16;

/// Thins the samples from index `from` on by `stride`, then halves the
/// whole vector (doubling `stride`) while it holds more than [`KEEP`].
fn thin(v: &mut Vec<f64>, from: usize, stride: &mut usize) {
    let fresh: Vec<f64> = v[from..].iter().step_by(*stride).copied().collect();
    v.truncate(from);
    v.extend(fresh);
    while v.len() > KEEP {
        *stride *= 2;
        let mut i = 0;
        v.retain(|_| {
            i += 1;
            i % 2 == 1
        });
    }
}

/// Index of the warm-up round: its inputs are seeded like any other
/// round's but never replayed by a measured pass.
const WARMUP: u64 = u64::MAX;

fn measure<W: Workload>(cfg: &RunConfig) -> Outcome {
    // Set-up time in reference-host seconds, calibrated like a round.
    let timed_setup = || {
        let before = Sample::take();
        let t = Instant::now();
        let w = W::setup(cfg.seed, cfg.tiny);
        let secs = t.elapsed().as_secs_f64();
        let slowdown = calib::slowdown(before, Sample::take(), SETUP_MEMORY_SHARE);
        (w, secs / slowdown)
    };
    let (mut w, first_setup) = timed_setup();
    let mut setup_s = vec![first_setup];
    if cfg.corrupt_reference {
        w.game_mut().corrupt_reference();
    }
    let mut warm = Tally::default();
    w.round(WARMUP, &mut warm);

    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    // A traced run sets up once: its per-layer metrics have no `setup_s`.
    let mut again = || {
        if !cfg.trace {
            setup_s.push(timed_setup().1);
        }
    };
    let measured = pass(
        &w,
        Length::Budget {
            budget,
            setups: &mut again,
        },
    );
    let (tally, wall, rounds) = (&measured.tally, measured.wall, measured.rounds);
    eprintln!(
        "{}: seed {} set-ups {} rounds {rounds} wall {:.3}s host slowdown median {:.3} (min {:.3}, max {:.3}) sessions {} frames {} first-frame samples {} branch samples {}",
        cfg.workload,
        cfg.seed,
        setup_s.len(),
        wall.as_secs_f64(),
        median(&measured.slowdowns),
        percentile(&measured.slowdowns, 0.0),
        percentile(&measured.slowdowns, 1.0),
        tally.sessions,
        tally.frames,
        tally.first_frame_ms.len(),
        tally.branch_ms.len()
    );

    let mut m = Metrics::default();
    let mut checked = vec![warm];
    let defs = if cfg.trace {
        let (traced, profile) = trace::traced(|| pass(&w, Length::Rounds(rounds)).tally);
        eprintln!("layer self times (ns):\n{}", profile.table);
        eprintln!("folded stacks (ns):\n{}", profile.folded);
        layer_metrics(&mut m, tally, &traced, &profile, wall);
        w.ablations(rounds, &mut m);
        checked.push(traced);
        per_layer()
    } else {
        m.set("setup_s", median(&setup_s));
        m.set("sessions_per_s", median(&measured.session_rates));
        m.set("frames_per_s", median(&measured.frame_rates));
        m.set("first_frame_p50_ms", median(&measured.first_frame_p50s));
        m.set("peak_rss_mb", peak_rss_mb());
        END_TO_END.to_vec()
    };

    let mut violations: Vec<String> = Vec::new();
    for t in checked.iter().chain([tally]) {
        if t.mismatches > 0 {
            violations.push(format!(
                "{} outputs differ from the reference",
                t.mismatches
            ));
        }
        violations.extend(t.violations.iter().cloned());
    }
    if !cfg.trace {
        for d in END_TO_END {
            if m.get(d.name).is_some_and(|v| v <= 0.0) {
                violations.push(format!("{} has no samples", d.name));
            }
        }
    }
    Outcome {
        correct: violations.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m.ordered(&defs),
        violations,
    }
}

/// Per-layer metrics: self times from the traced pass's profile, counts
/// from its tally, latency tails from the untraced pass.
fn layer_metrics(m: &mut Metrics, untraced: &Tally, t: &Tally, p: &Profile, wall: Duration) {
    for (span, metric) in SPANS {
        m.set(metric, p.self_ms(span));
    }
    let known: u64 = SPANS
        .iter()
        .filter_map(|(s, _)| p.layers.get(s))
        .map(|l| l.self_ns)
        .sum();
    assert_eq!(known, p.wall_ns, "every recorded span is a listed layer");
    let wall_ms = p.wall_ns as f64 / 1e6;
    m.set("trace.wall_ms", wall_ms);
    m.set(
        "trace.overhead_ratio",
        wall_ms / (wall.as_secs_f64() * 1e3) - 1.0,
    );
    m.set("engine.inputs", t.inputs as f64);
    let decoded = t.prewarm_frames + t.player_decoded;
    m.set(
        "playback.decoded_per_served",
        ratio(decoded as f64, t.served as f64),
    );
    m.set("executor.ticks", t.ticks as f64);
    m.set("executor.polls", t.polls as f64);
    m.set("executor.peak_in_flight", t.peak_in_flight as f64);
    m.set("batch.rounds", t.batches as f64);
    m.set("batch.keys", t.batch_keys as f64);
    m.set(
        "batch.coalesced_ratio",
        ratio(t.batch_waiters as f64, t.batch_keys as f64),
    );
    m.set("batch.resolve_ms", p.total_ms("batch"));
    m.set("cache.hits", t.cache_hits as f64);
    m.set("cache.misses", t.cache_misses as f64);
    m.set("cache.evictions", t.cache_evictions as f64);
    let lookups = (t.cache_hits + t.cache_misses) as f64;
    m.set("cache.hit_rate", ratio(t.cache_hits as f64, lookups));
    m.set("decode.ms", t.prewarm_decode_ns as f64 / 1e6);
    m.set("decode.gops", t.cache_misses as f64);
    m.set("decode.frames", decoded as f64);
    m.set("stream.startup_ms", mean(&t.stream_startup_ms));
    m.set("stream.rebuffer_ratio", mean(&t.stream_rebuffer));
    m.set("encode.frames", t.encode_frames as f64);
    m.set(
        "encode.bytes_per_frame",
        ratio(t.encode_bytes as f64, t.encode_frames as f64),
    );
    m.set("vgp.bytes", t.vgp_bytes as f64);
    m.set("vgv.bytes", t.vgv_bytes as f64);
    m.set("author.roundtrip_ms", median(&untraced.roundtrip_ms));
    m.set("fleet.migrations", t.migrations as f64);
    m.set("fleet.migrations_verified", t.migrations_verified as f64);
    m.set("supervisor.shed", t.shed as f64);
    m.set("supervisor.restarts", t.restarts as f64);
    m.set("supervisor.queue_wait_p99_ms", median(&t.queue_wait_p99_ms));
    m.set("store.appended", t.store_appended as f64);
    m.set("store.acked_flushes", t.store_acked_flushes as f64);
    m.set("store.snapshots", t.store_snapshots as f64);
    m.set("store.cold_resumed", t.store_cold_resumed as f64);
    m.set(
        "learner.first_frame_p99_ms",
        percentile(&untraced.first_frame_ms, 0.99),
    );
    m.set(
        "learner.first_frame_samples",
        untraced.first_frame_ms.len() as f64,
    );
    m.set("learner.branch_p50_ms", median(&untraced.branch_ms));
    m.set(
        "learner.branch_p99_ms",
        percentile(&untraced.branch_ms, 0.99),
    );
    m.set("learner.branch_samples", untraced.branch_ms.len() as f64);
    m.set(
        "run.fail_ratio",
        ratio(untraced.failed as f64, untraced.attempted as f64),
    );
}
