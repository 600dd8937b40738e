//! Deterministic fault injection for the delivery path.
//!
//! Classroom deployments of interactive-video platforms consistently
//! report the *student-side network* as the dominant operational problem:
//! lossy Wi-Fi, flaky proxies, mid-transfer stalls. Measuring how the
//! client degrades under those conditions requires faults that are
//! **reproducible** — the same seed must produce the same losses in the
//! same places on every run, or experiment tables and regression tests
//! are meaningless.
//!
//! * [`FaultPlan`] — a seeded, stateless schedule of chunk loss, byte
//!   corruption and link stalls. Every outcome is a pure hash of
//!   `(seed, chunk, attempt)`, so concurrent consumers and re-runs agree
//!   without any shared mutable state.
//! * [`FaultyLink`] — wraps any [`Link`] (constant or variable) and
//!   injects deterministic stall events into its transfer timing, so the
//!   whole link-model family composes with faults.
//!
//! Loss and corruption are *chunk*-level events (a response that never
//! arrives, a payload whose container checksum does not match) and are
//! consumed by the retrying client in [`crate::client`]; stalls are
//! *link*-level events visible to anything that times transfers.

use vgbl_obs::hash::{mix, unit};

use crate::chunk::ChunkId;
use crate::link::Link;
use crate::{Result, StreamError};

/// Event-type salts keeping the loss / corruption / stall / jitter
/// streams of one seed statistically independent.
const SALT_LOSS: u64 = 0x1000_0001;
const SALT_CORRUPT: u64 = 0x2000_0002;
const SALT_STALL: u64 = 0x3000_0003;
const SALT_JITTER: u64 = 0x4000_0004;

/// What the fault plan decrees for one delivery attempt of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFault {
    /// The response never arrives; the client can only time out.
    pub lost: bool,
    /// The payload arrives but its checksum does not match (detected via
    /// the container's FNV-1a integrity path), so it must be re-fetched.
    pub corrupted: bool,
}

impl ChunkFault {
    /// True when the attempt delivers the chunk intact.
    pub fn is_clean(&self) -> bool {
        !self.lost && !self.corrupted
    }
}

/// A time window during which fault rates are multiplied, modelling a
/// congestion event (a lab full of students all pressing play at once).
///
/// EXP-14 uses a spike both to drive the arrival process hot and to
/// make the link sick enough to trip the circuit breaker, then checks
/// that the supervisor sheds and recovers instead of queueing forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpike {
    start_ms: f64,
    duration_ms: f64,
    factor: f64,
}

impl LoadSpike {
    /// A spike multiplying fault rates by `factor` during
    /// `[start_ms, start_ms + duration_ms)`.
    ///
    /// # Errors
    /// [`StreamError::InvalidLink`] when `start_ms` is non-finite,
    /// `duration_ms` is negative or non-finite, or `factor < 1`.
    pub fn new(start_ms: f64, duration_ms: f64, factor: f64) -> Result<LoadSpike> {
        if !start_ms.is_finite() {
            return Err(StreamError::InvalidLink("spike start must be finite".into()));
        }
        if !duration_ms.is_finite() || duration_ms < 0.0 {
            return Err(StreamError::InvalidLink("spike duration must be non-negative".into()));
        }
        if !factor.is_finite() || factor < 1.0 {
            return Err(StreamError::InvalidLink("spike factor must be >= 1".into()));
        }
        Ok(LoadSpike { start_ms, duration_ms, factor })
    }

    /// Start of the spike window, simulated ms.
    pub fn start_ms(&self) -> f64 {
        self.start_ms
    }

    /// Length of the spike window, simulated ms.
    pub fn duration_ms(&self) -> f64 {
        self.duration_ms
    }

    /// The rate multiplier applying at `now_ms` (1 outside the window).
    pub fn factor_at(&self, now_ms: f64) -> f64 {
        if now_ms >= self.start_ms && now_ms < self.start_ms + self.duration_ms {
            self.factor
        } else {
            1.0
        }
    }
}

/// A seeded, reproducible schedule of delivery faults.
///
/// The plan is stateless: whether attempt `a` of chunk `c` is lost,
/// corrupted or stalled is a pure function of `(seed, c, a)` — plus the
/// current time when a [`LoadSpike`] is attached, which scales the
/// rates inside its window. Two runs with the same plan see
/// byte-identical fault sequences; distinct attempts of one chunk draw
/// independent outcomes, so bounded retries succeed with overwhelming
/// probability at realistic loss rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    loss: f64,
    corruption: f64,
    stall_rate: f64,
    stall_ms: f64,
    spike: Option<LoadSpike>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; compose rates with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, loss: 0.0, corruption: 0.0, stall_rate: 0.0, stall_ms: 0.0, spike: None }
    }

    /// Sets the per-attempt chunk loss probability.
    ///
    /// # Errors
    /// [`StreamError::InvalidLink`] when `rate` is not in `[0, 1]`.
    pub fn with_loss(mut self, rate: f64) -> Result<FaultPlan> {
        self.loss = validated_rate(rate, "loss rate")?;
        Ok(self)
    }

    /// Sets the per-attempt payload corruption probability.
    ///
    /// # Errors
    /// [`StreamError::InvalidLink`] when `rate` is not in `[0, 1]`.
    pub fn with_corruption(mut self, rate: f64) -> Result<FaultPlan> {
        self.corruption = validated_rate(rate, "corruption rate")?;
        Ok(self)
    }

    /// Sets the per-transfer stall probability and the stall duration.
    ///
    /// # Errors
    /// [`StreamError::InvalidLink`] when `rate` is not in `[0, 1]` or
    /// `stall_ms` is negative or non-finite.
    pub fn with_stalls(mut self, rate: f64, stall_ms: f64) -> Result<FaultPlan> {
        self.stall_rate = validated_rate(rate, "stall rate")?;
        if !stall_ms.is_finite() || stall_ms < 0.0 {
            return Err(StreamError::InvalidLink("stall duration must be non-negative".into()));
        }
        self.stall_ms = stall_ms;
        Ok(self)
    }

    /// Attaches a [`LoadSpike`] window multiplying the loss and
    /// corruption rates (capped at 1) while the spike is active.
    pub fn with_load_spike(mut self, spike: LoadSpike) -> FaultPlan {
        self.spike = Some(spike);
        self
    }

    /// The attached spike window, if any.
    pub fn load_spike(&self) -> Option<&LoadSpike> {
        self.spike.as_ref()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-attempt loss probability.
    pub fn loss_rate(&self) -> f64 {
        self.loss
    }

    /// The per-attempt corruption probability.
    pub fn corruption_rate(&self) -> f64 {
        self.corruption
    }

    /// The fate of delivery attempt `attempt` of `chunk`, ignoring any
    /// attached spike window. Loss wins over corruption when both fire
    /// (a lost response has no payload to corrupt).
    pub fn chunk_fault(&self, chunk: ChunkId, attempt: u32) -> ChunkFault {
        // NEG_INFINITY sits outside every spike window, so the
        // time-free entry point keeps its pre-spike behaviour exactly.
        self.chunk_fault_at(chunk, attempt, f64::NEG_INFINITY)
    }

    /// The fate of delivery attempt `attempt` of `chunk` starting at
    /// `now_ms`: like [`FaultPlan::chunk_fault`] but with the spike
    /// multiplier applied to the rates (capped at 1) when `now_ms`
    /// falls inside the spike window. The underlying random draws are
    /// unchanged — a chunk lost at base rates is still lost during the
    /// spike, the spike only loses *more*.
    pub fn chunk_fault_at(&self, chunk: ChunkId, attempt: u32, now_ms: f64) -> ChunkFault {
        let factor = self.spike.map_or(1.0, |s| s.factor_at(now_ms));
        let loss = (self.loss * factor).min(1.0);
        let corruption = (self.corruption * factor).min(1.0);
        let key = (chunk.0 as u64) << 32 | attempt as u64;
        let lost = unit(mix(self.seed ^ SALT_LOSS ^ mix(key))) < loss;
        let corrupted = !lost && unit(mix(self.seed ^ SALT_CORRUPT ^ mix(key))) < corruption;
        ChunkFault { lost, corrupted }
    }

    /// Extra delay a transfer starting at `start_ms` of `bytes` suffers
    /// from a stall event (0 when no stall fires). Keyed on the transfer
    /// coordinates so identical request sequences stall identically.
    pub fn stall_delay_ms(&self, start_ms: f64, bytes: usize) -> f64 {
        if self.stall_rate == 0.0 {
            return 0.0;
        }
        let key = start_ms.to_bits() ^ mix(bytes as u64);
        if unit(mix(self.seed ^ SALT_STALL ^ key)) < self.stall_rate {
            self.stall_ms
        } else {
            0.0
        }
    }

    /// Deterministic uniform jitter in `[0, 1)` for retry back-off,
    /// decorrelated per `(chunk, attempt)`.
    pub fn jitter(&self, chunk: ChunkId, attempt: u32) -> f64 {
        let key = (chunk.0 as u64) << 32 | attempt as u64;
        unit(mix(self.seed ^ SALT_JITTER ^ mix(key)))
    }
}

fn validated_rate(rate: f64, what: &str) -> Result<f64> {
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(StreamError::InvalidLink(format!("{what} must be in [0, 1]")));
    }
    Ok(rate)
}

/// A [`Link`] wrapper that injects the stall events of a [`FaultPlan`]
/// into any inner link's transfer timing, and carries the plan the
/// fault-aware client consults for chunk loss and corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyLink<L: Link> {
    inner: L,
    plan: FaultPlan,
}

impl<L: Link> FaultyLink<L> {
    /// Wraps `inner` with `plan`'s faults.
    pub fn new(inner: L, plan: FaultPlan) -> FaultyLink<L> {
        FaultyLink { inner, plan }
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Link> Link for FaultyLink<L> {
    fn complete_at(&self, start_ms: f64, bytes: usize) -> f64 {
        let start = start_ms + self.plan.stall_delay_ms(start_ms, bytes);
        self.inner.complete_at(start, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkModel, VariableLink};

    #[test]
    fn fault_plan_validates_rates() {
        assert!(FaultPlan::new(1).with_loss(-0.1).is_err());
        assert!(FaultPlan::new(1).with_loss(1.5).is_err());
        assert!(FaultPlan::new(1).with_loss(f64::NAN).is_err());
        assert!(FaultPlan::new(1).with_corruption(2.0).is_err());
        assert!(FaultPlan::new(1).with_stalls(0.5, -1.0).is_err());
        assert!(FaultPlan::new(1).with_stalls(0.5, f64::INFINITY).is_err());
        assert!(FaultPlan::new(1).with_loss(0.0).is_ok());
        assert!(FaultPlan::new(1).with_loss(1.0).is_ok());
    }

    #[test]
    fn fault_outcomes_are_deterministic() {
        let a = FaultPlan::new(42).with_loss(0.3).unwrap().with_corruption(0.2).unwrap();
        let b = FaultPlan::new(42).with_loss(0.3).unwrap().with_corruption(0.2).unwrap();
        for chunk in 0..200u32 {
            for attempt in 0..4 {
                assert_eq!(
                    a.chunk_fault(ChunkId(chunk), attempt),
                    b.chunk_fault(ChunkId(chunk), attempt)
                );
                assert_eq!(a.jitter(ChunkId(chunk), attempt), b.jitter(ChunkId(chunk), attempt));
            }
        }
    }

    #[test]
    fn fault_seeds_decorrelate() {
        let a = FaultPlan::new(1).with_loss(0.5).unwrap();
        let b = FaultPlan::new(2).with_loss(0.5).unwrap();
        let differing = (0..200u32)
            .filter(|&c| a.chunk_fault(ChunkId(c), 0) != b.chunk_fault(ChunkId(c), 0))
            .count();
        assert!(differing > 50, "only {differing} outcomes differ between seeds");
    }

    #[test]
    fn fault_rates_are_respected_empirically() {
        let plan = FaultPlan::new(7).with_loss(0.10).unwrap();
        let lost = (0..10_000u32)
            .filter(|&c| plan.chunk_fault(ChunkId(c), 0).lost)
            .count();
        // 10% ± generous tolerance over 10k draws.
        assert!((800..1200).contains(&lost), "lost {lost}/10000");
        // Attempts draw independently: a chunk lost on attempt 0 is not
        // doomed on attempt 1.
        let both = (0..10_000u32)
            .filter(|&c| {
                plan.chunk_fault(ChunkId(c), 0).lost && plan.chunk_fault(ChunkId(c), 1).lost
            })
            .count();
        assert!(both < 300, "correlated losses: {both}");
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let plan = FaultPlan::new(9);
        for c in 0..50u32 {
            assert!(plan.chunk_fault(ChunkId(c), 0).is_clean());
        }
        assert_eq!(plan.stall_delay_ms(123.0, 4096), 0.0);
        let link = LinkModel::mbps(2.0, 20.0).unwrap();
        let faulty = FaultyLink::new(link, plan);
        for bytes in [0usize, 100, 50_000] {
            assert_eq!(link.complete_at(10.0, bytes), faulty.complete_at(10.0, bytes));
        }
    }

    #[test]
    fn fault_stalls_stretch_transfers_deterministically() {
        let plan = FaultPlan::new(3).with_stalls(1.0, 500.0).unwrap();
        let link = LinkModel::mbps(8.0, 10.0).unwrap();
        let faulty = FaultyLink::new(link, plan);
        let plain = link.complete_at(0.0, 10_000);
        let stalled = faulty.complete_at(0.0, 10_000);
        assert!((stalled - plain - 500.0).abs() < 1e-9, "{stalled} vs {plain}");
        assert_eq!(stalled, faulty.complete_at(0.0, 10_000), "deterministic");
    }

    #[test]
    fn faulty_link_composes_with_variable_links() {
        let var = VariableLink::new(vec![(0.0, 8e6), (1000.0, 0.8e6)], 0.0).unwrap();
        let plan = FaultPlan::new(5).with_stalls(0.0, 0.0).unwrap();
        let faulty = FaultyLink::new(var.clone(), plan);
        assert_eq!(var.complete_at(900.0, 125_000), faulty.complete_at(900.0, 125_000));
        assert_eq!(faulty.inner(), &var);
    }

    #[test]
    fn load_spike_validates_and_windows() {
        assert!(LoadSpike::new(f64::NAN, 10.0, 2.0).is_err());
        assert!(LoadSpike::new(0.0, -1.0, 2.0).is_err());
        assert!(LoadSpike::new(0.0, 10.0, 0.5).is_err());
        assert!(LoadSpike::new(0.0, 10.0, f64::INFINITY).is_err());
        let s = LoadSpike::new(100.0, 50.0, 4.0).unwrap();
        assert_eq!(s.factor_at(99.9), 1.0);
        assert_eq!(s.factor_at(100.0), 4.0);
        assert_eq!(s.factor_at(149.9), 4.0);
        assert_eq!(s.factor_at(150.0), 1.0, "window end is exclusive");
    }

    #[test]
    fn load_spike_scales_rates_only_inside_window() {
        let base = FaultPlan::new(21).with_loss(0.05).unwrap();
        let spiked =
            base.with_load_spike(LoadSpike::new(1000.0, 1000.0, 8.0).unwrap());
        // Outside the window the spiked plan behaves exactly like base —
        // including via the time-free entry point.
        for c in 0..300u32 {
            assert_eq!(spiked.chunk_fault_at(ChunkId(c), 0, 0.0), base.chunk_fault(ChunkId(c), 0));
            assert_eq!(spiked.chunk_fault(ChunkId(c), 0), base.chunk_fault(ChunkId(c), 0));
        }
        // Inside: monotone — everything lost at base rate stays lost,
        // and materially more is lost overall.
        let mut base_lost = 0;
        let mut spike_lost = 0;
        for c in 0..2000u32 {
            let b = base.chunk_fault(ChunkId(c), 0);
            let s = spiked.chunk_fault_at(ChunkId(c), 0, 1500.0);
            if b.lost {
                base_lost += 1;
                assert!(s.lost, "spike must not heal chunk {c}");
            }
            if s.lost {
                spike_lost += 1;
            }
        }
        assert!(
            spike_lost > base_lost * 4,
            "spike x8 should multiply losses: {base_lost} -> {spike_lost}"
        );
    }

    #[test]
    fn loss_wins_over_corruption() {
        // With both rates at 1.0 every attempt is lost, never corrupted:
        // a response that never arrives has no payload to corrupt.
        let plan = FaultPlan::new(11).with_loss(1.0).unwrap().with_corruption(1.0).unwrap();
        for c in 0..20u32 {
            let f = plan.chunk_fault(ChunkId(c), 0);
            assert!(f.lost);
            assert!(!f.corrupted);
        }
    }
}
