//! Shared decoded-GOP cache.
//!
//! Every decode hot path in the platform — segment-looping playback,
//! scenario-switch seeks, branch-aware decode-ahead — ends in the same
//! operation: "give me the decoded frames of the GOP starting at keyframe
//! `k` of video `v`". Before this module each consumer kept its own
//! private `HashMap` of decoded GOPs, so a cohort of N concurrent
//! sessions over the *same* content decoded every GOP N times. The
//! [`GopCache`] is one bounded, sharded LRU map shared through an `Arc`:
//! each GOP is decoded once per residency, everyone else gets an
//! `Arc`-clone of the frames.
//!
//! Design:
//!
//! * **Sharded** — entries hash to one of a fixed number of shards, each
//!   behind its own `parking_lot::Mutex`, so sessions touching different
//!   GOPs never contend on one lock.
//! * **Bounded LRU** — capacity is a total GOP count split evenly across
//!   shards; each shard evicts its least-recently-used entry when full.
//!   Capacity 0 disables caching entirely (every lookup decodes).
//! * **Miss-coalescing** — concurrent misses on the same key block on a
//!   per-key waiter while one thread decodes, so a cold cohort performs
//!   ~1× total GOP decodes instead of N×.
//! * **Observable** — hits, misses, evictions and resident bytes are
//!   atomic counters; [`GopCache::stats`] snapshots them for analytics
//!   and the EXP-11 tables.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use vgbl_obs::hash::{fnv1a_extend, scramble, FNV_OFFSET, GOLDEN_GAMMA};
use vgbl_obs::{Counter, Obs, Series, SeriesSpec};

use crate::codec::EncodedVideo;
use crate::error::MediaError;
use crate::frame::Frame;
use crate::parallel::parallel_map_indexed;
use crate::Result;

/// Identity of an encoded video inside the cache key space.
///
/// [`VideoId::of`] fingerprints a stream's content and memoises the id
/// on the [`EncodedVideo`] value, so every clone of the value, and every
/// `Arc` that shares it, reads it back in O(1). Consumers that already
/// know their streams are distinct can assign ids out-of-band
/// ([`VideoId::from_raw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(u64);

impl VideoId {
    /// Wraps an externally assigned id.
    pub fn from_raw(id: u64) -> VideoId {
        VideoId(id)
    }

    /// Deterministic fingerprint of a stream: FNV-1a over its width,
    /// height, GOP length, quality and frame count, then each frame's
    /// kind and payload. It does not cover the frame rate, which decoding
    /// does not use. Two equal streams get equal ids; payload hashing
    /// makes collisions between different streams vanishingly unlikely.
    ///
    /// The first call on a value hashes every payload byte and memoises
    /// the result on it; later calls, on it or on its clones, return the
    /// memo. [`EncodedVideo::frames_mut`], the one way to change a video,
    /// forgets the memo, so the next call fingerprints the new content.
    pub fn of(video: &EncodedVideo) -> VideoId {
        *video.id_memo().get_or_init(|| {
            let mut h = FNV_OFFSET;
            let mut eat = |bytes: &[u8]| h = fnv1a_extend(h, bytes);
            eat(&video.width().to_le_bytes());
            eat(&video.height().to_le_bytes());
            eat(&video.gop().to_le_bytes());
            eat(&[video.quality().to_u8()]);
            eat(&(video.len() as u64).to_le_bytes());
            for f in video.frames() {
                let kind = match f.kind {
                    crate::container::FrameKind::Intra => 0u8,
                    crate::container::FrameKind::Inter => 1,
                    crate::container::FrameKind::Skip => 2,
                };
                eat(&[kind]);
                eat(&(f.data.len() as u32).to_le_bytes());
                eat(&f.data);
            }
            VideoId(h)
        })
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Cache key: one GOP of one video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GopKey {
    video: VideoId,
    keyframe: usize,
}

impl GopKey {
    /// Shard selector: splitmix-style scramble so consecutive keyframes
    /// of one video spread across shards.
    fn shard_hash(self) -> u64 {
        scramble(self.video.0 ^ (self.keyframe as u64).wrapping_mul(GOLDEN_GAMMA))
    }
}

/// A resolved or in-flight cache slot.
enum Slot {
    /// Decoded frames plus the last-touch tick for LRU ordering.
    Ready { frames: Arc<Vec<Frame>>, touched: u64 },
    /// A decode is in flight; waiters block on the waiter's condvar.
    Pending(Arc<Waiter>),
}

/// Blocks followers of an in-flight decode until the leader resolves it,
/// then hands every follower the leader's outcome — decoded frames or
/// the decode error. Errors are handed off, never cached: the slot is
/// removed before followers wake, so the key stays retryable.
struct Waiter {
    outcome: Mutex<Option<std::result::Result<Arc<Vec<Frame>>, MediaError>>>,
    cv: Condvar,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter { outcome: Mutex::new(None), cv: Condvar::new() })
    }

    fn wait(&self) -> std::result::Result<Arc<Vec<Frame>>, MediaError> {
        let mut guard = self.outcome.lock();
        while guard.is_none() {
            guard = self.cv.wait(guard);
        }
        guard.as_ref().expect("resolved outcome").clone()
    }

    fn resolve(&self, outcome: std::result::Result<Arc<Vec<Frame>>, MediaError>) {
        *self.outcome.lock() = Some(outcome);
        self.cv.notify_all();
    }
}

struct Shard {
    entries: HashMap<GopKey, Slot>,
}

/// Counter snapshot returned by [`GopCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to decode (including coalesced leaders).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// GOPs currently resident.
    pub resident_gops: usize,
    /// Decoded bytes currently resident (RGB frame payloads).
    pub resident_bytes: usize,
    /// Configured capacity in GOPs (0 = caching disabled).
    pub capacity_gops: usize,
}

impl CacheStats {
    /// Fraction of lookups served without decoding. Higher is better;
    /// **empty input (an untouched cache) returns the perfect value
    /// `1.0`** — the workspace-wide convention for ratio metrics.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Resolved observability handles for the cache's event sites. The
/// default (all-noop) handles cost one `Option` check per event, so an
/// unobserved cache is unaffected.
#[derive(Debug, Default)]
struct CacheObs {
    hits: Counter,
    misses: Counter,
    coalesced_hits: Counter,
    evictions: Counter,
    // Windowed series on the cache's own touch-tick clock: each lookup
    // advances logical time by one, so a window reads as "hit/miss mix
    // over the last N lookups" — a rolling hit-rate without wall time.
    hit_series: Series,
    miss_series: Series,
}

/// Bin width (in touch ticks) for the cache hit/miss series.
const CACHE_BIN_TICKS: u64 = 64;
/// Ring length for the cache hit/miss series.
const CACHE_BINS: usize = 64;

/// Bounded, sharded, miss-coalescing LRU cache of decoded GOPs.
pub struct GopCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total capacity / shard count, min 1).
    per_shard: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
    resident_gops: AtomicUsize,
    obs: CacheObs,
}

impl std::fmt::Debug for GopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GopCache")
            .field("capacity_gops", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn frames_bytes(frames: &[Frame]) -> usize {
    frames
        .iter()
        .map(|f| (f.width() as usize) * (f.height() as usize) * 3)
        .sum()
}

impl GopCache {
    /// Creates a cache holding at most `capacity_gops` decoded GOPs in
    /// total. Capacity 0 disables caching: every lookup decodes and
    /// counts as a miss, which gives experiments a true "cold" baseline
    /// with the same code path.
    ///
    /// The shard count scales with capacity (~8 GOPs per shard, at most
    /// 16 shards): small caches stay in one shard so a handful of hot
    /// GOPs can never thrash each other across under-provisioned shards,
    /// while large shared caches spread lock traffic.
    pub fn new(capacity_gops: usize) -> GopCache {
        Self::with_shards(capacity_gops, capacity_gops.div_ceil(8).min(16))
    }

    /// Creates a cache with an explicit shard count (clamped to ≥ 1 and
    /// ≤ the capacity so no shard has a zero budget). Each shard gets a
    /// budget of `capacity / shards` rounded **up**, so total residency
    /// can exceed `capacity_gops` by at most `shards - 1` entries.
    pub fn with_shards(capacity_gops: usize, shards: usize) -> GopCache {
        let n_shards = shards.clamp(1, capacity_gops.max(1));
        let per_shard = if capacity_gops == 0 {
            0
        } else {
            capacity_gops.div_ceil(n_shards)
        };
        GopCache {
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard { entries: HashMap::new() }))
                .collect(),
            per_shard,
            capacity: capacity_gops,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            resident_gops: AtomicUsize::new(0),
            obs: CacheObs::default(),
        }
    }

    /// Attaches an observability backend: the cache's hit/miss/
    /// coalesced-hit/eviction events additionally feed `cache.*`
    /// counters (labelled `pillar=media`) in `obs`'s registry. These
    /// mirror the [`CacheStats`] atomics exactly — EXP-13 cross-checks
    /// the two accountings against each other — except that
    /// [`GopCache::reset_counters`] resets only the [`CacheStats`] side.
    /// With a noop backend this is free.
    pub fn observed(mut self, obs: &Obs) -> GopCache {
        let labels: &[(&str, &str)] = &[("pillar", "media")];
        self.obs = CacheObs {
            hits: obs.counter("cache.hits", labels),
            misses: obs.counter("cache.misses", labels),
            coalesced_hits: obs.counter("cache.coalesced_hits", labels),
            evictions: obs.counter("cache.evictions", labels),
            hit_series: obs.series(SeriesSpec::counter(
                "cache.hit_series",
                CACHE_BIN_TICKS,
                CACHE_BINS,
            )),
            miss_series: obs.series(SeriesSpec::counter(
                "cache.miss_series",
                CACHE_BIN_TICKS,
                CACHE_BINS,
            )),
        };
        self
    }

    /// Total capacity in GOPs (0 = disabled).
    pub fn capacity_gops(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_gops: self.resident_gops.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            capacity_gops: self.capacity,
        }
    }

    /// Resets the hit/miss/eviction counters (resident state is kept).
    /// Experiments use this to measure warm phases separately.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every resident entry (counters are kept). Decodes in flight
    /// stay: a lookup after the clear still coalesces onto one, and its
    /// frames land in the cache when it finishes.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            let (pending, dropped): (Vec<_>, Vec<_>) =
                s.entries.drain().partition(|(_, slot)| matches!(slot, Slot::Pending(_)));
            s.entries.extend(pending);
            drop(s);
            for (_, slot) in dropped {
                if let Slot::Ready { frames, .. } = slot {
                    self.resident_bytes.fetch_sub(frames_bytes(&frames), Ordering::Relaxed);
                    self.resident_gops.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Whether the GOP at `keyframe` of `video_id` is resident **right
    /// now**. A pure peek for batch planners (see `vgbl-runtime`'s
    /// batched cohort): it takes the shard lock but never touches the
    /// LRU clock or the hit/miss counters, so probing residency to plan
    /// a prewarm does not distort the cache statistics the experiments
    /// report. In-flight (`Pending`) decodes count as absent — a planner
    /// must not skip a key another thread may still fail to produce.
    pub fn contains(&self, video_id: VideoId, keyframe: usize) -> bool {
        self.capacity != 0 && self.touched_at(video_id, keyframe).is_some()
    }

    /// Prewarms the GOPs a batch of sessions is about to serve. Decodes
    /// the `keys` of `video_id` that are not resident, once each, with
    /// `decode` over `workers` pool threads. Then it touches the keys
    /// that were resident, least recently used first, and inserts the
    /// decoded GOPs in `keys` order. Returns the number of frames
    /// decoded.
    ///
    /// The touch makes the inserts evict GOPs the batch does not need
    /// before any that it does, so a GOP resident when the batch began
    /// is not decoded again when it is served, as long as the batch
    /// fits in the cache. Touching in recency order keeps the resident
    /// keys' own order, which decides what a batch larger than the
    /// cache evicts. Inserting in `keys` order makes the eviction
    /// sequence, and so every later decode, independent of thread
    /// timing.
    ///
    /// With caching disabled it does nothing: sessions decode for
    /// themselves. A failed decode counts as a miss, as it does in
    /// [`GopCache::get_or_decode`], and is left to the sessions' own
    /// serve path. A touch counts as neither a hit nor a miss.
    pub fn prewarm<F>(&self, video_id: VideoId, keys: &[usize], workers: usize, decode: F) -> usize
    where
        F: Fn(usize) -> Result<Vec<Frame>> + Sync,
    {
        if self.capacity == 0 {
            return 0;
        }
        let (mut resident, mut missing) = (Vec::new(), Vec::new());
        for &keyframe in keys {
            match self.touched_at(video_id, keyframe) {
                Some(tick) => resident.push((tick, keyframe)),
                None => missing.push(keyframe),
            }
        }
        let decoded = parallel_map_indexed(missing.len(), workers, |j| decode(missing[j]));
        resident.sort_unstable();
        for (_, keyframe) in resident {
            self.touch(video_id, keyframe);
        }
        let mut frames = 0;
        for (keyframe, outcome) in missing.into_iter().zip(decoded) {
            frames += outcome.as_ref().map_or(0, |f| f.len());
            let _ = self.get_or_decode(video_id, keyframe, || outcome);
        }
        frames
    }

    /// The tick the GOP at `keyframe` of `video_id` was last used at,
    /// if it is resident.
    fn touched_at(&self, video_id: VideoId, keyframe: usize) -> Option<u64> {
        let key = GopKey { video: video_id, keyframe };
        match self.shard(key).lock().entries.get(&key) {
            Some(Slot::Ready { touched, .. }) => Some(*touched),
            _ => None,
        }
    }

    /// Marks the resident GOP at `keyframe` of `video_id` most recently
    /// used, counting neither a hit nor a miss.
    fn touch(&self, video_id: VideoId, keyframe: usize) {
        let key = GopKey { video: video_id, keyframe };
        if let Some(Slot::Ready { touched, .. }) = self.shard(key).lock().entries.get_mut(&key) {
            *touched = self.clock.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up the GOP at `keyframe` of `video_id`, decoding it with
    /// `decode` on a miss. Concurrent misses on the same key coalesce:
    /// one caller decodes, the rest block and then read the entry.
    ///
    /// `decode` must produce the frames of the **whole GOP** starting at
    /// `keyframe`; all consumers of a key must agree on that contract
    /// (they do — everyone decodes `[keyframe, next_keyframe)`).
    ///
    /// # Errors
    /// Propagates `decode`'s error. A failed decode is never cached:
    /// coalesced followers are woken with a clone of the leader's error,
    /// and the key stays retryable for later callers.
    pub fn get_or_decode<F>(
        &self,
        video_id: VideoId,
        keyframe: usize,
        decode: F,
    ) -> Result<Arc<Vec<Frame>>>
    where
        F: FnOnce() -> Result<Vec<Frame>>,
    {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs.misses.inc();
            self.obs.miss_series.record(self.clock.fetch_add(1, Ordering::Relaxed), 1);
            return decode().map(Arc::new);
        }
        let key = GopKey { video: video_id, keyframe };
        let shard = self.shard(key);
        // Fast path under the shard lock: hit, or join an in-flight
        // decode, or claim leadership of a new one.
        let waiter = {
            let mut s = shard.lock();
            match s.entries.get_mut(&key) {
                Some(Slot::Ready { frames, touched }) => {
                    *touched = self.clock.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.obs.hits.inc();
                    self.obs.hit_series.record(*touched, 1);
                    return Ok(frames.clone());
                }
                Some(Slot::Pending(w)) => w.clone(),
                None => {
                    let w = Waiter::new();
                    s.entries.insert(key, Slot::Pending(w.clone()));
                    drop(s);
                    return self.lead_decode(shard, key, w, decode);
                }
            }
        };
        // Follower: block until the leader resolves, then share its
        // outcome — frames count as a coalesced hit, an error counts as
        // a miss and propagates without being cached anywhere.
        match waiter.wait() {
            Ok(frames) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.hits.inc();
                self.obs.coalesced_hits.inc();
                self.obs.hit_series.record(tick, 1);
                Ok(frames)
            }
            Err(e) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.misses.inc();
                self.obs.miss_series.record(tick, 1);
                Err(e)
            }
        }
    }

    /// The shard `key` lives in.
    fn shard(&self, key: GopKey) -> &Mutex<Shard> {
        &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize]
    }

    /// Leader path: decode outside the lock, publish, wake followers.
    fn lead_decode<F>(
        &self,
        shard: &Mutex<Shard>,
        key: GopKey,
        waiter: Arc<Waiter>,
        decode: F,
    ) -> Result<Arc<Vec<Frame>>>
    where
        F: FnOnce() -> Result<Vec<Frame>>,
    {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.misses.inc();
        self.obs.miss_series.record(self.clock.load(Ordering::Relaxed), 1);
        let outcome = decode();
        let mut s = shard.lock();
        match outcome {
            Ok(frames) => {
                let frames = Arc::new(frames);
                let touched = self.clock.fetch_add(1, Ordering::Relaxed);
                s.entries
                    .insert(key, Slot::Ready { frames: frames.clone(), touched });
                self.resident_gops.fetch_add(1, Ordering::Relaxed);
                self.resident_bytes.fetch_add(frames_bytes(&frames), Ordering::Relaxed);
                self.evict_over_capacity(&mut s, key);
                drop(s);
                waiter.resolve(Ok(frames.clone()));
                Ok(frames)
            }
            Err(e) => {
                // Negative results are never cached: remove the slot
                // before waking followers so the key stays retryable.
                s.entries.remove(&key);
                drop(s);
                waiter.resolve(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used Ready entries (never the one just
    /// inserted, never Pending ones) until the shard is within budget.
    fn evict_over_capacity(&self, s: &mut Shard, keep: GopKey) {
        while s.entries.len() > self.per_shard {
            let victim = s
                .entries
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { touched, .. } if *k != keep => Some((*k, *touched)),
                    _ => None,
                })
                .min_by_key(|&(_, touched)| touched)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { frames, .. }) = s.entries.remove(&victim) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.obs.evictions.inc();
                self.resident_gops.fetch_sub(1, Ordering::Relaxed);
                self.resident_bytes.fetch_sub(frames_bytes(&frames), Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decoder, EncodeConfig, Encoder};
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec};
    use crate::timeline::FrameRate;

    fn encoded(gop: usize, frames: usize) -> EncodedVideo {
        let footage = FootageSpec {
            width: 24,
            height: 16,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(90, 140, 60))],
            noise_seed: 11,
        }
        .render()
        .unwrap();
        Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap()
    }

    #[test]
    fn hit_after_miss_returns_same_frames() {
        let ev = encoded(4, 12);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        let a = cache
            .get_or_decode(id, 4, || dec.decode_gop_at(&ev, 4))
            .unwrap();
        let b = cache
            .get_or_decode(id, 4, || panic!("second lookup must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_gops, 1);
        assert_eq!(s.resident_bytes, 4 * 24 * 16 * 3);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let ev = encoded(4, 8);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(0);
        let dec = Decoder::default();
        for _ in 0..3 {
            cache
                .get_or_decode(id, 0, || dec.decode_gop_at(&ev, 0))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 3));
        assert_eq!(s.resident_gops, 0);
        assert_eq!(s.capacity_gops, 0);
    }

    #[test]
    fn lru_evicts_coldest_entry() {
        let ev = encoded(2, 12); // keyframes 0,2,4,6,8,10
        let id = VideoId::of(&ev);
        // Single shard, two entries, so eviction order is fully observable.
        let cache = GopCache::with_shards(2, 1);
        let dec = Decoder::default();
        let fill = |k: usize| {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap()
        };
        fill(0);
        fill(2);
        fill(0); // touch 0 so 2 is now the LRU
        fill(4); // evicts 2
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_gops, 2);
        // 0 is still resident (hit), 2 must decode again (miss).
        let before = cache.stats();
        fill(0);
        fill(2);
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
    }

    #[test]
    fn prewarm_keeps_a_resident_plan_key_its_inserts_would_evict() {
        let ev = encoded(2, 12); // keyframes 0,2,4,6,8,10
        let id = VideoId::of(&ev);
        let cache = GopCache::with_shards(2, 1);
        let dec = Decoder::default();
        // GOP 0 resident and least recently used, GOP 2 newer.
        for k in [0, 2] {
            cache.get_or_decode(id, k, || dec.decode_gop_at(&ev, k)).unwrap();
        }
        let decodes = AtomicUsize::new(0);
        let decode = |k: usize| {
            decodes.fetch_add(1, Ordering::Relaxed);
            dec.decode_gop_at(&ev, k)
        };
        // A batch needs GOPs 0 and 4: 4 is decoded, and its insert
        // evicts 2, which the batch does not need, rather than 0.
        assert_eq!(cache.prewarm(id, &[0, 4], 2, decode), 2);
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
        assert!(cache.contains(id, 0) && cache.contains(id, 4) && !cache.contains(id, 2));
        // So serving the batch decodes nothing again.
        let before = cache.stats();
        for k in [0, 4] {
            cache.get_or_decode(id, k, || panic!("GOP {k} decoded again at serve")).unwrap();
        }
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (before.hits + 2, before.misses));
        // The touch counted neither a hit nor a miss; the insert a miss.
        assert_eq!((before.hits, before.misses, before.evictions), (0, 3, 1));
    }

    #[test]
    fn prewarm_touches_resident_keys_in_recency_order() {
        let ev = encoded(2, 12);
        let id = VideoId::of(&ev);
        let cache = GopCache::with_shards(2, 1);
        let dec = Decoder::default();
        // GOP 2 resident and least recently used, GOP 0 newer.
        for k in [2, 0] {
            cache.get_or_decode(id, k, || dec.decode_gop_at(&ev, k)).unwrap();
        }
        // A batch of three does not fit: its insert of GOP 4 evicts the
        // batch's least recently used GOP, 2, as it would have without
        // the batch.
        cache.prewarm(id, &[0, 2, 4], 1, |k| dec.decode_gop_at(&ev, k));
        assert!(cache.contains(id, 0) && cache.contains(id, 4) && !cache.contains(id, 2));
    }

    #[test]
    fn prewarm_inserts_in_key_order_whatever_the_workers() {
        let ev = encoded(2, 24);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let keys: Vec<usize> = ev.keyframes();
        let run = |workers: usize| {
            // Three of twelve GOPs fit: which stay depends only on the
            // insert order.
            let cache = GopCache::with_shards(3, 1);
            let frames = cache.prewarm(id, &keys, workers, |k| dec.decode_gop_at(&ev, k));
            let resident: Vec<usize> =
                keys.iter().copied().filter(|&k| cache.contains(id, k)).collect();
            (frames, resident, cache.stats())
        };
        let one = run(1);
        assert_eq!(one.1, keys[keys.len() - 3..]);
        for workers in 2..=4 {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn prewarm_leaves_failures_and_disabled_caches_to_the_serve() {
        let ev = encoded(2, 6);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let cache = GopCache::new(0);
        assert_eq!(cache.prewarm(id, &[0, 2], 2, |_| panic!("nothing to prewarm")), 0);
        assert_eq!(cache.stats(), GopCache::new(0).stats());
        let cache = GopCache::new(4);
        let decode = |k: usize| match k {
            2 => Err(MediaError::CorruptGop { keyframe: 2 }),
            _ => dec.decode_gop_at(&ev, k),
        };
        assert_eq!(cache.prewarm(id, &[0, 2], 2, decode), 2);
        assert!(cache.contains(id, 0) && !cache.contains(id, 2));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn distinct_videos_do_not_collide() {
        let a = encoded(4, 8);
        let b = encoded(4, 16);
        assert_ne!(VideoId::of(&a), VideoId::of(&b));
        assert_eq!(VideoId::of(&a), VideoId::of(&a.clone()));
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        let fa = cache
            .get_or_decode(VideoId::of(&a), 0, || dec.decode_gop_at(&a, 0))
            .unwrap();
        let fb = cache
            .get_or_decode(VideoId::of(&b), 0, || dec.decode_gop_at(&b, 0))
            .unwrap();
        assert_eq!(cache.stats().misses, 2, "same keyframe, different video");
        assert_eq!(fa.len(), 4);
        assert_eq!(fb.len(), 4);
    }

    #[test]
    fn failed_decode_leaves_no_entry() {
        let cache = GopCache::new(4);
        let id = VideoId::from_raw(7);
        let err = cache.get_or_decode(id, 0, || {
            Err(crate::MediaError::CorruptBitstream("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().resident_gops, 0);
        // The key is retryable.
        let ok = cache.get_or_decode(id, 0, || Ok(Vec::new()));
        assert!(ok.is_ok());
    }

    #[test]
    fn clear_and_reset_counters() {
        let ev = encoded(3, 9);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let dec = Decoder::default();
        for k in [0usize, 3, 6] {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap();
        }
        assert_eq!(cache.stats().resident_gops, 3);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.resident_gops, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.misses, 3, "counters survive clear");
        cache.reset_counters();
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn clear_during_inflight_decode_keeps_residency_exact() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        let ev = encoded(4, 8);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(4);
        let dec = Decoder::default();
        let decodes = AtomicUsize::new(0);
        let decode = || {
            decodes.fetch_add(1, Ordering::Relaxed);
            dec.decode_gop_at(&ev, 0)
        };
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (a, b) = std::thread::scope(|s| {
            let cache_ref = &cache;
            // Leader: blocks inside its decode until released.
            let leader = s.spawn(move || {
                cache_ref.get_or_decode(id, 0, move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    decode()
                })
            });
            started_rx.recv().unwrap();
            cache.clear();
            let second = s.spawn(|| cache.get_or_decode(id, 0, decode));
            // Release the leader once the second lookup has joined the
            // in-flight slot (map + leader + follower = 3 references),
            // or has finished without joining it.
            let key = GopKey { video: id, keyframe: 0 };
            let sidx = (key.shard_hash() % cache.shards.len() as u64) as usize;
            while !second.is_finished() {
                let shard = cache.shards[sidx].lock();
                if let Some(Slot::Pending(w)) = shard.entries.get(&key) {
                    if Arc::strong_count(w) >= 3 {
                        break;
                    }
                }
                drop(shard);
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            (leader.join().unwrap().unwrap(), second.join().unwrap().unwrap())
        });
        let entries: usize = cache.shards.iter().map(|sh| sh.lock().entries.len()).sum();
        let s = cache.stats();
        assert_eq!(
            (s.resident_gops, entries, s.misses),
            (1, 1, 1),
            "resident_gops {} but {} entries (misses {})",
            s.resident_gops,
            entries,
            s.misses
        );
        assert_eq!(s.resident_bytes, 4 * 24 * 16 * 3);
        assert_eq!(s.hits, 1, "the lookup after the clear coalesced");
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&a, &b), "both lookups share one decode");
    }

    #[test]
    fn video_id_is_pinned() {
        // Sessionbench pre-fills its caches under these ids, so a change
        // to the fingerprint's input must fail here, not miss there.
        assert_eq!(VideoId::of(&encoded(4, 12)).raw(), 0x7a4f_68ac_f71a_6e59);
    }

    /// A copy of `video` built from its parts, with no memoised id.
    fn rebuilt(video: &EncodedVideo) -> EncodedVideo {
        EncodedVideo::new(
            video.width(),
            video.height(),
            video.rate(),
            video.quality(),
            video.gop(),
            video.frames().to_vec(),
        )
    }

    #[test]
    fn frames_mut_forgets_the_memoised_id() {
        let mut ev = encoded(4, 12);
        let before = VideoId::of(&ev);
        let victim = ev.frames().iter().position(|f| !f.data.is_empty()).unwrap();
        ev.frames_mut()[victim].data[0] ^= 0x01;
        let after = VideoId::of(&ev);
        assert_ne!(after, before, "a changed payload byte changes the id");
        assert_eq!(after, VideoId::of(&rebuilt(&ev)), "the id of the changed content");
    }

    #[test]
    fn clones_carry_the_memoised_id() {
        let ev = encoded(4, 12);
        let id = VideoId::of(&ev);
        let mut copy = ev.clone();
        assert_eq!(copy.id_memo().get(), Some(&id), "the clone needs no rehash");
        assert_eq!(VideoId::of(&copy), id);
        // Each value owns its memo: changing the clone leaves the source's.
        copy.frames_mut().pop();
        assert_ne!(VideoId::of(&copy), id);
        assert_eq!(VideoId::of(&ev), id);
    }

    #[test]
    fn the_memo_never_shows_in_eq_or_debug() {
        let memoised = encoded(4, 12);
        VideoId::of(&memoised);
        let fresh = rebuilt(&memoised);
        assert!(fresh.id_memo().get().is_none());
        assert_eq!(memoised, fresh);
        assert_eq!(format!("{memoised:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_decode() {
        use std::sync::atomic::AtomicUsize;
        let ev = encoded(8, 16);
        let id = VideoId::of(&ev);
        let cache = GopCache::new(8);
        let decodes = AtomicUsize::new(0);
        let dec = Decoder::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let frames = cache
                        .get_or_decode(id, 0, || {
                            decodes.fetch_add(1, Ordering::Relaxed);
                            dec.decode_gop_at(&ev, 0)
                        })
                        .unwrap();
                    assert_eq!(frames.len(), 8);
                });
            }
        });
        assert_eq!(
            decodes.load(Ordering::Relaxed),
            1,
            "all concurrent misses must coalesce onto one decode"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn flaky_decoder_error_wakes_coalesced_waiters_and_stays_retryable() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        let cache = GopCache::new(4);
        let id = VideoId::from_raw(3);
        let decodes = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Leader: decode fails, but only after followers have joined
            // the Pending slot.
            let (cache_ref, decodes_ref) = (&cache, &decodes);
            let leader = s.spawn(move || {
                cache_ref.get_or_decode(id, 0, || {
                    decodes_ref.fetch_add(1, Ordering::Relaxed);
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err(crate::MediaError::CorruptBitstream("flaky".into()))
                })
            });
            started_rx.recv().unwrap();
            // Followers join while the decode is in flight; their own
            // closures must never run.
            let followers: Vec<_> = (0..7)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_decode(id, 0, || {
                            panic!("follower closure must not run on a coalesced miss")
                        })
                    })
                })
                .collect();
            // Wait until every follower has joined the Pending slot
            // (map + leader + 7 followers = 9 waiter references), then
            // let the decode fail.
            let key = GopKey { video: id, keyframe: 0 };
            let sidx = (key.shard_hash() % cache.shards.len() as u64) as usize;
            loop {
                let shard = cache.shards[sidx].lock();
                match shard.entries.get(&key) {
                    Some(Slot::Pending(w)) if Arc::strong_count(w) >= 9 => break,
                    _ => {}
                }
                drop(shard);
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let lead_err = leader.join().unwrap().unwrap_err();
            assert_eq!(lead_err, crate::MediaError::CorruptBitstream("flaky".into()));
            for f in followers {
                // Every follower gets the leader's error — woken, not
                // blocked forever, and nothing re-decoded.
                let err = f.join().unwrap().unwrap_err();
                assert_eq!(err, lead_err);
            }
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1, "exactly one decode attempt");
        assert_eq!(cache.stats().resident_gops, 0, "failure must not be cached");
        // The key is immediately retryable and a success is cached.
        let ok = cache
            .get_or_decode(id, 0, || Ok(Vec::new()))
            .expect("retry after flaky failure succeeds");
        assert!(ok.is_empty());
        assert_eq!(cache.stats().resident_gops, 1);
    }

    #[test]
    fn obs_counters_mirror_cache_stats_exactly() {
        let ev = encoded(2, 12);
        let id = VideoId::of(&ev);
        let obs = Obs::recording();
        let cache = GopCache::with_shards(2, 1).observed(&obs);
        let dec = Decoder::default();
        // Misses, hits and an eviction, all on the observed cache.
        for k in [0usize, 2, 0, 4, 0, 2] {
            cache
                .get_or_decode(id, k, || dec.decode_gop_at(&ev, k))
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "walk must trigger an eviction");
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("cache.hits"), s.hits);
        assert_eq!(snap.counter_total("cache.misses"), s.misses);
        assert_eq!(snap.counter_total("cache.evictions"), s.evictions);
        assert_eq!(snap.counter_total("cache.coalesced_hits"), 0);
    }

    #[test]
    fn stress_many_threads_many_keys() {
        let ev = encoded(2, 40); // 20 GOPs
        let id = VideoId::of(&ev);
        let cache = GopCache::with_shards(6, 3);
        let dec = Decoder::default();
        let reference = dec.decode_all(&ev).unwrap();
        std::thread::scope(|s| {
            for t in 0..6 {
                let reference = &reference;
                let cache = &cache;
                let ev = &ev;
                let dec = &dec;
                s.spawn(move || {
                    // Each thread walks the keyframes with its own stride.
                    for lap in 0..30usize {
                        let k = ((lap * (t + 1) + t) % 20) * 2;
                        let frames = cache
                            .get_or_decode(id, k, || dec.decode_gop_at(ev, k))
                            .unwrap();
                        assert_eq!(frames[0], reference.frames[k], "gop {k}");
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 180);
        assert!(s.resident_gops <= 6 + 2, "resident {} over budget", s.resident_gops);
    }
}
