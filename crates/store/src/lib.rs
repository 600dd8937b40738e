//! # vgbl-store — a deterministic simulated durable checkpoint store
//!
//! Every other fault domain in the stack is modeled — the link
//! (`vgbl-stream::fault`), shards (`vgbl-runtime::fleet`), session
//! polls (`vgbl-runtime::executor`) — but until this crate, committed
//! checkpoints lived purely in process memory: a whole-fleet power loss
//! was unrecoverable by construction. This crate closes that gap with a
//! simulated durable medium that behaves like a disk, including the
//! ways disks betray you:
//!
//! * **Append-only WAL.** [`DurableStore::append`] stages an encoded,
//!   checksummed [`CheckpointRecord`] in a volatile buffer;
//!   [`DurableStore::flush`] moves the staged batch onto the medium.
//!   A record is *acknowledged* — durable, as far as the caller was
//!   told — exactly when its flush returned `Ok`.
//! * **Compacted snapshots.** Every [`StoreConfig::snapshot_every`]
//!   acknowledged flushes the store writes a snapshot holding the
//!   latest record per session and drops the WAL prefix it covers,
//!   bounding recovery work. A snapshot that reads back rotten on every
//!   replica drops nothing, so recovery that falls back past it still
//!   finds every record acknowledged since the snapshot it uses.
//! * **Shared bytes.** A record is encoded once, at append; the staged
//!   batch, every replica's WAL and every snapshot hold handles to
//!   those bytes, so a snapshot costs one handle per session, not a
//!   copy. Bit rot and tears act on what a read sees: a snapshot read
//!   lays the records end to end, the blob a stored copy would hold,
//!   and rot flips the same byte in it; a tear swaps the primary's
//!   handle for a truncated copy.
//! * **Per-record checksums.** Records and snapshots carry FNV-1a
//!   checksums (the same construction as `SaveGame::digest`), so every
//!   corruption below is *detectable* — the scrub pass never trusts a
//!   byte it cannot prove.
//! * **Seeded disk faults.** [`DiskFaultPlan`] injects torn writes
//!   (power loss truncates the record at the write head), bit rot
//!   (a durable blob flips a byte at rest), lost flushes (the flush
//!   reports failure and nothing lands — the fsync-gate case), flush
//!   reordering (a batch lands physically permuted, changing which
//!   record a tear destroys), and stale reads (recovery serves an
//!   older intact version). All decisions are pure hashes of
//!   `(seed, coordinate)` — reruns are byte-identical.
//! * **Dual-write redundancy.** With [`StoreConfig::dual_write`] the
//!   store keeps two replicas; [`DurableStore::scrub`] repairs a blob
//!   that is corrupt on one replica from the intact copy on the other,
//!   pairing a record's copies by sequence number.
//!
//! [`DurableStore::power_loss`] models the fleet-wide outage: the
//! volatile buffer vanishes, the in-flight write may tear, and
//! [`DurableStore::recover`] rebuilds the surviving session map from
//! the latest intact snapshot plus every WAL record that still proves
//! itself — reporting exactly which sequence numbers were lost, and
//! why, in a [`ScrubReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use vgbl_obs::hash::{fnv1a, mix, unit};

// ---------------------------------------------------------------------------
// Seeded fault draws
// ---------------------------------------------------------------------------

/// Domain separation salts — one per fault coordinate family.
const SALT_TORN: u64 = 0xD15C_0001;
const SALT_ROT: u64 = 0xD15C_0002;
const SALT_LOST: u64 = 0xD15C_0003;
const SALT_REORDER: u64 = 0xD15C_0004;
const SALT_STALE: u64 = 0xD15C_0005;
const SALT_ROT_BYTE: u64 = 0xD15C_0006;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Store configuration or flush failure.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A rate or parameter failed validation.
    InvalidConfig(String),
    /// The flush was lost before reaching the medium (detected, like a
    /// failed fsync): nothing landed, nothing is acknowledged, the
    /// staged batch is retained for retry.
    FlushLost {
        /// The flush attempt index that failed.
        flush: u64,
        /// Staged records that did not land.
        records: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidConfig(msg) => write!(f, "invalid store config: {msg}"),
            StoreError::FlushLost { flush, records } => {
                write!(f, "flush {flush} lost before the medium ({records} records not durable)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------------
// DiskFaultPlan
// ---------------------------------------------------------------------------

/// Seeded storage-fault schedule. Stateless: every decision is a pure
/// hash of the seed and the event coordinate, so two stores built from
/// the same plan corrupt exactly the same bytes — the property the
/// chaos orchestrator's byte-identical-rerun invariant rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultPlan {
    seed: u64,
    /// P(power loss tears the record at the write head).
    torn_write: f64,
    /// P(a durable blob has a flipped byte at rest), per blob per replica.
    bit_rot: f64,
    /// P(a flush fails detectably before the medium).
    lost_flush: f64,
    /// P(a multi-record flush batch lands physically permuted).
    reorder_flush: f64,
    /// P(recovery serves a session's previous intact version).
    stale_read: f64,
}

impl DiskFaultPlan {
    /// A clean plan (no faults) under `seed`.
    pub fn new(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            torn_write: 0.0,
            bit_rot: 0.0,
            lost_flush: 0.0,
            reorder_flush: 0.0,
            stale_read: 0.0,
        }
    }

    fn rate(v: f64, what: &str) -> Result<f64> {
        if !v.is_finite() || !(0.0..1.0).contains(&v) {
            return Err(StoreError::InvalidConfig(format!("{what} rate must be in [0, 1)")));
        }
        Ok(v)
    }

    /// Sets the torn-write probability (per power loss).
    pub fn with_torn_writes(mut self, rate: f64) -> Result<DiskFaultPlan> {
        self.torn_write = Self::rate(rate, "torn-write")?;
        Ok(self)
    }

    /// Sets the bit-rot probability (per durable blob, per replica).
    pub fn with_bit_rot(mut self, rate: f64) -> Result<DiskFaultPlan> {
        self.bit_rot = Self::rate(rate, "bit-rot")?;
        Ok(self)
    }

    /// Sets the lost-flush probability (per flush attempt).
    pub fn with_lost_flushes(mut self, rate: f64) -> Result<DiskFaultPlan> {
        self.lost_flush = Self::rate(rate, "lost-flush")?;
        Ok(self)
    }

    /// Sets the flush-reorder probability (per multi-record flush).
    pub fn with_reordered_flushes(mut self, rate: f64) -> Result<DiskFaultPlan> {
        self.reorder_flush = Self::rate(rate, "reorder-flush")?;
        Ok(self)
    }

    /// Sets the stale-read probability (per session at recovery).
    pub fn with_stale_reads(mut self, rate: f64) -> Result<DiskFaultPlan> {
        self.stale_read = Self::rate(rate, "stale-read")?;
        Ok(self)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when every rate is zero — the store is then lossless by
    /// construction, which EXP-19's fault-free leg asserts.
    pub fn is_clean(&self) -> bool {
        self.torn_write == 0.0
            && self.bit_rot == 0.0
            && self.lost_flush == 0.0
            && self.reorder_flush == 0.0
            && self.stale_read == 0.0
    }

    fn draw(&self, salt: u64, coord: u64) -> f64 {
        unit(mix(self.seed ^ salt ^ mix(coord)))
    }

    /// Does power loss number `idx` tear the record at the write head?
    pub fn torn_at(&self, idx: u64) -> bool {
        self.draw(SALT_TORN, idx) < self.torn_write
    }

    /// Has blob `seq` rotted at rest on `replica`?
    pub fn rot_at(&self, replica: u32, seq: u64) -> bool {
        self.draw(SALT_ROT, (u64::from(replica) << 56) ^ seq) < self.bit_rot
    }

    /// Which byte of a `len`-byte rotten blob flipped (0 for empty).
    pub fn rot_byte(&self, replica: u32, seq: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (mix(self.seed ^ SALT_ROT_BYTE ^ mix((u64::from(replica) << 56) ^ seq)) as usize) % len
    }

    /// Is flush attempt `idx` lost before the medium?
    pub fn lost_at(&self, idx: u64) -> bool {
        self.draw(SALT_LOST, idx) < self.lost_flush
    }

    /// Does flush `idx`'s batch land physically permuted?
    pub fn reorder_at(&self, idx: u64) -> bool {
        self.draw(SALT_REORDER, idx) < self.reorder_flush
    }

    /// Does recovery serve `session` a stale (previous) version?
    pub fn stale_at(&self, session: u64) -> bool {
        self.draw(SALT_STALE, session) < self.stale_read
    }
}

// ---------------------------------------------------------------------------
// Records and encoding
// ---------------------------------------------------------------------------

/// One checkpoint the caller wants made durable. The payload is opaque
/// to the store (the runtime puts canonical save-game text in it);
/// `digest` is the caller's own payload digest, carried so recovery can
/// hand back a record whose integrity the *caller* can re-verify
/// end-to-end, independent of the store's checksums. The runtime keeps
/// this same record in memory as a session's latest commit, so what it
/// restores from is byte for byte what it persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Stable session id (the fleet's routing key).
    pub session: u64,
    /// Decision step at the checkpoint boundary.
    pub step: u64,
    /// Incarnation that took the checkpoint.
    pub generation: u32,
    /// Caller-side digest of the payload (e.g. `SaveGame::digest`).
    pub digest: u64,
    /// Causal trace id (journey layer; 0 when the caller doesn't trace).
    /// Persisted so a cold restart can stitch the recovered session back
    /// onto the journey it was on when the power died.
    pub trace_id: u64,
    /// Span id of the generation that took the checkpoint (0 untraced).
    pub span_id: u64,
    /// Opaque checkpoint bytes.
    pub payload: Vec<u8>,
}

const MAGIC: u16 = 0x5653; // "VS"
/// Bytes before the payload: magic(2) seq(8) session(8) step(8)
/// generation(4) digest(8) trace_id(8) span_id(8) len(4).
const HEADER_LEN: usize = 2 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 4;
/// Trailing checksum bytes.
const TRAILER_LEN: usize = 8;

/// Encodes `(seq, record)` with a trailing FNV-1a checksum over
/// everything before it.
fn encode(seq: u64, r: &CheckpointRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + r.payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&r.session.to_le_bytes());
    out.extend_from_slice(&r.step.to_le_bytes());
    out.extend_from_slice(&r.generation.to_le_bytes());
    out.extend_from_slice(&r.digest.to_le_bytes());
    out.extend_from_slice(&r.trace_id.to_le_bytes());
    out.extend_from_slice(&r.span_id.to_le_bytes());
    out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&r.payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Why a blob failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeFail {
    /// Shorter than its header + declared payload + trailer, and not a
    /// whole blob with a rotten length field: torn.
    Truncated,
    /// Full length but the checksum (or magic) disagrees: rotten.
    Corrupt,
}

/// Offset of the payload length in the header.
const LEN_AT: usize = HEADER_LEN - 4;

/// Whether `bytes`, a whole blob, is a record as written but for its
/// length field: its checksum matches with the length it has put back.
fn written_whole(bytes: &[u8]) -> bool {
    let body = bytes.len() - TRAILER_LEN;
    let Ok(len) = u32::try_from(body - HEADER_LEN) else { return false };
    let sum = u64::from_le_bytes(bytes[body..].try_into().expect("sliced"));
    let mut fixed = bytes[..body].to_vec();
    fixed[LEN_AT..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    fnv1a(&fixed) == sum
}

/// Decodes one record blob; `Err` classifies the damage.
fn decode(bytes: &[u8]) -> std::result::Result<(u64, CheckpointRecord), DecodeFail> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(DecodeFail::Truncated);
    }
    let u16le = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().expect("sliced"));
    let u32le = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("sliced"));
    let u64le = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("sliced"));
    if u16le(0) != MAGIC {
        return Err(DecodeFail::Corrupt);
    }
    let len = u32le(LEN_AT) as usize;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if bytes.len() < total {
        // A rotten length field points past the blob too. The checksum
        // tells the two apart: a blob written whole checks out under
        // the length it has.
        return Err(if written_whole(bytes) { DecodeFail::Corrupt } else { DecodeFail::Truncated });
    }
    // Trailing bytes beyond `total` are allowed: snapshot blobs are
    // records laid end to end, parsed from a shared slice.
    let body = &bytes[..HEADER_LEN + len];
    let sum = u64le(HEADER_LEN + len);
    if fnv1a(body) != sum {
        return Err(DecodeFail::Corrupt);
    }
    Ok((
        u64le(2),
        CheckpointRecord {
            session: u64le(2 + 8),
            step: u64le(2 + 8 + 8),
            generation: u32le(2 + 8 + 8 + 8),
            digest: u64le(2 + 8 + 8 + 8 + 4),
            trace_id: u64le(2 + 8 + 8 + 8 + 4 + 8),
            span_id: u64le(2 + 8 + 8 + 8 + 4 + 8 + 8),
            payload: bytes[HEADER_LEN..HEADER_LEN + len].to_vec(),
        },
    ))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Durable-store tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Write a compacted snapshot every this many acknowledged flushes
    /// (0 = never snapshot; the WAL grows unboundedly).
    pub snapshot_every: u64,
    /// Keep two replicas and repair corrupt blobs from the intact copy.
    pub dual_write: bool,
    /// The seeded fault schedule.
    pub faults: DiskFaultPlan,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            snapshot_every: 8,
            dual_write: false,
            faults: DiskFaultPlan::new(0xD15C_5EED),
        }
    }
}

// ---------------------------------------------------------------------------
// Media
// ---------------------------------------------------------------------------

/// One durable WAL record on a replica. Its bytes are a handle shared
/// with the staged batch, the other replica and `latest_acked`.
#[derive(Debug, Clone)]
struct Blob {
    /// The record's seq.
    id: u64,
    bytes: Arc<[u8]>,
}

/// Snapshot blob ids live far above any realistic record seq so rot
/// coordinates never collide with WAL records.
const SNAP_BASE: u64 = 1 << 62;

/// One replica of the medium.
#[derive(Debug, Clone, Default)]
struct Replica {
    wal: Vec<Blob>,
}

/// A compacted snapshot: the handles of the records it holds, in
/// session order. Every replica writes the same snapshot, so the store
/// keeps one list for all of them; its blob is the records'
/// concatenation, built once per scrub that checks it.
#[derive(Debug, Clone)]
struct Snapshot {
    /// `SNAP_BASE + idx`: the rot coordinate.
    id: u64,
    /// The newest seq it covers.
    upto: u64,
    records: Vec<Arc<[u8]>>,
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Why a record was unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Truncated mid-write by a power loss.
    Torn,
    /// A byte flipped at rest.
    Rotten,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::Torn => write!(f, "torn"),
            CorruptKind::Rotten => write!(f, "bit-rot"),
        }
    }
}

/// One provably corrupt, unrepaired record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRecord {
    /// The record's WAL sequence number.
    pub seq: u64,
    /// What destroyed it.
    pub kind: CorruptKind,
}

/// What a scrub pass over the medium found. `PartialEq` so chaos reruns
/// can assert byte-identical storage damage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// WAL blobs examined (on the primary replica).
    pub records_checked: u64,
    /// Snapshot blobs examined.
    pub snapshots_checked: u64,
    /// `upto_seq` of the intact snapshot recovery starts from.
    pub snapshot_used: Option<u64>,
    /// Snapshots skipped because no replica held an intact copy.
    pub snapshots_corrupt: u64,
    /// Records corrupt on one replica but repaired from the other.
    pub repaired: Vec<u64>,
    /// Records provably corrupt on every replica — lost, with cause.
    pub lost: Vec<CorruptRecord>,
}

/// One recovered session checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredCheckpoint {
    /// WAL sequence of the version served.
    pub seq: u64,
    /// The record.
    pub record: CheckpointRecord,
    /// True when a stale read served an older intact version than the
    /// newest one on the medium.
    pub stale: bool,
}

/// Everything recovery reconstructed after a cold restart.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovery {
    /// Latest (or stale-read) intact checkpoint per session.
    pub sessions: BTreeMap<u64, RecoveredCheckpoint>,
    /// The scrub pass that produced it.
    pub scrub: ScrubReport,
}

/// Lifetime counters of one store. `PartialEq` for rerun assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Records staged via [`DurableStore::append`].
    pub appended: u64,
    /// Flush attempts.
    pub flushes: u64,
    /// Flushes that reached the medium (their records are acknowledged).
    pub acked_flushes: u64,
    /// Flushes lost before the medium (detected; nothing acknowledged).
    pub lost_flushes: u64,
    /// Records acknowledged durable.
    pub acked_records: u64,
    /// Flush batches that landed physically permuted.
    pub reordered_flushes: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Power losses survived.
    pub power_losses: u64,
    /// Staged (never-acknowledged) records destroyed by power losses.
    pub pending_lost: u64,
}

/// A successful flush acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushAck {
    /// First sequence number in the acknowledged batch.
    pub first_seq: u64,
    /// Records acknowledged.
    pub records: usize,
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

/// The simulated durable store. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct DurableStore {
    cfg: StoreConfig,
    /// Volatile staged batch: `(seq, encoded bytes, session)`.
    pending: Vec<(u64, Arc<[u8]>, u64)>,
    /// Latest *acknowledged* encoded record per session — the compaction
    /// source for snapshots (equivalent to reading the medium back:
    /// same bytes, and rot is applied at read time, not write time).
    latest_acked: BTreeMap<u64, (u64, Arc<[u8]>)>,
    replicas: Vec<Replica>,
    /// Every snapshot written, on every replica alike — newest last.
    snapshots: Vec<Snapshot>,
    next_seq: u64,
    flush_idx: u64,
    power_idx: u64,
    stats: StoreStats,
}

impl DurableStore {
    /// A fresh, empty store. It reports through [`DurableStore::stats`]
    /// and the [`ScrubReport`] each recovery returns.
    pub fn new(cfg: StoreConfig) -> DurableStore {
        let n = if cfg.dual_write { 2 } else { 1 };
        DurableStore {
            cfg,
            pending: Vec::new(),
            latest_acked: BTreeMap::new(),
            replicas: vec![Replica::default(); n],
            snapshots: Vec::new(),
            next_seq: 1,
            flush_idx: 0,
            power_idx: 0,
            stats: StoreStats::default(),
        }
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Records staged but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Stages `record` in the volatile buffer; returns its WAL sequence
    /// number. Not durable until a flush acknowledges it.
    pub fn append(&mut self, record: &CheckpointRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.appended += 1;
        self.pending.push((seq, encode(seq, record).into(), record.session));
        seq
    }

    /// Flushes the staged batch to the medium. `Ok` acknowledges every
    /// staged record as durable. [`StoreError::FlushLost`] means the
    /// flush failed detectably: nothing landed, nothing is
    /// acknowledged, and the batch stays staged for retry (a retry is a
    /// new flush attempt with a fresh fault draw).
    pub fn flush(&mut self) -> Result<FlushAck> {
        self.flush_idx += 1;
        self.stats.flushes += 1;
        if self.pending.is_empty() {
            self.stats.acked_flushes += 1;
            return Ok(FlushAck { first_seq: self.next_seq, records: 0 });
        }
        if self.cfg.faults.lost_at(self.flush_idx) {
            self.stats.lost_flushes += 1;
            return Err(StoreError::FlushLost {
                flush: self.flush_idx,
                records: self.pending.len(),
            });
        }
        let mut batch = std::mem::take(&mut self.pending);
        let first_seq = batch.first().map(|(s, _, _)| *s).expect("non-empty batch");
        if batch.len() >= 2 && self.cfg.faults.reorder_at(self.flush_idx) {
            // The physical permutation a real device cache produces:
            // the head of the batch settles last, so a later tear
            // destroys the *oldest* record of the batch, not the newest.
            let head = batch.remove(0);
            batch.push(head);
            self.stats.reordered_flushes += 1;
        }
        let records = batch.len();
        for (seq, bytes, session) in batch {
            for r in &mut self.replicas {
                r.wal.push(Blob { id: seq, bytes: bytes.clone() });
            }
            // Compaction tracks the newest seq per session even when the
            // physical landing order was permuted.
            match self.latest_acked.get(&session) {
                Some((prev, _)) if *prev > seq => {}
                _ => {
                    self.latest_acked.insert(session, (seq, bytes));
                }
            }
        }
        self.stats.acked_flushes += 1;
        self.stats.acked_records += records as u64;
        if self.cfg.snapshot_every > 0
            && self.stats.acked_flushes.is_multiple_of(self.cfg.snapshot_every)
        {
            self.take_snapshot();
        }
        Ok(FlushAck { first_seq, records })
    }

    /// Writes a compacted snapshot (the latest acknowledged record per
    /// session, by handle) and, once it reads back intact, drops the WAL
    /// prefix it covers.
    ///
    /// A snapshot rotten on every replica covers nothing: a scrub falls
    /// back past it to an older snapshot, so the WAL keeps the records
    /// acknowledged since that one.
    fn take_snapshot(&mut self) {
        if self.latest_acked.is_empty() {
            return;
        }
        let upto = self.next_seq - 1;
        let snap = Snapshot {
            id: SNAP_BASE + self.snapshots.len() as u64,
            upto,
            records: self.latest_acked.values().map(|(_, rec)| rec.clone()).collect(),
        };
        if self.reads_intact(&snap) {
            for r in &mut self.replicas {
                r.wal.retain(|b| b.id > upto);
            }
        }
        self.snapshots.push(snap);
        self.stats.snapshots += 1;
    }

    /// Whether some replica reads `snap` back intact, as a scrub would.
    /// A replica whose copy has not rotted holds it intact as written.
    fn reads_intact(&self, snap: &Snapshot) -> bool {
        (0..self.replicas.len() as u32).any(|ri| {
            !self.cfg.faults.rot_at(ri, snap.id)
                || parse_snapshot(&self.read(ri, snap.id, &snap.records.concat())).is_some()
        })
    }

    /// The fleet-wide outage: the volatile buffer vanishes (staged
    /// records were never acknowledged — their loss is legitimate), and
    /// a torn write may truncate the blob at the write head: the first
    /// staged record if a write was in flight, else the most recently
    /// landed blob on the primary replica (a device cache that never
    /// settled). With dual-write only the primary tears — the writes
    /// were independent.
    pub fn power_loss(&mut self) {
        self.power_idx += 1;
        self.stats.power_losses += 1;
        let torn = self.cfg.faults.torn_at(self.power_idx);
        let staged = std::mem::take(&mut self.pending);
        self.stats.pending_lost += staged.len() as u64;
        if !torn {
            return;
        }
        if let Some((seq, bytes, _)) = staged.into_iter().next() {
            // The in-flight write landed partially on the primary.
            let cut = bytes.len() / 2;
            self.replicas[0].wal.push(Blob { id: seq, bytes: bytes[..cut].into() });
        } else if let Some(last) = self.replicas[0].wal.last_mut() {
            // Nothing staged: the tear hits the newest durable blob —
            // an acknowledged record, provably corrupt at scrub time.
            // Only the primary's handle changes: replica 1's copy and
            // `latest_acked` keep the full bytes.
            let cut = last.bytes.len() / 2;
            last.bytes = last.bytes[..cut].into();
        }
    }

    /// Reads blob `id`'s bytes from `replica`, applying bit rot as a
    /// pure function of `(replica, id)` — the same blob always reads the
    /// same way, so scrubs and reruns agree. An intact read borrows.
    fn read<'a>(&self, replica: u32, id: u64, bytes: &'a [u8]) -> Cow<'a, [u8]> {
        if bytes.is_empty() || !self.cfg.faults.rot_at(replica, id) {
            return Cow::Borrowed(bytes);
        }
        let mut bytes = bytes.to_vec();
        let at = self.cfg.faults.rot_byte(replica, id, bytes.len());
        bytes[at] ^= 0x40;
        Cow::Owned(bytes)
    }

    /// Verifies every snapshot and WAL blob across replicas. Returns
    /// the scrub findings plus the intact records (seq order), starting
    /// from the newest intact snapshot.
    fn scrub_inner(&self) -> (ScrubReport, Vec<(u64, CheckpointRecord, bool)>) {
        let mut report = ScrubReport::default();
        // Newest intact snapshot wins; a corrupt one falls back to the
        // next older (repair across replicas applies here too).
        let mut base: Vec<(u64, CheckpointRecord, bool)> = Vec::new();
        for snap in self.snapshots.iter().rev() {
            report.snapshots_checked += 1;
            // The blob each replica holds: the records laid end to end.
            let blob = snap.records.concat();
            let replicas = 0..self.replicas.len() as u32;
            let reads = replicas.map(|ri| parse_snapshot(&self.read(ri, snap.id, &blob)).ok_or(()));
            match first_intact(reads) {
                Ok((records, repaired)) => {
                    report.snapshot_used = Some(snap.upto);
                    base = records.into_iter().map(|(s, r)| (s, r, repaired)).collect();
                    break;
                }
                Err(()) => report.snapshots_corrupt += 1,
            }
        }
        let upto = report.snapshot_used.unwrap_or(0);
        // A tear can land an in-flight write on the primary alone, so
        // replica WALs need not line up by position: pair copies by seq.
        let copies: Vec<BTreeMap<u64, &Blob>> = self.replicas[1..]
            .iter()
            .map(|r| r.wal.iter().map(|b| (b.id, b)).collect())
            .collect();
        let mut wal: Vec<(u64, CheckpointRecord, bool)> = Vec::new();
        for blob in self.replicas[0].wal.iter().filter(|b| b.id > upto) {
            report.records_checked += 1;
            let others = copies.iter().zip(1..).filter_map(|(c, ri)| Some((ri, *c.get(&blob.id)?)));
            let reads = std::iter::once((0, blob)).chain(others);
            match first_intact(reads.map(|(ri, b)| decode(&self.read(ri, b.id, &b.bytes)))) {
                Ok(((seq, rec), repaired)) => {
                    if repaired {
                        report.repaired.push(seq);
                    }
                    wal.push((seq, rec, repaired));
                }
                Err(fail) => {
                    let kind = match fail {
                        DecodeFail::Truncated => CorruptKind::Torn,
                        DecodeFail::Corrupt => CorruptKind::Rotten,
                    };
                    report.lost.push(CorruptRecord { seq: blob.id, kind });
                }
            }
        }
        wal.sort_by_key(|(seq, _, _)| *seq);
        report.repaired.sort_unstable();
        report.lost.sort_by_key(|l| l.seq);
        base.extend(wal);
        (report, base)
    }

    /// Scrub only: verify every blob, report damage and repairs.
    pub fn scrub(&self) -> ScrubReport {
        self.scrub_inner().0
    }

    /// The cold-restart read path: scrub, then rebuild the latest
    /// intact checkpoint per session (snapshot base + WAL overrides in
    /// seq order). A stale read serves the session's previous intact
    /// version instead of its newest, when one exists.
    pub fn recover(&self) -> Recovery {
        let (scrub, records) = self.scrub_inner();
        let mut versions: BTreeMap<u64, Vec<(u64, CheckpointRecord)>> = BTreeMap::new();
        for (seq, rec, _) in records {
            let v = versions.entry(rec.session).or_default();
            // Snapshot base and WAL tail can both carry a session's
            // record at the same seq; keep one copy per seq.
            if v.last().map(|(s, _)| *s) != Some(seq) {
                v.push((seq, rec));
            }
        }
        let mut sessions = BTreeMap::new();
        for (session, mut v) in versions {
            v.sort_by_key(|(seq, _)| *seq);
            v.dedup_by_key(|(seq, _)| *seq);
            let stale = self.cfg.faults.stale_at(session) && v.len() >= 2;
            let (seq, record) =
                if stale { v[v.len() - 2].clone() } else { v.last().expect("non-empty").clone() };
            sessions.insert(session, RecoveredCheckpoint { seq, record, stale });
        }
        Recovery { sessions, scrub }
    }
}

/// The first of one blob's reads, in replica order, that proved intact,
/// and whether it was a repair (not the primary's copy); else the
/// primary's failure.
fn first_intact<T, E>(
    reads: impl IntoIterator<Item = std::result::Result<T, E>>,
) -> std::result::Result<(T, bool), E> {
    let mut reads = reads.into_iter();
    match reads.next().expect("the primary holds a copy") {
        Ok(v) => Ok((v, false)),
        Err(e) => reads.find_map(|r| r.ok()).map(|v| (v, true)).ok_or(e),
    }
}

/// Parses a snapshot blob (concatenated encoded records); `None` when
/// any record inside fails its checksum — a snapshot is all-or-nothing.
fn parse_snapshot(bytes: &[u8]) -> Option<Vec<(u64, CheckpointRecord)>> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let (seq, rec) = decode(&bytes[at..]).ok()?;
        at += HEADER_LEN + rec.payload.len() + TRAILER_LEN;
        out.push((seq, rec));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(session: u64, step: u64, payload: &[u8]) -> CheckpointRecord {
        CheckpointRecord {
            session,
            step,
            generation: 0,
            digest: fnv1a(payload),
            trace_id: mix(session ^ 0x7e57),
            span_id: mix(session ^ step),
            payload: payload.to_vec(),
        }
    }

    fn clean_store() -> DurableStore {
        DurableStore::new(StoreConfig {
            snapshot_every: 0,
            dual_write: false,
            faults: DiskFaultPlan::new(7),
        })
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = rec(42, 17, b"hello checkpoint");
        let bytes = encode(9, &r);
        assert_eq!(decode(&bytes), Ok((9, r.clone())));
        assert_eq!(parse_snapshot(&bytes), Some(vec![(9, r.clone())]));
        // Truncation at any point is detected as torn or corrupt, and a
        // snapshot holding the cut record is rejected whole. (The empty
        // cut is a valid snapshot of no records.)
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must not decode");
            if cut > 0 {
                assert_eq!(parse_snapshot(&bytes[..cut]), None, "cut at {cut} must not parse");
            }
        }
        // Any single flipped byte is detected.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(decode(&b).is_err(), "flip at {i} must not decode");
            assert_eq!(parse_snapshot(&b), None, "flip at {i} must not parse");
        }
        // A declared payload length far past the blob sizes no
        // allocation. In a blob written whole it is rot; in a cut blob,
        // a tear.
        let mut huge = bytes.clone();
        huge[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(DecodeFail::Corrupt));
        assert_eq!(parse_snapshot(&huge), None);
        assert_eq!(decode(&huge[..bytes.len() - 1]), Err(DecodeFail::Truncated));
        assert_eq!(decode(&bytes[..bytes.len() / 2]), Err(DecodeFail::Truncated));
    }

    #[test]
    fn clean_store_recovers_every_acknowledged_record() {
        let mut s = clean_store();
        for i in 0..20u64 {
            s.append(&rec(i % 5, i, format!("payload-{i}").as_bytes()));
            s.flush().expect("clean flushes land");
        }
        s.power_loss();
        let r = s.recover();
        assert_eq!(r.sessions.len(), 5);
        assert!(r.scrub.lost.is_empty());
        for (sid, c) in &r.sessions {
            assert_eq!(c.record.step, sid + 15, "latest version per session");
            assert!(!c.stale);
        }
    }

    #[test]
    fn unflushed_records_die_with_the_power() {
        let mut s = clean_store();
        s.append(&rec(1, 1, b"durable"));
        s.flush().unwrap();
        s.append(&rec(1, 2, b"staged only"));
        s.power_loss();
        let r = s.recover();
        assert_eq!(r.sessions[&1].record.step, 1, "only the acknowledged record survives");
        assert_eq!(s.stats().pending_lost, 1);
    }

    #[test]
    fn lost_flush_is_detected_and_retryable() {
        let faults = DiskFaultPlan::new(3).with_lost_flushes(0.9).unwrap();
        let mut s =
            DurableStore::new(StoreConfig { snapshot_every: 0, dual_write: false, faults });
        s.append(&rec(1, 1, b"x"));
        let mut lost = 0;
        let ack = loop {
            match s.flush() {
                Ok(a) => break a,
                Err(StoreError::FlushLost { .. }) => lost += 1,
                Err(e) => panic!("unexpected flush error: {e}"),
            }
        };
        assert_eq!(ack.records, 1);
        assert!(lost > 0, "a 90% lost-flush rate must lose at least one attempt");
        assert_eq!(s.stats().lost_flushes, lost);
        assert_eq!(s.stats().acked_records, 1);
        s.power_loss();
        assert_eq!(s.recover().sessions[&1].record.step, 1, "retried flush is durable");
    }

    #[test]
    fn torn_write_truncates_the_write_head_and_scrub_reports_it() {
        let faults = DiskFaultPlan::new(11).with_torn_writes(0.999).unwrap();
        let mut s =
            DurableStore::new(StoreConfig { snapshot_every: 0, dual_write: false, faults });
        s.append(&rec(1, 1, b"acked"));
        s.flush().unwrap();
        let torn_seq = s.append(&rec(2, 1, b"in flight at the outage"));
        s.power_loss();
        let r = s.recover();
        assert_eq!(r.sessions.len(), 1, "only the acknowledged session survives");
        assert_eq!(
            r.scrub.lost,
            vec![CorruptRecord { seq: torn_seq, kind: CorruptKind::Torn }],
            "the tear is attributed to the exact record"
        );
    }

    #[test]
    fn bit_rot_is_detected_and_dual_write_repairs_it() {
        let faults = DiskFaultPlan::new(5).with_bit_rot(0.4).unwrap();
        let single =
            StoreConfig { snapshot_every: 0, dual_write: false, faults };
        let mut s = DurableStore::new(single);
        let n = 40u64;
        for i in 0..n {
            s.append(&rec(i, i, format!("payload-{i}").as_bytes()));
            s.flush().unwrap();
        }
        let r = s.recover();
        assert!(!r.scrub.lost.is_empty(), "40% rot over 40 records must hit some");
        // Rot in the length field reads as a truncation, so a few lost
        // records may classify Torn; most must classify Rotten.
        assert!(r.scrub.lost.iter().any(|l| l.kind == CorruptKind::Rotten));
        assert_eq!(r.sessions.len() + r.scrub.lost.len(), n as usize);

        // Same plan, dual write: a record is lost only when *both*
        // replica draws rot — strictly fewer than single-replica.
        let mut d = DurableStore::new(StoreConfig { dual_write: true, ..single });
        for i in 0..n {
            d.append(&rec(i, i, format!("payload-{i}").as_bytes()));
            d.flush().unwrap();
        }
        let rd = d.recover();
        assert!(rd.scrub.lost.len() < r.scrub.lost.len(), "dual write must repair some rot");
        assert!(!rd.scrub.repaired.is_empty(), "repairs are audited");
        for seq in &rd.scrub.repaired {
            assert!(rd.sessions.values().any(|c| c.seq == *seq), "repaired records are served");
        }
    }

    #[test]
    fn reordered_flush_changes_which_record_a_tear_destroys() {
        let faults = DiskFaultPlan::new(2)
            .with_reordered_flushes(0.999)
            .unwrap()
            .with_torn_writes(0.999)
            .unwrap();
        let mut s =
            DurableStore::new(StoreConfig { snapshot_every: 0, dual_write: false, faults });
        let a = s.append(&rec(1, 1, b"first"));
        let b = s.append(&rec(2, 1, b"second"));
        s.flush().unwrap();
        assert_eq!(s.stats().reordered_flushes, 1);
        // Nothing staged: the tear hits the physically-last blob, which
        // the reorder made the *first*-seq record of the batch.
        s.power_loss();
        let r = s.recover();
        assert_eq!(r.scrub.lost.len(), 1);
        assert_eq!(r.scrub.lost[0].seq, a, "the reorder moved seq {a} to the write head");
        assert!(r.sessions.values().any(|c| c.seq == b), "seq {b} survived");
    }

    #[test]
    fn snapshots_compact_the_wal_and_recovery_uses_them() {
        let mut s = DurableStore::new(StoreConfig {
            snapshot_every: 4,
            dual_write: false,
            faults: DiskFaultPlan::new(9),
        });
        for i in 0..10u64 {
            s.append(&rec(i % 3, i, format!("p{i}").as_bytes()));
            s.flush().unwrap();
        }
        assert_eq!(s.stats().snapshots, 2);
        assert!(
            s.replicas[0].wal.len() < 10,
            "snapshots must drop the covered WAL prefix (len {})",
            s.replicas[0].wal.len()
        );
        let r = s.recover();
        assert_eq!(r.scrub.snapshot_used, Some(8), "recovery starts at the newest snapshot");
        assert_eq!(r.sessions.len(), 3);
        for (sid, c) in &r.sessions {
            let latest = (0..10u64).filter(|i| i % 3 == *sid).max().expect("non-empty");
            assert_eq!(c.record.step, latest, "post-snapshot WAL overrides the base");
        }
    }

    #[test]
    fn a_rotten_newest_snapshot_loses_no_acknowledged_record() {
        // One replica, a snapshot every two flushes, bit rot 0.3, and four
        // records, each flushed, for sessions 1, 1, 2 and 1. At these
        // seeds the newest snapshot is rotten, and at 12 and 16 the older
        // one too. Recovery fell back to the older one, or to none, with
        // the WAL it covered gone: session 1 came back at seq 2, session
        // 2 not at all, and `lost` was empty.
        for seed in [6, 10, 11, 12, 15, 16] {
            let faults = DiskFaultPlan::new(seed).with_bit_rot(0.3).unwrap();
            let mut s =
                DurableStore::new(StoreConfig { snapshot_every: 2, dual_write: false, faults });
            let sessions = [1, 1, 2, 1];
            for (step, &session) in (1..).zip(&sessions) {
                s.append(&rec(session, step, format!("p{step}").as_bytes()));
                s.flush().unwrap();
            }
            let r = s.recover();
            assert!(r.scrub.snapshots_corrupt >= 1, "seed {seed}: {:?}", r.scrub);
            for (seq, &session) in (1..).zip(&sessions) {
                let recovered = r.sessions.get(&session).is_some_and(|c| c.seq >= seq);
                let lost = CorruptRecord { seq, kind: CorruptKind::Rotten };
                assert!(
                    recovered || r.scrub.lost.contains(&lost),
                    "seed {seed}: seq {seq} of session {session} neither recovered nor lost: {r:?}"
                );
            }
        }
    }

    #[test]
    fn stale_read_serves_the_previous_intact_version() {
        let faults = DiskFaultPlan::new(1).with_stale_reads(0.999).unwrap();
        let mut s =
            DurableStore::new(StoreConfig { snapshot_every: 0, dual_write: false, faults });
        s.append(&rec(1, 1, b"v1"));
        s.flush().unwrap();
        s.append(&rec(1, 2, b"v2"));
        s.flush().unwrap();
        let r = s.recover();
        let c = &r.sessions[&1];
        assert!(c.stale);
        assert_eq!(c.record.step, 1, "stale read rewinds one version");
        // A session with a single version cannot be served stale.
        s.append(&rec(2, 9, b"only"));
        s.flush().unwrap();
        let r = s.recover();
        assert!(!r.sessions[&2].stale);
        assert_eq!(r.sessions[&2].record.step, 9);
    }

    #[test]
    fn recovery_is_deterministic_across_reruns() {
        let faults = DiskFaultPlan::new(77)
            .with_torn_writes(0.3)
            .unwrap()
            .with_bit_rot(0.2)
            .unwrap()
            .with_lost_flushes(0.2)
            .unwrap()
            .with_reordered_flushes(0.3)
            .unwrap()
            .with_stale_reads(0.2)
            .unwrap();
        let run = || {
            let mut s = DurableStore::new(StoreConfig {
                snapshot_every: 3,
                dual_write: true,
                faults,
            });
            for i in 0..60u64 {
                s.append(&rec(i % 7, i, format!("payload-{i}").as_bytes()));
                let _ = s.flush();
                if i % 13 == 12 {
                    s.power_loss();
                }
            }
            s.power_loss();
            (s.recover(), s.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed, same operations ⇒ byte-identical recovery");
        assert_eq!(sa, sb);
        assert!(sa.appended == 60);
    }

    #[test]
    fn trace_context_survives_the_wal_round_trip() {
        let mut s = clean_store();
        let r = rec(4711, 12, b"traced");
        assert_ne!(r.trace_id, 0);
        s.append(&r);
        s.flush().unwrap();
        s.power_loss();
        let rcv = s.recover();
        let back = &rcv.sessions[&4711].record;
        assert_eq!(back.trace_id, r.trace_id, "trace id crosses the power loss");
        assert_eq!(back.span_id, r.span_id, "span id crosses the power loss");
    }

    #[test]
    fn fault_plan_validates_rates() {
        assert!(DiskFaultPlan::new(0).with_torn_writes(1.0).is_err());
        assert!(DiskFaultPlan::new(0).with_bit_rot(-0.1).is_err());
        assert!(DiskFaultPlan::new(0).with_lost_flushes(f64::NAN).is_err());
        assert!(DiskFaultPlan::new(0).with_reordered_flushes(f64::INFINITY).is_err());
        assert!(DiskFaultPlan::new(0).with_stale_reads(0.999).is_ok());
        assert!(DiskFaultPlan::new(0).is_clean());
        assert!(!DiskFaultPlan::new(0).with_bit_rot(0.1).unwrap().is_clean());
    }
}
