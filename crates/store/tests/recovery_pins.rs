//! Recovery pins: what `recover()` and `stats()` report, byte for byte.
//!
//! One seeded op script (appends, flushes and power losses over a few
//! sessions, payloads of 0–300 bytes) runs over every fault kind alone,
//! all five together and none; single and dual-write replicas; and
//! snapshot cadences 0, 1, 3 and 8. Each configuration folds
//! `format!("{:?}", (recover(), stats()))` after every power loss into
//! one FNV-1a digest, pinned below. A change to how the store holds,
//! shares or reads its bytes must leave every digest as it was.
//!
//! Dual-write runs flush until acknowledged before each power loss, so
//! no in-flight write tears onto the primary alone: the pins then read
//! the same whether scrub pairs replica copies by position or by seq.

use vgbl_obs::hash::{fnv1a, fnv1a_extend, mix, splitmix64, FNV_OFFSET};
use vgbl_store::{
    CheckpointRecord, CorruptKind, CorruptRecord, DiskFaultPlan, DurableStore, Recovery,
    StoreConfig,
};

/// Fault configurations, by name.
const FAULTS: [&str; 7] = ["clean", "torn", "rot", "lost", "reorder", "stale", "all"];
/// Snapshot cadences.
const CADENCES: [u64; 4] = [0, 1, 3, 8];
/// Operations per run.
const OPS: usize = 240;
/// Sessions the script writes.
const SESSIONS: u64 = 6;

fn plan(kind: &str) -> DiskFaultPlan {
    let on = |k: &str, rate: f64| if kind == k || kind == "all" { rate } else { 0.0 };
    DiskFaultPlan::new(0x5107_E5EED)
        .with_torn_writes(on("torn", 0.5))
        .and_then(|p| p.with_bit_rot(on("rot", 0.3)))
        .and_then(|p| p.with_lost_flushes(on("lost", 0.3)))
        .and_then(|p| p.with_reordered_flushes(on("reorder", 0.5)))
        .and_then(|p| p.with_stale_reads(on("stale", 0.3)))
        .expect("valid rates")
}

fn record(session: u64, step: u64, draw: u64) -> CheckpointRecord {
    let len = (draw >> 20) as usize % 301;
    let payload: Vec<u8> = (0..len).map(|i| (mix(draw ^ i as u64) >> 56) as u8).collect();
    CheckpointRecord {
        session,
        step,
        generation: (draw >> 8) as u32 % 4,
        digest: fnv1a(&payload),
        trace_id: mix(session),
        span_id: mix(session ^ step),
        payload,
    }
}

/// Runs the script; returns its digest and every recovery it made.
fn run(kind: &str, dual_write: bool, snapshot_every: u64) -> (u64, Vec<Recovery>) {
    let mut store =
        DurableStore::new(StoreConfig { snapshot_every, dual_write, faults: plan(kind) });
    let mut rng = 0x0DD5_C21B7;
    let mut digest = FNV_OFFSET;
    let mut recoveries = Vec::new();
    for step in 0..OPS as u64 {
        let draw = splitmix64(&mut rng);
        match draw % 10 {
            0..=4 => {
                store.append(&record((draw >> 4) % SESSIONS, step, draw));
            }
            5..=8 => {
                let _ = store.flush();
            }
            _ => {
                while dual_write && store.flush().is_err() {}
                store.power_loss();
                let recovery = store.recover();
                digest =
                    fnv1a_extend(digest, format!("{:?}", (&recovery, store.stats())).as_bytes());
                recoveries.push(recovery);
            }
        }
    }
    (digest, recoveries)
}

/// `(faults, dual_write, snapshot_every, digest)`, recorded on the store
/// as it was before snapshots shared their records' bytes.
const PINS: [(&str, bool, u64, u64); 56] = [
    ("clean", false, 0, 0xd4bcfae06071159e),
    ("clean", false, 1, 0x87842a0a3177ecaa),
    ("clean", false, 3, 0x4fc60172edae059a),
    ("clean", false, 8, 0x4ce12d3edbc6e93d),
    ("clean", true, 0, 0x98ecc774675d2a53),
    ("clean", true, 1, 0x7c4815d6aff6d3af),
    ("clean", true, 3, 0xe1a94d5c24608555),
    ("clean", true, 8, 0xda7cf64ef15bd6e0),
    ("torn", false, 0, 0x696c8d4fff15eea9),
    ("torn", false, 1, 0xecab09253f90ec43),
    ("torn", false, 3, 0x6bbad326dc74f003),
    ("torn", false, 8, 0x1c08256ec53c834f),
    ("torn", true, 0, 0xf75ef4c72361868a),
    ("torn", true, 1, 0x7c4815d6aff6d3af),
    ("torn", true, 3, 0x997cbb3af25b6c46),
    ("torn", true, 8, 0x342c28778b14aaed),
    ("rot", false, 0, 0x733ab35543ac88dc),
    ("rot", false, 1, 0xdeea8dd27ec22476),
    ("rot", false, 3, 0xdaec9445b3862f0f),
    ("rot", false, 8, 0xb32bf74c3c899f8b),
    ("rot", true, 0, 0x22a12cde2385ba42),
    ("rot", true, 1, 0xbe89f6152f947d69),
    ("rot", true, 3, 0xd6a7d25fe4057933),
    ("rot", true, 8, 0x59d2996eb95a4b3e),
    ("lost", false, 0, 0x9638017e2a8e6ddd),
    ("lost", false, 1, 0xf84148dcfadfcd7c),
    ("lost", false, 3, 0x5cc36ac4eea5fd5d),
    ("lost", false, 8, 0xa2f857cebf26bfe2),
    ("lost", true, 0, 0xfdf2c1d751a0bef6),
    ("lost", true, 1, 0x36b686e57eddb349),
    ("lost", true, 3, 0x44ca3931d90148a6),
    ("lost", true, 8, 0x133e1f63fd92fafc),
    ("reorder", false, 0, 0xa36f7d1fdf3829e5),
    ("reorder", false, 1, 0xc4d3ff8e9e149c21),
    ("reorder", false, 3, 0xd7353ea293f669d1),
    ("reorder", false, 8, 0x3f66992f1f11dc4a),
    ("reorder", true, 0, 0x3d843755f0c58572),
    ("reorder", true, 1, 0x97dbf682bc92e7b4),
    ("reorder", true, 3, 0x2c01ebc49ac49794),
    ("reorder", true, 8, 0x16f47083b76622bd),
    ("stale", false, 0, 0x3ed636530a9bbd50),
    ("stale", false, 1, 0x87842a0a3177ecaa),
    ("stale", false, 3, 0xac102a0b9dab5d3a),
    ("stale", false, 8, 0x7a693e4e5fdb06b0),
    ("stale", true, 0, 0x6d4bc297ef00fd18),
    ("stale", true, 1, 0x7c4815d6aff6d3af),
    ("stale", true, 3, 0x9a25188a287abce6),
    ("stale", true, 8, 0x8ef04044f67d63e3),
    ("all", false, 0, 0x659f1ee07dae2c5d),
    ("all", false, 1, 0xd202dc5813fa7ac8),
    ("all", false, 3, 0xb0d2b1d9abf79bc0),
    ("all", false, 8, 0xcca7a3ef336b2b2e),
    ("all", true, 0, 0xc03095f568789fd4),
    ("all", true, 1, 0xa3ce8c38d5bec96c),
    ("all", true, 3, 0xa42d1c1ecb2ad37d),
    ("all", true, 8, 0x8d93b5d354a77c89),
];

/// Every digest matches its pin, and the matrix reaches every fault
/// path the pins are meant to cover.
#[test]
fn recovery_matches_the_pins() {
    let mut got = Vec::new();
    let (mut snapshot_rot, mut repairs, mut torn, mut stale) = (0, 0, 0, 0);
    for kind in FAULTS {
        for dual in [false, true] {
            for every in CADENCES {
                let (digest, recoveries) = run(kind, dual, every);
                got.push((kind, dual, every, digest));
                for r in recoveries {
                    snapshot_rot += r.scrub.snapshots_corrupt;
                    repairs += r.scrub.repaired.len();
                    torn += r.scrub.lost.iter().filter(|l| l.kind == CorruptKind::Torn).count();
                    stale += r.sessions.values().filter(|c| c.stale).count();
                }
            }
        }
    }
    let listing: String =
        got.iter().map(|(k, d, e, h)| format!("    ({k:?}, {d}, {e}, 0x{h:016x}),\n")).collect();
    assert_eq!(got, PINS, "recovery digests moved; now:\n{listing}");
    assert!(snapshot_rot > 0, "no rotten snapshot was read");
    assert!(repairs > 0, "no dual-write repair was made");
    assert!(torn > 0, "no torn record was lost");
    assert!(stale > 0, "no stale read was served");
}

/// A torn in-flight write lands on the primary alone, one blob that
/// replica 1 never gets. Scrub pairs the replicas' copies by seq, so the
/// tear is reported against its own record and the rot on a later one
/// is repaired from replica 1's intact copy.
#[test]
fn dual_write_scrub_pairs_copies_by_seq() {
    let faults = DiskFaultPlan::new(34)
        .with_torn_writes(0.5)
        .and_then(|p| p.with_bit_rot(0.3))
        .expect("valid rates");
    let mut store = DurableStore::new(StoreConfig { snapshot_every: 0, dual_write: true, faults });
    let commit = |store: &mut DurableStore, session: u64| {
        store.append(&record(session, 1, mix(session)));
        store.flush().expect("no lost flushes in this plan");
    };
    commit(&mut store, 1);
    store.append(&record(2, 1, mix(2)));
    store.power_loss();
    commit(&mut store, 3);
    commit(&mut store, 4);
    let r = store.recover();
    assert_eq!(r.scrub.lost, vec![CorruptRecord { seq: 2, kind: CorruptKind::Torn }]);
    assert_eq!(r.scrub.repaired, vec![4]);
    assert_eq!(r.sessions.keys().copied().collect::<Vec<_>>(), vec![1, 3, 4]);
}
