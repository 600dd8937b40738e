//! Digest discrimination and round-trip stability for save games — the
//! durable store (PR 9) trusts `SaveGame::digest` as its checksum
//! identity, so two different saves colliding, or a digest drifting
//! across serialise→parse, would silently defeat corruption detection
//! and migration handoff verification alike.
//!
//! Two properties:
//! - **stability**: `digest(parse(to_text(s))) == digest(s)` — the
//!   digest is a fixed point of the round trip, so a checkpoint written
//!   by one shard and restored by another re-digests identically.
//! - **discrimination**: two saves differing in exactly one field
//!   (including the PR 4 checkpoint-only `dialogue` and `fired` keys)
//!   never share a digest.
//!
//! Generated saves carry a trace stamp about half the time: stamped
//! text is what every durable checkpoint payload holds and every fleet
//! restore parses.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vgbl_obs::hash::fnv1a;
use vgbl_runtime::save::SaveGame;
use vgbl_runtime::{GameState, Inventory};

/// Identifier-ish names; mutations below use a `zz` prefix outside this
/// alphabet's reach (these are 1–6 chars of `[a-y]`) so an injected
/// value can never collide with a generated one.
fn name() -> impl Strategy<Value = String> {
    "[a-y]{1,6}"
}

fn arb_save() -> impl Strategy<Value = SaveGame> {
    let state = (
        name(),
        -100i64..100,
        0u64..100_000,
        0u64..100_000,
        (-50i32..50, -50i32..50),
        prop::collection::btree_map(name(), any::<bool>(), 0..4),
        prop::collection::btree_set(name(), 0..4),
        prop::collection::btree_set(name(), 0..4),
        prop::option::of(name()),
    );
    let extras = (
        any::<u64>(),
        prop::collection::vec(name(), 0..4),
        prop::collection::vec(name(), 0..3),
        prop::option::of((name(), 0u32..50)),
        prop::collection::btree_set(0u64..1_000_000, 0..4),
        prop::option::of((any::<u64>(), any::<u64>())),
    );
    (state, extras).prop_map(
        |(
            (scenario, score, sclk, tclk, avatar, flags, visited, examined, ended),
            (game_hash, items, rewards, dialogue, fired_timers, trace),
        )| {
            let mut state = GameState::new(scenario);
            state.score = score;
            state.scenario_clock_ms = sclk;
            state.total_clock_ms = tclk;
            state.avatar = avatar;
            state.flags = flags;
            state.visited.extend(visited);
            state.examined = examined;
            state.ended = ended;
            let mut inventory = Inventory::new();
            for i in &items {
                inventory.add(i.clone());
            }
            for r in &rewards {
                inventory.award(r.clone());
            }
            SaveGame { game_hash, state, inventory, dialogue, fired_timers, trace }
        },
    )
}

/// Applies exactly one field-level mutation, chosen by `which`. Every
/// arm guarantees the mutated save differs from the original (injected
/// names use the `zz` prefix the generator cannot produce; numeric
/// tweaks are add-one-with-wraparound into in-range values).
fn mutate(save: &SaveGame, which: u8) -> SaveGame {
    let mut m = save.clone();
    match which % 13 {
        0 => m.game_hash ^= 1,
        1 => m.state.score += 1,
        2 => m.state.scenario_clock_ms += 1,
        3 => m.state.total_clock_ms += 1,
        4 => m.state.avatar.0 += 1,
        5 => {
            m.state.set_flag("zzflag", true);
        }
        6 => m.inventory.add("zzitem"),
        7 => {
            m.inventory.award("zzreward");
        }
        8 => {
            m.state.visited.insert("zzroom".into());
        }
        9 => {
            m.state.examined.insert("zzobject".into());
        }
        10 => {
            m.state.ended = match m.state.ended {
                Some(_) => None,
                None => Some("zzend".into()),
            }
        }
        // The two PR 4 checkpoint-only keys: an open dialogue and the
        // already-fired scenario timers.
        11 => {
            m.dialogue = match m.dialogue {
                Some(_) => None,
                None => Some(("zznpc".into(), 1)),
            }
        }
        _ => {
            m.fired_timers.insert(2_000_000);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Serialise → parse → digest is the identity on digests, and the
    // round-tripped save is structurally equal too.
    #[test]
    fn digest_is_stable_across_serialise_parse(save in arb_save()) {
        let text = save.to_text();
        let back = SaveGame::from_text(&text).expect("own serialisation must parse");
        prop_assert_eq!(&back, &save, "round trip must be lossless");
        prop_assert_eq!(back.digest(), save.digest());
        // And a second round trip is bit-identical text.
        prop_assert_eq!(back.to_text(), text);
    }

    // One changed field — any field, including dialogue and fired
    // timers — always changes the digest.
    #[test]
    fn digest_separates_single_field_deltas(save in arb_save(), which in any::<u8>()) {
        let mutated = mutate(&save, which);
        prop_assert!(mutated != save, "mutation {} must change the save", which % 13);
        prop_assert!(
            mutated.digest() != save.digest(),
            "digest collision on single-field delta {}\n a: {}\n b: {}",
            which % 13,
            save.to_text(),
            mutated.to_text()
        );
    }

    // Digests are a pure function of content: independently-built equal
    // saves digest equally, and every one is FNV-1a of the untraced text.
    #[test]
    fn equal_saves_digest_equally(save in arb_save()) {
        let twin = SaveGame {
            game_hash: save.game_hash,
            state: save.state.clone(),
            inventory: save.inventory.clone(),
            dialogue: save.dialogue.clone(),
            fired_timers: save.fired_timers.iter().copied().collect::<BTreeSet<u64>>(),
            // A trace context is identity metadata, never state: the twin
            // carrying another one must digest identically to the original.
            trace: Some((save.game_hash ^ 0xABCD, 7)),
        };
        prop_assert_eq!(twin.digest(), save.digest());
        let bare = SaveGame { trace: None, ..save.clone() };
        prop_assert_eq!(fnv1a(bare.to_text().as_bytes()), save.digest());
    }
}
