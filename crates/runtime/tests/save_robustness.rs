//! Fault injection for the save-game parser: `SaveGame::from_text` must
//! be total over arbitrary damage — truncation, bit flips, garbage — and
//! always answer with a typed `Err` or a valid parse, never a panic.
//! Wrong-content-hash saves must be caught by `verify`, not load silently
//! into the wrong game.

use proptest::prelude::*;
use vgbl_runtime::error::RuntimeError;
use vgbl_runtime::fixtures::{fix_the_computer, two_room_loop};
use vgbl_runtime::save::SaveGame;
use vgbl_runtime::{GameState, Inventory};

/// A representative save with every section populated.
fn sample_save() -> SaveGame {
    let graph = fix_the_computer();
    let mut state = GameState::new("market");
    state.visited.insert("classroom".into());
    state.score = -3;
    state.scenario_clock_ms = 1234;
    state.total_clock_ms = 9876;
    state.avatar = (30, -2);
    state.set_flag("diagnosed", true);
    state.examined.insert("computer".into());
    let mut inventory = Inventory::new();
    inventory.add("fan");
    inventory.add("coin");
    inventory.award("computer_medic");
    SaveGame::capture(&graph, &state, &inventory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Truncated saves: every prefix of a valid save either parses (a
    // prefix can coincidentally be complete) or returns a typed error —
    // never panics.
    #[test]
    fn fault_truncated_save_never_panics(cut_fraction in 0.0f64..1.0) {
        let text = sample_save().to_text();
        let cut = (text.len() as f64 * cut_fraction) as usize;
        // Stay on a char boundary (the text is ASCII, but be safe).
        let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c)).unwrap_or(0);
        match SaveGame::from_text(&text[..cut]) {
            Ok(_) => {}
            Err(RuntimeError::CorruptSave(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
        }
    }

    // Bit-flipped saves: flip one bit anywhere in the serialised text;
    // parsing either fails with `CorruptSave` or yields a save that
    // differs in a recoverable way — and in no case panics.
    #[test]
    fn fault_bit_flipped_save_never_panics(
        byte_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let text = sample_save().to_text();
        let mut bytes = text.into_bytes();
        let idx = ((bytes.len() - 1) as f64 * byte_fraction) as usize;
        bytes[idx] ^= 1 << bit;
        // The damaged bytes may no longer be UTF-8; both layers must
        // reject gracefully.
        if let Ok(damaged) = String::from_utf8(bytes) {
            match SaveGame::from_text(&damaged) {
                Ok(_) => {}
                Err(RuntimeError::CorruptSave(_)) => {}
                Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
            }
        }
        // else: not even a string — nothing to parse
    }

    // Arbitrary garbage: `from_text` is total over any string.
    #[test]
    fn fault_arbitrary_text_never_panics(text in "\\PC*") {
        match SaveGame::from_text(&text) {
            Ok(_) => {}
            Err(RuntimeError::CorruptSave(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
        }
    }

    // Arbitrary *byte* strings — not even valid UTF-8 — lossy-decoded
    // and fed to the parser: still total, still typed.
    #[test]
    fn fault_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        match SaveGame::from_text(&text) {
            Ok(_) => {}
            Err(RuntimeError::CorruptSave(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
        }
    }

    // Byte damage *around a valid save*: splice arbitrary bytes into a
    // well-formed save at an arbitrary point, exercising the per-key
    // parsers with near-miss lines rather than pure noise.
    #[test]
    fn fault_spliced_bytes_never_panic(
        at_fraction in 0.0f64..1.0,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_save().to_text().into_bytes();
        let at = (bytes.len() as f64 * at_fraction) as usize;
        bytes.splice(at..at, junk);
        let text = String::from_utf8_lossy(&bytes);
        match SaveGame::from_text(&text) {
            Ok(_) => {}
            Err(RuntimeError::CorruptSave(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
        }
    }

    // Adversarial item counts load in constant space and time — a
    // hostile `item bomb 4294967295` line must never cost four billion
    // iterations or allocations.
    #[test]
    fn fault_huge_item_counts_load_in_constant_space(count in any::<u32>()) {
        let text = format!(
            "vgbl-save 1\ngame 00000000000000aa\nscenario start\nitem bomb {count}\n"
        );
        let save = SaveGame::from_text(&text).expect("well-formed text parses");
        prop_assert_eq!(save.inventory.count("bomb"), count);
    }

    // Checkpoint-only keys (dialogue, fired timers) round-trip for
    // arbitrary node ids, timer stamps, and space-containing NPC names.
    #[test]
    fn fault_checkpoint_keys_roundtrip(
        node in any::<u32>(),
        ms in any::<u64>(),
        npc in "[a-z]{1,8}( [a-z]{1,8}){0,2}",
    ) {
        let mut save = sample_save();
        save.dialogue = Some((npc.clone(), node));
        save.fired_timers.insert(ms);
        let loaded = SaveGame::from_text(&save.to_text()).expect("checkpoint text parses");
        prop_assert_eq!(loaded.dialogue, Some((npc, node)));
        prop_assert!(loaded.fired_timers.contains(&ms));
        prop_assert_eq!(loaded.state, save.state);
        prop_assert_eq!(loaded.inventory, save.inventory);
    }

    // Wrong-content-hash saves parse (the text is well-formed) but are
    // rejected by `verify` against the real graph with a typed error.
    #[test]
    fn fault_wrong_game_hash_is_rejected_by_verify(hash in any::<u64>()) {
        let mut save = sample_save();
        save.game_hash = hash;
        let text = save.to_text();
        let loaded = SaveGame::from_text(&text).expect("well-formed text parses");
        prop_assert_eq!(loaded.game_hash, hash);
        let graph = fix_the_computer();
        if hash == graph.content_hash() {
            prop_assert!(loaded.verify(&graph).is_ok());
        } else {
            prop_assert!(matches!(
                loaded.verify(&graph),
                Err(RuntimeError::SaveMismatch(_))
            ));
        }
        // And it can never verify against a different game.
        prop_assert!(hash == two_room_loop().content_hash()
            || loaded.verify(&two_room_loop()).is_err());
    }
}

/// Deterministic spot-checks of damage classes proptest may not hit.
#[test]
fn fault_specific_damage_is_typed() {
    let text = sample_save().to_text();
    // Cut mid-number.
    let cut = text.find("clock").unwrap() + 8;
    assert!(matches!(
        SaveGame::from_text(&text[..cut]),
        Ok(_) | Err(RuntimeError::CorruptSave(_))
    ));
    // Swap the version digit.
    let bad = text.replacen("vgbl-save 1", "vgbl-save 2", 1);
    assert!(matches!(
        SaveGame::from_text(&bad),
        Err(RuntimeError::CorruptSave(msg)) if msg.contains("version")
    ));
    // Corrupt the hash hex.
    let bad = text.replacen("game ", "game zz", 1);
    assert!(matches!(
        SaveGame::from_text(&bad),
        Err(RuntimeError::CorruptSave(msg)) if msg.contains("hash")
    ));
}
