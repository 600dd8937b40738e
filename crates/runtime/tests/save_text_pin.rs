//! A literal pin of the save-game text format. One rich checkpoint,
//! with every line kind the format has, renders to the bytes below: a
//! trace line, flag, item, reward and NPC names with spaces, visited
//! and examined sets, an ended outcome, an open dialogue and fired
//! timers. Durable checkpoints persist this text, so a change to how
//! `SaveGame` renders must leave it, and the digest over it, as it was.

use vgbl_runtime::save::SaveGame;
use vgbl_runtime::{GameState, Inventory};

fn rich_checkpoint() -> SaveGame {
    let mut state = GameState::new("back office");
    state.visited.insert("classroom".into());
    state.score = -42;
    state.scenario_clock_ms = 6100;
    state.total_clock_ms = 93_400;
    state.avatar = (25, -7);
    state.set_flag("diagnosed", true);
    state.set_flag("met the shop keeper", false);
    state.examined.insert("computer".into());
    state.examined.insert("fan box".into());
    state.ended = Some("fixed it".into());
    let mut inventory = Inventory::new();
    inventory.add("fan");
    inventory.add_many("spare coin", 3);
    inventory.award("computer_medic");
    inventory.award("early bird");
    SaveGame {
        game_hash: 0x0123_4567_89ab_cdef,
        state,
        inventory,
        dialogue: Some(("shop keeper".into(), 3)),
        fired_timers: [5_000, 30_000].into(),
        trace: Some((0xdead_beef_0000_0001, 0x0000_cafe_0000_0002)),
    }
}

/// The text, recorded before `render` wrote into one buffer.
const TEXT: &str = "\
vgbl-save 1
game 0123456789abcdef
trace deadbeef00000001 0000cafe00000002
scenario back office
score -42
clock 6100 93400
avatar 25 -7
flag diagnosed on
flag met the shop keeper off
item fan 1
item spare coin 3
reward computer_medic
reward early bird
visited back office
visited classroom
examined computer
examined fan box
ended fixed it
dialogue 3 shop keeper
fired 5000
fired 30000
";

/// Its digest (the `trace` line excluded).
const DIGEST: u64 = 0x93e8_765a_a2e8_3123;

#[test]
fn a_rich_checkpoint_renders_to_the_pinned_text() {
    let save = rich_checkpoint();
    assert_eq!(save.to_text(), TEXT);
    assert_eq!(save.digest(), DIGEST, "digest 0x{:016x}", save.digest());
    assert_eq!(SaveGame::from_text(TEXT).expect("the pinned text parses"), save);
}
