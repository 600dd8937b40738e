//! Save games.
//!
//! A versioned, line-oriented text format persisting one player's
//! progress: flags, score, visit/examination history, backpack and
//! rewards, current scenario and clocks. Text was chosen over binary for
//! the same reason the `.vgp` project format is text: course designers
//! (and tests) can read and diff it.
//!
//! ```text
//! vgbl-save 1
//! game <content-hash>
//! scenario classroom
//! score 25
//! clock 6100 93400
//! avatar 25 20
//! flag diagnosed on
//! item fan 1
//! reward computer_medic
//! visited classroom
//! examined computer
//! ended fixed        (only when over)
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use vgbl_obs::hash::{fnv1a, fnv1a_extend};
use vgbl_scene::SceneGraph;

use crate::error::RuntimeError;
use crate::inventory::Inventory;
use crate::state::GameState;
use crate::Result;

/// Format version written by this build.
pub const SAVE_VERSION: u32 = 1;

/// A serialisable snapshot of a session.
///
/// [`SaveGame::capture`] records only the durable player state (the
/// classic "save file"). [`crate::GameSession::checkpoint`] additionally
/// fills the two engine-transient fields — the open dialogue and the
/// already-fired timers — so a crashed session restored from a
/// checkpoint replays bit-identically instead of re-firing timers or
/// forgetting an open conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveGame {
    /// Hash of the game content the save belongs to.
    pub game_hash: u64,
    /// The player's state.
    pub state: GameState,
    /// The player's backpack.
    pub inventory: Inventory,
    /// Open dialogue, as `(npc, node)` (checkpoint-only; `None` in a
    /// plain capture).
    pub dialogue: Option<(String, u32)>,
    /// Scenario-timer thresholds (ms) that already fired this scenario
    /// entry (checkpoint-only; empty in a plain capture).
    pub fired_timers: BTreeSet<u64>,
    /// Causal identity `(trace_id, span_id)` of the generation that
    /// checkpointed, when the save crossed a traced boundary. `None` in
    /// a plain capture; excluded from [`SaveGame::digest`] so traced and
    /// untraced serialisations of the same state verify equal.
    pub trace: Option<(u64, u64)>,
}

/// A stable hash of the game content (scenario names, in order, plus
/// object names) used to detect loading a save into the wrong game.
pub fn content_hash(graph: &SceneGraph) -> u64 {
    let mut h = DefaultHasher::new();
    for s in graph.scenarios() {
        s.name.hash(&mut h);
        for o in s.objects() {
            o.name.hash(&mut h);
        }
    }
    h.finish()
}

impl SaveGame {
    /// Snapshots a session's state against its graph.
    pub fn capture(graph: &SceneGraph, state: &GameState, inventory: &Inventory) -> SaveGame {
        SaveGame {
            game_hash: content_hash(graph),
            state: state.clone(),
            inventory: inventory.clone(),
            dialogue: None,
            fired_timers: BTreeSet::new(),
            trace: None,
        }
    }

    /// FNV-1a digest of the canonical text serialisation, from the same
    /// rendering as [`SaveGame::to_text`]. Two saves with equal digests
    /// restore identical sessions, so the fleet verifies a migration
    /// handoff (checkpoint → restore → checkpoint on the destination
    /// shard) by digest equality instead of shipping the full text into
    /// every [`crate::fleet::MigrationRecord`]. The `trace` line is
    /// identity metadata, not state, so it is excluded: stamping a
    /// checkpoint with its causal identity never perturbs handoff
    /// verification.
    pub fn digest(&self) -> u64 {
        self.render().1
    }

    /// Serialises to the text format.
    pub fn to_text(&self) -> String {
        self.render().0
    }

    /// Renders the text format once, returning it with its digest: the
    /// FNV-1a hash of the text around the `trace` line.
    pub(crate) fn render(&self) -> (String, u64) {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("vgbl-save {SAVE_VERSION}\n"));
        out.push_str(&format!("game {:016x}\n", self.game_hash));
        let head = out.len();
        if let Some((trace_id, span_id)) = self.trace {
            out.push_str(&format!("trace {trace_id:016x} {span_id:016x}\n"));
        }
        let body = out.len();
        out.push_str(&format!("scenario {}\n", self.state.current_scenario));
        out.push_str(&format!("score {}\n", self.state.score));
        out.push_str(&format!(
            "clock {} {}\n",
            self.state.scenario_clock_ms, self.state.total_clock_ms
        ));
        out.push_str(&format!("avatar {} {}\n", self.state.avatar.0, self.state.avatar.1));
        for (name, on) in &self.state.flags {
            out.push_str(&format!("flag {name} {}\n", if *on { "on" } else { "off" }));
        }
        for (item, count) in self.inventory.items() {
            out.push_str(&format!("item {item} {count}\n"));
        }
        for reward in self.inventory.rewards() {
            out.push_str(&format!("reward {reward}\n"));
        }
        for v in &self.state.visited {
            out.push_str(&format!("visited {v}\n"));
        }
        for e in &self.state.examined {
            out.push_str(&format!("examined {e}\n"));
        }
        if let Some(outcome) = &self.state.ended {
            out.push_str(&format!("ended {outcome}\n"));
        }
        // Checkpoint-only engine transients. Node before npc: the npc
        // name may contain spaces, the node number never does.
        if let Some((npc, node)) = &self.dialogue {
            out.push_str(&format!("dialogue {node} {npc}\n"));
        }
        for ms in &self.fired_timers {
            out.push_str(&format!("fired {ms}\n"));
        }
        let digest = fnv1a_extend(fnv1a(&out.as_bytes()[..head]), &out.as_bytes()[body..]);
        (out, digest)
    }

    /// Parses the text format.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptSave`] on any malformed line; unknown keys
    /// are rejected (they indicate a newer format).
    pub fn from_text(text: &str) -> Result<SaveGame> {
        let corrupt = |msg: &str| RuntimeError::CorruptSave(msg.to_owned());
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty save"))?;
        let version: u32 = header
            .strip_prefix("vgbl-save ")
            .ok_or_else(|| corrupt("missing header"))?
            .trim()
            .parse()
            .map_err(|_| corrupt("bad version"))?;
        if version != SAVE_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }

        let mut game_hash: Option<u64> = None;
        let mut state = GameState::default();
        let mut inventory = Inventory::new();
        let mut dialogue: Option<(String, u32)> = None;
        let mut fired_timers: BTreeSet<u64> = BTreeSet::new();
        let mut trace: Option<(u64, u64)> = None;
        state.visited.clear();

        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "game" => {
                    game_hash = Some(
                        u64::from_str_radix(rest.trim(), 16)
                            .map_err(|_| corrupt("bad game hash"))?,
                    );
                }
                "trace" => {
                    let (t, sp) =
                        rest.trim().split_once(' ').ok_or_else(|| corrupt("bad trace line"))?;
                    trace = Some((
                        u64::from_str_radix(t, 16).map_err(|_| corrupt("bad trace id"))?,
                        u64::from_str_radix(sp.trim(), 16)
                            .map_err(|_| corrupt("bad span id"))?,
                    ));
                }
                "scenario" => state.current_scenario = rest.trim().to_owned(),
                "score" => {
                    state.score = rest.trim().parse().map_err(|_| corrupt("bad score"))?;
                }
                "clock" => {
                    let mut parts = rest.split_whitespace();
                    state.scenario_clock_ms = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| corrupt("bad clock"))?;
                    state.total_clock_ms = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| corrupt("bad clock"))?;
                }
                "avatar" => {
                    let mut parts = rest.split_whitespace();
                    let x: i32 = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| corrupt("bad avatar"))?;
                    let y: i32 = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| corrupt("bad avatar"))?;
                    state.avatar = (x, y);
                }
                "flag" => {
                    let (name, val) = rest
                        .rsplit_once(' ')
                        .ok_or_else(|| corrupt("bad flag line"))?;
                    let on = match val {
                        "on" => true,
                        "off" => false,
                        _ => return Err(corrupt("bad flag value")),
                    };
                    state.set_flag(name, on);
                }
                "item" => {
                    let (name, count) = rest
                        .rsplit_once(' ')
                        .ok_or_else(|| corrupt("bad item line"))?;
                    let count: u32 = count.parse().map_err(|_| corrupt("bad item count"))?;
                    // O(1) bulk add: an adversarial `item x 4294967295`
                    // line must not cost four billion iterations.
                    inventory.add_many(name, count);
                }
                "reward" => {
                    inventory.award(rest.trim());
                }
                "visited" => {
                    state.visited.insert(rest.trim().to_owned());
                }
                "examined" => {
                    state.examined.insert(rest.trim().to_owned());
                }
                "ended" => state.ended = Some(rest.trim().to_owned()),
                "dialogue" => {
                    let (node, npc) = rest
                        .split_once(' ')
                        .ok_or_else(|| corrupt("bad dialogue line"))?;
                    let node: u32 = node.parse().map_err(|_| corrupt("bad dialogue node"))?;
                    if npc.is_empty() {
                        return Err(corrupt("bad dialogue npc"));
                    }
                    dialogue = Some((npc.to_owned(), node));
                }
                "fired" => {
                    let ms: u64 = rest.trim().parse().map_err(|_| corrupt("bad timer"))?;
                    fired_timers.insert(ms);
                }
                other => return Err(corrupt(&format!("unknown key `{other}`"))),
            }
        }

        let game_hash = game_hash.ok_or_else(|| corrupt("missing game hash"))?;
        if state.current_scenario.is_empty() {
            return Err(corrupt("missing scenario"));
        }
        Ok(SaveGame { game_hash, state, inventory, dialogue, fired_timers, trace })
    }

    /// Verifies the save belongs to `graph`.
    pub fn verify(&self, graph: &SceneGraph) -> Result<()> {
        let expected = content_hash(graph);
        if self.game_hash != expected {
            return Err(RuntimeError::SaveMismatch(format!(
                "save is for game {:016x}, current game is {expected:016x}",
                self.game_hash
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fix_the_computer;

    fn sample_save() -> SaveGame {
        let graph = fix_the_computer();
        let mut state = GameState::new("market");
        state.visited.insert("classroom".into());
        state.score = 5;
        state.scenario_clock_ms = 1234;
        state.total_clock_ms = 9876;
        state.avatar = (30, -2);
        state.set_flag("diagnosed", true);
        state.set_flag("greeted", false);
        state.examined.insert("computer".into());
        let mut inventory = Inventory::new();
        inventory.add("fan");
        inventory.add("coin");
        inventory.add("coin");
        inventory.award("computer_medic");
        SaveGame::capture(&graph, &state, &inventory)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let save = sample_save();
        let text = save.to_text();
        let back = SaveGame::from_text(&text).unwrap();
        assert_eq!(back, save);
    }

    #[test]
    fn ended_state_roundtrips() {
        let mut save = sample_save();
        save.state.ended = Some("fixed".into());
        let back = SaveGame::from_text(&save.to_text()).unwrap();
        assert_eq!(back.state.ended.as_deref(), Some("fixed"));
    }

    #[test]
    fn verify_detects_wrong_game() {
        let save = sample_save();
        assert!(save.verify(&fix_the_computer()).is_ok());
        let other = crate::fixtures::two_room_loop();
        assert!(matches!(
            save.verify(&other),
            Err(RuntimeError::SaveMismatch(_))
        ));
    }

    #[test]
    fn rejects_malformed_saves() {
        for bad in [
            "",
            "not-a-save",
            "vgbl-save 99\ngame 0\nscenario x\n",
            "vgbl-save 1\nscenario x\n",                       // missing hash
            "vgbl-save 1\ngame zz\nscenario x\n",              // bad hash
            "vgbl-save 1\ngame 0\n",                           // missing scenario
            "vgbl-save 1\ngame 0\nscenario x\nscore abc\n",    // bad score
            "vgbl-save 1\ngame 0\nscenario x\nflag a maybe\n", // bad flag
            "vgbl-save 1\ngame 0\nscenario x\nitem fan x\n",   // bad count
            "vgbl-save 1\ngame 0\nscenario x\nwarp 1\n",       // unknown key
            "vgbl-save 1\ngame 0\nscenario x\nclock 5\n",      // short clock
        ] {
            assert!(SaveGame::from_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn checkpoint_fields_roundtrip() {
        let mut save = sample_save();
        save.dialogue = Some(("shop keeper".into(), 3));
        save.fired_timers.extend([5_000u64, 30_000]);
        let text = save.to_text();
        let back = SaveGame::from_text(&text).unwrap();
        assert_eq!(back, save);
        assert_eq!(back.dialogue.as_ref().unwrap().0, "shop keeper", "npc keeps its spaces");
        // And a plain capture stays free of transients.
        assert_eq!(sample_save().dialogue, None);
        assert!(sample_save().fired_timers.is_empty());
    }

    #[test]
    fn trace_line_roundtrips_without_perturbing_the_digest() {
        let mut save = sample_save();
        let untraced_text = save.to_text();
        let untraced_digest = save.digest();
        save.trace = Some((0xDEAD_BEEF_0000_0001, 0x0000_CAFE_0000_0002));
        let text = save.to_text();
        assert!(text.contains("trace deadbeef00000001 0000cafe00000002\n"));
        let back = SaveGame::from_text(&text).unwrap();
        assert_eq!(back, save, "trace survives the round trip");
        assert_eq!(
            save.digest(),
            untraced_digest,
            "identity metadata must not perturb handoff verification"
        );
        assert!(!untraced_text.contains("trace "), "untraced saves stay byte-identical");
        for bad in [
            "vgbl-save 1\ngame 0\ntrace 1\nscenario x\n",
            "vgbl-save 1\ngame 0\ntrace zz 1\nscenario x\n",
            "vgbl-save 1\ngame 0\ntrace 1 zz\nscenario x\n",
        ] {
            assert!(SaveGame::from_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn adversarial_item_count_parses_in_constant_space() {
        // Regression: `item x 4294967295` used to loop 4 billion times.
        let text = format!("vgbl-save 1\ngame 0\nscenario x\nitem x {}\n", u32::MAX);
        let save = SaveGame::from_text(&text).unwrap();
        assert_eq!(save.inventory.count("x"), u32::MAX);
        for bad in [
            "vgbl-save 1\ngame 0\nscenario x\ndialogue x npc\n", // bad node
            "vgbl-save 1\ngame 0\nscenario x\ndialogue 3\n",     // missing npc
            "vgbl-save 1\ngame 0\nscenario x\nfired later\n",    // bad timer
        ] {
            assert!(SaveGame::from_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn flag_names_with_spaces_are_not_ambiguous() {
        // rsplit_once keeps multi-word names intact (names can't contain
        // the on/off suffix).
        let mut save = sample_save();
        save.state.flags.clear();
        save.state.set_flag("multi word flag", true);
        let back = SaveGame::from_text(&save.to_text()).unwrap();
        assert!(back.state.flag("multi word flag"));
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let a = content_hash(&fix_the_computer());
        let b = content_hash(&fix_the_computer());
        assert_eq!(a, b);
        let c = content_hash(&crate::fixtures::two_room_loop());
        assert_ne!(a, c);
    }

    #[test]
    fn engine_restore_from_save_resumes() {
        use crate::engine::{GameSession, SessionConfig};
        use crate::input::InputEvent;
        use std::sync::Arc;

        let graph = Arc::new(fix_the_computer());
        let config = SessionConfig::for_frame(64, 48);
        let (mut session, _) = GameSession::new(graph.clone(), config.clone()).unwrap();
        session.handle(InputEvent::click(25, 20)).unwrap(); // diagnose
        session.handle(InputEvent::click(42, 4)).unwrap(); // market
        session.handle(InputEvent::drag(12, 12, 60, 20)).unwrap(); // take fan

        let save = SaveGame::capture(&graph, session.state(), session.inventory());
        let text = save.to_text();

        // "Reload" later:
        let loaded = SaveGame::from_text(&text).unwrap();
        loaded.verify(&graph).unwrap();
        let mut resumed =
            GameSession::restore(graph, config, loaded.state, loaded.inventory).unwrap();
        resumed.handle(InputEvent::click(42, 4)).unwrap(); // back to class
        let fb = resumed.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, crate::feedback::Feedback::GameEnded(_))));
    }
}
