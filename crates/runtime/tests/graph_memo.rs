//! A graph edited after sessions compiled it plays as a graph that was
//! never compiled: for each `&mut` method of `SceneGraph`, the next
//! session gets the fresh validation errors, the fresh content hash and
//! a fresh overlay.

use std::sync::Arc;

use vgbl_media::color::Rgb;
use vgbl_media::{Frame, SegmentId};
use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
use vgbl_runtime::render::compose_frame;
use vgbl_runtime::save::SaveGame;
use vgbl_runtime::{GameSession, GameState, Inventory, SessionConfig};
use vgbl_scene::validate::validate;
use vgbl_scene::npc::DialogueChoice;
use vgbl_scene::{DialogueNode, DialogueTree, Npc, ObjectKind, Rect, SceneGraph, Scenario};
use vgbl_script::{Action, EventKind, Trigger};

/// What a session sees of a graph's compiled facts: the start verdict,
/// the hash a checkpoint carries, and each scenario's composed frame.
#[derive(Debug, PartialEq)]
struct Facts {
    start: Result<(), String>,
    hash: u64,
    frames: Vec<Frame>,
}

fn facts(graph: &Arc<SceneGraph>) -> Facts {
    let config = SessionConfig::for_frame(FRAME.0, FRAME.1);
    let base = Frame::filled(FRAME.0, FRAME.1, Rgb::new(7, 70, 140)).unwrap();
    let start = GameSession::new(graph.clone(), config.clone()).map(drop).map_err(|e| e.to_string());
    let frames = graph
        .scenarios()
        .iter()
        .map(|s| {
            let state = GameState::new(s.name.clone());
            let session =
                GameSession::restore(graph.clone(), config.clone(), state, Inventory::new()).unwrap();
            compose_frame(&session, &base).unwrap()
        })
        .collect();
    let hash = SaveGame::capture(graph, &GameState::new("classroom"), &Inventory::new()).game_hash;
    Facts { start, hash, frames }
}

/// Mounts a button whose `goto` dangles.
fn hatch(s: &mut Scenario) {
    let id = s
        .add_object("hatch", ObjectKind::Button { label: "Hatch".into() }, Rect::new(30, 30, 9, 7))
        .unwrap();
    s.object_mut(id).unwrap().triggers.push(Trigger::unconditional(
        EventKind::Click,
        vec![Action::GoTo("nowhere".into())],
    ));
}

#[test]
fn each_mut_method_recompiles_the_graph() {
    type Edit = fn(&mut SceneGraph);
    let edits: [(&str, Edit); 8] = [
        ("add_scenario", |g| {
            g.add_scenario("attic", SegmentId(1)).unwrap();
        }),
        ("scenario_mut", |g| {
            let id = g.require_scenario("classroom").unwrap().id;
            hatch(g.scenario_mut(id).unwrap());
        }),
        ("scenario_by_name_mut", |g| hatch(g.scenario_by_name_mut("market").unwrap())),
        ("set_start", |g| g.set_start("market").unwrap()),
        ("add_npc", |g| {
            let mut broken = DialogueTree::new();
            broken.insert(0, DialogueNode { line: "Go on.".into(), choices: Vec::new() });
            broken.insert(
                1,
                DialogueNode {
                    line: "Then?".into(),
                    choices: vec![DialogueChoice { text: "And?".into(), next: Some(9) }],
                },
            );
            g.add_npc(Npc::new("teacher", broken));
        }),
        ("assets_mut", |g| {
            g.assets_mut().remove("pc").unwrap();
        }),
        ("remove_scenario", |g| {
            g.remove_scenario("market").unwrap();
        }),
        ("rename_scenario", |g| g.rename_scenario("market", "bazaar").unwrap()),
    ];
    for (name, edit) in edits {
        let mut graph = Arc::new(fix_the_computer());
        let before = facts(&graph);
        assert_eq!(before.start, Ok(()));
        edit(Arc::get_mut(&mut graph).expect("no session outlives `facts`"));
        let after = facts(&graph);

        let mut fresh = fix_the_computer();
        edit(&mut fresh);
        let errors: Vec<String> = validate(&fresh, None).errors().map(|e| e.to_string()).collect();
        let fresh = facts(&Arc::new(fresh));
        assert_eq!(after, fresh, "`{name}` left a stale memo");
        match &after.start {
            Ok(()) => assert!(errors.is_empty(), "`{name}`"),
            Err(text) => assert_eq!(*text, format!("game failed validation: {}", errors.join("; ")), "`{name}`"),
        }
        // Nothing compiled depends on the start scenario; every other
        // edit changes what a stale memo would have served.
        if name != "set_start" {
            assert_ne!(after, before, "`{name}` changed nothing compiled");
        }
    }
}
