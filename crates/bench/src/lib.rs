//! Shared workload builders for the benchmark suite and the
//! `experiments` harness.
//!
//! Every generator is deterministic (fixed seeds) so Criterion runs and
//! the experiment tables are reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use vgbl::author::object_editor::ObjectEditor;
use vgbl::author::wizard::{escape_template, quiz_template, tour_template};
use vgbl::author::{CommandStack, Project};
use vgbl::media::codec::{EncodeConfig, EncodedVideo, Encoder, Quality};
use vgbl::media::synth::{Footage, FootageSpec};
use vgbl::media::{FrameRate, SegmentTable};
use vgbl::scene::{ObjectKind, Rect, SceneGraph};
use vgbl::script::{Action, EventKind, Trigger};
use vgbl::media::SegmentId;

/// Deterministic multi-shot footage: `shots` shots of 20–40 frames at the
/// given size.
pub fn bench_footage(width: u32, height: u32, shots: usize, seed: u64) -> Footage {
    let mut rng = StdRng::seed_from_u64(seed);
    FootageSpec::random(&mut rng, width, height, shots, 20, 40)
        .render()
        .expect("bench footage renders")
}

/// Encodes footage with the given GOP and quality.
pub fn encode(footage: &Footage, gop: usize, quality: Quality, threads: usize) -> EncodedVideo {
    Encoder::new(EncodeConfig { quality, gop, threads, search_range: 7 })
        .encode(&footage.frames, footage.rate)
        .expect("bench encode succeeds")
}

/// A linear chain of `n` scenarios (each with a "next" button), the
/// workload for EXP-4's depth sweeps.
pub fn chain_graph(n: usize) -> SceneGraph {
    let mut g = SceneGraph::new();
    for i in 0..n {
        g.add_scenario(format!("s{i}"), SegmentId(0)).expect("unique names");
    }
    for i in 0..n {
        let has_next = i + 1 < n;
        let s = g.scenario_by_name_mut(&format!("s{i}")).expect("exists");
        let btn = s
            .add_object("next", ObjectKind::Button { label: "next".into() }, Rect::new(0, 0, 8, 8))
            .expect("unique");
        let actions = if has_next {
            vec![Action::GoTo(format!("s{}", i + 1))]
        } else {
            vec![Action::End("done".into())]
        };
        s.object_mut(btn).expect("exists").triggers.push(Trigger::unconditional(
            EventKind::Click,
            actions,
        ));
    }
    g
}

/// The graph a sessionbench workload plays: the tour (a hub with a door
/// to each room) or the escape chain, authored at 64×48 with `rooms`
/// rooms, plus the edits sessionbench's set-up makes on top
/// (`sessionbench/src/game.rs::edit`, descriptions aside): a hint button
/// in every scenario and, on the tour, two onward doors per room and no
/// exit. `classroom_burst` plays the eight-room tour, `fleet_recovery`
/// the eight-room escape.
pub fn lesson_graph(tour: bool, rooms: usize) -> SceneGraph {
    let mut project =
        if tour { tour_template("lesson", rooms) } else { escape_template("lesson", rooms) };
    let mut stack = CommandStack::new();
    let names: Vec<String> = project.graph.scenarios().iter().map(|s| s.name.clone()).collect();
    for name in names {
        let mut ed = ObjectEditor::new(&mut project, &mut stack, &name);
        ed.add_button("hint", "Hint", Rect::new(2, 38, 12, 8)).expect("fresh name");
        let text = format!("text \"Look closely at {name}.\"");
        ed.wire("hint", "click", None, &[text.as_str(), "score 1"]).expect("valid actions");
    }
    if tour {
        for r in 1..=rooms {
            let mut ed = ObjectEditor::new(&mut project, &mut stack, &format!("room{r}"));
            ed.add_button("onward", "Onward", Rect::new(50, 38, 12, 8)).expect("fresh name");
            let goto = format!("goto room{}", r % rooms + 1);
            ed.wire("onward", "click", None, &[goto.as_str()]).expect("valid actions");
            ed.add_button("skip", "Skip", Rect::new(34, 38, 12, 8)).expect("fresh name");
            let goto = format!("goto room{}", (r + 1) % rooms + 1);
            ed.wire("skip", "click", None, &[goto.as_str()]).expect("valid actions");
        }
        ObjectEditor::new(&mut project, &mut stack, "hub").remove("exit").expect("the tour has an exit");
    }
    project.graph
}

/// A scenario packed with `objects` interactive objects, each carrying a
/// trigger guarded by a condition of `terms` conjunctive terms — EXP-5's
/// dispatch workload.
pub fn dense_scene(objects: usize, terms: usize) -> SceneGraph {
    let mut g = SceneGraph::new();
    let id = g.add_scenario("dense", SegmentId(0)).expect("fresh graph");
    let s = g.scenario_mut(id).expect("exists");
    let condition = (0..terms)
        .map(|t| format!("score >= {t}"))
        .collect::<Vec<_>>()
        .join(" && ");
    for i in 0..objects {
        let oid = s
            .add_object(
                format!("o{i}"),
                ObjectKind::Button { label: format!("b{i}") },
                // Spread objects over a 1000x1000 virtual frame.
                Rect::new((i as i32 * 13) % 990, (i as i32 * 29) % 990, 10, 10),
            )
            .expect("unique");
        s.object_mut(oid).expect("exists").triggers.push(
            Trigger::guarded(
                EventKind::Click,
                &condition,
                vec![Action::AddScore(0)],
            )
            .expect("valid condition"),
        );
    }
    g
}

/// A project with `scenarios` scenarios for serialisation benches
/// (alternating quiz/tour shapes for realistic trigger density).
pub fn big_project(scenarios: usize) -> Project {
    if scenarios.max(3).is_multiple_of(2) {
        tour_template("bench", scenarios.max(3) - 1)
    } else {
        quiz_template("bench", scenarios.max(3) - 2)
    }
}

/// A segment table with one segment per shot of the footage.
pub fn table_for(footage: &Footage) -> SegmentTable {
    SegmentTable::from_cuts(footage.len(), &footage.cuts).expect("valid cuts")
}

/// The standard bench frame rate.
pub const RATE: FrameRate = FrameRate::FPS30;
