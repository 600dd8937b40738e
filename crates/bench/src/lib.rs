//! Shared workload builders for the benchmark suite and the
//! `experiments` harness.
//!
//! Every generator is deterministic (fixed seeds) so Criterion runs and
//! the experiment tables are reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use vgbl::author::wizard::{quiz_template, tour_template};
use vgbl::author::Project;
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
