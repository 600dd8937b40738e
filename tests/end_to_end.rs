//! End-to-end integration: the whole paper pipeline in one test file.
//!
//! Footage synthesis → §4.1 import (shot detection + encoding) → both
//! editors → validation → publishing → a player session with live video
//! decode → save game → restore → completion → analytics.

use vgbl::prelude::*;
use vgbl::runtime::save::SaveGame;
use vgbl::runtime::InputEvent as RtInput;

#[test]
fn author_publish_play_save_restore_finish() {
    // --- Author ---
    let (project, import) = vgbl::sample::fix_the_computer_project(3).unwrap();
    assert!(import.compression_ratio > 1.0);
    assert_eq!(project.segments.len(), 2);

    // --- Persist the project and reload it ---
    let text = vgbl::author::serialize::to_vgp(&project).unwrap();
    let mut reloaded = vgbl::author::serialize::from_vgp(&text).unwrap();
    assert_eq!(reloaded.graph, project.graph);
    // Footage travels in the .vgv sidecar.
    let vgv = vgbl::media::ContainerWriter::write(project.video.as_ref().unwrap());
    let video = vgbl::media::ContainerReader::read(&vgv).unwrap();
    let segments = reloaded.segments.clone();
    reloaded.attach_video(video, segments).unwrap();

    // --- Publish ---
    let game = vgbl::publish::publish(reloaded).unwrap();
    assert_eq!(game.title, "Fix the Computer");

    // --- Play up to the market trip ---
    let mut player = Player::new(&game).unwrap();
    player.handle(RtInput::click(25, 20)).unwrap(); // diagnose
    player.handle(RtInput::Tick(250)).unwrap();
    player.handle(RtInput::click(42, 4)).unwrap(); // market
    player.handle(RtInput::drag(12, 12, 60, 20)).unwrap(); // take fan

    // --- Save mid-game ---
    let save = SaveGame::capture(
        &game.graph,
        player.session().state(),
        player.session().inventory(),
    );
    let save_text = save.to_text();

    // --- Restore into a fresh session and finish ---
    let loaded = SaveGame::from_text(&save_text).unwrap();
    loaded.verify(&game.graph).unwrap();
    let mut resumed = vgbl::runtime::GameSession::restore(
        game.graph.clone(),
        game.session_config(),
        loaded.state,
        loaded.inventory,
    )
    .unwrap();
    assert_eq!(resumed.state().current_scenario, "market");
    assert!(resumed.inventory().has("fan"));
    resumed.handle(RtInput::click(42, 4)).unwrap(); // back to class
    let feedback = resumed.handle(RtInput::apply("fan", 25, 20)).unwrap();
    assert!(feedback.iter().any(|f| matches!(f, Feedback::GameEnded(o) if o == "fixed")));
    assert_eq!(resumed.state().score, 25);
    assert!(resumed.inventory().has_reward("computer_medic"));
}

#[test]
fn figure_renders_are_stable_end_to_end() {
    let (project, _) = vgbl::sample::fix_the_computer_project(2).unwrap();
    let fig1_a = vgbl::author::render::ascii_ui(&project, Some(("classroom", "computer")), None);
    let fig1_b = vgbl::author::render::ascii_ui(&project, Some(("classroom", "computer")), None);
    assert_eq!(fig1_a, fig1_b);
    assert!(fig1_a.contains("VGBL Authoring Tool"));
    assert!(fig1_a.contains("object: computer"));

    let game = vgbl::publish::publish(project).unwrap();
    let mut p1 = Player::new(&game).unwrap();
    let mut p2 = Player::new(&game).unwrap();
    let fig2_a = p1.ui().unwrap();
    let fig2_b = p2.ui().unwrap();
    assert_eq!(fig2_a, fig2_b);
    assert!(fig2_a.contains("VGBL Runtime Environment"));
    assert!(fig2_a.contains("BACKPACK"));
}

#[test]
fn decoded_playback_matches_authored_footage() {
    // The frame a player sees at scenario entry is the (lossy-coded)
    // first frame of that scenario's segment from the original footage.
    let footage = vgbl::sample::sample_footage(2);
    let (project, _) = vgbl::sample::fix_the_computer_project(2).unwrap();
    let game = vgbl::publish::publish(project).unwrap();
    let mut player = Player::new(&game).unwrap();
    let shown = player.frame().unwrap();
    let original = &footage.frames[0];
    // Objects are composited on top, so compare a corner outside any
    // object bounds (59, 45): lossy error only.
    let a = shown.get(59, 45).unwrap();
    let b = original.get(59, 45).unwrap();
    assert!(
        a.dist_sq(b) < 32 * 32,
        "playback pixel drifted: {a:?} vs {b:?}"
    );
}

#[test]
fn guided_cohort_completes_on_published_game() {
    use vgbl::obs::Obs;
    use vgbl::runtime::bot::{GuidedBot, run_session};
    let (project, _) = vgbl::sample::fix_the_computer_project(2).unwrap();
    let game = vgbl::publish::publish(project).unwrap();
    let mut bot = GuidedBot::new();
    let config = game.session_config();
    let run =
        run_session(game.graph.clone(), config, &mut bot, 100, 100, &Obs::noop(), "").unwrap();
    assert_eq!(run.state.ended.as_deref(), Some("fixed"));
    assert!(run.log.knowledge_events() >= 2);
}

#[test]
fn quiz_template_full_pipeline_with_footage() {
    use vgbl::author::import::{import_footage, ImportConfig};
    use vgbl::media::synth::{FootageSpec, ShotSpec};
    use vgbl::media::color::Rgb;

    // Build footage matching the quiz template's 5 segments (3 questions).
    let mut template = vgbl::author::wizard::quiz_template("quiz", 3);
    let shots = (0..5u64)
        .map(|i| ShotSpec::plain(30, Rgb::from_seed(i * 17 + 2)))
        .collect();
    let footage = FootageSpec {
        width: 64,
        height: 48,
        rate: FrameRate::FPS30,
        shots,
        noise_seed: 5,
    }
    .render()
    .unwrap();
    import_footage(
        &mut template,
        &footage.frames,
        footage.rate,
        &ImportConfig::default(),
        Some(&footage.cuts),
    )
    .unwrap();
    assert_eq!(template.segments.len(), 5);

    let game = vgbl::publish::publish(template).unwrap();
    let mut player = Player::new(&game).unwrap();
    // Answer all three questions correctly (correct answer alternates).
    player.handle(RtInput::click(26, 33)).unwrap(); // start
    for q in 1..=3 {
        let (x, y) = if q % 2 == 1 { (10, 33) } else { (42, 33) };
        let fb = player.handle(RtInput::click(x, y)).unwrap();
        assert!(
            fb.iter().any(|f| matches!(f, Feedback::ScoreChanged { delta: 10, .. })),
            "q{q}: {fb:?}"
        );
    }
    assert_eq!(player.session().state().current_scenario, "results");
    assert!(player.session().inventory().has_reward("quiz_master"));
    let fb = player.handle(RtInput::click(26, 33)).unwrap(); // finish
    assert!(fb.iter().any(|f| matches!(f, Feedback::GameEnded(_))));
}

#[test]
fn guided_bot_solves_the_escape_room_chain() {
    use vgbl::obs::Obs;
    use vgbl::runtime::bot::{run_session, GuidedBot};
    use vgbl::runtime::SessionConfig;
    use std::sync::Arc;

    // Lock-and-key chains exercise condition-gated transitions deeply.
    let project = vgbl::author::wizard::escape_template("escape", 4);
    let graph = Arc::new(project.graph.clone());
    let mut bot = GuidedBot::new();
    let run = run_session(
        graph,
        SessionConfig::for_frame(64, 48),
        &mut bot,
        200,
        50,
        &Obs::noop(),
        "",
    )
    .unwrap();
    assert_eq!(run.state.ended.as_deref(), Some("escaped"), "log: {:?}", run.log.events());
    assert_eq!(run.state.score, 40); // 4 doors x 10
    assert!(run.inventory.has_reward("escape_artist"));
    // Every key was consumed on its door.
    for r in 0..4 {
        assert!(!run.inventory.has(&format!("key{r}")));
    }
}

#[test]
fn explorer_bot_also_escapes() {
    use vgbl::obs::Obs;
    use vgbl::runtime::bot::{run_session, ExplorerBot};
    use vgbl::runtime::SessionConfig;
    use std::sync::Arc;

    let project = vgbl::author::wizard::escape_template("escape", 3);
    let graph = Arc::new(project.graph.clone());
    let mut bot = ExplorerBot::new();
    let run = run_session(
        graph,
        SessionConfig::for_frame(64, 48),
        &mut bot,
        250,
        50,
        &Obs::noop(),
        "",
    )
    .unwrap();
    assert_eq!(run.state.ended.as_deref(), Some("escaped"), "log: {:?}", run.log.events());
}
