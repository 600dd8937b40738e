//! The `author_import` workload: one author runs the §4.1 pipeline.
//!
//! Each round is one author session on the same raw footage: shot
//! detection, then `encode_aligned` (the two steps of `import_footage`,
//! called one by one so each is timed), template editing, saving the
//! project (`.vgp` text and VGV container), publishing, showing the
//! published game's first frame, and loading both files back.

use std::sync::Arc;
use std::time::Instant;

use vgbl::author::serialize::{from_vgp, to_vgp};
use vgbl::media::cache::GopCache;
use vgbl::media::codec::Encoder;
use vgbl::media::container::{ContainerReader, ContainerWriter};
use vgbl::media::shot::score_detection;
use vgbl::media::synth::Footage;
use vgbl::media::{SegmentTable, ShotDetector, VideoId};
use vgbl::prelude::{publish, PublishedGame};
use vgbl::runtime::render::compose_frame;
use vgbl::runtime::{GameSession, PlaybackController};

use crate::game::{self, Game, GameSpec, Template};
use crate::report::Tally;
use crate::run::Workload;
use crate::trace::span;

/// Steps of one author session, each counted as an attempted operation:
/// detect, encode, import, edit, save, publish, first frame, load.
const STEPS: u64 = 8;

/// Raw footage plus the reference made from one import during set-up.
pub struct Author {
    spec: GameSpec,
    footage: Footage,
    game: Game,
}

impl Workload for Author {
    /// Shot detection and the encoder walk frame buffers.
    const MEMORY_SHARE: f64 = 1.0;

    fn setup(seed: u64, tiny: bool) -> Author {
        let spec = if tiny {
            GameSpec {
                template: Template::Tour,
                width: 64,
                height: 48,
                rooms: 2,
                shot_frames: 12,
                gop: 6,
                search_range: 3,
            }
        } else {
            GameSpec::LESSON
        };
        let footage = game::footage(&spec, seed);
        let game = Game::new(game::publish_game(&spec, &footage));
        Author {
            spec,
            footage,
            game,
        }
    }

    fn game_mut(&mut self) -> &mut Game {
        &mut self.game
    }

    fn round(&self, round: u64, tally: &mut Tally) {
        tally.attempted += STEPS;
        match self.session(tally) {
            Ok(()) => tally.sessions += 1,
            Err(e) => {
                tally.failed += 1;
                eprintln!("author session {round} failed: {e}");
            }
        }
    }
}

impl Author {
    fn session(&self, tally: &mut Tally) -> Result<(), String> {
        let f = &self.footage;
        let config = self.spec.import_config();
        let mut project = game::template(&self.spec);

        let t0 = Instant::now();
        let cuts: Vec<usize> = span("shot.detect", || {
            ShotDetector::new(config.detector.clone()).detect(&f.frames)
        })
        .iter()
        .map(|c| c.frame)
        .collect();
        let recall = score_detection(&cuts, &f.cuts, 1).recall();
        if recall < 1.0 {
            tally.violations.push(format!(
                "shot detection recall {recall} < 1 (cuts {cuts:?})"
            ));
        }
        let video = span("encode", || {
            Encoder::new(config.encoder).encode_aligned(&f.frames, f.rate, &cuts)
        })
        .map_err(|e| e.to_string())?;
        tally.encode_frames += video.len() as u64;
        tally.encode_bytes += video.payload_bytes() as u64;
        let table = SegmentTable::from_cuts(f.frames.len(), &cuts).map_err(|e| e.to_string())?;
        span("author.import", || {
            project.rate = f.rate;
            project.attach_video(video, table)
        })
        .map_err(|e| e.to_string())?;
        span("author.edit", || game::edit(&mut project, &self.spec)).map_err(|e| e.to_string())?;
        let mut import_s = t0.elapsed().as_secs_f64();

        let t_save = Instant::now();
        let vgp = span("vgp.save", || to_vgp(&project)).map_err(|e| e.to_string())?;
        let vgv = span("vgv.write", || {
            ContainerWriter::write(project.video.as_ref().expect("imported"))
        });
        let save_ms = t_save.elapsed().as_secs_f64() * 1e3;
        tally.vgp_bytes += vgp.len() as u64;
        tally.vgv_bytes += vgv.len() as u64;

        let t_publish = Instant::now();
        let published = span("publish", || publish(project)).map_err(|e| e.to_string())?;
        import_s += t_publish.elapsed().as_secs_f64();
        self.first_frame(&published, tally)?;
        tally.first_frame_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.frames += f.frames.len() as u64;
        tally.frame_s += import_s;

        let t_load = Instant::now();
        let loaded = span("vgp.load", || from_vgp(&vgp)).map_err(|e| e.to_string())?;
        let video = span("vgv.read", || ContainerReader::read(&vgv)).map_err(|e| e.to_string())?;
        tally
            .roundtrip_ms
            .push(save_ms + t_load.elapsed().as_secs_f64() * 1e3);

        if loaded.graph != *published.graph {
            tally
                .violations
                .push("the .vgp round trip changed the scene graph".into());
        }
        if loaded.segments != published.segments {
            tally
                .violations
                .push("the .vgp round trip changed the segment table".into());
        }
        let id = VideoId::of(&published.video);
        if VideoId::of(&video) != id {
            tally
                .violations
                .push("the VGV round trip changed the video".into());
        }
        if id != self.game.video_id {
            tally
                .violations
                .push("the import encoded different footage than set-up".into());
        }
        Ok(())
    }

    /// Shows the author the published game: a session and a player over
    /// the published video serve and composite its first frame, which is
    /// checked against the set-up reference.
    fn first_frame(&self, published: &PublishedGame, tally: &mut Tally) -> Result<(), String> {
        let err = |e: vgbl::runtime::RuntimeError| e.to_string();
        let (session, _) = span("engine.setup", || {
            GameSession::new(published.graph.clone(), published.session_config())
        })
        .map_err(err)?;
        let segment = session.current_scenario().segment;
        let mut player = span("playback.setup", || {
            PlaybackController::shared(
                Arc::new(published.video.clone()),
                published.segments.clone(),
                segment,
                Arc::new(GopCache::with_shards(1, 1)),
            )
        })
        .map_err(err)?;
        let abs = player.absolute_frame();
        let base = span("playback.serve", || player.current_frame()).map_err(err)?;
        let frame = span("render.compose", || compose_frame(&session, &base)).map_err(err)?;
        std::hint::black_box(&frame);
        tally.served += 1;
        tally.player_decoded += player.stats().frames_decoded as u64;
        if !span("check", || self.game.matches(abs, &base)) {
            tally.mismatches += 1;
        }
        Ok(())
    }
}
