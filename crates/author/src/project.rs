//! The authoring document.
//!
//! A [`Project`] bundles what a course designer works on: the imported
//! footage (encoded video + its segment table) and the game content (the
//! scene graph). Integrity invariants tie the two together: the segment
//! table must cover the video exactly, and every scenario must reference
//! an existing segment.

use vgbl_media::codec::EncodedVideo;
use vgbl_media::{FrameRate, SegmentTable};
use vgbl_scene::SceneGraph;

use crate::error::AuthorError;
use crate::Result;

/// A complete authoring document.
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    /// Project title (shown in the authoring tool's title bar).
    pub name: String,
    /// Video frame size `(width, height)` all scenarios share.
    pub frame_size: (u32, u32),
    /// Frame rate of the footage.
    pub rate: FrameRate,
    /// The imported, encoded footage (absent before import).
    pub video: Option<EncodedVideo>,
    /// The segment table partitioning the footage into scenario units.
    pub segments: SegmentTable,
    /// The game content.
    pub graph: SceneGraph,
}

impl Project {
    /// A fresh project with no footage and an empty graph. The segment
    /// table starts as a single placeholder segment so scenarios can be
    /// sketched before footage arrives.
    pub fn new(name: impl Into<String>, frame_size: (u32, u32), rate: FrameRate) -> Project {
        Project {
            name: name.into(),
            frame_size,
            rate,
            video: None,
            segments: SegmentTable::whole(1).expect("one frame is a valid table"),
            graph: SceneGraph::new(),
        }
    }

    /// Attaches imported footage, replacing the placeholder table.
    ///
    /// # Errors
    /// [`AuthorError::Integrity`] when the table does not cover the video
    /// or dimensions disagree with the project.
    pub fn attach_video(&mut self, video: EncodedVideo, segments: SegmentTable) -> Result<()> {
        if segments.frame_count() != video.len() {
            return Err(AuthorError::Integrity(format!(
                "segment table covers {} frames, video has {}",
                segments.frame_count(),
                video.len()
            )));
        }
        self.check_frame_size(video.width(), video.height())?;
        self.video = Some(video);
        self.segments = segments;
        Ok(())
    }

    /// Checks that footage of `width`×`height` fits the project's frame
    /// size.
    ///
    /// # Errors
    /// [`AuthorError::Integrity`] when the sizes differ.
    pub(crate) fn check_frame_size(&self, width: u32, height: u32) -> Result<()> {
        if (width, height) != self.frame_size {
            return Err(AuthorError::Integrity(format!(
                "video is {width}x{height}, project expects {}x{}",
                self.frame_size.0, self.frame_size.1
            )));
        }
        Ok(())
    }

    /// Whether footage has been imported.
    pub fn has_video(&self) -> bool {
        self.video.is_some()
    }

    /// Checks all integrity invariants, returning the first violation.
    pub fn check_integrity(&self) -> Result<()> {
        if let Some(video) = &self.video {
            if self.segments.frame_count() != video.len() {
                return Err(AuthorError::Integrity(
                    "segment table no longer matches video length".into(),
                ));
            }
            if (video.width(), video.height()) != self.frame_size {
                return Err(AuthorError::Integrity("video dimensions drifted".into()));
            }
        }
        for s in self.graph.scenarios() {
            if self.segments.get(s.segment).is_none() {
                return Err(AuthorError::Integrity(format!(
                    "scenario `{}` references missing segment {}",
                    s.name, s.segment
                )));
            }
        }
        Ok(())
    }

    /// Summary counters for the UI status bar:
    /// `(scenarios, objects, triggers, segments)`.
    pub fn stats(&self) -> (usize, usize, usize, usize) {
        let scenarios = self.graph.len();
        let mut objects = 0;
        let mut triggers = 0;
        for s in self.graph.scenarios() {
            objects += s.objects().len();
            triggers += s.entry_triggers.len();
            for o in s.objects() {
                triggers += o.triggers.len();
            }
        }
        (scenarios, objects, triggers, self.segments.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};
    use vgbl_media::SegmentId;

    fn encoded(frames: usize, w: u32, h: u32) -> EncodedVideo {
        let footage = FootageSpec {
            width: w,
            height: h,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(120, 80, 40))],
            noise_seed: 2,
        }
        .render()
        .unwrap();
        Encoder::new(EncodeConfig { gop: 5, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap()
    }

    #[test]
    fn fresh_project_has_placeholder_table() {
        let p = Project::new("demo", (64, 48), FrameRate::FPS30);
        assert!(!p.has_video());
        assert_eq!(p.segments.len(), 1);
        assert!(p.check_integrity().is_ok());
    }

    #[test]
    fn attach_video_validates() {
        let mut p = Project::new("demo", (32, 24), FrameRate::FPS30);
        let video = encoded(10, 32, 24);
        let table = SegmentTable::from_cuts(10, &[5]).unwrap();
        p.attach_video(video.clone(), table).unwrap();
        assert!(p.has_video());
        assert_eq!(p.segments.len(), 2);

        // Wrong table length.
        let mut p2 = Project::new("demo", (32, 24), FrameRate::FPS30);
        let bad = SegmentTable::from_cuts(9, &[5]).unwrap();
        assert!(p2.attach_video(video.clone(), bad).is_err());

        // Wrong dimensions.
        let mut p3 = Project::new("demo", (64, 48), FrameRate::FPS30);
        let table = SegmentTable::from_cuts(10, &[5]).unwrap();
        assert!(p3.attach_video(video, table).is_err());
    }

    #[test]
    fn integrity_catches_dangling_segment_refs() {
        let mut p = Project::new("demo", (32, 24), FrameRate::FPS30);
        p.graph.add_scenario("s", SegmentId(5)).unwrap();
        assert!(matches!(p.check_integrity(), Err(AuthorError::Integrity(_))));
        let mut ok = Project::new("demo", (32, 24), FrameRate::FPS30);
        ok.graph.add_scenario("s", SegmentId(0)).unwrap();
        assert!(ok.check_integrity().is_ok());
    }

    #[test]
    fn stats_count_everything() {
        let mut p = Project::new("demo", (64, 48), FrameRate::FPS30);
        use vgbl_scene::{ObjectKind, Rect};
        use vgbl_script::{Action, EventKind, Trigger};
        let id = p.graph.add_scenario("a", SegmentId(0)).unwrap();
        let s = p.graph.scenario_mut(id).unwrap();
        s.entry_triggers
            .push(Trigger::unconditional(EventKind::Enter, vec![Action::AddScore(1)]));
        let o = s
            .add_object("b", ObjectKind::Button { label: "x".into() }, Rect::new(0, 0, 4, 4))
            .unwrap();
        s.object_mut(o).unwrap().triggers.push(Trigger::unconditional(
            EventKind::Click,
            vec![Action::End("done".into())],
        ));
        assert_eq!(p.stats(), (1, 1, 2, 1));
    }
}
