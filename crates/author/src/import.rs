//! Video import — §4.1's one-button pipeline.
//!
//! "The users just need to select video files from network or video
//! cameras such that video can be divided into scenario components by the
//! authoring tool." [`import_footage`] does exactly that: raw frames in,
//! shot detection, encoding, and a segment table out, with a report the
//! UI shows the designer (how many segments, how confident, how big).

use vgbl_media::codec::{EncodeConfig, Encoder};
use vgbl_media::shot::{score_detection, DetectionScore, ShotDetector, ShotDetectorConfig};
use vgbl_media::timeline::FrameRate;
use vgbl_media::Frame;
use vgbl_media::SegmentTable;

use crate::project::Project;
use crate::Result;

/// Configuration of the import pipeline.
#[derive(Debug, Clone)]
pub struct ImportConfig {
    /// Shot-detection settings.
    pub detector: ShotDetectorConfig,
    /// Encoder settings.
    pub encoder: EncodeConfig,
    /// Force a keyframe at every detected cut so scenario switches land
    /// on keyframes (seek cost 1) and delivery chunks never straddle two
    /// segments. Costs a little compression; see EXP-3.
    pub align_keyframes: bool,
}

impl Default for ImportConfig {
    fn default() -> Self {
        ImportConfig {
            detector: ShotDetectorConfig::default(),
            encoder: EncodeConfig::default(),
            align_keyframes: true,
        }
    }
}

/// What the designer sees after an import.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportReport {
    /// Frames imported.
    pub frames: usize,
    /// Detected cut positions.
    pub cuts: Vec<usize>,
    /// Segments produced (cuts + 1).
    pub segments: usize,
    /// Encoded payload size in bytes.
    pub encoded_bytes: usize,
    /// Compression ratio achieved.
    pub compression_ratio: f64,
    /// Detection accuracy against ground truth, when the caller has one
    /// (synthetic footage does; camera footage would not).
    pub accuracy: Option<DetectionScore>,
}

/// Imports raw frames into `project`: detects shots, encodes, attaches.
///
/// `ground_truth_cuts` is optional — synthetic footage provides it so the
/// report can carry precision/recall (EXP-1).
///
/// # Errors
/// Fails, leaving `project` as it was, on footage of another frame size
/// than the project's (checked before any detection or encoding), on
/// empty footage, or when the encoder rejects its configuration.
pub fn import_footage(
    project: &mut Project,
    frames: &[Frame],
    rate: FrameRate,
    config: &ImportConfig,
    ground_truth_cuts: Option<&[usize]>,
) -> Result<ImportReport> {
    if let Some(first) = frames.first() {
        project.check_frame_size(first.width(), first.height())?;
    }
    let detector = ShotDetector::new(config.detector.clone());
    let cuts: Vec<usize> = detector.detect(frames).iter().map(|c| c.frame).collect();
    let table = SegmentTable::from_cuts(frames.len(), &cuts)?;
    let encoder = Encoder::new(config.encoder);
    let video = if config.align_keyframes {
        encoder.encode_aligned(frames, rate, &cuts)?
    } else {
        encoder.encode(frames, rate)?
    };

    let report = ImportReport {
        frames: frames.len(),
        segments: table.len(),
        encoded_bytes: video.payload_bytes(),
        compression_ratio: video.compression_ratio(),
        accuracy: ground_truth_cuts.map(|truth| score_detection(&cuts, truth, 1)),
        cuts,
    };
    project.attach_video(video, table)?;
    project.rate = rate;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};

    fn footage() -> vgbl_media::synth::Footage {
        FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(12, Rgb::new(200, 60, 60)),
                ShotSpec::plain(10, Rgb::new(60, 200, 60)),
                ShotSpec::plain(14, Rgb::new(60, 60, 200)),
            ],
            noise_seed: 4,
        }
        .render()
        .unwrap()
    }

    #[test]
    fn import_detects_segments_and_attaches() {
        let f = footage();
        let mut project = Project::new("demo", (48, 32), FrameRate::FPS30);
        let report = import_footage(
            &mut project,
            &f.frames,
            f.rate,
            &ImportConfig::default(),
            Some(&f.cuts),
        )
        .unwrap();
        assert_eq!(report.frames, 36);
        assert_eq!(report.cuts, vec![12, 22]);
        assert_eq!(report.segments, 3);
        assert!(report.encoded_bytes > 0);
        assert!(report.compression_ratio > 1.0);
        let acc = report.accuracy.unwrap();
        assert_eq!(acc.f1(), 1.0);
        assert!(project.has_video());
        assert_eq!(project.segments.len(), 3);
        assert!(project.check_integrity().is_ok());
    }

    #[test]
    fn import_without_ground_truth_skips_accuracy() {
        let f = footage();
        let mut project = Project::new("demo", (48, 32), FrameRate::FPS30);
        let report =
            import_footage(&mut project, &f.frames, f.rate, &ImportConfig::default(), None)
                .unwrap();
        assert!(report.accuracy.is_none());
    }

    #[test]
    fn import_rejects_mismatched_project_size() {
        let f = footage();
        let mut project = Project::new("demo", (99, 99), FrameRate::FPS30);
        assert!(import_footage(
            &mut project,
            &f.frames,
            f.rate,
            &ImportConfig::default(),
            None
        )
        .is_err());
    }

    #[test]
    fn a_failed_import_leaves_the_project_as_it_was() {
        // 48×32 footage at 24 fps into a 64×48 project at 30 fps.
        let mut f = footage();
        f.rate = FrameRate::new(24, 1).unwrap();
        let mut project = Project::new("demo", (64, 48), FrameRate::FPS30);
        let before = project.clone();
        let err = import_footage(&mut project, &f.frames, f.rate, &ImportConfig::default(), None)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "project integrity violation: video is 48x32, project expects 64x48"
        );
        assert_eq!(project, before);
    }

    #[test]
    fn import_empty_footage_fails() {
        let mut project = Project::new("demo", (48, 32), FrameRate::FPS30);
        assert!(
            import_footage(&mut project, &[], FrameRate::FPS30, &ImportConfig::default(), None)
                .is_err()
        );
    }
}

#[cfg(test)]
mod aligned_import_tests {
    use super::*;
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};

    #[test]
    fn aligned_import_puts_keyframes_on_cuts() {
        let f = FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(22, Rgb::new(200, 60, 60)),
                ShotSpec::plain(17, Rgb::new(60, 200, 60)),
            ],
            noise_seed: 4,
        }
        .render()
        .unwrap();
        let mut project = Project::new("demo", (48, 32), FrameRate::FPS30);
        import_footage(&mut project, &f.frames, f.rate, &ImportConfig::default(), Some(&f.cuts))
            .unwrap();
        let video = project.video.as_ref().unwrap();
        // The cut at frame 22 must be a keyframe.
        assert!(video.keyframes().contains(&22), "keyframes: {:?}", video.keyframes());
        // And a seek to the segment start decodes exactly one frame.
        let (_, n) = vgbl_media::codec::Decoder::default()
            .decode_frame(video, 22)
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn unaligned_import_keeps_regular_cadence() {
        let f = FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(22, Rgb::new(200, 60, 60)),
                ShotSpec::plain(17, Rgb::new(60, 200, 60)),
            ],
            noise_seed: 4,
        }
        .render()
        .unwrap();
        let mut project = Project::new("demo", (48, 32), FrameRate::FPS30);
        let config = ImportConfig { align_keyframes: false, ..Default::default() };
        import_footage(&mut project, &f.frames, f.rate, &config, None).unwrap();
        let video = project.video.as_ref().unwrap();
        assert_eq!(video.keyframes(), vec![0, 15, 30]);
    }
}
