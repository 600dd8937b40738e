//! Chaos properties of the fault-injection path (EXP-12's foundations):
//! for *any* seeded fault plan short of total loss, the simulation
//! terminates, every chunk it reports delivered is byte-identical to the
//! pristine stream (so playback of delivered frames is bit-exact), and
//! identical seeds reproduce identical reports.

use std::sync::OnceLock;

use proptest::prelude::*;
use vgbl_media::codec::{Decoder, EncodeConfig, Encoder, EncodedVideo, Quality};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::{Frame, SegmentId, SegmentTable};
use vgbl_obs::Obs;
use vgbl_stream::{
    simulate, simulate_faulty, ChunkMap, FaultPlan, FaultyLink, LinkModel, PrefetchPolicy,
    RetryPolicy, TraceStep,
};

struct Fixture {
    video: EncodedVideo,
    map: ChunkMap,
    reference: Vec<Frame>,
}

/// One shared encode + reference decode for every proptest case.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let shots = (0..3)
            .map(|i| ShotSpec {
                frames: 20,
                background: Rgb::from_seed(i * 11 + 3),
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(8, 8),
                    color: Rgb::from_seed(i * 5 + 1),
                    pos: (6.0, 6.0),
                    vel: (1.5, 1.0),
                }],
                luma_drift: 4,
                noise: 2,
            })
            .collect();
        let footage = FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots,
            noise_seed: 31,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig {
            gop: 10,
            quality: Quality::Medium,
            ..Default::default()
        })
        .encode(&footage.frames, footage.rate)
        .unwrap();
        let table = SegmentTable::from_cuts(60, &[20, 40]).unwrap();
        let map = ChunkMap::build(&video, &table).unwrap();
        let reference = Decoder::default().decode_all(&video).unwrap().frames;
        Fixture { video, map, reference }
    })
}

fn trace() -> Vec<TraceStep> {
    vec![
        TraceStep {
            segment: SegmentId(0),
            watch_ms: 1200.0,
            branch_targets: vec![SegmentId(1), SegmentId(2)],
        },
        TraceStep {
            segment: SegmentId(2),
            watch_ms: 1200.0,
            branch_targets: vec![SegmentId(1)],
        },
        TraceStep {
            segment: SegmentId(1),
            watch_ms: 800.0,
            branch_targets: vec![],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The tentpole chaos property: any seeded plan with loss < 100%
    // terminates with Ok; delivered chunks are byte-identical to the
    // originals (their GOPs decode bit-exactly against the pristine
    // reference); concealed chunks are exactly the gave-up ones; and the
    // whole report reproduces byte-identically from the same seed.
    #[test]
    fn fault_chaos_delivered_chunks_are_bit_exact(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        corruption in 0.0f64..0.5,
        stall_rate in 0.0f64..0.5,
        mbps in 0.5f64..8.0,
        latency in 1.0f64..60.0,
    ) {
        let fx = fixture();
        let plan = FaultPlan::new(seed)
            .with_loss(loss).unwrap()
            .with_corruption(corruption).unwrap()
            .with_stalls(stall_rate, 200.0).unwrap();
        let link = FaultyLink::new(LinkModel::mbps(mbps, latency).unwrap(), plan);
        let retry = RetryPolicy::default();
        let run = || {
            simulate_faulty(
                &fx.map,
                &link,
                PrefetchPolicy::BranchAware { per_branch: 1 },
                &retry,
                None,
                &trace(),
                &Obs::noop(),
                String::new(),
            )
            .expect("fault simulation terminates with Ok")
        };
        let report = run();

        // Delivered and concealed partition the touched chunks.
        for id in &report.delivered {
            prop_assert!(!report.concealed.contains(id));
        }
        prop_assert_eq!(report.stats.gave_up, report.concealed.len());

        // Bit-exactness on every delivered chunk: the payload the client
        // accepted passed the container checksum, so decoding its GOP
        // reproduces the pristine frames exactly.
        let dec = Decoder::default();
        for id in &report.delivered {
            let info = fx.map.get(*id).unwrap();
            prop_assert_eq!(
                vgbl_media::payload_checksum(
                    &fx.video.frames()[info.start_frame..info.end_frame]
                ),
                info.checksum,
                "delivered chunk {:?} is byte-identical to the original",
                id
            );
            let frames = dec.decode_gop_at(&fx.video, info.start_frame).unwrap();
            for (off, frame) in frames.iter().enumerate() {
                prop_assert_eq!(
                    frame,
                    &fx.reference[info.start_frame + off],
                    "frame {} of delivered chunk {:?}",
                    off,
                    id
                );
            }
        }

        // Accounting sanity: concealment accrues play-time for exactly
        // the chunks that gave up; everything watched is accounted.
        if report.stats.gave_up == 0 {
            prop_assert_eq!(report.stats.conceal_ms, 0.0);
        } else {
            prop_assert!(report.stats.conceal_ms > 0.0);
        }

        // Determinism: same seed + same plan ⇒ byte-identical report.
        let again = run();
        prop_assert_eq!(&report, &again);
    }

    // A plan with zero fault rates must match the pristine path exactly,
    // for any seed — the fault layer is a no-op when faults are off.
    #[test]
    fn fault_free_plan_is_transparent(seed in any::<u64>(), mbps in 0.5f64..8.0) {
        let fx = fixture();
        let link = LinkModel::mbps(mbps, 20.0).unwrap();
        let plain = simulate(
            &fx.map,
            &link,
            PrefetchPolicy::Linear { lookahead: 2 },
            &trace(),
        )
        .unwrap();
        let report = simulate_faulty(
            &fx.map,
            &FaultyLink::new(link, FaultPlan::new(seed)),
            PrefetchPolicy::Linear { lookahead: 2 },
            &RetryPolicy::default(),
            None,
            &trace(),
            &Obs::noop(),
            String::new(),
        )
        .unwrap();
        prop_assert_eq!(plain, report.stats);
        prop_assert!(report.concealed.is_empty());
    }
}
