//! The experiment harness: regenerates every figure and experiment table
//! from `DESIGN.md` / `EXPERIMENTS.md` with freshly measured numbers.
//!
//! Usage:
//! ```text
//! cargo run --release -p vgbl-bench --bin experiments            # all
//! cargo run --release -p vgbl-bench --bin experiments -- exp3   # one
//! ```
//!
//! Names are `fig1`, `fig2` and `exp1`..`exp20` (EXP-16 has no runner);
//! an unknown name prints the known ones and exits with status 2.
//!
//! Wall-clock numbers vary with the host; the *shapes* (who wins, where
//! the crossovers sit) are the reproduction targets recorded in
//! `EXPERIMENTS.md`.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vgbl::author::cost::{estimate, CostParams};
use vgbl::author::serialize::{from_vgp, to_vgp};
use vgbl::author::wizard::{quiz_template, tour_template};
use vgbl::media::codec::{Decoder, Quality};
use vgbl::media::seek::{average_seek_cost, expected_seek_cost, seek};
use vgbl::media::shot::{score_detection, ShotDetector, ShotDetectorConfig, Threshold};
use vgbl::media::stats::psnr_from_mse;
use vgbl::media::{ContainerReader, ContainerWriter, SegmentId, SegmentTable};
use vgbl::obs::Obs;
use vgbl::prelude::*;
use vgbl::runtime::baseline::{dvd_menu_cost, interactive_cost, linear_cost};
use vgbl::runtime::bot::{run_session, Bot, GuidedBot, RandomBot};
use vgbl::runtime::fixtures;
use vgbl::runtime::server::run_cohort;
use vgbl::script::{EventKind, MapEnv, Value};
use vgbl::stream::{simulate, ChunkMap, LinkModel, PrefetchPolicy, TraceStep};
use vgbl_bench::{bench_footage, chain_graph, dense_scene, encode, table_for};

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

fn fig1() {
    header("FIG-1", "the authoring-tool interface (paper Figure 1)");
    let (project, _) = vgbl::sample::fix_the_computer_project(3).expect("sample builds");
    println!(
        "{}",
        vgbl::author::render::ascii_ui(&project, Some(("classroom", "computer")), None)
    );
}

fn fig2() {
    header("FIG-2", "the runtime environment (paper Figure 2)");
    let (project, _) = vgbl::sample::fix_the_computer_project(3).expect("sample builds");
    let game = vgbl::publish::publish(project).expect("publishable");
    let mut player = Player::new(&game).expect("starts");
    // Reach the Figure-2 moment: an item in the inventory window, the
    // image object mounted on the frame, buttons visible.
    player.handle(InputEvent::click(42, 4)).expect("to market");
    player.handle(InputEvent::Tick(400)).expect("watch");
    player.handle(InputEvent::drag(12, 12, 60, 20)).expect("take fan");
    println!("{}", player.ui().expect("renders"));
}

fn exp1() {
    header("EXP-1", "shot-boundary detection: accuracy and thread scaling");
    let footage = bench_footage(160, 120, 24, 1);
    println!("footage: {} frames, {} true cuts\n", footage.len(), footage.cuts.len());
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "config", "precision", "recall", "F1", "ms", "frames/s"
    );
    let run = |label: String, cfg: ShotDetectorConfig| {
        let det = ShotDetector::new(cfg);
        let t0 = Instant::now();
        let cuts: Vec<usize> = det.detect(&footage.frames).iter().map(|c| c.frame).collect();
        let elapsed = ms(t0);
        let score = score_detection(&cuts, &footage.cuts, 1);
        println!(
            "{:<22} {:>9.2} {:>8.2} {:>8.2} {:>8.1} {:>12.0}",
            label,
            score.precision(),
            score.recall(),
            score.f1(),
            elapsed,
            footage.len() as f64 / (elapsed / 1000.0)
        );
    };
    for threads in [1usize, 2, 4, 8] {
        run(
            format!("adaptive, {threads} thr"),
            ShotDetectorConfig { threads, ..Default::default() },
        );
    }
    run(
        "fixed 0.35, 2 thr".to_owned(),
        ShotDetectorConfig {
            threshold: Threshold::Fixed(0.35),
            threads: 2,
            ..Default::default()
        },
    );
    run(
        "no downsample, 2 thr".to_owned(),
        ShotDetectorConfig { downsample: false, threads: 2, ..Default::default() },
    );
}

fn exp2() {
    header("EXP-2", "codec: throughput, compression and fidelity vs quality");
    let footage = bench_footage(160, 120, 4, 2);
    println!("footage: {} frames of 160x120\n", footage.len());
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>10}",
        "quality", "enc fps", "dec fps", "ratio", "PSNR dB"
    );
    for quality in Quality::all() {
        let t0 = Instant::now();
        let video = encode(&footage, 15, quality, 1);
        let enc_ms = ms(t0);
        let dec = Decoder::new(1);
        let t1 = Instant::now();
        let decoded = dec.decode_all(&video).expect("decodes");
        let dec_ms = ms(t1);
        let mse: f64 = footage
            .frames
            .iter()
            .zip(decoded.frames.iter())
            .map(|(a, b)| a.mse(b).expect("same dims"))
            .sum::<f64>()
            / footage.len() as f64;
        println!(
            "{:<10} {:>10.0} {:>10.0} {:>8.1} {:>10.1}",
            format!("{quality:?}"),
            footage.len() as f64 / (enc_ms / 1000.0),
            footage.len() as f64 / (dec_ms / 1000.0),
            video.compression_ratio(),
            psnr_from_mse(mse)
        );
    }
    println!("\nGOP-parallel encode (High quality):");
    println!("{:<10} {:>10}", "threads", "enc fps");
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let video = encode(&footage, 15, Quality::High, threads);
        let enc_ms = ms(t0);
        std::hint::black_box(video);
        println!("{:<10} {:>10.0}", threads, footage.len() as f64 / (enc_ms / 1000.0));
    }

    // SKIP-frame ablation: looping scenario video is often static.
    use vgbl::media::synth::{FootageSpec, ShotSpec};
    use vgbl::media::color::Rgb;
    let static_footage = FootageSpec {
        width: 160,
        height: 120,
        rate: vgbl_bench::RATE,
        shots: vec![ShotSpec::plain(90, Rgb::new(130, 120, 100))],
        noise_seed: 0,
    }
    .render()
    .expect("renders");
    let v = encode(&static_footage, 30, Quality::High, 1);
    let skips = v
        .frames()
        .iter()
        .filter(|f| f.kind == vgbl::media::FrameKind::Skip)
        .count();
    println!(
        "\nstatic 90-frame shot: {skips}/90 SKIP frames, {:.0}x compression \
         (the scenario-looping case)",
        v.compression_ratio()
    );
}

fn exp3() {
    header("EXP-3", "seek latency vs keyframe interval (scenario switching)");
    let footage = bench_footage(96, 64, 6, 3);
    println!("footage: {} frames\n", footage.len());
    println!(
        "{:<6} {:>14} {:>14} {:>12} {:>8}",
        "GOP", "frames/seek", "expected", "ms/seek", "ratio"
    );
    for gop in [1usize, 5, 15, 30, 60] {
        let video = encode(&footage, gop, Quality::High, 2);
        let dec = Decoder::default();
        let targets: Vec<usize> = (0..32).map(|i| (i * 37) % video.len()).collect();
        let avg = average_seek_cost(&video, &targets).expect("targets in range");
        let t0 = Instant::now();
        for &t in &targets {
            seek(&dec, &video, t).expect("seeks");
        }
        let per_seek = ms(t0) / targets.len() as f64;
        println!(
            "{:<6} {:>14.1} {:>14.1} {:>12.2} {:>8.1}",
            gop,
            avg,
            expected_seek_cost(gop),
            per_seek,
            video.compression_ratio()
        );
    }
    // Ablation: segment-aligned keyframes. Seeks go to *segment starts*
    // (what scenario switching actually does).
    println!("\nablation — seeks to segment starts (GOP 15):");
    println!("{:<22} {:>14} {:>10}", "encoding", "frames/seek", "ratio");
    let starts: Vec<usize> = {
        let mut v = vec![0usize];
        v.extend(footage.cuts.iter().copied());
        v
    };
    let enc = vgbl::media::codec::Encoder::new(vgbl::media::codec::EncodeConfig {
        gop: 15,
        quality: Quality::High,
        threads: 2,
        search_range: 7,
    });
    let plain = enc.encode(&footage.frames, footage.rate).expect("encodes");
    let aligned = enc
        .encode_aligned(&footage.frames, footage.rate, &footage.cuts)
        .expect("encodes");
    for (label, video) in [("regular cadence", &plain), ("segment-aligned", &aligned)] {
        let avg = average_seek_cost(video, &starts).expect("in range");
        println!("{:<22} {:>14.1} {:>10.1}", label, avg, video.compression_ratio());
    }
    println!("\nsmaller GOP = cheaper seeks but worse compression; aligning");
    println!("keyframes to segment starts gets seek cost 1 where it matters");
    println!("while keeping the long-GOP compression elsewhere.");
}

fn exp4() {
    header("EXP-4", "time-to-content: linear vs DVD menu vs interactive");
    println!(
        "{:<7} {:>14} {:>12} {:>14} {:>12} {:>14}",
        "depth", "linear frames", "dvd presses", "dvd frames", "vgbl clicks", "vgbl frames"
    );
    for depth in [4usize, 8, 16, 32, 64] {
        let graph = chain_graph(depth);
        let cuts: Vec<usize> = (1..depth).map(|i| i * 30).collect();
        let table = SegmentTable::from_cuts(depth * 30, &cuts).expect("valid");
        let lin = linear_cost(&table, depth - 1).expect("in range");
        let dvd = dvd_menu_cost(&table, depth - 1, 15).expect("in range");
        let int = interactive_cost(&graph, &format!("s{}", depth - 1), 30).expect("reachable");
        println!(
            "{:<7} {:>14} {:>12} {:>14} {:>12} {:>14}",
            depth,
            lin.frames_watched,
            dvd.interactions,
            dvd.frames_watched,
            int.interactions,
            int.frames_watched
        );
    }
    println!("\n(a hub-shaped VGBL graph reaches any content in O(1) clicks;");
    println!("this linear chain is interactive video's worst case.)");
}

fn exp5() {
    header("EXP-5", "event-engine dispatch throughput");
    let mut env = MapEnv::new();
    env.set_var("score", Value::Int(1_000_000));
    println!("{:<10} {:>16} {:>14}", "objects", "dispatch/s", "ms/full-scan");
    for objects in [10usize, 100, 1000, 10_000] {
        let graph = dense_scene(objects, 2);
        let scenario = graph.scenarios().first().expect("exists");
        let iters = (100_000 / objects).max(1);
        let t0 = Instant::now();
        for _ in 0..iters {
            for o in scenario.objects() {
                let fired = o.triggers.dispatch(&EventKind::Click, &env).expect("evaluates");
                std::hint::black_box(fired);
            }
        }
        let total = ms(t0);
        let per_scan = total / iters as f64;
        println!(
            "{:<10} {:>16.0} {:>14.3}",
            objects,
            (objects * iters) as f64 / (total / 1000.0),
            per_scan
        );
    }
    println!("\nguard complexity (100 objects):");
    println!("{:<10} {:>16}", "terms", "dispatch/s");
    for terms in [1usize, 2, 4, 8] {
        let graph = dense_scene(100, terms);
        let scenario = graph.scenarios().first().expect("exists");
        let iters = 1000usize;
        let t0 = Instant::now();
        for _ in 0..iters {
            for o in scenario.objects() {
                std::hint::black_box(
                    o.triggers.dispatch(&EventKind::Click, &env).expect("evaluates"),
                );
            }
        }
        let total = ms(t0);
        println!("{:<10} {:>16.0}", terms, (100 * iters) as f64 / (total / 1000.0));
    }
}

fn exp6() {
    header("EXP-6", "authoring cost: video segments vs 3D scenarios (§5)");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>12}",
        "game", "scenarios", "video ops", "3D ops", "advantage"
    );
    let games: Vec<(&str, vgbl::author::Project)> = vec![
        ("quiz (3 questions)", quiz_template("q", 3)),
        ("quiz (10 questions)", quiz_template("q", 10)),
        ("tour (4 rooms)", tour_template("t", 4)),
        ("tour (12 rooms)", tour_template("t", 12)),
        ("escape (5 rooms)", vgbl::author::wizard::escape_template("e", 5)),
        (
            "fix-the-computer",
            vgbl::sample::fix_the_computer_project(2).expect("sample builds").0,
        ),
    ];
    for (label, project) in games {
        let cost = estimate(&project, &CostParams::default());
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>11.1}x",
            label,
            project.graph.len(),
            cost.video_ops,
            cost.threed_ops,
            cost.advantage()
        );
    }
}

fn exp7() {
    header("EXP-7", "streaming: startup and rebuffering vs link and policy");
    let footage = bench_footage(96, 64, 6, 7);
    let video = encode(&footage, 10, Quality::Medium, 2);
    let table = table_for(&footage);
    let map = ChunkMap::build(&video, &table).expect("chunks");
    let n = table.len() as u32;
    // A hub-and-rooms trace: non-linear jumps.
    let rooms = [3u32, 1, 5, 2];
    let all: Vec<SegmentId> = (1..n).map(SegmentId).collect();
    let mut trace = Vec::new();
    for &room in rooms.iter().filter(|r| **r < n) {
        trace.push(TraceStep {
            segment: SegmentId(0),
            watch_ms: 1500.0,
            branch_targets: all.clone(),
        });
        trace.push(TraceStep {
            segment: SegmentId(room),
            watch_ms: 2000.0,
            branch_targets: vec![SegmentId(0)],
        });
    }
    println!(
        "{:<10} {:<14} {:>11} {:>8} {:>10} {:>9}",
        "link", "policy", "startup ms", "stalls", "stall ms", "waste %"
    );
    for mbps in [0.5, 1.0, 2.0, 8.0] {
        let link = LinkModel::mbps(mbps, 30.0).expect("valid link");
        for policy in [
            PrefetchPolicy::None,
            PrefetchPolicy::Linear { lookahead: 3 },
            PrefetchPolicy::BranchAware { per_branch: 1 },
        ] {
            let stats = simulate(&map, &link, policy, &trace).expect("simulates");
            println!(
                "{:<10} {:<14} {:>11.0} {:>8} {:>10.0} {:>9.1}",
                format!("{mbps} Mbit/s"),
                policy.label(),
                stats.startup_ms,
                stats.stalls,
                stats.stall_ms,
                stats.waste_ratio() * 100.0
            );
        }
    }

    // A real playthrough: stream the exact trace a guided player produced
    // on the sample game (analytics log → streaming trace).
    println!("\nreal playthrough of 'Fix the Computer' (guided player, 1 Mbit/s):");
    let (project, _) = vgbl::sample::fix_the_computer_project(3).expect("sample builds");
    let game = vgbl::publish::publish(project).expect("publishable");
    let mut bot = GuidedBot::new();
    let config = game.session_config();
    let run = run_session(game.graph.clone(), config, &mut bot, 100, 400, &Obs::noop(), "")
        .expect("bot plays");
    let real_trace = vgbl::trace::trace_from_log(&game, &run.log);
    let real_map = ChunkMap::build(&game.video, &game.segments).expect("chunks");
    let link = LinkModel::mbps(1.0, 30.0).expect("valid link");
    println!("{:<14} {:>11} {:>8} {:>10} {:>9}", "policy", "startup ms", "stalls", "stall ms", "waste %");
    for policy in [
        PrefetchPolicy::None,
        PrefetchPolicy::Linear { lookahead: 2 },
        PrefetchPolicy::BranchAware { per_branch: 2 },
    ] {
        let stats = simulate(&real_map, &link, policy, &real_trace).expect("simulates");
        println!(
            "{:<14} {:>11.0} {:>8} {:>10.0} {:>9.1}",
            policy.label(),
            stats.startup_ms,
            stats.stalls,
            stats.stall_ms,
            stats.waste_ratio() * 100.0
        );
    }
}

fn exp8() {
    header("EXP-8", "multi-session server scalability");
    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);
    let sessions = 1024usize;
    println!(
        "{sessions} random-player sessions (400 steps each), shared immutable \
         content, all in flight at once on the cooperative executor:\n"
    );
    println!("{:<10} {:>12} {:>14}", "scheduler", "wall ms", "sessions/s");
    let factory = |i: usize| Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64))) as Box<dyn Bot>;
    let t0 = Instant::now();
    let report = run_cohort(graph, config, sessions, &factory, 400, 50);
    let wall = ms(t0);
    assert_eq!(report.sessions, sessions);
    println!("{:<10} {:>12.0} {:>14.0}", "executor", wall, sessions as f64 / (wall / 1000.0));
}

fn exp9() {
    header("EXP-9", "knowledge delivery and rewarding: guided vs random players");
    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);
    let n = 200usize;
    let guided = run_cohort(
        graph.clone(),
        config.clone(),
        n,
        &|_| Box::new(GuidedBot::new()) as Box<dyn Bot>,
        120,
        50,
    );
    let explorer = run_cohort(
        graph.clone(),
        config.clone(),
        n,
        &|_| Box::new(vgbl::runtime::ExplorerBot::new()) as Box<dyn Bot>,
        150,
        50,
    );
    let random = run_cohort(
        graph.clone(),
        config.clone(),
        n,
        &|i| Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64))) as Box<dyn Bot>,
        120,
        50,
    );
    println!("{n} sessions per cohort on 'fix the computer':\n");
    println!(
        "{:<18} {:>12} {:>12} {:>12}",
        "metric", "guided", "explorer", "random"
    );
    let g = &guided.learning;
    let e = &explorer.learning;
    let r = &random.learning;
    println!(
        "{:<18} {:>11.1}% {:>11.1}% {:>11.1}%",
        "completion",
        g.completion_rate() * 100.0,
        e.completion_rate() * 100.0,
        r.completion_rate() * 100.0
    );
    println!(
        "{:<18} {:>12.1} {:>12.1} {:>12.1}",
        "avg decisions", g.avg_decisions, e.avg_decisions, r.avg_decisions
    );
    println!(
        "{:<18} {:>12.1} {:>12.1} {:>12.1}",
        "avg knowledge ev.", g.avg_knowledge, e.avg_knowledge, r.avg_knowledge
    );
    println!(
        "{:<18} {:>12.2} {:>12.2} {:>12.2}",
        "avg rewards", g.avg_rewards, e.avg_rewards, r.avg_rewards
    );
    println!(
        "{:<18} {:>12.1} {:>12.1} {:>12.1}",
        "avg score", g.avg_score, e.avg_score, r.avg_score
    );
    println!(
        "{:<18} {:>12.0} {:>12.0} {:>12.0}",
        "avg duration ms", g.avg_duration_ms, e.avg_duration_ms, r.avg_duration_ms
    );

    // Per-scenario dwell time of one guided playthrough (§3.2 analytics).
    let mut bot = GuidedBot::new();
    let run =
        run_session(graph, config, &mut bot, 100, 50, &Obs::noop(), "").expect("session runs");
    println!("\none guided session, time per scenario:");
    for (scenario, t) in run.log.time_per_scenario() {
        println!("  {scenario:<12} {t:>6} ms");
    }
}

fn exp10() {
    header("EXP-10", "persistence round-trip throughput and fidelity");
    println!("{:<22} {:>10} {:>12} {:>12}", "artifact", "bytes", "write ms", "read ms");
    for scenarios in [5usize, 17, 65] {
        let project = vgbl_bench::big_project(scenarios);
        let t0 = Instant::now();
        let text = to_vgp(&project).expect("serialises");
        let w = ms(t0);
        let t1 = Instant::now();
        let back = from_vgp(&text).expect("parses");
        let r = ms(t1);
        assert_eq!(back.graph, project.graph, "fidelity");
        println!(
            "{:<22} {:>10} {:>12.2} {:>12.2}",
            format!(".vgp {} scenarios", project.graph.len()),
            text.len(),
            w,
            r
        );
    }
    let footage = bench_footage(96, 64, 4, 10);
    let video = encode(&footage, 15, Quality::High, 2);
    let t0 = Instant::now();
    let bytes = ContainerWriter::write(&video);
    let w = ms(t0);
    let t1 = Instant::now();
    let back = ContainerReader::read(&bytes).expect("parses");
    let r = ms(t1);
    assert_eq!(back, video, "fidelity");
    println!(
        "{:<22} {:>10} {:>12.2} {:>12.2}",
        format!(".vgv {} frames", video.len()),
        bytes.len(),
        w,
        r
    );
}

fn exp11() {
    header("EXP-11", "shared decoded-GOP cache: seek latency and cohort decode reuse");
    use vgbl::media::cache::{GopCache, VideoId};
    use vgbl::media::seek::seek_cached;
    use vgbl::runtime::server::run_playback_cohort;

    let footage = bench_footage(96, 64, 6, 3);
    let video = encode(&footage, 15, Quality::High, 2);
    let dec = Decoder::default();
    let id = VideoId::of(&video);
    let targets: Vec<usize> = (0..32).map(|i| (i * 37) % video.len()).collect();

    println!(
        "{} frames, GOP 15, {} seek targets; capacity 0 = cache disabled\n",
        video.len(),
        targets.len()
    );
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "capacity", "cold ms/seek", "warm ms/seek", "hit rate"
    );
    for cap in [0usize, 2, 8, 32] {
        let cache = GopCache::new(cap);
        let t0 = Instant::now();
        for &t in &targets {
            seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).expect("seeks");
        }
        let cold = ms(t0) / targets.len() as f64;
        // Keep residents, zero the counters: the second pass is the
        // steady state a looping player sits in.
        cache.reset_counters();
        let t1 = Instant::now();
        for &t in &targets {
            seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).expect("seeks");
        }
        let warm = ms(t1) / targets.len() as f64;
        println!(
            "{:<10} {:>14.3} {:>14.3} {:>9.0}%",
            cap,
            cold,
            warm,
            cache.stats().hit_rate() * 100.0
        );
    }

    let table = table_for(&footage);
    let video = Arc::new(video);
    println!("\nplayback cohorts over one shared cache (4 workers, 40 steps/session):\n");
    println!(
        "{:<10} {:<10} {:>13} {:>14} {:>10} {:>10}",
        "sessions", "capacity", "frames srvd", "frames dec.", "hit rate", "wall ms"
    );
    for &sessions in &[8usize, 64, 256] {
        for &cap in &[0usize, 8, 32] {
            let t0 = Instant::now();
            let report = run_playback_cohort(
                video.clone(),
                &table,
                Arc::new(GopCache::new(cap)),
                sessions,
                4,
                40,
                &Obs::noop(),
            )
            .0;
            println!(
                "{:<10} {:<10} {:>13} {:>14} {:>9.0}% {:>10.0}",
                sessions,
                cap,
                report.frames_served,
                report.frames_decoded,
                report.reuse.hit_rate() * 100.0,
                ms(t0)
            );
        }
    }
    println!("\nwith a cache that holds the working set, a cohort's total decode");
    println!("work collapses to ~one pass over the video regardless of cohort");
    println!("size; disabled (capacity 0), every session pays for every GOP.");
}

fn exp12() {
    header("EXP-12", "resilience: stream/playback quality vs injected loss");
    use vgbl::media::GopChecksums;
    use vgbl::runtime::{PlaybackController, ResilienceReport};
    use vgbl::stream::{simulate_faulty, FaultPlan, FaultyLink, RetryPolicy};

    let footage = bench_footage(96, 64, 12, 7);
    let video = encode(&footage, 5, Quality::Medium, 2);
    let table = table_for(&footage);
    let map = ChunkMap::build(&video, &table).expect("chunks");
    let n = table.len() as u32;
    // A hub-and-rooms trace that tours every room, so the sweep touches
    // every chunk of the stream.
    let all: Vec<SegmentId> = (1..n).map(SegmentId).collect();
    let mut trace = Vec::new();
    for room in 1..n {
        trace.push(TraceStep {
            segment: SegmentId(0),
            watch_ms: 1500.0,
            branch_targets: all.clone(),
        });
        trace.push(TraceStep {
            segment: SegmentId(room),
            watch_ms: 2000.0,
            branch_targets: vec![SegmentId(0)],
        });
    }
    println!(
        "{} frames in {} segments, {} chunks toured per run\n",
        video.len(),
        table.len(),
        map.len()
    );
    let policy = PrefetchPolicy::BranchAware { per_branch: 1 };
    // One unobserved session over a 2 Mbit/s link faulted per `plan`.
    let session = |plan, retry: &RetryPolicy| {
        let link = FaultyLink::new(LinkModel::mbps(2.0, 30.0).expect("valid link"), plan);
        simulate_faulty(&map, &link, policy, retry, None, &trace, &Obs::noop(), String::new())
    };

    // Loss sweep with the default retry budget (3 retries, capped
    // exponential backoff): every lost chunk is recovered within the
    // budget, so degradation is pure rebuffering, never concealment.
    println!("2 Mbit/s link, default retry budget (3 retries, 250 ms base deadline):\n");
    println!(
        "{:<8} {:>11} {:>8} {:>10} {:>8} {:>9} {:>8} {:>11} {:>11}",
        "loss", "startup ms", "stalls", "stall ms", "retries", "timeouts", "gave up", "conceal ms", "delivery %"
    );
    let mut sweep = Vec::new();
    for loss in [0.0, 0.001, 0.01, 0.05] {
        let plan = FaultPlan::new(42).with_loss(loss).expect("valid rate");
        let report = session(plan, &RetryPolicy::default()).expect("faulty stream completes");
        let s = report.stats;
        println!(
            "{:<8} {:>11.0} {:>8} {:>10.0} {:>8} {:>9} {:>8} {:>11.0} {:>10.1}%",
            format!("{:.1}%", loss * 100.0),
            s.startup_ms,
            s.stalls,
            s.stall_ms,
            s.retries,
            s.timeouts,
            s.gave_up,
            s.conceal_ms,
            s.delivery_ratio() * 100.0
        );
        if loss <= 0.01 {
            assert_eq!(s.gave_up, 0, "≤1% loss recovers every chunk in budget");
        }
        sweep.push(report);
    }

    // The same 5% loss with the retry budget removed: chunks that are
    // lost once are abandoned and concealed — playback still completes.
    let tight = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
    let plan = FaultPlan::new(42).with_loss(0.05).expect("valid rate");
    let report = session(plan, &tight).expect("still completes");
    println!(
        "\n5% loss with the retry budget removed (max_retries = 0): {} of {} chunks\nconcealed as freeze-frame ({:.0} ms), delivery ratio {:.1}% — the stream\ndegrades, it does not fail.",
        report.concealed.len(),
        report.concealed.len() + report.delivered.len(),
        report.stats.conceal_ms,
        report.stats.delivery_ratio() * 100.0
    );
    assert!(!report.concealed.is_empty(), "no-retry 5% loss conceals");

    // Determinism: same seed + same plan ⇒ byte-identical StreamStats
    // and ResilienceReport.
    let again: Vec<_> = [0.0, 0.001, 0.01, 0.05]
        .iter()
        .map(|&loss| {
            let plan = FaultPlan::new(42).with_loss(loss).expect("valid rate");
            session(plan, &RetryPolicy::default()).expect("faulty stream completes")
        })
        .collect();
    let stats: Vec<_> = sweep.iter().map(|r| r.stats).collect();
    let stats2: Vec<_> = again.iter().map(|r| r.stats).collect();
    let resilience = ResilienceReport::from_sessions(&stats, &[]);
    let resilience2 = ResilienceReport::from_sessions(&stats2, &[]);
    assert_eq!(sweep, again, "same seed + plan ⇒ byte-identical reports");
    assert_eq!(resilience, resilience2);
    println!(
        "\nreplayed the sweep with the same seeds: StreamStats and the\naggregated ResilienceReport are byte-identical across runs\n(cohort: {} sessions, {} retries, {} timeouts, avg delivery {:.1}%).",
        resilience.sessions,
        resilience.retries,
        resilience.timeouts,
        resilience.avg_delivery_ratio * 100.0
    );

    // Bit-exactness on delivered frames: damage one GOP in storage, play
    // with integrity verification on — the damaged GOP is concealed, and
    // every other frame matches the pristine decode bit-for-bit.
    let reference = Decoder::default().decode_all(&video).expect("pristine decode").frames;
    let sums = GopChecksums::build(&video);
    let keys = video.keyframes();
    let keyframe = keys[2];
    let gop_end = keys.get(3).copied().unwrap_or(video.len());
    let mut damaged = video.clone();
    for b in &mut damaged.frames_mut()[keyframe].data {
        *b ^= 0xA5;
    }
    let mut player = PlaybackController::new(damaged, table.clone(), SegmentId(0))
        .expect("player builds")
        .with_integrity(sums);
    let mut exact = 0usize;
    let mut concealed = 0usize;
    for sid in 0..table.len() as u32 {
        player.switch_segment(SegmentId(sid)).expect("switch never errors");
        let len = player.current_segment().len();
        for off in 0.. {
            let abs = player.absolute_frame();
            let got = player.current_frame().expect("playback never errors");
            if got == reference[abs] {
                exact += 1;
            } else {
                assert!((keyframe..gop_end).contains(&abs), "only the damaged GOP diverges");
                concealed += 1;
            }
            if off + 1 == len {
                break;
            }
            while player.advance_ms(7) == 0 {}
        }
    }
    println!(
        "\none GOP damaged in storage: {exact} of {} frames bit-exact with the\npristine decode, {concealed} concealed by freeze-frame, zero errors.",
        reference.len()
    );
    assert_eq!(exact + concealed, reference.len());
    assert!(concealed > 0, "the damaged GOP is concealed, not decoded");

    // Fault isolation in the cohort server: one deliberately panicking
    // bot among 64 sessions is one Failed row, not a crashed cohort.
    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the demo's output clean
    let report = run_cohort(
        graph,
        config,
        64,
        &|i| {
            if i == 17 {
                Box::new(PanicBot)
            } else {
                Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64)))
            }
        },
        60,
        40,
    );
    std::panic::set_hook(prev_hook);
    println!(
        "\n64-session cohort with one deliberately panicking bot: {} completed,\n{} failed (row 17: {:?}) — the cohort call still returned its report.",
        report.sessions,
        report.failed,
        report.outcomes[17]
    );
    assert_eq!((report.sessions, report.failed), (63, 1));
}

fn exp13() {
    header("EXP-13", "observability: instrumented cohort profile, counters vs reports");
    use vgbl::media::cache::GopCache;
    use vgbl::runtime::server::run_playback_cohort;
    use vgbl::runtime::ResilienceReport;
    use vgbl::stream::{simulate_faulty, FaultPlan, FaultyLink, RetryPolicy};

    // One instrumented run: a playback cohort decoding through an
    // observed shared cache, then a faulty-streaming sweep, all into a
    // single recording `Obs`. Returns the report triple plus the four
    // deterministic exports.
    let profile = || {
        let obs = Obs::recording();

        // Pillar 1+3: playback cohort over an observed shared cache.
        let footage = bench_footage(96, 64, 6, 3);
        let video = Arc::new(encode(&footage, 15, Quality::High, 2));
        let table = table_for(&footage);
        // One worker: with parallel workers the *split* of cache traffic
        // (which session coalesces onto whose decode) is scheduling-
        // dependent, and this experiment pins byte-identical exports.
        // EXP-11 covers the multi-worker scaling story.
        let cache = Arc::new(GopCache::new(32).observed(&obs));
        let playback = run_playback_cohort(
            video.clone(),
            &table,
            cache.clone(),
            24,
            1,
            40,
            &obs,
        )
        .0;

        // Pillar 2: streaming under injected loss, one observed session
        // per loss rate.
        let sfootage = bench_footage(96, 64, 12, 7);
        let svideo = encode(&sfootage, 5, Quality::Medium, 2);
        let stable = table_for(&sfootage);
        let map = ChunkMap::build(&svideo, &stable).expect("chunks");
        let n = stable.len() as u32;
        let all: Vec<SegmentId> = (1..n).map(SegmentId).collect();
        let mut trace = Vec::new();
        for room in 1..n {
            trace.push(TraceStep {
                segment: SegmentId(0),
                watch_ms: 1500.0,
                branch_targets: all.clone(),
            });
            trace.push(TraceStep {
                segment: SegmentId(room),
                watch_ms: 2000.0,
                branch_targets: vec![SegmentId(0)],
            });
        }
        let policy = PrefetchPolicy::BranchAware { per_branch: 1 };
        let mut stream_stats = Vec::new();
        for (i, &loss) in [0.0, 0.01, 0.05].iter().enumerate() {
            let plan = FaultPlan::new(42).with_loss(loss).expect("valid rate");
            let link = FaultyLink::new(LinkModel::mbps(2.0, 30.0).expect("valid link"), plan);
            let report = simulate_faulty(
                &map,
                &link,
                policy,
                &RetryPolicy::default(),
                None,
                &trace,
                &obs,
                format!("stream-{i:04}"),
            )
            .expect("faulty stream completes");
            stream_stats.push(report.stats);
        }
        let resilience = ResilienceReport::from_sessions(&stream_stats, &[]);

        let snap = obs.snapshot();
        let exports =
            (snap.to_table(), snap.metrics_csv(), snap.spans_csv(), snap.to_jsonl());
        (playback, resilience, snap, exports)
    };

    let (playback, resilience, snap, exports) = profile();

    // The profile itself — the text-table export is the artefact.
    println!("{}", exports.0);

    // Counters vs reports: the obs layer accumulates at the same event
    // sites but through an entirely separate path, so exact agreement
    // is genuine redundancy, not one number printed twice.
    assert_eq!(snap.counter_total("cohort.sessions_completed"), playback.sessions as u64);
    assert_eq!(snap.counter_total("cohort.sessions_failed"), playback.failed as u64);
    assert_eq!(snap.counter_total("playback.frames_served"), playback.frames_served as u64);
    assert_eq!(snap.counter_total("playback.frames_decoded"), playback.frames_decoded as u64);
    assert_eq!(snap.counter_total("playback.switches"), playback.switches as u64);
    assert_eq!(snap.counter_total("cache.hits"), playback.reuse.hits);
    assert_eq!(snap.counter_total("cache.misses"), playback.reuse.misses);
    assert_eq!(snap.counter_total("cache.evictions"), playback.reuse.evictions);
    assert_eq!(
        snap.span_count("render") + snap.span_count("switch"),
        playback.frames_served,
        "one render/switch event per served frame"
    );
    assert_eq!(snap.counter_total("fetch.retries"), resilience.retries as u64);
    assert_eq!(snap.counter_total("fetch.timeouts"), resilience.timeouts as u64);
    assert_eq!(snap.counter_total("fetch.gave_up"), resilience.gave_up as u64);
    println!(
        "cross-check: every obs counter equals its report twin exactly —\n\
         playback ({} served / {} decoded / {} switches), cache ({} hits /\n\
         {} misses), streaming ({} retries / {} timeouts / {} gave up).",
        playback.frames_served,
        playback.frames_decoded,
        playback.switches,
        playback.reuse.hits,
        playback.reuse.misses,
        resilience.retries,
        resilience.timeouts,
        resilience.gave_up,
    );

    // Determinism: the whole instrumented run again, byte-for-byte.
    let (_, _, _, exports2) = profile();
    assert_eq!(exports, exports2, "identical runs ⇒ byte-identical exports");
    println!(
        "\nreplayed the instrumented run: text table, metrics CSV, spans CSV\n\
         and JSON-lines exports are byte-identical ({} metric rows, {} traces).",
        snap.metrics.len(),
        snap.traces.len()
    );
}

fn exp14() {
    header("EXP-14", "supervised sessions: overload, circuit breaking, crash recovery");
    use vgbl::runtime::save::SaveGame;
    use vgbl::runtime::supervisor::{
        resume_session, run_supervised_cohort, ArrivalPlan, SupervisorConfig,
    };
    use vgbl::stream::{FaultPlan, LoadSpike};

    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);

    // Part 1: the overload sweep — arrival rate × queue capacity. Every
    // cell satisfies the accounting identity exactly; nothing is lost
    // between the admission queue and the outcome rows.
    println!("overload sweep: 48 guided sessions on 2 slots.\n");
    println!(
        "{:<8} {:>9} {:>6} {:>9} {:>10} {:>13}",
        "gap ms", "capacity", "shed", "degraded", "completed", "p99 wait ms"
    );
    for &gap in &[400.0, 40.0, 4.0] {
        for &cap in &[2usize, 8] {
            let sup = SupervisorConfig {
                queue_capacity: cap,
                slots: 2,
                queue_deadline_ms: 3_000.0,
                step_ms: 50.0,
                ..SupervisorConfig::default()
            };
            let arrivals = ArrivalPlan::new(0xE14, gap).expect("positive mean gap");
            let report = run_supervised_cohort(
                graph.clone(),
                config.clone(),
                &sup,
                48,
                &|_, _| Box::new(GuidedBot::new()),
                &arrivals,
                &Obs::noop(),
                "",
            )
            .expect("supervised cohort runs")
            .0;
            assert!(
                report.accounts_exactly(),
                "admitted = completed + failed + recovered + gave_up must hold: {report:?}"
            );
            println!(
                "{:<8} {:>9} {:>6} {:>9} {:>10} {:>13.1}",
                gap, cap, report.shed, report.degraded, report.completed,
                report.queue_wait.p99_ms
            );
        }
    }

    // Part 2: a stampede with transient crashes. Every third session
    // panics after its sixth decision on the first incarnation; the
    // supervisor restarts it from the last checkpoint. Warm fetches run
    // over a lossy link behind the shared circuit breaker.
    let factory = |i: usize, incarnation: u32| -> Box<dyn Bot> {
        if i % 3 == 1 && incarnation == 0 {
            Box::new(CrashAfter { inner: GuidedBot::new(), at: 6, seen: 0 })
        } else {
            Box::new(GuidedBot::new())
        }
    };
    let profile = || {
        let obs = Obs::recording();
        let sup = SupervisorConfig {
            queue_capacity: 4,
            slots: 2,
            step_ms: 80.0,
            checkpoint_every: 5,
            warm_faults: FaultPlan::new(0xFEED)
                .with_loss(0.4)
                .expect("valid rate")
                .with_load_spike(LoadSpike::new(0.0, 500.0, 2.0).expect("valid spike")),
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(9, 20.0)
            .expect("positive mean gap")
            .with_spike(LoadSpike::new(0.0, 200.0, 3.0).expect("valid spike"));
        let report = run_supervised_cohort(
            graph.clone(),
            config.clone(),
            &sup,
            24,
            &factory,
            &arrivals,
            &obs,
            "exp14",
        )
        .expect("supervised cohort runs")
        .0;
        let snap = obs.snapshot();
        let exports = (snap.to_table(), snap.metrics_csv(), snap.spans_csv(), snap.to_jsonl());
        (sup, report, snap, exports)
    };
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the injected panics quiet
    let (sup, report, snap, exports) = profile();
    let (_, report2, _, exports2) = profile();
    std::panic::set_hook(prev_hook);

    assert!(report.accounts_exactly(), "{report:?}");
    assert!(report.shed > 0, "the spike must shed: {report:?}");
    assert!(report.degraded > 0, "the spike must degrade before shedding");
    assert!(report.recovered >= 1, "at least one session recovers from a checkpoint");
    println!(
        "\nspiked stampede (24 arrivals, queue 4, 2 slots, every 3rd bot crashing):\n\
         {} admitted = {} completed + {} failed + {} recovered + {} gave up;\n\
         {} shed, {} degraded, {} restarts, peak queue {},\n\
         breaker: {} trips / {} fast failures, warm fetches {} sent / {} skipped.",
        report.admitted,
        report.completed,
        report.failed,
        report.recovered,
        report.gave_up,
        report.shed,
        report.degraded,
        report.restarts,
        report.peak_queue_depth,
        report.breaker.trips,
        report.breaker.fast_failures,
        report.warm_attempted,
        report.warm_skipped,
    );

    // The recovery audit trail: restore the recorded checkpoint,
    // re-drive the final incarnation's bot, and the post-restore log
    // tail must replay bit-identically.
    let r = &report.recoveries[0];
    let save = SaveGame::from_text(r.checkpoint.as_ref().expect("crashed past a checkpoint"))
        .expect("checkpoint text parses");
    let mut bot = factory(r.session, r.restarts);
    let replay = resume_session(
        graph.clone(),
        config.clone(),
        &save,
        &mut *bot,
        r.resumed_at_step,
        sup.max_steps,
        sup.tick_ms,
    )
    .expect("recorded checkpoint resumes");
    assert_eq!(replay.log.events(), r.tail.as_slice(), "post-restore tail replays exactly");
    println!(
        "\nrecovery cross-check: session {} resumed at step {} after {} restart(s);\n\
         replaying its checkpoint reproduces all {} post-restore log events bit-identically.",
        r.session,
        r.resumed_at_step,
        r.restarts,
        r.tail.len()
    );

    // Counters vs report: the obs layer counts at the same sites but
    // through a separate path, so exact agreement is real redundancy.
    assert_eq!(snap.counter_total("supervisor.admitted"), report.admitted as u64);
    assert_eq!(snap.counter_total("supervisor.shed"), report.shed as u64);
    assert_eq!(snap.counter_total("supervisor.degraded"), report.degraded as u64);
    assert_eq!(snap.counter_total("supervisor.completed"), report.completed as u64);
    assert_eq!(snap.counter_total("supervisor.recovered"), report.recovered as u64);
    assert_eq!(snap.counter_total("supervisor.failed"), report.failed as u64);
    assert_eq!(snap.counter_total("supervisor.gave_up"), report.gave_up as u64);
    assert_eq!(snap.counter_total("supervisor.restarts"), report.restarts);
    assert_eq!(
        snap.gauge_max("supervisor.queue_depth_peak"),
        report.peak_queue_depth as u64
    );
    let waits = snap.histogram("supervisor.queue_wait_us").expect("histogram recorded");
    assert_eq!(waits.count, report.queue_wait.count as u64);

    // Determinism: the whole supervised run again, byte for byte.
    assert_eq!(report, report2, "identical runs ⇒ identical reports, field for field");
    assert_eq!(exports, exports2, "identical runs ⇒ byte-identical obs exports");
    println!(
        "\nreplayed the whole supervised run: the report and all four obs exports\n\
         (text table, metrics CSV, spans CSV, JSON lines) are byte-identical\n\
         ({} metric rows, {} trace).",
        snap.metrics.len(),
        snap.traces.len()
    );
}

fn exp15() {
    header("EXP-15", "windowed telemetry: SLO-driven ladder, burn-rate alerts, flamegraphs");
    use vgbl::obs::{folded_stacks, hotspot_table, profile_diff, AlertPhase};
    use vgbl::runtime::supervisor::{
        run_supervised_cohort, ArrivalPlan, LadderPolicy, SloLadderConfig, SupervisorConfig,
    };
    use vgbl::stream::{simulate_faulty, FaultPlan, FaultyLink, RetryPolicy};

    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);

    // Part 1: the two degradation ladders under the *same* arrival seed.
    // One slot, a short queue, arrivals paced against the service time,
    // so admission keeps up only if the ladder makes sessions cheaper.
    let ladder = SloLadderConfig {
        shed_budget: 0.005,
        wait_target_ms: 50.0,
        wait_budget: 0.05,
        short_ms: 100.0,
        long_ms: 2_000.0,
        degrade_burn: 1.0,
        conceal_burn: 2.0,
    };
    let run = |policy: LadderPolicy| {
        let obs = Obs::recording();
        let sup = SupervisorConfig {
            queue_capacity: 3,
            slots: 1,
            queue_deadline_ms: 10_000.0,
            step_ms: 100.0,
            ladder: policy,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(2, 700.0).expect("positive mean gap");
        let report = run_supervised_cohort(
            graph.clone(),
            config.clone(),
            &sup,
            32,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &obs,
            "exp15",
        )
        .expect("supervised cohort runs")
        .0;
        let series_csv = obs.series_csv();
        let alerts_csv = report.alerts.to_csv();
        (report, series_csv, alerts_csv)
    };
    let (occ, _, _) = run(LadderPolicy::Occupancy);
    let (slo, slo_series, slo_alerts) = run(LadderPolicy::SloDriven(ladder));

    println!("32 arrivals (seeded plan, mean gap 700 ms) on 1 slot, queue 3:\n");
    println!(
        "{:<12} {:>6} {:>9} {:>10} {:>13} {:>8}",
        "ladder", "shed", "degraded", "completed", "budget spend", "firing"
    );
    for (name, r) in [("occupancy", &occ), ("slo-driven", &slo)] {
        assert!(r.accounts_exactly(), "{r:?}");
        println!(
            "{:<12} {:>6} {:>9} {:>10} {:>13.1} {:>8}",
            name,
            r.shed,
            r.degraded,
            r.completed,
            r.ledgers[0].spend(),
            r.alerts.count(AlertPhase::Firing),
        );
    }
    assert!(occ.shed > 0, "the stampede must overload the occupancy ladder");
    assert!(slo.shed < occ.shed, "burn-rate memory must shed fewer sessions");
    assert!(slo.ledgers[0].spend() <= occ.ledgers[0].spend(), "equal-or-less budget spent");

    // Ledger vs report: the error-budget ledger is computed from the
    // SLO control series, the report from the outcome rows — two
    // independent accumulation paths that must agree exactly.
    for r in [&occ, &slo] {
        assert_eq!(r.ledgers[0].objective, "shed_rate");
        assert_eq!(r.ledgers[0].bad as usize, r.shed, "ledger bad == report shed");
        assert_eq!(r.ledgers[0].total as usize, r.sessions, "ledger total == arrivals");
        assert_eq!(r.ledgers[1].objective, "admission_wait");
        assert_eq!(r.ledgers[1].total as usize, r.admitted, "every admit is measured");
    }
    println!(
        "\nledger cross-check: shed_rate ledger ({}/{} bad, {:.1}x budget) equals the\n\
         report's outcome accounting on both runs; admission_wait measured {} admits.",
        slo.ledgers[0].bad,
        slo.ledgers[0].total,
        slo.ledgers[0].spend(),
        slo.ledgers[1].total,
    );

    // The alert timeline: exact pending -> firing -> resolved instants.
    println!("\nocc-ladder alert timeline ({} transitions):", occ.alerts.events.len());
    for e in occ.alerts.events.iter().take(8) {
        println!("  t={:>10}us {:<16} {:<6} {}", e.t_us, e.objective, e.rule, e.phase.label());
    }
    if occ.alerts.events.len() > 8 {
        println!("  ... {} more", occ.alerts.events.len() - 8);
    }
    assert!(occ.alerts.count(AlertPhase::Firing) > 0, "overspend must fire an alert");
    assert!(!occ.ledgers[0].within_budget(), "occupancy overspends its shed budget");

    // Determinism: the SLO-driven run again, byte for byte — report,
    // windowed-series CSV, and the alert timeline.
    let (slo2, slo_series2, slo_alerts2) = run(LadderPolicy::SloDriven(ladder));
    assert_eq!(slo, slo2, "identical runs => identical reports, field for field");
    assert_eq!(slo_series, slo_series2, "byte-identical series export");
    assert_eq!(slo_alerts, slo_alerts2, "byte-identical alert timeline");
    assert!(slo_series.contains("supervisor.arrivals"), "arrival series tapped");
    assert!(slo_series.contains("supervisor.queue_wait_us"), "wait series tapped");
    println!(
        "\nreplayed the SLO-driven run: report, series CSV ({} bytes) and alert\n\
         timeline CSV ({} bytes) are byte-identical.",
        slo_series.len(),
        slo_alerts.len(),
    );

    // Part 2: flamegraph profiling. A healthy and a lossy streaming
    // session, folded into inferno-format stacks; the diff localises
    // exactly which frames (stall, conceal) the faults inflated.
    let stream_profile = |loss: f64| {
        let obs = Obs::recording();
        let footage = bench_footage(96, 64, 8, 7);
        let video = encode(&footage, 5, Quality::Medium, 2);
        let table = table_for(&footage);
        let map = ChunkMap::build(&video, &table).expect("chunks");
        let n = table.len() as u32;
        let trace: Vec<TraceStep> = (1..n)
            .map(|room| TraceStep {
                segment: SegmentId(room),
                watch_ms: 1500.0,
                branch_targets: vec![SegmentId(0)],
            })
            .collect();
        let plan = FaultPlan::new(0xE15).with_loss(loss).expect("valid rate");
        let link = FaultyLink::new(LinkModel::mbps(2.0, 30.0).expect("valid link"), plan);
        simulate_faulty(
            &map,
            &link,
            PrefetchPolicy::Linear { lookahead: 1 },
            &RetryPolicy::default(),
            None,
            &trace,
            &obs,
            "stream".into(),
        )
        .expect("stream completes");
        obs.snapshot()
    };
    let healthy = stream_profile(0.0);
    let lossy = stream_profile(0.12);
    let folded = folded_stacks(&lossy);
    assert_eq!(folded, folded_stacks(&stream_profile(0.12)), "folded stacks replay exactly");
    println!("\nfolded stacks of the lossy run (inferno format, first 6 lines):");
    for line in folded.lines().take(6) {
        println!("  {line}");
    }
    println!("\n{}", hotspot_table(&lossy, 6));
    let diff = profile_diff(&healthy, &lossy, 1.10);
    assert!(!diff.is_clean(), "injected loss must surface as a profile regression");
    println!("{}", diff.to_table());
}

fn exp17() {
    header("EXP-17", "sharded fleet: hash routing, failure domains, migration, autoscaling");
    use vgbl::runtime::supervisor::{ArrivalPlan, SupervisorConfig};
    use vgbl::runtime::{
        run_fleet, AutoscaleConfig, FleetConfig, FleetRouter, FleetWorkload, MigrationConfig,
        MigrationReason, SessionOutcome, ShardFault, ShardFaultKind,
    };
    use vgbl::stream::LoadSpike;

    // `EXP17_SESSIONS` scales the stampede down for CI smoke runs; the
    // recorded numbers come from the default 1M-arrival run.
    let n: usize = std::env::var("EXP17_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    // Part 1: the consistent-hash router at fleet scale. Two rings built
    // from the same inputs agree on every one of the n keys, load stays
    // near fair share, and removing one shard re-homes roughly 1/8 of
    // the keys and not a single other one.
    let router = FleetRouter::new(0xE17, 64, 8).expect("router builds");
    let replica = FleetRouter::new(0xE17, 64, 8).expect("router builds");
    let mut pruned = router.clone();
    pruned.remove_shard(3);
    let mut counts = [0u64; 8];
    let mut moved = 0u64;
    for k in 0..n as u64 {
        let s = router.route(k).expect("key routes");
        assert_eq!(replica.route(k), Some(s), "independently built rings agree");
        counts[s as usize] += 1;
        let after = pruned.route(k).expect("key routes after removal");
        if s == 3 {
            assert_ne!(after, 3, "key {k} still routes to the removed shard");
            moved += 1;
        } else {
            assert_eq!(after, s, "removal re-homed unrelated key {k}");
        }
    }
    println!(
        "router, {n} keys over 8 shards × 64 vnodes: replicas agree on every key;\n\
         per-shard keys {:?} (fair {});\n\
         removing shard 3 re-homed {moved} keys ({:.2}%, ideal 12.50%) and no others.",
        counts,
        n / 8,
        100.0 * moved as f64 / n as f64
    );

    // Part 2: a seeded synthetic stampede of n arrivals through a
    // degraded link, a stall and a shard crash with the autoscaler on —
    // run twice. The two FleetReports must be equal field for field:
    // every outcome, every migration record, every scale event.
    let stampede = FleetConfig {
        shards: 4,
        vnodes: 32,
        shard: SupervisorConfig {
            queue_capacity: 64,
            queue_deadline_ms: 1e9,
            slots: 6,
            step_ms: 1.0,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        },
        control_interval_ms: 100.0,
        // SLO drains stay out of the headline run (any shed blows the
        // 0.5% budget and a drain under overload only sheds capacity);
        // the crash exercises migration, the autoscaler absorbs load.
        migration: MigrationConfig {
            burn_threshold: 1e12,
            sustain_ticks: 10,
            max_drain_occupancy: f64::INFINITY,
        },
        faults: vec![
            ShardFault { at_ms: 50.0, shard: 2, kind: ShardFaultKind::DegradedLink { loss: 0.9 } },
            ShardFault {
                at_ms: 100.0,
                shard: 1,
                kind: ShardFaultKind::Stall { duration_ms: 200.0 },
            },
            ShardFault { at_ms: 150.0, shard: 0, kind: ShardFaultKind::Crash },
        ],
        autoscale: Some(AutoscaleConfig {
            up_burn: 2.0,
            down_burn: 0.25,
            sustain_ticks: 1,
            cooldown_ms: 300.0,
            min_shards: 2,
            max_shards: 8,
        }),
        ..FleetConfig::default()
    };
    let synthetic = FleetWorkload::Synthetic { mean_segments: 4 };
    let arrivals = ArrivalPlan::new(9, 2.0)
        .expect("positive mean gap")
        .with_spike(LoadSpike::new(0.0, 2_000.0, 2.0).expect("valid spike"));
    let t0 = Instant::now();
    let a = run_fleet(&synthetic, &stampede, n, &arrivals).expect("fleet runs");
    let wall = t0.elapsed();
    let b = run_fleet(&synthetic, &stampede, n, &arrivals).expect("fleet runs");
    assert_eq!(a, b, "same seeds, same faults ⇒ byte-identical FleetReport");
    assert!(a.accounts_exactly(), "every arrival must land in exactly one outcome row");
    let ups = a.scale_events.iter().filter(|e| e.up).count();
    let downs = a.scale_events.len() - ups;
    for w in a.scale_events.windows(2) {
        assert!(w[1].at_ms - w[0].at_ms >= 300.0 - 1e-9, "autoscale cooldown violated");
    }
    println!(
        "\nstampede, {n} seeded arrivals (spiked ×2 early) through crash + stall +\n\
         degraded link, autoscaler 2..8 shards: completed {} / recovered {} / shed {},\n\
         {} migrations, {} scale events ({ups} up / {downs} down, cooldown respected),\n\
         makespan {:.0} ms simulated in {:.2} s wall; the rerun report is byte-identical.",
        a.completed,
        a.recovered,
        a.shed,
        a.migrations.len(),
        a.scale_events.len(),
        a.makespan_ms,
        wall.as_secs_f64()
    );

    // Part 3: kill one of eight shards mid-stampede on the real engine.
    // Every session that crashed past a checkpoint migrates; the
    // handed-off checkpoint restores to the exact canonical bytes and a
    // shadow replay of it must match the session's post-migration log
    // tail. Sessions caught before their first checkpoint are shed with
    // an explicit reason — nothing is lost silently.
    let graph = Arc::new(fixtures::fix_the_computer());
    let config = SessionConfig::for_frame(fixtures::FRAME.0, fixtures::FRAME.1);
    let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
    let engine = FleetWorkload::Engine { graph, config, factory: &factory };
    let kill = FleetConfig {
        shards: 8,
        vnodes: 32,
        shard: SupervisorConfig {
            queue_capacity: 16,
            queue_deadline_ms: 1e9,
            slots: 2,
            step_ms: 50.0,
            checkpoint_every: 3,
            ..SupervisorConfig::default()
        },
        migration: MigrationConfig {
            burn_threshold: 1e12,
            sustain_ticks: 10,
            max_drain_occupancy: f64::INFINITY,
        },
        faults: vec![ShardFault { at_ms: 400.0, shard: 2, kind: ShardFaultKind::Crash }],
        ..FleetConfig::default()
    };
    let arrivals = ArrivalPlan::new(5, 1.0).expect("positive mean gap");
    let report = run_fleet(&engine, &kill, 64, &arrivals).expect("fleet runs");
    assert!(report.accounts_exactly(), "zero silent loss: {report:?}");
    assert!(!report.migrations.is_empty(), "the crash must catch sessions in flight");
    for m in &report.migrations {
        assert_eq!(m.reason, MigrationReason::Crash, "only the crash migrates here: {m:?}");
        assert_eq!(m.from, 2, "every migration leaves the killed shard: {m:?}");
        assert_eq!(m.handoff_ok, Some(true), "handoff digest mismatch: {m:?}");
        assert_ne!(m.verified, Some(false), "post-migration replay diverged: {m:?}");
    }
    let crash_migrations = report.migrations.len();
    let verified = report.migrations.iter().filter(|m| m.verified == Some(true)).count();
    assert!(verified >= 1, "at least one migration replay-verifies: {:?}", report.migrations);
    let early_sheds = report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o, SessionOutcome::Shed { reason }
                if reason == "shard crashed before first checkpoint")
        })
        .count();
    println!(
        "\nkill 1-of-8 (engine sessions, crash at 400 ms): 64 arrivals →\n\
         {} completed, {} recovered, {} shed ({} of those caught pre-checkpoint);\n\
         {} migration(s), {} for the crash, all handoffs digest-identical,\n\
         {} replay-verified against the handed-off checkpoint, none diverged.",
        report.completed, report.recovered, report.shed, early_sheds,
        report.migrations.len(), crash_migrations, verified
    );

    // Part 4: failure domains contain the blast radius. Same total
    // capacity (4 slots, 16 queue seats), same arrivals, same crash
    // instant: the fleet loses a quarter of its capacity, the single
    // big shard loses everything — so the fleet must shed strictly
    // less.
    let sharded = FleetConfig {
        shards: 4,
        vnodes: 32,
        shard: SupervisorConfig {
            queue_capacity: 4,
            queue_deadline_ms: 1e9,
            slots: 1,
            step_ms: 10.0,
            ..SupervisorConfig::default()
        },
        faults: vec![ShardFault { at_ms: 120.0, shard: 1, kind: ShardFaultKind::Crash }],
        ..FleetConfig::default()
    };
    let single = FleetConfig {
        shards: 1,
        vnodes: 32,
        shard: SupervisorConfig {
            queue_capacity: 16,
            queue_deadline_ms: 1e9,
            slots: 4,
            step_ms: 10.0,
            ..SupervisorConfig::default()
        },
        faults: vec![ShardFault { at_ms: 120.0, shard: 0, kind: ShardFaultKind::Crash }],
        ..FleetConfig::default()
    };
    let burst = FleetWorkload::Synthetic { mean_segments: 3 };
    let burst_arrivals = ArrivalPlan::new(29, 2.0).expect("positive mean gap");
    let fleet = run_fleet(&burst, &sharded, 2_000, &burst_arrivals).expect("fleet runs");
    let solo = run_fleet(&burst, &single, 2_000, &burst_arrivals).expect("fleet runs");
    assert!(fleet.accounts_exactly() && solo.accounts_exactly());
    assert_eq!(solo.routable_shards, 0, "the single shard was the whole fleet");
    assert!(
        fleet.shed < solo.shed,
        "failure domains must contain the blast radius: fleet shed {} vs single {}",
        fleet.shed,
        solo.shed
    );
    println!(
        "\nblast radius, 2000 arrivals at equal total capacity, crash at 120 ms:\n\
         4×1-slot fleet shed {} (completed {}), 1×4-slot monolith shed {} (completed {})\n\
         — the fleet sheds strictly less because three failure domains survive.",
        fleet.shed, fleet.completed, solo.shed, solo.completed
    );
}

fn exp18() {
    header("EXP-18", "cooperative executor: 10k+ in-flight sessions, batched chunk I/O");
    use vgbl::media::cache::GopCache;
    use vgbl::runtime::server::run_playback_cohort;

    // `EXP18_SESSIONS` scales the cohort down for CI smoke runs; the
    // recorded numbers come from the default 12k-session run.
    let n: usize = std::env::var("EXP18_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_000);

    let footage = bench_footage(96, 64, 6, 3);
    let video = Arc::new(encode(&footage, 15, Quality::High, 2));
    let table = table_for(&footage);

    // One executor hosts the whole cohort. Every session joins
    // the run queue on the first tick and yields at each fetch boundary
    // until its final serve, so the scheduler's high-water mark must be
    // the full cohort — n sessions in flight at once on one shard, no
    // OS threads per session.
    let run = || {
        run_playback_cohort(
            video.clone(),
            &table,
            Arc::new(GopCache::new(64)),
            n,
            4,
            30,
            &Obs::noop(),
        )
    };
    let t0 = Instant::now();
    let (report, stats) = run();
    let wall = t0.elapsed();
    assert_eq!(report.outcomes.len(), n, "every session gets an outcome row");
    assert_eq!(report.failed, 0, "healthy cohort");
    assert!(
        stats.peak_in_flight >= n,
        "all {n} sessions must be in flight at once (peak {})",
        stats.peak_in_flight
    );
    let (report2, stats2) = run();
    assert_eq!(
        format!("{report:?}"),
        format!("{report2:?}"),
        "same seed ⇒ byte-identical cohort report"
    );
    assert_eq!(stats, stats2, "same seed ⇒ identical scheduler counters");
    println!(
        "{n} playback sessions on one executor: peak in-flight {}, {} ticks,\n\
         {} polls, {} fetch batches covering {} coalesced GOP keys,\n\
         {} frames served / {} decoded in {:.2} s wall; rerun byte-identical.",
        stats.peak_in_flight,
        stats.ticks,
        stats.polls,
        stats.batches,
        stats.batched_keys,
        report.frames_served,
        report.frames_decoded,
        wall.as_secs_f64()
    );
}

fn exp19() {
    header("EXP-19", "durable store: fleet-wide power loss, seeded disk faults, chaos");
    use vgbl::runtime::chaos::{run_chaos, ChaosConfig};
    use vgbl::runtime::supervisor::{ArrivalPlan, SupervisorConfig};
    use vgbl::runtime::{run_fleet, FleetConfig, FleetWorkload, MigrationConfig, SessionOutcome};
    use vgbl::store::{DiskFaultPlan, StoreConfig};

    // `EXP19_SESSIONS` scales the fleets down for CI smoke runs; the
    // recorded numbers come from the default 50k-arrival runs.
    let n: usize = std::env::var("EXP19_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);

    // A provisioned fleet (service keeps up with the 2 ms arrival gaps)
    // so the power losses hit a fleet that is busy, not drowning, and a
    // snapshot cadence that scales with the fleet — the compacted
    // snapshot writes one record per session ever acked, so a cadence
    // tuned for a 10-session test is quadratic at 50k.
    let base = |m: usize, losses: Vec<f64>, store: StoreConfig| FleetConfig {
        shards: 4,
        vnodes: 64,
        router_seed: 0xE19,
        shard: SupervisorConfig {
            queue_capacity: m.max(16),
            queue_deadline_ms: 1e9,
            slots: 6,
            step_ms: 1.0,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        },
        // As in EXP-17: SLO drains stay out of the headline run — a
        // drain retires capacity, and this experiment is about storage
        // durability, not overload policy.
        migration: MigrationConfig {
            burn_threshold: 1e12,
            sustain_ticks: 10,
            max_drain_occupancy: f64::INFINITY,
        },
        store: Some(store),
        power_loss_at_ms: losses,
        ..FleetConfig::default()
    };
    // Arrivals at 4 ms mean gaps: below the warmed fleet's service
    // rate, so the losses hit in-flight work rather than a backlog.
    // `m` sessions arrive over ~4m ms; loss times are fractions of m.
    let workload = FleetWorkload::Synthetic { mean_segments: 5 };
    let arrivals = ArrivalPlan::new(0xE19, 4.0).expect("positive mean gap");

    // Part 1: disks are durable, the fleet is not. Two whole-fleet
    // power losses vaporise every shard's memory mid-run; every session
    // with an acknowledged checkpoint must come back and finish, so
    // `lost_durable` is exactly zero and the only honest sheds are
    // sessions that never reached their first flush.
    let clean = base(
        n,
        vec![n as f64, 2.5 * n as f64],
        StoreConfig {
            snapshot_every: 1024,
            dual_write: false,
            faults: DiskFaultPlan::new(0xE19_C1EA),
        },
    );
    let t0 = Instant::now();
    let a = run_fleet(&workload, &clean, n, &arrivals).expect("fleet runs");
    let wall = t0.elapsed();
    assert!(a.accounts_exactly(), "accounting identity must hold");
    let d = a.durability.as_ref().expect("store configured");
    assert_eq!(a.lost_durable, 0, "clean disks lose nothing acked");
    assert!(d.lost.is_empty() && d.scrubs.iter().all(|s| s.lost.is_empty()));
    assert_eq!(d.scrubs.len(), 2, "one scrub per power loss");
    for o in &a.outcomes {
        if let SessionOutcome::Shed { reason } = o {
            assert_eq!(reason, "power loss before first durable checkpoint");
        }
    }
    let b = run_fleet(&workload, &clean, n, &arrivals).expect("fleet runs");
    assert_eq!(a, b, "same seed ⇒ byte-identical FleetReport, scrubs and all");
    println!(
        "clean disks, {n} sessions, 2 whole-fleet power losses:\n\
         completed {} / recovered {} (cold {}) / shed {} / lost_durable {},\n\
         {} WAL appends, {} acked, {} cold resumes ({} stale) in {:.2} s wall;\n\
         every shed is 'power loss before first durable checkpoint'; rerun byte-identical.",
        a.completed,
        a.recovered,
        a.recovered_cold,
        a.shed,
        a.lost_durable,
        d.store.appended,
        d.store.acked_records,
        d.cold_resumed,
        d.stale_resumes,
        wall.as_secs_f64()
    );

    // Part 2: the loss/corruption sweep. Torn writes and bit rot at
    // increasing rates, with and without dual-write; every session the
    // fleet sheds as lost must be attributed to a specific corrupt
    // record, and the identity `lost_durable == |durability.lost|`
    // holds in every cell. Dual-write never does worse than single.
    println!("\nfault sweep, {} sessions per cell (torn+rot at equal rates):", n / 5);
    println!("  rate    dual-write   recovered(cold)   lost_durable   repaired   sheds");
    for &rate in &[0.1, 0.3, 0.6] {
        let mut row = [0usize; 2];
        for (di, &dual) in [false, true].iter().enumerate() {
            let m = n / 5;
            // Six losses spread across the cell's arrival window, so
            // each cell suffers repeated cold restarts mid-flight.
            let losses = (1..=6).map(|k| 0.5 * k as f64 * m as f64).collect();
            let faulty = base(
                m,
                losses,
                StoreConfig {
                    snapshot_every: 1024,
                    dual_write: dual,
                    faults: DiskFaultPlan::new(0xE19_BAD)
                        .with_torn_writes(rate)
                        .and_then(|p| p.with_bit_rot(rate))
                        .expect("valid rates"),
                },
            );
            let r = run_fleet(&workload, &faulty, m, &arrivals).expect("fleet runs");
            assert!(r.accounts_exactly(), "identity must hold under faults");
            let d = r.durability.as_ref().expect("store configured");
            assert_eq!(r.lost_durable, d.lost.len(), "every loss attributed to a record");
            let corrupt_sheds = r
                .outcomes
                .iter()
                .filter(|o| {
                    matches!(o, SessionOutcome::Shed { reason }
                        if reason == "cold restart: durable checkpoint corrupt")
                })
                .count();
            assert_eq!(corrupt_sheds, r.lost_durable, "shed rows match attributed losses");
            let repaired: usize = d.scrubs.iter().map(|s| s.repaired.len()).sum();
            row[di] = r.lost_durable;
            println!(
                "  {rate:<7} {:<12} {:>8} ({:<4})   {:>12}   {repaired:>8}   {:>5}",
                if dual { "on" } else { "off" },
                r.recovered,
                r.recovered_cold,
                r.lost_durable,
                r.shed
            );
        }
        assert!(row[1] <= row[0], "dual-write must never lose more than single-copy");
    }

    // Part 3: the chaos orchestrator composes shard crashes, stalls,
    // degraded links and power losses over one clock, runs the fleet
    // twice, and machine-checks the invariants: exact accounting, no
    // dual outcomes, no unattributed acked loss, byte-identical rerun.
    let campaign = ChaosConfig {
        seed: 0xE19_CA05,
        sessions: (n / 50).max(200),
        crashes: 2,
        stalls: 1,
        degraded_links: 1,
        power_losses: 2,
        store: StoreConfig {
            snapshot_every: 8,
            dual_write: true,
            faults: DiskFaultPlan::new(0xE19_CA05)
                .with_torn_writes(0.4)
                .and_then(|p| p.with_bit_rot(0.3))
                .and_then(|p| p.with_lost_flushes(0.2))
                .and_then(|p| p.with_stale_reads(0.3))
                .expect("valid rates"),
        },
        ..ChaosConfig::default()
    };
    let report = run_chaos(&campaign).expect("campaign runs");
    for c in &report.checks {
        println!("  chaos check {:<26} {}", c.name, if c.pass { "PASS" } else { "FAIL" });
        assert!(c.pass, "{}: {}", c.name, c.detail);
    }
    println!(
        "\nchaos campaign, {} sessions, {} shard faults + {} power losses, all disk\n\
         fault types on: completed {} / recovered {} (cold {}) / shed {} /\n\
         lost_durable {} — all six invariants machine-checked, rerun byte-identical.",
        campaign.sessions,
        report.faults.len(),
        report.power_loss_at_ms.len(),
        report.fleet.completed,
        report.fleet.recovered,
        report.fleet.recovered_cold,
        report.fleet.shed,
        report.fleet.lost_durable
    );
}

fn exp20() {
    header("EXP-20", "causal session tracing: stitched journeys, exemplars, incident reports");
    use vgbl::obs::{
        aggregate, aggregate_by, export_journeys, journeys_where, tail_exemplars, TerminalState,
    };
    use vgbl::runtime::chaos::{run_chaos, ChaosConfig};
    use vgbl::store::{DiskFaultPlan, StoreConfig};

    // `EXP20_SESSIONS` scales the campaign down for CI smoke runs; the
    // recorded numbers come from the default 10k-session campaign.
    let n: usize = std::env::var("EXP20_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    // A synthetic session holds a slot ~250 ms (5 segments × 5 steps
    // × 10 ms), so the 4×2-slot fleet serves ~32/s. Arrivals at 35 ms
    // mean gaps (~29/s) run it near capacity — slots stay busy, so the
    // faults hit in-flight work — while each retired shard (a crash,
    // or an SLO drain off a stalled/degraded shard) pushes the
    // survivors into honest overload sheds. The horizon spreads the
    // faults across most of the arrival window.
    let campaign = ChaosConfig {
        seed: 0xE20_0006,
        sessions: n,
        arrival_interval_ms: 35.0,
        crashes: 2,
        stalls: 1,
        degraded_links: 1,
        power_losses: 1,
        horizon_ms: 24.0 * n as f64,
        store: StoreConfig {
            snapshot_every: 1024,
            dual_write: true,
            faults: DiskFaultPlan::new(0xE20_CA05)
                .with_torn_writes(0.3)
                .and_then(|p| p.with_bit_rot(0.2))
                .and_then(|p| p.with_stale_reads(0.2))
                .expect("valid rates"),
        },
        ..ChaosConfig::default()
    };
    let t0 = Instant::now();
    let report = run_chaos(&campaign).expect("campaign runs");
    let wall = t0.elapsed();
    for c in &report.checks {
        println!("  chaos check {:<26} {}", c.name, if c.pass { "PASS" } else { "FAIL" });
        assert!(c.pass, "{}: {}", c.name, c.detail);
    }
    let journeys = &report.fleet.journeys;

    // Coverage is total: one journey per offered session, none of them
    // unresolved — every terminal state is attributed.
    assert_eq!(journeys.len(), report.fleet.sessions, "100% journey coverage");
    assert!(
        journeys.iter().all(|j| j.terminal != TerminalState::Unresolved),
        "zero unattributed terminal states"
    );
    assert!(journeys.iter().all(|j| j.chain_ok()), "every span chain intact");

    // The query API over the stitched population.
    let agg = aggregate(journeys);
    let cross_shard = journeys_where(journeys, |j| j.shards().len() > 1).len();
    let by_terminal = aggregate_by(journeys, |j| j.terminal.name().to_string());
    assert_eq!(by_terminal.values().map(|a| a.total).sum::<usize>(), agg.total);
    println!(
        "\n{} sessions stitched from {} shards in {:.2} s wall: {} cross-shard,\n\
         {} migrations, {} cold resumes; critical path totals (ms):\n\
         queued {:.1} / streaming {:.1} / migrating {:.1} / blackout {:.1}",
        agg.total,
        report.fleet.shards.len(),
        wall.as_secs_f64(),
        cross_shard,
        agg.migrations,
        agg.cold_resumes,
        agg.critical.queued_ms,
        agg.critical.streaming_ms,
        agg.critical.migrating_ms,
        agg.critical.blackout_ms
    );
    for (name, a) in &by_terminal {
        println!("  terminal {:<10} {:>7}", name, a.total);
    }

    // Deterministic tail exemplars: the slowest journeys, each linked
    // to the trace id an operator would pull up.
    println!("\ntop-5 duration exemplars (histogram tail → trace):");
    for e in tail_exemplars(journeys, 5, |j| j.duration_ms().ceil() as u64) {
        println!(
            "  bucket {:>2}  {:>8} ms  session {:>6}  trace {:016x}",
            e.bucket, e.value, e.session, e.trace_id
        );
    }

    // Per-fault blast radii, cross-checked against the accounting
    // identity by the `incident_crosscheck` invariant above.
    println!("\n{}", report.incidents.render());

    // The whole observability surface is a pure function of the seed:
    // a second campaign reproduces the journey export and the incident
    // narrative byte for byte.
    let again = run_chaos(&campaign).expect("campaign reruns");
    assert_eq!(
        export_journeys(journeys),
        export_journeys(&again.fleet.journeys),
        "journey export byte-identical across reruns"
    );
    assert_eq!(
        report.incidents.render(),
        again.incidents.render(),
        "incident report byte-identical across reruns"
    );
    println!("journey export and incident report byte-identical across reruns.");
}

/// A bot that panics as soon as it is asked for input (EXP-12's fault
/// isolation demo).
struct PanicBot;
impl Bot for PanicBot {
    fn next_input(
        &mut self,
        _session: &vgbl::runtime::GameSession,
    ) -> vgbl::runtime::Result<Option<InputEvent>> {
        panic!("deliberately broken bot");
    }
}

/// A bot that panics after `at` decisions — EXP-14's transient crash.
/// The supervisor restarts it; its replacement incarnation (a fresh
/// [`GuidedBot`]) resumes from the checkpoint and finishes the game.
struct CrashAfter {
    inner: GuidedBot,
    at: usize,
    seen: usize,
}
impl Bot for CrashAfter {
    fn next_input(
        &mut self,
        session: &vgbl::runtime::GameSession,
    ) -> vgbl::runtime::Result<Option<InputEvent>> {
        self.seen += 1;
        if self.seen > self.at {
            panic!("injected transient crash");
        }
        self.inner.next_input(session)
    }
}

/// Every figure and experiment, in the order a full run prints them.
/// EXP-16 (the retired snapshot tool's trajectory) has no runner.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("exp1", exp1),
    ("exp2", exp2),
    ("exp3", exp3),
    ("exp4", exp4),
    ("exp5", exp5),
    ("exp6", exp6),
    ("exp7", exp7),
    ("exp8", exp8),
    ("exp9", exp9),
    ("exp10", exp10),
    ("exp11", exp11),
    ("exp12", exp12),
    ("exp13", exp13),
    ("exp14", exp14),
    ("exp15", exp15),
    ("exp17", exp17),
    ("exp18", exp18),
    ("exp19", exp19),
    ("exp20", exp20),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || EXPERIMENTS.iter().any(|(name, _)| a == name);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment `{bad}`; known: all {}", names.join(" "));
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    for (name, run) in EXPERIMENTS {
        if all || args.iter().any(|a| a == name) {
            run();
        }
    }
}
