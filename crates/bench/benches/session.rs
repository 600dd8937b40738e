//! Session set-up and frame composition at sessionbench's shapes: the
//! eight-room tour's hub that `classroom_burst` learners start in, and
//! the first room of the eight-room escape that `fleet_recovery` bots
//! solve, both at 64×48 with sessionbench's author edits. Every session
//! shares one graph, as a published game's sessions do, so `setup` times
//! a session start on a graph already compiled and `compose` one frame
//! composed from its pre-rendered layers, without sessionbench's host
//! noise.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use vgbl::media::color::Rgb;
use vgbl::media::Frame;
use vgbl::runtime::render::compose_frame;
use vgbl::runtime::{GameSession, SessionConfig};
use vgbl_bench::lesson_graph;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    let config = SessionConfig::for_frame(64, 48);
    let base = Frame::filled(64, 48, Rgb::new(40, 90, 160)).expect("valid size");
    for (shape, tour) in [("classroom_hub", true), ("fleet_escape", false)] {
        let graph = Arc::new(lesson_graph(tour, 8));
        group.bench_function(format!("setup/{shape}"), |b| {
            b.iter(|| GameSession::new(graph.clone(), config.clone()).expect("the game is playable"))
        });
        let (session, _) = GameSession::new(graph.clone(), config.clone()).expect("playable");
        group.bench_function(format!("compose/{shape}"), |b| {
            b.iter(|| compose_frame(&session, &base).expect("no condition fails"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
