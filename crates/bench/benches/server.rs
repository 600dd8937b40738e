//! EXP-8 — multi-session server scalability: bot sessions per second on
//! the cooperative executor over shared immutable content, plus
//! playback cohorts decoding through a shared (warm) vs per-session
//! (cold) GOP cache.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vgbl::media::cache::GopCache;
use vgbl::media::Quality;
use vgbl::obs::Obs;
use vgbl::runtime::bot::{Bot, GuidedBot};
use vgbl::runtime::fixtures::{fix_the_computer, FRAME};
use vgbl::runtime::server::{run_cohort, run_playback_cohort};
use vgbl::runtime::SessionConfig;
use vgbl_bench::{bench_footage, encode, table_for};

fn bench(c: &mut Criterion) {
    let graph = Arc::new(fix_the_computer());
    let config = SessionConfig::for_frame(FRAME.0, FRAME.1);
    let sessions = 64usize;

    let mut group = c.benchmark_group("exp8_server");
    group.sample_size(10);
    group.throughput(Throughput::Elements(sessions as u64));
    group.bench_function("executor", |b| {
        b.iter(|| {
            run_cohort(
                graph.clone(),
                config.clone(),
                sessions,
                &|_| Box::new(GuidedBot::new()) as Box<dyn Bot>,
                100,
                50,
            )
        });
    });
    group.finish();

    // Playback cohorts: the decode cost of hosting N video sessions with
    // a shared cache (each GOP decoded ~once in total) vs one private
    // cache per session (cold — each session decodes its own GOPs).
    let footage = bench_footage(96, 64, 6, 3);
    let video = Arc::new(encode(&footage, 15, Quality::High, 2));
    let table = table_for(&footage);
    let mut group = c.benchmark_group("exp8_playback");
    group.sample_size(10);
    for sessions in [16usize, 64] {
        group.throughput(Throughput::Elements(sessions as u64));
        group.bench_with_input(
            BenchmarkId::new("shared_cache", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    run_playback_cohort(
                        video.clone(),
                        &table,
                        Arc::new(GopCache::new(32)),
                        sessions,
                        4,
                        24,
                        &Obs::noop(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("no_shared_cache", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    run_playback_cohort(
                        video.clone(),
                        &table,
                        Arc::new(GopCache::new(0)),
                        sessions,
                        4,
                        24,
                        &Obs::noop(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
