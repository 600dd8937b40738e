//! EXP-11 — shared decoded-GOP cache: seek latency and cohort decode
//! reuse as functions of cache capacity and session count.
//!
//! Three groups:
//!
//! * `exp11_seek` — warm vs cold cached-seek latency at several cache
//!   capacities (capacity 0 = cache disabled, the pre-cache baseline).
//! * `exp11_cohort` — a playback cohort over one shared cache; the
//!   interesting output is wall time *and* the hit rate printed once per
//!   configuration.
//! * `exp11_contention` — many threads hammering the same hot GOP, the
//!   worst case for the sharded locks and miss coalescing.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vgbl::media::cache::{GopCache, VideoId};
use vgbl::media::codec::{Decoder, Quality};
use vgbl::media::seek::seek_cached;
use vgbl::obs::Obs;
use vgbl::runtime::server::run_playback_cohort;
use vgbl_bench::{bench_footage, encode, table_for};

fn bench(c: &mut Criterion) {
    let footage = bench_footage(96, 64, 6, 3);
    let video = encode(&footage, 15, Quality::High, 2);
    let id = VideoId::of(&video);
    let dec = Decoder::default();
    let targets: Vec<usize> = (0..16).map(|i| (i * 37) % video.len()).collect();

    let mut group = c.benchmark_group("exp11_seek");
    group.sample_size(20);
    for capacity in [0usize, 2, 8, 32] {
        // Cold: a fresh cache every iteration — every seek decodes.
        group.bench_with_input(
            BenchmarkId::new("cold_cap", capacity),
            &capacity,
            |b, &cap| {
                b.iter(|| {
                    let cache = GopCache::new(cap);
                    for &t in &targets {
                        seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).unwrap();
                    }
                });
            },
        );
        // Warm: one shared cache, warmed before measurement — seeks whose
        // GOP stayed resident are pure lookups.
        group.bench_with_input(
            BenchmarkId::new("warm_cap", capacity),
            &capacity,
            |b, &cap| {
                let cache = GopCache::new(cap);
                for &t in &targets {
                    seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).unwrap();
                }
                b.iter(|| {
                    for &t in &targets {
                        seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).unwrap();
                    }
                });
            },
        );
    }
    group.finish();

    let video = Arc::new(encode(&footage, 15, Quality::High, 2));
    let table = table_for(&footage);
    let mut group = c.benchmark_group("exp11_cohort");
    group.sample_size(10);
    for &(sessions, capacity) in &[(8usize, 0usize), (8, 32), (32, 0), (32, 32)] {
        group.throughput(Throughput::Elements(sessions as u64));
        let name = format!("sessions_{sessions}_cap_{capacity}");
        group.bench_function(BenchmarkId::new("shared", name), |b| {
            b.iter(|| {
                run_playback_cohort(
                    video.clone(),
                    &table,
                    Arc::new(GopCache::new(capacity)),
                    sessions,
                    4,
                    24,
                    &Obs::noop(),
                )
            });
        });
    }
    group.finish();

    // Contention: all threads want the same GOP at once; coalescing must
    // collapse the decode storm into one decode plus notifications.
    let mut group = c.benchmark_group("exp11_contention");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("hot_gop_threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let cache = GopCache::new(4);
                    crossbeam::scope(|s| {
                        for _ in 0..threads {
                            s.spawn(|_| {
                                for _ in 0..8 {
                                    seek_cached(&dec, &video, id, &cache, 3, &Obs::noop())
                                        .unwrap();
                                }
                            });
                        }
                    })
                    .unwrap();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
