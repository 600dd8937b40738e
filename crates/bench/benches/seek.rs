//! EXP-3 — random-access (scenario switch) latency vs keyframe interval,
//! direct and through a warm decoded-GOP cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vgbl::media::cache::{GopCache, VideoId};
use vgbl::media::codec::{Decoder, Quality};
use vgbl::media::seek::{seek, seek_cached};
use vgbl::obs::Obs;
use vgbl_bench::{bench_footage, encode};

fn bench(c: &mut Criterion) {
    let footage = bench_footage(96, 64, 6, 3);
    let mut group = c.benchmark_group("exp3_seek");
    group.sample_size(20);

    for gop in [1usize, 5, 15, 30, 60] {
        let video = encode(&footage, gop, Quality::High, 2);
        let dec = Decoder::default();
        // Deterministic seek targets spread across the stream.
        let targets: Vec<usize> = (0..16).map(|i| (i * 37) % video.len()).collect();
        group.bench_with_input(BenchmarkId::new("gop", gop), &gop, |b, _| {
            b.iter(|| {
                for &t in &targets {
                    seek(&dec, &video, t).unwrap();
                }
            });
        });
        // The same targets against a warm shared cache: the GOP walk
        // (what the direct rows above pay for) disappears, so latency
        // stops depending on the keyframe interval.
        let id = VideoId::of(&video);
        let cache = GopCache::new(64);
        for &t in &targets {
            seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("gop_warm", gop), &gop, |b, _| {
            b.iter(|| {
                for &t in &targets {
                    seek_cached(&dec, &video, id, &cache, t, &Obs::noop()).unwrap();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
