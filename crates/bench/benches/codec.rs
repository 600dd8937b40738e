//! EXP-2 — codec encode/decode throughput vs quality preset, plus
//! GOP-parallel encode scaling, plus one encode at the shape of
//! sessionbench's `author_import` import and one decode at the shape of
//! its `branchy_watch` branches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vgbl::media::codec::{Decoder, EncodeConfig, Encoder, Quality};
use vgbl_bench::{bench_footage, encode, workload_footage};

fn bench(c: &mut Criterion) {
    let footage = bench_footage(160, 120, 4, 2);
    let pixels = footage.len() as u64 * 160 * 120;

    let mut group = c.benchmark_group("exp2_codec");
    group.throughput(Throughput::Elements(pixels));
    group.sample_size(10);

    for quality in Quality::all() {
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{quality:?}")),
            &quality,
            |b, &quality| {
                b.iter(|| encode(&footage, 15, quality, 1));
            },
        );
    }

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("encode_threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| encode(&footage, 15, Quality::High, threads));
            },
        );
    }

    let video = encode(&footage, 15, Quality::High, 1);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("decode_threads", threads),
            &threads,
            |b, &threads| {
                let dec = Decoder::new(threads);
                b.iter(|| dec.decode_all(&video).unwrap());
            },
        );
    }
    group.finish();

    // `author_import` encodes 270 frames of 64x48 footage (nine 30-frame
    // shots, two 8x8 sprites each) at Medium, GOP 15 and a ±7 search on
    // one worker, with keyframes on the cuts; the encoder is nearly all
    // of that workload's time.
    let import = workload_footage(64, 48, 9, 30, 8);
    let config = EncodeConfig { quality: Quality::Medium, gop: 15, threads: 1, search_range: 7 };
    let encoder = Encoder::new(config);
    let mut group = c.benchmark_group("author_import_codec");
    group.throughput(Throughput::Elements(import.len() as u64 * 64 * 48));
    group.sample_size(10);
    group.bench_function("encode", |b| {
        b.iter(|| encoder.encode_aligned(&import.frames, import.rate, &import.cuts).unwrap())
    });
    group.finish();

    // Every `branchy_watch` branch lands on a keyframe and decodes one
    // GOP of 128x96 Medium footage (twelve 24-frame shots, two 16x16
    // sprites each; GOP 12, ±3 search) on one thread; decoding is nearly
    // all of that workload's time.
    let branchy = workload_footage(128, 96, 12, 24, 16);
    let config = EncodeConfig { quality: Quality::Medium, gop: 12, threads: 1, search_range: 3 };
    let video = Encoder::new(config).encode(&branchy.frames, branchy.rate).expect("encodes");
    let keyframes = video.keyframes();
    let dec = Decoder::new(1);
    let mut group = c.benchmark_group("branchy_watch_codec");
    group.throughput(Throughput::Elements(video.len() as u64 * 128 * 96));
    group.sample_size(10);
    group.bench_function("decode", |b| {
        b.iter(|| {
            for &k in &keyframes {
                dec.decode_gop_at(&video, k).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
