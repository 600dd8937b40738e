//! EXP-9 — simulated-player throughput: full sessions per second for the
//! guided and random play styles on the paper's example game.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vgbl::obs::Obs;
use vgbl::runtime::bot::{run_session, GuidedBot, RandomBot};
use vgbl::runtime::fixtures::{fix_the_computer, FRAME};
use vgbl::runtime::SessionConfig;

fn bench(c: &mut Criterion) {
    let graph = Arc::new(fix_the_computer());
    let config = SessionConfig::for_frame(FRAME.0, FRAME.1);

    let mut group = c.benchmark_group("exp9_learning");
    group.bench_function("guided_session", |b| {
        b.iter(|| {
            let mut bot = GuidedBot::new();
            run_session(graph.clone(), config.clone(), &mut bot, 100, 50, &Obs::noop(), "").unwrap()
        });
    });
    group.bench_function("random_session_120steps", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut bot = RandomBot::new(StdRng::seed_from_u64(seed));
            run_session(graph.clone(), config.clone(), &mut bot, 120, 50, &Obs::noop(), "").unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
