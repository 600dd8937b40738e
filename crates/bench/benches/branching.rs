//! EXP-4 — reaching deep content: interactive branching vs the linear /
//! DVD-menu baselines (navigation-model evaluation plus engine
//! click-through latency at depth).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vgbl::media::SegmentTable;
use vgbl::runtime::baseline::{dvd_menu_cost, interactive_cost, linear_cost};
use vgbl::runtime::{GameSession, InputEvent, SessionConfig};
use vgbl_bench::chain_graph;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp4_branching");

    // Model evaluation cost at increasing depth.
    for depth in [4usize, 16, 64] {
        let graph = chain_graph(depth);
        let cuts: Vec<usize> = (1..depth).map(|i| i * 30).collect();
        let table = SegmentTable::from_cuts(depth * 30, &cuts).unwrap();
        group.bench_with_input(BenchmarkId::new("models", depth), &depth, |b, &depth| {
            b.iter(|| {
                let l = linear_cost(&table, depth - 1).unwrap();
                let d = dvd_menu_cost(&table, depth - 1, 15).unwrap();
                let i = interactive_cost(&graph, &format!("s{}", depth - 1), 30).unwrap();
                (l, d, i)
            });
        });
    }

    // Live engine: clicking through the whole chain.
    for depth in [4usize, 16, 64] {
        let graph = Arc::new(chain_graph(depth));
        group.bench_with_input(BenchmarkId::new("click_through", depth), &depth, |b, &depth| {
            let config = SessionConfig {
                frame_size: (1000, 1000),
                inventory_window: vgbl::scene::Rect::new(900, 0, 100, 1000),
                reach: None,
            };
            b.iter(|| {
                let (mut session, _) = GameSession::new(graph.clone(), config.clone()).unwrap();
                for _ in 0..depth {
                    let _ = session.handle(InputEvent::click(2, 2));
                    if session.state().is_over() {
                        break;
                    }
                }
                assert!(session.state().is_over());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
