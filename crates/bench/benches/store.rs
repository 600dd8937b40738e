//! The durable store at the shape of sessionbench's `fleet_recovery`
//! commit path: 600 append+flush commits over 200 sessions with
//! ≈ 230-byte payloads, a snapshot every 8 acknowledged flushes and
//! dual-write on clean disks, then one `recover()`. It times the store
//! alone, without the fleet around it or the host noise of a whole
//! sessionbench run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vgbl::obs::hash::{fnv1a, mix};
use vgbl::store::{CheckpointRecord, DiskFaultPlan, DurableStore, StoreConfig};

const COMMITS: u64 = 600;
const SESSIONS: u64 = 200;
const PAYLOAD: usize = 230;

fn bench(c: &mut Criterion) {
    let records: Vec<CheckpointRecord> = (0..COMMITS)
        .map(|i| {
            let session = i % SESSIONS;
            let payload: Vec<u8> = (0..PAYLOAD).map(|b| (mix(i ^ b as u64) >> 56) as u8).collect();
            CheckpointRecord {
                session,
                step: i / SESSIONS,
                generation: 0,
                digest: fnv1a(&payload),
                trace_id: mix(session),
                span_id: mix(session ^ i),
                payload,
            }
        })
        .collect();
    let cfg = StoreConfig { snapshot_every: 8, dual_write: true, faults: DiskFaultPlan::new(7) };

    let mut group = c.benchmark_group("store");
    group.throughput(Throughput::Elements(COMMITS));
    group.sample_size(20);
    group.bench_function("fleet_recovery_commits", |b| {
        b.iter(|| {
            let mut store = DurableStore::new(cfg);
            for r in &records {
                store.append(r);
                store.flush().expect("clean disks never lose a flush");
            }
            store.recover()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
