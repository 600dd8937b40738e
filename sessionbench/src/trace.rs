//! Wall-clock spans recorded from the benchmark's own code.
//!
//! [`span`] wraps one call into a layer's public function. Outside
//! [`traced`] it is a single thread-local flag check, so untraced runs
//! pay nothing measurable. Inside [`traced`] every span lands in one
//! [`SpanRecorder`] (timestamps in nanoseconds since the pass began)
//! under a root span named [`OTHER`]. Folding the recorder with the
//! repository's profiler splits each span into self time and total time;
//! the root's self time is the explicit remainder, so the self times of
//! all layers plus `other` sum exactly to the traced wall time.
//!
//! Spans are only recorded on the thread that called [`traced`]; work a
//! layer fans out to worker threads is covered by the span around the
//! fan-out call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use vgbl::obs::{folded_stacks, hotspot_table, hotspots, Obs, SpanRecorder};

/// Name of the root span: its self time is the time no layer span covers.
pub const OTHER: &str = "other";

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<(Instant, SpanRecorder)>> = const { RefCell::new(None) };
}

fn with_rec(f: impl FnOnce(u64, &mut SpanRecorder)) {
    REC.with(|cell| {
        if let Some((epoch, rec)) = cell.borrow_mut().as_mut() {
            f(epoch.elapsed().as_nanos() as u64, rec);
        }
    });
}

/// Runs `f` inside a span named `name` when a traced pass is active.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ON.with(Cell::get) {
        return f();
    }
    with_rec(|t, rec| rec.enter(name, t));
    let out = f();
    with_rec(|t, rec| rec.exit(t));
    out
}

/// Self and total time of one span name over a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Span duration minus the time its child spans cover, in ns.
    pub self_ns: u64,
    /// Summed span durations, children included, in ns.
    pub total_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// The folded profile of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Wall time of the pass (the root span), in ns.
    pub wall_ns: u64,
    /// Per span name, [`OTHER`] included.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Inferno folded stacks (values in ns).
    pub folded: String,
    /// Hotspot table by self time (columns in ns).
    pub table: String,
}

impl Profile {
    /// Self time of `name` in ms (0 when the layer did no work).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6)
    }

    /// Total time of `name` in ms, children included.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e6)
    }

    /// Sum of every layer's self time, `other` included, in ns. Equal to
    /// [`Profile::wall_ns`] by construction; the smoke test pins it.
    pub fn self_sum_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }
}

/// Runs `f` as one traced pass and folds its spans.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    let mut rec = SpanRecorder::new("sessionbench".into());
    rec.enter(OTHER, 0);
    REC.with(|cell| *cell.borrow_mut() = Some((Instant::now(), rec)));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    let (epoch, mut rec) = REC
        .with(|cell| cell.borrow_mut().take())
        .expect("recorder installed");
    rec.close_all(epoch.elapsed().as_nanos() as u64);

    let obs = Obs::recording();
    obs.attach(rec);
    let snap = obs.snapshot();
    let mut layers = BTreeMap::new();
    for h in hotspots(&snap, usize::MAX) {
        layers.insert(
            h.name,
            LayerTime {
                self_ns: h.self_us,
                total_ns: h.total_us,
                calls: h.calls,
            },
        );
    }
    let wall_ns = layers.get(OTHER).map_or(0, |l: &LayerTime| l.total_ns);
    let profile = Profile {
        wall_ns,
        layers,
        folded: folded_stacks(&snap),
        table: hotspot_table(&snap, 24),
    };
    (out, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_wall_time() {
        let ((), p) = traced(|| {
            span("outer", || {
                span("inner", || {
                    std::hint::black_box((0..10_000u64).sum::<u64>())
                });
            });
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        assert_eq!(p.self_sum_ns(), p.wall_ns);
        assert_eq!(p.layers["inner"].calls, 2);
        assert!(p.layers["inner"].total_ns >= 1_000_000);
        // Outside a traced pass spans record nothing.
        span("ignored", || ());
        let ((), q) = traced(|| ());
        assert!(!q.layers.contains_key("ignored"));
    }
}
