//! The benchmark's own smoke test: every workload at tiny sizes.

use sessionbench::report::{per_layer, Outcome, END_TO_END, SPANS};
use sessionbench::run::{run, RunConfig, WORKLOADS};

fn tiny(workload: &str, trace: bool, corrupt_reference: bool) -> Outcome {
    run(&RunConfig {
        workload: workload.into(),
        seed: 7,
        seconds: 0.05,
        trace,
        tiny: true,
        corrupt_reference,
    })
    .expect("known workload")
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(d, _)| d.name == name)
        .map(|&(_, v)| v)
        .expect("metric printed")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_the_gate() {
    for w in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END.to_vec()), (true, per_layer())] {
            let o = tiny(w, trace, false);
            assert!(o.correct, "{w} trace={trace}: {:?}", o.violations);
            assert_eq!(o.failed, 0, "{w}");
            assert!(o.attempted > 0, "{w}");
            let json = o.to_json();
            assert_eq!(o.metrics.len(), defs.len(), "{w}");
            for d in &defs {
                let printed = format!("\"{}\": {{\"value\": ", d.name);
                assert!(json.contains(&printed), "{w}: {} missing", d.name);
                let unit = format!("\"unit\": \"{}\"}}", d.unit);
                let at = json.find(&printed).expect("found above");
                assert!(
                    json[at..].contains(&unit),
                    "{w}: {} lacks unit {}",
                    d.name,
                    d.unit
                );
            }
            if !trace {
                for d in END_TO_END {
                    assert!(value(&o, d.name) > 0.0, "{w}: {} is not positive", d.name);
                }
            }
        }
    }
}

#[test]
fn traced_layer_self_times_sum_to_the_traced_wall_time() {
    for w in WORKLOADS {
        let o = tiny(w, true, false);
        let sum: f64 = SPANS.iter().map(|(_, metric)| value(&o, metric)).sum();
        let wall = value(&o, "trace.wall_ms");
        assert!(wall > 0.0, "{w}");
        assert!(
            (sum - wall).abs() < 1e-6 * wall.max(1.0),
            "{w}: layers {sum} ms, wall {wall} ms"
        );
    }
}

#[test]
fn a_corrupted_reference_frame_fails_the_gate() {
    for w in WORKLOADS {
        let o = tiny(w, false, true);
        assert!(
            !o.correct,
            "{w}: the gate missed a corrupted reference frame"
        );
        assert!(
            o.violations
                .iter()
                .any(|v| v.contains("differ from the reference")),
            "{w}: {:?}",
            o.violations
        );
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e = json.find("\"end_to_end\"").expect("end_to_end section");
    let layers = json.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e < layers, "end_to_end precedes per_layer");
    for w in WORKLOADS {
        assert!(
            json[..e2e].contains(&format!("\"name\": \"{w}\"")),
            "workload {w}"
        );
    }
    let entry = |d: &sessionbench::report::MetricDef| {
        format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit)
    };
    for d in END_TO_END {
        assert!(
            json[e2e..layers].contains(&entry(d)),
            "end-to-end {}",
            d.name
        );
    }
    let layer_defs = per_layer();
    for d in &layer_defs {
        assert!(json[layers..].contains(&entry(d)), "per-layer {}", d.name);
    }
    let entries = json[layers..].matches("\"name\":").count();
    assert_eq!(
        entries,
        layer_defs.len(),
        "no per-layer metric beyond the program's"
    );
}
