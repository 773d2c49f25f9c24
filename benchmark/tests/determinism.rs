//! Same seed ⇒ same inputs and same counts; another seed ⇒ other inputs.

use std::path::Path;
use std::time::Instant;

use pqp_benchmark::spec::{generate_ops, ops_digest, Spec, Workload, CLIENTS};
use pqp_benchmark::trace::{self, PER_LAYER};
use pqp_obs::Json;

fn digest(workload: Workload, seed: u64) -> u64 {
    let spec = Spec::of(workload);
    let ops: Vec<_> = (0..CLIENTS).map(|client| generate_ops(&spec, seed, client)).collect();
    ops_digest(ops.iter().map(Vec::as_slice))
}

#[test]
fn op_sequences_are_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        assert_eq!(digest(workload, 14), digest(workload, 14), "{}", workload.name());
        assert_ne!(digest(workload, 14), digest(workload, 15), "{}", workload.name());
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let run = |tag: &str| {
            let out = tmp.join(format!("{}-{tag}", workload.name()));
            std::fs::create_dir_all(&out).unwrap();
            let spec = Spec::of(workload).shrunk();
            let report = trace::run(spec, 14, Instant::now(), &out.join("work"), &out);
            assert_eq!(report.result.failed, 0, "{}: {}", workload.name(), report.detail.render());
            assert!(out.join(format!("trace_{}.json", workload.name())).exists());
            report.result.metrics
        };
        let (first, second) = (run("a"), run("b"));
        for (name, _, _, exact) in PER_LAYER {
            let value = |metrics: &[(&str, f64, &str)]| {
                metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| v.to_bits())
            };
            assert!(value(&first).is_some(), "{name} missing from the traced run");
            if *exact {
                assert_eq!(value(&first), value(&second), "{} {name}", workload.name());
            }
        }
    }
}

/// `BENCHMARK.json` is what the driver reads; the code must emit exactly
/// the workloads and metrics it lists.
#[test]
fn benchmark_json_matches_the_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|entry| entry.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names("per_layer"), per_layer);
    assert_eq!(names("end_to_end"), ["setup_s", "peak_rss_mb"]);
}
