use std::path::PathBuf;

use pqp_benchmark::report::{self, Report, RunResult};
use pqp_benchmark::spec::{Spec, Workload};
use pqp_benchmark::{load, trace};
use pqp_obs::Json;

fn usage() -> ! {
    eprintln!(
        "usage: pqp-benchmark --workload <hot_read|cold_read|rank_exec|profile_write> \
         [--seed N] [--seconds S | --smoke] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn main() {
    let started = std::time::Instant::now();
    // None of the ~40 `PQP_*` knobs the crates read may leak into a run.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PQP_") {
            std::env::remove_var(name);
        }
    }

    let mut workload = None;
    let mut seed = 14u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Workload::from_name(&value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value().parse().ok().filter(|s| *s > 0.0).unwrap_or_else(|| usage())
            }
            "--smoke" => seconds = 2.0,
            "--trace" => trace = value() == "1",
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work_dir = out_dir.join(format!("work-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("create benchmark/out");
    let spec = Spec::of(workload);

    let Report { result, detail } = if trace {
        trace::run(spec, seed, started, &work_dir, &out_dir)
    } else {
        load::run(spec, seed, seconds, started, &work_dir)
    };

    println!("workload {} seed {seed} seconds {seconds} trace {}", workload.name(), trace as u8);
    for (name, value, unit) in &result.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &result.reported {
        println!("{name:<40} {value:>16.4} {unit}   (reported, not gated)");
    }
    println!("ops_attempted {}  failed_ops {}", result.attempted, result.failed);
    for failure in detail.get("failures").and_then(Json::as_array).unwrap_or_default() {
        println!("FAILED: {}", failure.as_str().unwrap_or_default());
    }
    let file =
        out_dir.join(format!("{}{}.json", workload.name(), if trace { "_layers" } else { "" }));
    let doc = Json::obj()
        .set("workload", workload.name())
        .set("seed", seed)
        .set("seconds", seconds)
        .set("run_wall_s", started.elapsed().as_secs_f64())
        .set("host", report::host_facts(&out_dir))
        .set("ops_attempted", result.attempted)
        .set("failed_ops", result.failed)
        .set("metrics", RunResult::metrics_json(&result.metrics))
        .set("reported", RunResult::metrics_json(&result.reported))
        .set("detail", detail);
    std::fs::write(&file, doc.pretty()).expect("write the result file");
    println!("{}", result.last_line());
}
