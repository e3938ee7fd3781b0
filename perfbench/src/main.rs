//! `perfbench` — the repository benchmark.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one named workload, checks every output, prints a table of every
//! metric with its unit and sample count, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end metrics, the same on every
//! workload; with `--trace 1` they are the per-layer metrics of a traced
//! run plus the tracing overhead. Exits 1 on any output mismatch, 2 on
//! bad usage.
//! See `README.md` beside this file for workloads and metrics.

mod gen;
mod report;
mod serve;
mod simwl;
mod stats;
mod trace;

use report::{out_dir, Meta, Report};
use sempe_core::json::Json;

const WORKLOADS: [&str; 3] = ["paper-detailed", "longrun-tiered", "serve-routed"];

/// End-to-end metrics of an untraced run, in report order, with units.
/// Every workload measures all of them.
const END_TO_END: [(&str, &str); 3] = [("job_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics of the traced run, in report order, with units.
/// Every traced run reports all of them; a layer a workload does not
/// exercise reads 0 with 0 samples.
const PER_LAYER: [(&str, &str); 57] = [
    ("sim_mips", "MIPS"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("max_rps_slo", "req/s"),
    ("compile.calls", "count"),
    ("compile.us_per_call", "us"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_committed", "ns"),
    ("sim.rebuild_us", "us"),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("sim.ipc", "ratio"),
    ("sim.skipped_share", "ratio"),
    ("sim.il1.misses", "count"),
    ("sim.dl1.misses", "count"),
    ("sim.l2.misses", "count"),
    ("sim.bpred.mispredicts", "count"),
    ("sim.squashes", "count"),
    ("sim.load_replays", "count"),
    ("sim.drain_stall_cycles", "count"),
    ("sim.secure_committed", "count"),
    ("tier.ff_share", "ratio"),
    ("tier.ff_ns_per_insn", "ns"),
    ("tier.warm_share", "ratio"),
    ("tier.roi_cycles", "count"),
    ("tier.detailed_ns_per_roi_cycle", "ns"),
    ("fork.hit_rate", "ratio"),
    ("fork.restore_us_per_trial", "us"),
    ("phase.checkpoint_restore_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("phase.queue_wait_us.p50", "us"),
    ("phase.queue_wait_us.p99", "us"),
    ("queue_depth.max", "count"),
    ("phase.compile_us", "us"),
    ("phase.simulate_us", "us"),
    ("phase.encode_us", "us"),
    ("phase.write_us", "us"),
    ("protocol.parse_us", "us"),
    ("serve.loop_us", "us"),
    ("router.added_us", "us"),
    ("router.retries", "count"),
    ("router.hedges", "count"),
    ("router.shed", "count"),
    ("router.shard_balance", "ratio"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("gen.refused", "count"),
    ("trace.overhead.job_ms", "ratio"),
    ("trace.overhead.setup_s", "ratio"),
    ("trace.overhead.peak_rss_mib", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Meta {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        let num =
            || value.parse::<u64>().unwrap_or_else(|_| usage(&format!("bad {flag} `{value}`")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = Some(num()),
            "--trace" => trace = Some(num()),
            _ => usage(&format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        usage("--seconds must be 1..=600");
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Meta { workload, seed: seed.unwrap_or(1), seconds, trace }
}

fn main() {
    let meta = parse_args();
    let meta_json = meta.to_json();
    println!("perfbench {}", meta_json.encode());
    let mut report = Report::default();
    match meta.workload.as_str() {
        "paper-detailed" => {
            simwl::run(simwl::SimWorkload::PaperDetailed, meta.seconds, meta.trace, &mut report);
        }
        "longrun-tiered" => {
            simwl::run(simwl::SimWorkload::LongrunTiered, meta.seconds, meta.trace, &mut report);
        }
        _ => serve::run(meta.seed, meta.seconds, meta.trace, &mut report),
    }
    if meta.trace {
        report.order_as(&PER_LAYER, true);
    } else {
        report.order_as(&END_TO_END, false);
    }
    report.print_table();
    println!(
        "{:34} {:>16.6} {:>8} {:>9}",
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted
    );
    for m in &report.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let record = Json::obj()
        .with("meta", meta_json)
        .with("correct", report.correct())
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with(
            "samples",
            Json::Obj(
                report.metrics.iter().map(|m| (m.name.clone(), Json::from(m.samples))).collect(),
            ),
        )
        .with("metrics", report.metrics_json())
        .with("detail", std::mem::replace(&mut report.detail, Json::Null));
    let name = format!(
        "run-{}-seed{}{}.json",
        meta.workload,
        meta.seed,
        if meta.trace { "-trace" } else { "" }
    );
    std::fs::create_dir_all(out_dir()).ok();
    if let Err(e) = std::fs::write(out_dir().join(&name), record.encode() + "\n") {
        eprintln!("perfbench: could not write run record {name}: {e}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
