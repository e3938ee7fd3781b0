//! The simulator workloads, driven through the library API directly:
//! `sempe_workloads` builds the paper's programs, `sempe_compile`
//! lowers them, and `sempe_sim::Simulator` runs them.
//!
//! * `paper-detailed` — Fig. 7 micro, Fig. 8 djpeg, rsa-modexp16 and the
//!   two memory-bound programs, × baseline/sempe/cte, default skip
//!   stepping: the detailed pipeline does the work.
//! * `longrun-tiered` — the longrun group × 3 backends under tiered
//!   stepping: functional fast-forward does the work.
//!
//! Every row keeps its own simulator arena (`Simulator::rebuild_or_new`),
//! so modelled caches start empty on every run, as in the paper.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sempe_compile::{compile, run_wir, Backend, CompiledWorkload, WirProgram};
use sempe_core::json::{self, Json};
use sempe_sim::{HostProfile, SimConfig, SimStats, Simulator, Stepping};
use sempe_workloads::{
    djpeg_program, fig7_program, longrun_djpeg_program, longrun_modexp_program, modexp_program,
    pointer_chase_program, table_modexp_program, ChaseParams, DjpegParams, LongrunDjpegParams,
    LongrunModexpParams, MicroParams, ModexpParams, OutputFormat, TableModexpParams, WorkloadKind,
};

use crate::report::{out_dir, peak_rss_mib, source_digest, Report};
use crate::stats::{geomean, median};
use crate::trace::Tracer;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The paper's experiment shapes under skip stepping.
    PaperDetailed,
    /// The longrun group under tiered stepping.
    LongrunTiered,
}

impl SimWorkload {
    fn name(self) -> &'static str {
        match self {
            SimWorkload::PaperDetailed => "paper-detailed",
            SimWorkload::LongrunTiered => "longrun-tiered",
        }
    }

    fn stepping(self) -> Stepping {
        match self {
            SimWorkload::PaperDetailed => Stepping::Skip,
            SimWorkload::LongrunTiered => Stepping::Tiered,
        }
    }
}

/// Far-memory latency of the memory-bound rows, cycles (300 ns at the
/// paper machine's 2 GHz), as in the `sim_throughput` membound group.
const FAR_MEM_LATENCY: u64 = 600;

/// Interleaved measurement rounds per timed phase.
const ROUNDS: usize = 20;

/// Set-ups at the start of each round. One set-up's time is bimodal on
/// the bench host (about 16 or 25 ms on `paper-detailed`, mixed within
/// a run), so the median needs many samples to stay put between runs.
const SETUPS_PER_ROUND: usize = 4;

/// The three (compiler backend, machine) pairs of the paper's method:
/// baseline and constant-time code on the unprotected core, SeMPE code
/// on the SeMPE core.
fn pairs() -> [(&'static str, Backend, SimConfig); 3] {
    [
        ("baseline", Backend::Baseline, SimConfig::baseline()),
        ("sempe", Backend::Sempe, SimConfig::paper()),
        ("cte", Backend::Cte, SimConfig::baseline()),
    ]
}

/// A workload program: name, group, WIR, and whether it runs against
/// far memory.
struct Program {
    name: &'static str,
    group: &'static str,
    wir: WirProgram,
    far_memory: bool,
}

/// The programs of a workload. Sizes keep every single run under about
/// half a second on the bench host, so rounds interleave finely.
fn programs(w: SimWorkload) -> Vec<Program> {
    let p = |name, group, wir, far_memory| Program { name, group, wir, far_memory };
    match w {
        SimWorkload::PaperDetailed => {
            let mut v: Vec<Program> = WorkloadKind::ALL
                .iter()
                .map(|&kind| {
                    // (scale, iterations): queens and quicksort are
                    // superlinear in scale, and queens/cte dominates
                    // every other row by an order of magnitude.
                    let (scale, iters) = match kind {
                        WorkloadKind::Queens => (4, 2),
                        WorkloadKind::Quicksort => (8, 4),
                        _ => (16, 4),
                    };
                    let mp =
                        MicroParams { scale, secrets: 0b01, ..MicroParams::new(kind, 2, iters) };
                    p(kind.name(), "micro", fig7_program(&mp), false)
                })
                .collect();
            let djpeg = DjpegParams { blocks: 4, ..DjpegParams::new(OutputFormat::Ppm) };
            v.push(p("djpeg-ppm", "djpeg", djpeg_program(&djpeg), false));
            let rsa = ModexpParams { bits: 16, exponent: 0xB6B6, ..ModexpParams::default() };
            v.push(p("rsa-modexp16", "rsa", modexp_program(&rsa), false));
            let chase = ChaseParams { words: 1 << 17, iters: 16384 };
            v.push(p("chase-1m", "membound", pointer_chase_program(&chase), true));
            let tmx =
                TableModexpParams { table_words: 1 << 16, bits: 1024, key: 0xB6B6_5A5A_B6B6_5A5A };
            v.push(p("table-modexp-512k", "membound", table_modexp_program(&tmx).0, true));
            v
        }
        SimWorkload::LongrunTiered => {
            let modexp = LongrunModexpParams { table_words: 1 << 14, ..Default::default() };
            let djpeg =
                LongrunDjpegParams { blocks: 48, public_iters: 12000, ..Default::default() };
            vec![
                p("longrun-modexp", "longrun", longrun_modexp_program(&modexp).0, false),
                p("longrun-djpeg", "longrun", longrun_djpeg_program(&djpeg), false),
            ]
        }
    }
}

/// The exact simulated counts of one run of a row. Identical on every
/// run of the same program and machine, whatever the host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    stats: SimStats,
    skipped_cycles: u64,
}

impl Ledger {
    fn to_json(self) -> Json {
        let s = self.stats;
        Json::obj()
            .with("cycles", s.cycles)
            .with("committed", s.committed)
            .with("skipped_cycles", self.skipped_cycles)
            .with("ff_committed", s.ff_committed)
            .with("roi_cycles", s.roi_cycles)
            .with("secure_committed", s.secure_committed)
            .with("il1_misses", s.il1.misses)
            .with("dl1_misses", s.dl1.misses)
            .with("l2_misses", s.l2.misses)
            .with("bpred_mispredicts", s.bpred.cond_mispredicts + s.bpred.indirect_mispredicts)
            .with("squashes", s.squashes)
            .with("load_replays", s.load_replays)
            .with("drain_stall_cycles", s.drain_stall_cycles)
    }
}

struct Row {
    label: String,
    program: usize,
    cw: CompiledWorkload,
    config: SimConfig,
    slot: Option<Simulator>,
}

/// One row's share of a timed phase.
#[derive(Debug, Default, Clone)]
struct RowTimes {
    chunk_mips: Vec<f64>,
    /// The fastest single repetition's rate.
    best_rep_mips: f64,
    /// The fastest single repetition's job time (rebuild + run), ms.
    best_job_ms: f64,
    reps: u64,
    host: HostProfile,
}

struct Setup {
    programs: Vec<Program>,
    rows: Vec<Row>,
    elapsed: Duration,
}

/// Build every program, compile it for every backend and build each
/// row's simulator once: what must happen before anything can be timed.
fn setup(w: SimWorkload, tracer: &mut Tracer) -> Setup {
    let start = Instant::now();
    let programs = programs(w);
    let mut rows = Vec::new();
    for (pi, prog) in programs.iter().enumerate() {
        for (backend_name, backend, base) in pairs() {
            let mut config = base.with_stepping(w.stepping());
            if prog.far_memory {
                config.mem.mem_latency = FAR_MEM_LATENCY;
            }
            let cw = tracer
                .span("compile", None, 0, || compile(&prog.wir, backend))
                .expect("workload program compiles");
            let mut slot = None;
            tracer
                .span("sim.build", None, 0, || {
                    Simulator::rebuild_or_new(&mut slot, cw.program(), config).map(|_| ())
                })
                .expect("simulator builds");
            rows.push(Row {
                label: format!("{}/{backend_name}", prog.name),
                program: pi,
                cw,
                config,
                slot,
            });
        }
    }
    Setup { programs, rows, elapsed: start.elapsed() }
}

/// Run every row once off the clock and check it: outputs equal the WIR
/// interpreter's, and under tiered stepping committed counts and outputs
/// equal a skip-stepping run. Returns each row's exact-count ledger.
fn reference(setup: &mut Setup, report: &mut Report) -> Vec<(Ledger, Vec<u64>)> {
    let mut expected: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for row in &mut setup.rows {
        let prog = &setup.programs[row.program];
        let want = expected
            .entry(row.program)
            .or_insert_with(|| {
                run_wir(&prog.wir, &BTreeMap::new()).expect("WIR reference runs").outputs
            })
            .clone();
        let sim = Simulator::rebuild_or_new(&mut row.slot, row.cw.program(), row.config)
            .expect("simulator rebuilds");
        let stats = sim.run(u64::MAX).expect("workload halts").stats;
        let skipped_cycles = sim.take_host_profile().skipped_cycles;
        let got = row.cw.read_outputs(sim.mem());
        report.attempted += 1;
        if got != want {
            report.mismatch(format!("{}: outputs {got:?} != WIR reference {want:?}", row.label));
        }
        if row.config.stepping == Stepping::Tiered {
            let skip_config = row.config.with_stepping(Stepping::Skip);
            let mut skip = Simulator::new(row.cw.program(), skip_config).expect("simulator builds");
            let skip_stats = skip.run(u64::MAX).expect("workload halts").stats;
            let skip_out = row.cw.read_outputs(skip.mem());
            report.attempted += 1;
            if skip_stats.committed != stats.committed || skip_out != got {
                report.mismatch(format!(
                    "{}: tiered committed {} outputs {got:?} != skip reference committed {} outputs {skip_out:?}",
                    row.label, stats.committed, skip_stats.committed
                ));
            }
        }
        out.push((Ledger { stats, skipped_cycles }, want));
    }
    out
}

/// Timed rounds over every row for about `budget`. In each round every
/// row repeats rebuild + run until its slice of the round has passed (at
/// least once), so short rows get long enough samples. Every repetition
/// is checked against the row's ledger and expected outputs. Each round
/// starts with [`SETUPS_PER_ROUND`] fresh set-ups of the whole workload,
/// timed into `setup_secs`, each of whose rows replace the previous
/// ones, so set-up samples spread over the run as the row samples do.
fn timed(
    w: SimWorkload,
    rows: &mut Vec<Row>,
    refs: &[(Ledger, Vec<u64>)],
    budget: Duration,
    tracer: &mut Tracer,
    setup_secs: &mut Vec<f64>,
    report: &mut Report,
) -> Vec<RowTimes> {
    let slice = budget / u32::try_from(ROUNDS * rows.len()).expect("row count fits");
    let mut times = vec![RowTimes::default(); rows.len()];
    let mut request = 0u64;
    let start = Instant::now();
    // Rows whose single run outlasts their slice overshoot it; the phase
    // still ends once the budget is spent, with fewer rounds.
    for _ in 0..ROUNDS {
        if start.elapsed() >= budget {
            break;
        }
        for _ in 0..SETUPS_PER_ROUND {
            // Drop the old rows first, so the peak resident set holds
            // one set of simulators.
            rows.clear();
            let fresh = setup(w, tracer);
            setup_secs.push(fresh.elapsed.as_secs_f64());
            *rows = fresh.rows;
        }
        for (i, row) in rows.iter_mut().enumerate() {
            let (ledger, want) = &refs[i];
            let t = &mut times[i];
            let chunk_start = Instant::now();
            let (mut committed, mut run_ns) = (0u64, 0u64);
            loop {
                request += 1;
                let t0 = Instant::now();
                let rep = tracer.begin("row.rep", None, request);
                let sim = tracer
                    .span("sim.rebuild", rep, request, || {
                        Simulator::rebuild_or_new(&mut row.slot, row.cw.program(), row.config)
                    })
                    .expect("simulator rebuilds");
                let t1 = Instant::now();
                let run = tracer.span("sim.run", rep, request, || sim.run(u64::MAX));
                let t2 = Instant::now();
                tracer.end(rep);
                let stats = run.expect("workload halts").stats;
                let host = sim.take_host_profile();
                report.attempted += 1;
                let got = Ledger { stats, skipped_cycles: host.skipped_cycles };
                if got != *ledger {
                    report
                        .mismatch(format!("{}: simulated counts changed between runs", row.label));
                } else if row.cw.read_outputs(sim.mem()) != *want {
                    report.mismatch(format!("{}: outputs changed between runs", row.label));
                }
                let ns = u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
                committed += stats.committed;
                run_ns += ns;
                t.best_rep_mips = t.best_rep_mips.max(stats.committed as f64 * 1e3 / ns as f64);
                let job_ms = (t2 - t0).as_secs_f64() * 1e3;
                t.best_job_ms = if t.reps == 0 { job_ms } else { t.best_job_ms.min(job_ms) };
                t.reps += 1;
                t.host.absorb(&host);
                if chunk_start.elapsed() >= slice {
                    break;
                }
            }
            t.chunk_mips.push(committed as f64 * 1e3 / run_ns.max(1) as f64);
        }
    }
    times
}

/// Geometric mean over rows of each row's fastest repetition. Every
/// repetition does identical work, and other tenants of the host only
/// ever slow one down, for seconds at a time on the bench host; the
/// fastest of a row's many repetitions is its steadiest speed estimate
/// (on the bench host it spread half as much between runs as the
/// fastest or median round).
fn sim_mips(times: &[RowTimes]) -> f64 {
    geomean(&times.iter().map(|t| t.best_rep_mips).collect::<Vec<_>>())
}

/// The end-to-end `job_ms`: geometric mean over rows of each row's
/// fastest job, one simulation from `rebuild_or_new` to halt, for the
/// same reason as [`sim_mips`]. Every row counts equally, as every
/// request class does on `serve-routed`.
fn job_ms(times: &[RowTimes]) -> f64 {
    geomean(&times.iter().map(|t| t.best_job_ms).collect::<Vec<_>>())
}

/// Untraced measurement of one workload, or the traced pair.
pub fn run(w: SimWorkload, seconds: u64, traced: bool, report: &mut Report) {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut on = Tracer::new(true, origin);

    let mut su = setup(w, &mut off);
    let mut setup_secs = vec![su.elapsed.as_secs_f64()];
    let refs = reference(&mut su, report);
    let ledger_diffs = check_ledger_file(w, &su, &refs, report);
    print_ledger(&su, &refs);

    let budget = Duration::from_secs(seconds);
    let phase = if traced { budget / 2 } else { budget };
    let times = timed(w, &mut su.rows, &refs, phase, &mut off, &mut setup_secs, report);
    let setup_s = median(&setup_secs);
    let reps: u64 = times.iter().map(|t| t.reps).sum();
    let untraced_job_ms = job_ms(&times);
    report.push("job_ms", untraced_job_ms, "ms", reps);
    report.push("setup_s", setup_s, "s", setup_secs.len() as u64);
    report.push("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    report.detail = Json::obj()
        .with("rows", rows_json(&su, &refs, &times))
        .with("timed_reps", reps)
        .with("setup_samples_s", Json::Arr(setup_secs.iter().map(|&x| Json::from(x)).collect()))
        .with("ledger_differs_from", ledger_diffs);
    if !traced {
        return;
    }

    // The traced half: the same set-ups and rounds with spans recorded.
    let rss_before = peak_rss_mib();
    let mut traced_setup_secs = Vec::new();
    let ttimes = timed(w, &mut su.rows, &refs, phase, &mut on, &mut traced_setup_secs, report);
    let traced_setup_s = median(&traced_setup_secs);
    report.metrics.clear();
    layer_metrics(w, &su, &refs, &ttimes, &on, report);
    report.push("sim_mips", sim_mips(&times), "MIPS", reps);
    report.push("trace.overhead.job_ms", job_ms(&ttimes) / untraced_job_ms - 1.0, "ratio", 2);
    report.push("trace.overhead.setup_s", traced_setup_s / setup_s - 1.0, "ratio", 2);
    report.push("trace.overhead.peak_rss_mib", peak_rss_mib() / rss_before - 1.0, "ratio", 2);
    crate::report::write_spans(&on, w.name());
}

/// Per-layer metrics from the traced phase and the exact ledger. The
/// `tier.*` metrics are reported under tiered stepping only; elsewhere
/// they read 0 with 0 samples.
fn layer_metrics(
    w: SimWorkload,
    su: &Setup,
    refs: &[(Ledger, Vec<u64>)],
    times: &[RowTimes],
    tracer: &Tracer,
    report: &mut Report,
) {
    let compile = tracer.layer("compile");
    report.push("compile.calls", compile.calls as f64, "count", compile.calls);
    report.push(
        "compile.us_per_call",
        compile.total_ns as f64 / 1e3 / compile.calls.max(1) as f64,
        "us",
        compile.calls,
    );
    let run = tracer.layer("sim.run");
    let rebuild = tracer.layer("sim.rebuild");
    let mut cycles_timed = 0u64;
    let mut committed_timed = 0u64;
    let mut roi_timed = 0u64;
    let mut host = HostProfile::default();
    for ((ledger, _), t) in refs.iter().zip(times) {
        cycles_timed += ledger.stats.cycles * t.reps;
        committed_timed += ledger.stats.committed * t.reps;
        roi_timed += ledger.stats.roi_cycles * t.reps;
        host.absorb(&t.host);
    }
    report.push("sim.run_ms", run.total_ns as f64 / 1e6, "ms", run.calls);
    report.push(
        "sim.ns_per_cycle",
        run.total_ns as f64 / cycles_timed.max(1) as f64,
        "ns",
        run.calls,
    );
    report.push(
        "sim.ns_per_committed",
        run.total_ns as f64 / committed_timed.max(1) as f64,
        "ns",
        run.calls,
    );
    report.push(
        "sim.rebuild_us",
        rebuild.total_ns as f64 / 1e3 / rebuild.calls.max(1) as f64,
        "us",
        rebuild.calls,
    );

    // Exact counts: one run of every row, summed.
    let mut s = SimStats::default();
    let mut skipped = 0u64;
    for (l, _) in refs {
        let x = l.stats;
        s.cycles += x.cycles;
        s.committed += x.committed;
        s.ff_committed += x.ff_committed;
        s.roi_cycles += x.roi_cycles;
        s.secure_committed += x.secure_committed;
        s.il1.misses += x.il1.misses;
        s.dl1.misses += x.dl1.misses;
        s.l2.misses += x.l2.misses;
        s.bpred.cond_mispredicts += x.bpred.cond_mispredicts + x.bpred.indirect_mispredicts;
        s.squashes += x.squashes;
        s.load_replays += x.load_replays;
        s.drain_stall_cycles += x.drain_stall_cycles;
        skipped += l.skipped_cycles;
    }
    let rows = su.rows.len() as u64;
    let exact =
        |report: &mut Report, name: &str, v: u64| report.push(name, v as f64, "count", rows);
    exact(report, "sim.cycles", s.cycles);
    exact(report, "sim.committed", s.committed);
    report.push("sim.ipc", s.committed as f64 / s.cycles.max(1) as f64, "ratio", rows);
    report.push("sim.skipped_share", skipped as f64 / s.cycles.max(1) as f64, "ratio", rows);
    exact(report, "sim.il1.misses", s.il1.misses);
    exact(report, "sim.dl1.misses", s.dl1.misses);
    exact(report, "sim.l2.misses", s.l2.misses);
    exact(report, "sim.bpred.mispredicts", s.bpred.cond_mispredicts);
    exact(report, "sim.squashes", s.squashes);
    exact(report, "sim.load_replays", s.load_replays);
    exact(report, "sim.drain_stall_cycles", s.drain_stall_cycles);
    exact(report, "sim.secure_committed", s.secure_committed);

    if w.stepping() != Stepping::Tiered {
        return;
    }
    report.push("tier.ff_share", s.ff_committed as f64 / s.committed.max(1) as f64, "ratio", rows);
    report.push(
        "tier.ff_ns_per_insn",
        host.ff_ns as f64 / host.ff_instructions.max(1) as f64,
        "ns",
        host.ff_instructions,
    );
    report.push(
        "tier.warm_share",
        host.warm_ns as f64 / host.ff_ns.max(1) as f64,
        "ratio",
        host.runs,
    );
    exact(report, "tier.roi_cycles", s.roi_cycles);
    report.push(
        "tier.detailed_ns_per_roi_cycle",
        host.run_ns.saturating_sub(host.ff_ns) as f64 / roi_timed.max(1) as f64,
        "ns",
        host.runs,
    );
}

fn rows_json(su: &Setup, refs: &[(Ledger, Vec<u64>)], times: &[RowTimes]) -> Json {
    Json::Arr(
        su.rows
            .iter()
            .zip(refs)
            .zip(times)
            .map(|((row, (ledger, _)), t)| {
                Json::obj()
                    .with("row", row.label.as_str())
                    .with("group", su.programs[row.program].group)
                    .with("mips_median", median(&t.chunk_mips))
                    .with("best_rep_mips", t.best_rep_mips)
                    .with("best_job_ms", t.best_job_ms)
                    .with(
                        "mips_chunks",
                        Json::Arr(t.chunk_mips.iter().map(|&m| Json::from(m)).collect()),
                    )
                    .with("chunks", t.chunk_mips.len() as u64)
                    .with("reps", t.reps)
                    .with("exact", ledger.to_json())
            })
            .collect(),
    )
}

fn ledger_digest(su: &Setup, refs: &[(Ledger, Vec<u64>)]) -> Json {
    let mut obj = Json::obj();
    for (row, (ledger, _)) in su.rows.iter().zip(refs) {
        obj.set(&row.label, ledger.to_json());
    }
    obj
}

/// Check this run's exact counts against the first run of the same code
/// in this checkout: the ledger file is named by the source digest, and
/// runs of the same code must agree exactly. Ledgers left by other code
/// are compared too, but a difference there is only reported, since a
/// change to the model may move the counts on purpose. Returns, per
/// other source digest, the rows whose counts differ from it.
fn check_ledger_file(
    w: SimWorkload,
    su: &Setup,
    refs: &[(Ledger, Vec<u64>)],
    report: &mut Report,
) -> Json {
    let now = ledger_digest(su, refs);
    let encoded = now.encode();
    let prefix = format!("ledger-{}-", w.name());
    let own = format!("{prefix}{:016x}.json", source_digest());
    let path = out_dir().join(&own);
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == encoded => {}
        Ok(_) => report.mismatch(format!(
            "exact simulated counts differ from an earlier run of the same code, recorded in {}",
            path.display()
        )),
        Err(_) => {
            std::fs::create_dir_all(out_dir()).ok();
            if let Err(e) = std::fs::write(&path, format!("{encoded}\n")) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
    }
    let mut names: Vec<String> = std::fs::read_dir(out_dir())
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&prefix) && n.ends_with(".json") && *n != own)
        .collect();
    names.sort();
    let mut diffs = Json::obj();
    for name in names {
        let text = std::fs::read_to_string(out_dir().join(&name)).unwrap_or_default();
        let Ok(prev) = json::parse(&text) else { continue };
        let rows: Vec<&str> = su
            .rows
            .iter()
            .map(|r| r.label.as_str())
            .filter(|&l| prev.get(l) != now.get(l))
            .collect();
        if !rows.is_empty() {
            let digest = &name[prefix.len()..name.len() - ".json".len()];
            eprintln!(
                "perfbench: exact counts differ from those of source {digest} in: {}",
                rows.join(", ")
            );
            diffs.set(digest, Json::Arr(rows.into_iter().map(Json::from).collect()));
        }
    }
    diffs
}

fn print_ledger(su: &Setup, refs: &[(Ledger, Vec<u64>)]) {
    println!(
        "{:28} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9}",
        "row (exact counts)",
        "cycles",
        "committed",
        "skipped",
        "ff",
        "roi",
        "dl1miss",
        "l2miss",
        "mispred",
        "squash",
        "replay",
        "drain"
    );
    for (row, (l, _)) in su.rows.iter().zip(refs) {
        let s = l.stats;
        println!(
            "{:28} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9}",
            row.label,
            s.cycles,
            s.committed,
            l.skipped_cycles,
            s.ff_committed,
            s.roi_cycles,
            s.dl1.misses,
            s.l2.misses,
            s.bpred.cond_mispredicts + s.bpred.indirect_mispredicts,
            s.squashes,
            s.load_replays,
            s.drain_stall_cycles
        );
    }
}
