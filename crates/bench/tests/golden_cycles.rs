//! Golden cycle-count regression tests.
//!
//! The hot-loop optimizations of the simulator (dense instruction fetch,
//! event-queue completions, scratch-buffer stages, memory page cache)
//! must preserve simulated timing **bit-for-bit**: they change how fast
//! the host runs the model, never what the model computes. These tests
//! pin the exact cycle count of every (workload × backend) pair below;
//! any drift is a timing-model regression, not a tolerable delta.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! SEMPE_PRINT_GOLDEN=1 cargo test -p sempe-bench --test golden_cycles -- --nocapture
//! ```

use sempe_bench::{run_backend, BackendRun};
use sempe_compile::wir::WirProgram;
use sempe_workloads::micro::{fig7_program, MicroParams, WorkloadKind};
use sempe_workloads::rsa::{modexp_program, ModexpParams};

/// The pinned configurations: name, program, `[baseline, sempe, cte]`
/// cycle counts.
fn golden_table() -> Vec<(&'static str, WirProgram, [u64; 3])> {
    let micro = |kind: WorkloadKind, scale: u32| {
        fig7_program(&MicroParams { scale, secrets: 0b01, ..MicroParams::new(kind, 2, 2) })
    };
    vec![
        ("micro/fibonacci", micro(WorkloadKind::Fibonacci, 8), [819, 2406, 3804]),
        ("micro/ones", micro(WorkloadKind::Ones, 8), [1139, 3258, 5663]),
        ("micro/quicksort", micro(WorkloadKind::Quicksort, 8), [3443, 11004, 102721]),
        ("micro/queens", micro(WorkloadKind::Queens, 4), [5528, 17240, 483309]),
        ("rsa/modexp8", modexp_program(&ModexpParams::default()), [693, 1675, 748]),
    ]
}

#[test]
fn cycle_counts_are_bit_identical_to_golden() {
    let print = std::env::var("SEMPE_PRINT_GOLDEN").is_ok();
    let mut failures = Vec::new();
    for (name, prog, golden) in golden_table() {
        let mut got = [0u64; 3];
        for (i, which) in BackendRun::ALL.iter().enumerate() {
            got[i] = run_backend(&prog, *which, 200_000_000).cycles;
        }
        if print {
            println!("(\"{name}\", ..., [{}, {}, {}]),", got[0], got[1], got[2]);
        }
        if got != golden {
            failures.push(format!("{name}: golden {golden:?} != measured {got:?}"));
        }
    }
    if !print {
        assert!(failures.is_empty(), "timing drift detected:\n{}", failures.join("\n"));
    }
}

/// Fuzz-corpus seeds double as timing goldens: the differential fuzzer
/// pins their *functional* behavior, this table pins their *simulated
/// timing*, so a timing-model drift that happens to stay functionally
/// correct still trips CI. Regenerate with `SEMPE_PRINT_GOLDEN=1` as
/// above after an intentional model change.
#[test]
fn fuzz_corpus_seeds_cycle_golden() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let table: [(&str, [u64; 3]); 4] = [
        ("ct_modexp.wir", [457, 1003, 460]),
        ("ct_nested_regions_arrays.wir", [337, 755, 409]),
        // The tiered-differential seed: nested regions split across a
        // fast-forward gap (this row pins its full-detailed timing; the
        // tiered tests compare against these same runs).
        ("tiered_regions_across_gap.wir", [3311, 3820, 3253]),
        // The stall-heavy cycle-skip seed: almost every cycle sits in a
        // quiescent miss window, so this row pins the skip path's timing
        // (a wake source that fires early or late moves these numbers).
        ("correctness_stall_chase.wir", [139_678, 139_678, 139_678]),
    ];
    let print = std::env::var("SEMPE_PRINT_GOLDEN").is_ok();
    let mut failures = Vec::new();
    for (file, golden) in table {
        let src = std::fs::read_to_string(corpus.join(file)).expect("corpus seed readable");
        let prog = sempe_compile::parse_wir(&src).expect("corpus seed parses").program;
        let mut got = [0u64; 3];
        for (i, which) in BackendRun::ALL.iter().enumerate() {
            got[i] = run_backend(&prog, *which, 200_000_000).cycles;
        }
        if print {
            println!("(\"{file}\", [{}, {}, {}]),", got[0], got[1], got[2]);
        }
        if got != golden {
            failures.push(format!("{file}: golden {golden:?} != measured {got:?}"));
        }
    }
    if !print {
        assert!(failures.is_empty(), "fuzz-seed timing drift:\n{}", failures.join("\n"));
    }
}

/// Cycle skipping must be semantically invisible on every golden
/// workload and backend: forced classic 1-cycle stepping and the
/// default next-event fast-forward must agree on cycles, the complete
/// statistics block, outputs, and `Strictness::Full` observation
/// traces. (The golden tables above already pin skip-enabled runs to
/// numbers that predate skipping; this test additionally compares the
/// two modes' full observable state directly.)
#[test]
fn cycle_skip_matches_classic_stepping_bit_for_bit() {
    use sempe_compile::compile;
    use sempe_core::{first_divergence, Strictness};
    use sempe_sim::Simulator;

    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let mut programs: Vec<(String, WirProgram)> =
        golden_table().into_iter().map(|(n, p, _)| (n.to_string(), p)).collect();
    let chase = std::fs::read_to_string(corpus.join("correctness_stall_chase.wir"))
        .expect("corpus seed readable");
    programs.push((
        "corpus/stall_chase".to_string(),
        sempe_compile::parse_wir(&chase).expect("parses").program,
    ));

    for (name, prog) in &programs {
        for which in BackendRun::ALL {
            let (backend, config) = which.pair();
            let cw = compile(prog, backend).expect("compiles");
            let run = |classic: bool| {
                let mut c = config.with_trace();
                if classic {
                    c = c.with_classic_stepping();
                }
                let mut sim = Simulator::new(cw.program(), c).expect("builds");
                let _ = sim.take_host_profile();
                let res = sim.run(200_000_000).expect("halts");
                let outputs = cw.read_outputs(sim.mem());
                let trace = sim.trace().clone();
                let host = sim.take_host_profile();
                (res.stats, outputs, trace, (host.skipped_cycles, host.skips))
            };
            let (skip_stats, skip_out, skip_trace, (_, skips)) = run(false);
            let (classic_stats, classic_out, classic_trace, classic_counters) = run(true);
            assert_eq!(skip_stats, classic_stats, "{name}/{which:?}: stats diverge");
            assert_eq!(skip_out, classic_out, "{name}/{which:?}: outputs diverge");
            assert_eq!(
                first_divergence(&skip_trace, &classic_trace, Strictness::Full),
                None,
                "{name}/{which:?}: traces diverge"
            );
            assert_eq!(classic_counters, (0, 0), "{name}/{which:?}: classic must not skip");
            if *name == "corpus/stall_chase" {
                assert!(skips > 0, "{name}/{which:?}: the stall seed must actually skip");
            }
        }
    }
}

/// The same program must also produce identical *architectural* results
/// across backends — outputs are the cheap invariant that catches a
/// functional (not timing) break in the fast paths.
#[test]
fn outputs_agree_across_backends() {
    for (name, prog, _) in golden_table() {
        let base = run_backend(&prog, BackendRun::Baseline, 200_000_000);
        let sempe = run_backend(&prog, BackendRun::Sempe, 200_000_000);
        let cte = run_backend(&prog, BackendRun::Cte, 200_000_000);
        assert_eq!(base.outputs, sempe.outputs, "{name}: sempe output mismatch");
        assert_eq!(base.outputs, cte.outputs, "{name}: cte output mismatch");
    }
}
