//! Cycle-skip equivalence tests: runs with the next-event fast-forward
//! (the default) must be **bit-for-bit identical** — cycles, committed
//! count, full statistics, architectural state, `Strictness::Full`
//! observation traces, and error values including the cycle they fire
//! at — to runs under forced classic 1-cycle stepping
//! ([`SimConfig::with_classic_stepping`]).
//!
//! The golden cycle tables in `crates/bench/tests/golden_cycles.rs`
//! (whose numbers predate skipping) and the fuzzer's skip differential
//! extend this proof to every workload and every generated program.

use sempe_compile::{compile, parse_wir, Backend};
use sempe_core::{first_divergence, Strictness};
use sempe_isa::asm::Asm;
use sempe_isa::program::Program;
use sempe_isa::reg::Reg;
use sempe_sim::pipeline::SimError;
use sempe_sim::{SimConfig, SimStats, Simulator};
use sempe_workloads::membound::{pointer_chase_program, ChaseParams};

const FUEL: u64 = 50_000_000;

/// Outcome of one run, with everything the equivalence compares.
struct Observed {
    result: Result<SimStats, SimError>,
    final_cycle_stats: SimStats,
    regs: Vec<u64>,
    trace: sempe_core::trace::ObservationTrace,
    skipped: u64,
    skips: u64,
}

fn observe(prog: &Program, config: SimConfig, fuel: u64) -> Observed {
    let mut sim = Simulator::new(prog, config.with_trace()).expect("builds");
    // A fresh machine's ledger is drained at the start of the trial.
    let _ = sim.take_host_profile();
    let result = sim.run(fuel).map(|r| r.stats);
    let host = sim.take_host_profile();
    let (skipped, skips) = (host.skipped_cycles, host.skips);
    Observed {
        result,
        final_cycle_stats: sim.stats(),
        regs: (0..32).map(|i| sim.arch_reg(Reg::x(i))).collect(),
        trace: sim.trace().clone(),
        skipped,
        skips,
    }
}

/// Run `prog` under both stepping modes and assert full equivalence.
/// Returns the skip-mode counters so callers can assert skipping
/// actually engaged.
fn assert_equivalent(prog: &Program, config: SimConfig, fuel: u64) -> (u64, u64) {
    let skip = observe(prog, config, fuel);
    let classic = observe(prog, config.with_classic_stepping(), fuel);
    assert_eq!(skip.result, classic.result, "run outcome must match");
    assert_eq!(skip.final_cycle_stats, classic.final_cycle_stats, "statistics must match");
    assert_eq!(skip.regs, classic.regs, "architectural registers must match");
    assert_eq!(
        first_divergence(&skip.trace, &classic.trace, Strictness::Full),
        None,
        "observation traces must match"
    );
    assert_eq!((classic.skipped, classic.skips), (0, 0), "classic stepping must never skip");
    (skip.skipped, skip.skips)
}

/// A serialized chain of dependent cache-missing loads: the stall-heavy
/// shape skipping exists for. Each load's address hangs off the previous
/// load's (zero) value, so the machine drains completely between misses.
fn miss_chain_program(links: u32) -> Program {
    let mut a = Asm::new();
    a.movi(Reg::x(5), 0);
    a.movi(Reg::x(6), 0x20_0000);
    a.movi(Reg::x(7), 0);
    for _ in 0..links {
        // x6 advances by a miss-distance stride but *through* x5, the
        // previous load's value, serializing the chain.
        a.add(Reg::x(6), Reg::x(6), Reg::x(5));
        a.addi(Reg::x(6), Reg::x(6), 8192);
        a.ld(Reg::x(5), Reg::x(6), 0);
        a.add(Reg::x(7), Reg::x(7), Reg::x(5));
    }
    a.halt();
    a.assemble().expect("assembles")
}

#[test]
fn stall_heavy_chain_is_equivalent_and_actually_skips() {
    let prog = miss_chain_program(24);
    for config in [SimConfig::baseline(), SimConfig::paper()] {
        let (skipped, skips) = assert_equivalent(&prog, config, FUEL);
        assert!(skips >= 20, "a 24-miss chain must fast-forward repeatedly, got {skips}");
        assert!(skipped > 2000, "most of the stall cycles must be skipped, got {skipped}");
    }
}

#[test]
fn secure_regions_with_memory_traffic_are_equivalent() {
    // Secret-dependent region with loads on both paths plus SPM drains:
    // exercises sJMP rename blocking, eosJMP redirect stalls, and the
    // drain-stall bulk accounting under skip.
    let mut a = Asm::new();
    let then_ = a.label("then");
    let join = a.label("join");
    a.movi(Reg::x(3), 1);
    a.movi(Reg::x(6), 0x30_0000);
    a.sbne(Reg::x(3), Reg::X0, then_);
    a.ld(Reg::x(5), Reg::x(6), 0); // NT path: cold miss
    a.add(Reg::x(7), Reg::x(7), Reg::x(5));
    a.jmp(join);
    a.bind(then_).unwrap();
    a.ld(Reg::x(5), Reg::x(6), 16384); // T path: different cold miss
    a.add(Reg::x(7), Reg::x(7), Reg::x(5));
    a.bind(join).unwrap();
    a.eosjmp();
    a.halt();
    let prog = a.assemble().unwrap();
    for config in [SimConfig::baseline(), SimConfig::paper()] {
        assert_equivalent(&prog, config, FUEL);
    }
}

#[test]
fn compiled_chase_workload_is_equivalent_on_all_backends() {
    let chase = pointer_chase_program(&ChaseParams { words: 1 << 12, iters: 256 });
    for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
        let cw = compile(&chase, backend).expect("compiles");
        let config = match backend {
            Backend::Sempe => SimConfig::paper(),
            _ => SimConfig::baseline(),
        };
        let (skipped, _) = assert_equivalent(cw.program(), config, FUEL);
        assert!(skipped > 0, "{backend}: the chase must skip");
    }
}

#[test]
fn secret_branching_workload_is_equivalent_under_sempe() {
    let src = r"
        secret key = 0b1011;
        var r = 1;
        var base = 7;
        var i = 0;
        var bit = 0;
        array tab[8] = {3, 5, 7, 11, 13, 17, 19, 23};
        while (i < 8) bound 9 {
            bit = (key >> i) & 1;
            if secret (bit) { r = (r * tab[i & 7]) % 1000003; }
            base = (base * base) % 1000003;
            i = i + 1;
        }
        output r;
    ";
    let prog = parse_wir(src).expect("parses").program;
    for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
        let cw = compile(&prog, backend).expect("compiles");
        let config = match backend {
            Backend::Sempe => SimConfig::paper(),
            _ => SimConfig::baseline(),
        };
        assert_equivalent(cw.program(), config, FUEL);
    }
}

/// `max_cycles` exhaustion mid-stall: the skip must clamp to the budget
/// and report the error at exactly the classic cycle with identical
/// statistics.
#[test]
fn cycle_budget_fires_identically_under_skip() {
    let prog = miss_chain_program(8);
    // A budget landing inside a quiescent miss window.
    for fuel in [40, 170, 333] {
        let skip = observe(&prog, SimConfig::baseline(), fuel);
        let classic = observe(&prog, SimConfig::baseline().with_classic_stepping(), fuel);
        assert_eq!(
            skip.result,
            Err(SimError::CyclesExhausted { max_cycles: fuel }),
            "budget {fuel} must exhaust"
        );
        assert_eq!(skip.result, classic.result);
        assert_eq!(skip.final_cycle_stats, classic.final_cycle_stats, "fuel {fuel}");
        assert_eq!(skip.final_cycle_stats.cycles, fuel, "error must fire at the budget cycle");
    }
}

/// The watchdog must fire at exactly the classic cycle even when the
/// quiescent span extends past its deadline — a skip may not jump over
/// the bound.
#[test]
fn watchdog_fires_identically_under_skip() {
    let prog = miss_chain_program(4);
    // Far smaller than the ~165-cycle memory round trip, so the watchdog
    // deadline lands inside a genuine stall window.
    let mut config = SimConfig::baseline();
    config.watchdog_cycles = 40;
    let skip = observe(&prog, config, FUEL);
    let classic = observe(&prog, config.with_classic_stepping(), FUEL);
    assert!(
        matches!(skip.result, Err(SimError::Watchdog { .. })),
        "expected a watchdog trip, got {:?}",
        skip.result
    );
    assert_eq!(skip.result, classic.result, "watchdog cycle/pc context must match");
    assert_eq!(skip.final_cycle_stats, classic.final_cycle_stats);
}

/// A wedged machine (fetch parked on a bad PC with nothing in flight)
/// has no next event at all: the skip must jump straight to the watchdog
/// deadline, not hang, and report the identical error.
#[test]
fn wedged_machine_skips_to_the_watchdog() {
    // Jump into unmapped space: fetch parks on BadPc forever and no
    // squash can come.
    let mut a = Asm::new();
    a.jr(Reg::X0, 0x9_0000);
    let prog = a.assemble().unwrap();
    let mut config = SimConfig::baseline();
    config.watchdog_cycles = 500;
    let skip = observe(&prog, config, FUEL);
    let classic = observe(&prog, config.with_classic_stepping(), FUEL);
    assert!(matches!(skip.result, Err(SimError::Watchdog { .. })), "got {:?}", skip.result);
    assert_eq!(skip.result, classic.result);
    assert!(skip.skipped > 0, "the wedge must be fast-forwarded, not ticked through");
}

/// Divider-bound and branchy programs keep the ready lists busy; the
/// skip must stay out of the way and still agree.
#[test]
fn compute_dense_program_is_equivalent() {
    let mut a = Asm::new();
    let top = a.label("top");
    a.movi(Reg::x(3), 97);
    a.movi(Reg::x(4), 13);
    a.movi(Reg::x(5), 40);
    a.bind(top).unwrap();
    a.div(Reg::x(6), Reg::x(3), Reg::x(4));
    a.mul(Reg::x(3), Reg::x(6), Reg::x(4));
    a.addi(Reg::x(3), Reg::x(3), 101);
    a.addi(Reg::x(5), Reg::x(5), -1);
    a.bne(Reg::x(5), Reg::X0, top);
    a.halt();
    let prog = a.assemble().unwrap();
    assert_equivalent(&prog, SimConfig::baseline(), FUEL);
}

/// Checkpoint/fork composes with skipping: a restored run re-skips and
/// still reproduces the cold run bit for bit.
#[test]
fn fork_and_skip_compose() {
    let prog = miss_chain_program(12);
    let config = SimConfig::baseline().with_trace();
    let mut cold = Simulator::new(&prog, config).unwrap();
    let cp = cold.checkpoint().unwrap();
    let _ = cold.take_host_profile();
    let cold_res = cold.run(FUEL).unwrap();
    let cold_trace = cold.trace().clone();
    let cold_skipped = cold.take_host_profile().skipped_cycles;
    assert!(cold_skipped > 0);

    let mut forked = Simulator::from_checkpoint(&cp);
    let _ = forked.take_host_profile();
    let forked_res = forked.run(FUEL).unwrap();
    assert_eq!(forked_res.stats, cold_res.stats);
    assert_eq!(first_divergence(&cold_trace, forked.trace(), Strictness::Full), None);
    assert_eq!(forked.take_host_profile().skipped_cycles, cold_skipped, "same machine, same skips");
}
