//! Counter-lifetime contract across arena reuse (`Simulator::rebuild`)
//! and fork-server restores (`Simulator::restore_from`).
//!
//! The service keeps one simulator arena per worker thread and reuses
//! it across jobs, so any counter that silently survives a rebuild or
//! restore leaks one job's diagnostics into the next. This suite pins
//! the intended lifetimes:
//!
//! * `SimStats` — reset by `rebuild` (fresh machine), rolled back to
//!   the checkpoint-time baseline by `restore_from`;
//! * `HostProfile` (including the skip counters) — per-request: reset
//!   by `rebuild` and `take_host_profile()`, but *accumulating* across
//!   `restore_from` so one ledger covers a whole restore-patch-run
//!   batch. A per-trial reading is the ledger's growth over the trial.

use sempe_compile::wir::{Expr, WirBuilder};
use sempe_compile::{compile, Backend};
use sempe_sim::{SimConfig, Simulator, Stepping};

/// A secret-branching loop with enough memory traffic to commit real
/// cycles and trigger next-event skips.
fn workload(key: u64) -> sempe_compile::CompiledWorkload {
    let mut b = WirBuilder::new();
    let k = b.var("key", key);
    let r = b.var("r", 1);
    let base = b.var("base", 7);
    let bit = b.var("bit", 0);
    let mut body = Vec::new();
    for i in 0..6 {
        body.push(b.assign(
            bit,
            Expr::bin(
                sempe_compile::BinOp::And,
                Expr::bin(sempe_compile::BinOp::Shr, Expr::Var(k), Expr::Const(i)),
                Expr::Const(1),
            ),
        ));
        body.push(sempe_compile::Stmt::If {
            cond: Expr::Var(bit),
            secret: true,
            then_: vec![b.assign(
                r,
                Expr::bin(
                    sempe_compile::BinOp::Rem,
                    Expr::bin(sempe_compile::BinOp::Mul, Expr::Var(r), Expr::Var(base)),
                    Expr::Const(1_000_003),
                ),
            )],
            else_: Vec::new(),
        });
        body.push(b.assign(
            base,
            Expr::bin(
                sempe_compile::BinOp::Rem,
                Expr::bin(sempe_compile::BinOp::Mul, Expr::Var(base), Expr::Var(base)),
                Expr::Const(1_000_003),
            ),
        ));
    }
    for s in body {
        b.push(s);
    }
    b.output(r);
    compile(&b.build(), Backend::Sempe).unwrap()
}

const FUEL: u64 = 1_000_000;

#[test]
fn rebuild_resets_stats_skip_counters_and_host_profile() {
    let cw = workload(0b101101);
    let prog = cw.program();
    let mut sim = Simulator::new(prog, SimConfig::paper()).unwrap();
    sim.run(FUEL).unwrap();
    let first_stats = sim.stats();
    assert!(first_stats.cycles > 0, "the workload must commit cycles");
    let profile = sim.host_profile();
    assert!(profile.runs == 1, "one run recorded: {profile:?}");
    assert!(profile.run_ns > 0, "a multi-thousand-cycle run takes host time");
    assert!(profile.decode_ns > 0, "construction decodes the image");

    // Rebuild for the next job: every ledger restarts from zero.
    sim.rebuild(prog, SimConfig::paper()).unwrap();
    assert_eq!(sim.stats().cycles, 0, "stats reset on rebuild");
    let fresh = sim.host_profile();
    assert_eq!((fresh.runs, fresh.restores, fresh.run_ns), (0, 0, 0));
    assert_eq!((fresh.skipped_cycles, fresh.skips), (0, 0), "skip counters reset on rebuild");
    assert!(fresh.decode_ns > 0, "rebuild re-decodes, starting the new ledger");

    // And a rerun reproduces the first run exactly — no carried state.
    let rerun = sim.run(FUEL).unwrap();
    assert_eq!(rerun.stats, first_stats, "rebuild must not leak state into stats");
}

#[test]
fn restore_rolls_stats_back_and_accumulates_host_profile() {
    let cw = workload(0b110011);
    let mut sim = Simulator::new(cw.program(), SimConfig::paper()).unwrap();
    let baseline = sim.stats();
    let cp = sim.checkpoint().unwrap();

    let mut last_stats = None;
    let mut last_skips = None;
    for trial in 1..=3u64 {
        let before = sim.host_profile();
        sim.restore_from(&cp);
        // Per-trial stats rewound to the fork point…
        assert_eq!(sim.stats().cycles, baseline.cycles, "stats roll back to the checkpoint");
        let restored = sim.host_profile();
        assert_eq!(
            (restored.skipped_cycles, restored.skips),
            (before.skipped_cycles, before.skips),
            "a restore adds no skips: the trial's skips start from zero"
        );
        // …while the per-request ledger keeps counting.
        assert_eq!(sim.host_profile().restores, trial, "restores accumulate");
        assert_eq!(sim.host_profile().runs, trial - 1);

        let result = sim.run(FUEL).unwrap();
        if let Some(prev) = last_stats {
            assert_eq!(result.stats, prev, "every trial replays identically");
        }
        last_stats = Some(result.stats);
        let after = sim.host_profile();
        let skips = (after.skipped_cycles - before.skipped_cycles, after.skips - before.skips);
        if let Some(prev) = last_skips {
            assert_eq!(skips, prev, "every trial skips identically");
        }
        last_skips = Some(skips);
    }

    let profile = sim.take_host_profile();
    assert_eq!(profile.runs, 3, "three runs in the request ledger: {profile:?}");
    assert_eq!(profile.restores, 3);
    assert!(profile.run_ns > 0);
    // `take` hands the ledger off and zeroes it for the next request.
    assert_eq!(sim.host_profile(), sempe_sim::HostProfile::default());
}

/// A tiered-execution workload: a long public loop with memory traffic
/// (fast-forwarded, with enough warm calls to cross the sampled
/// `warm_ns` timing threshold) feeding a secret region (detailed).
fn tiered_workload(key: u64) -> sempe_compile::CompiledWorkload {
    use sempe_compile::BinOp;
    let mut b = WirBuilder::new();
    let k = b.var("key", key);
    let acc = b.var("acc", 1);
    let i = b.var("i", 0);
    let tab = b.array("tab", 8, vec![0; 8]);
    let body = vec![
        b.store(tab, Expr::bin(BinOp::And, Expr::Var(i), Expr::Const(7)), Expr::Var(acc)),
        b.assign(
            acc,
            Expr::bin(
                BinOp::And,
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::Var(acc), Expr::Const(3)),
                    Expr::Var(i),
                ),
                Expr::Const(0xF_FFFF),
            ),
        ),
        b.assign(i, Expr::bin(BinOp::Add, Expr::Var(i), Expr::Const(1))),
    ];
    b.while_loop(Expr::bin(BinOp::Ltu, Expr::Var(i), Expr::Const(500)), 501, body);
    let bump = b.assign(acc, Expr::bin(BinOp::Add, Expr::Var(acc), Expr::Const(13)));
    b.if_secret(Expr::bin(BinOp::And, Expr::Var(k), Expr::Const(1)), vec![bump], Vec::new());
    b.output(acc);
    compile(&b.build(), Backend::Sempe).unwrap()
}

#[test]
fn fast_forward_attribution_resets_on_rebuild_and_accumulates_across_restores() {
    let cw = tiered_workload(0b101011);
    let prog = cw.program();
    let tiered = SimConfig::paper().with_stepping(Stepping::Tiered);
    let mut sim = Simulator::new(prog, tiered).unwrap();
    let first = sim.run(FUEL).unwrap();
    assert!(first.stats.ff_committed > 0, "the public squaring chain fast-forwards");
    let profile = sim.host_profile();
    assert_eq!(
        profile.ff_instructions, first.stats.ff_committed,
        "the profile twin bills exactly the instructions the engine retired functionally"
    );
    assert!(profile.ff_ns > 0, "fast-forwarding takes host time: {profile:?}");
    assert!(profile.warm_ns > 0, "warming the timed structures takes host time: {profile:?}");

    // Rebuild for the next job: fast-forward attribution restarts with
    // the rest of the ledger.
    sim.rebuild(prog, tiered).unwrap();
    let fresh = sim.host_profile();
    assert_eq!((fresh.ff_instructions, fresh.ff_ns, fresh.warm_ns), (0, 0, 0));

    // Across a restore-run batch the per-request ledger accumulates,
    // while per-trial `SimStats::ff_committed` rolls back each restore.
    let cp = sim.checkpoint().unwrap();
    let mut total = 0;
    for trial in 1..=3u64 {
        sim.restore_from(&cp);
        assert_eq!(sim.stats().ff_committed, 0, "per-trial stats roll back to the fork point");
        let res = sim.run(FUEL).unwrap();
        assert_eq!(res.stats.ff_committed, first.stats.ff_committed, "trials replay identically");
        total += res.stats.ff_committed;
        assert_eq!(
            sim.host_profile().ff_instructions,
            total,
            "trial {trial}: the request ledger keeps counting"
        );
    }

    // `take` drains fast-forward attribution like every other field.
    let taken = sim.take_host_profile();
    assert_eq!(taken.ff_instructions, total);
    assert_eq!(sim.host_profile(), sempe_sim::HostProfile::default());
}
