//! Watchdog smoke test on the shared `tia_verify::fixtures` relay
//! deadlock: two relay PEs wired head to tail, each waiting for the
//! token only the other could produce. The fabric never halts, never
//! retires, and holds no buffered tokens — the quiescent-fixed-point
//! hang the watchdog exists to catch.
//!
//! The fixture lives in `tia-verify` so the *same* fabric is checked
//! statically by the model checker (see `verify_replay.rs`, which
//! asserts the checker finds this exact wedge) and dynamically here.

use tia::ckpt::{hang_report, run_guarded, GuardedOutcome, Hang, Watchdog};
use tia::fabric::{Memory, ProcessingElement, System, Token};
use tia::isa::Params;
use tia::sim::FuncPe;
use tia::verify::fixtures::{relay_deadlock, Fixture};

/// Builds the concrete system for the shared relay-deadlock fixture.
fn fixture_system(fixture: &Fixture, params: &Params) -> System<FuncPe> {
    let mut system = System::new(Memory::new(0));
    for program in &fixture.programs {
        system.add_pe(FuncPe::new(params, program.clone()).expect("fixture validates"));
    }
    for link in &fixture.links {
        system.connect(link.from, link.to).expect("fixture wires");
    }
    system
}

fn relay_deadlock_system(params: &Params) -> System<FuncPe> {
    fixture_system(&relay_deadlock(params), params)
}

#[test]
fn watchdog_flags_the_seeded_two_pe_deadlock_within_its_window() {
    let params = Params::default();
    let mut system = relay_deadlock_system(&params);
    let window = 64;
    let mut watchdog = Watchdog::new(window);
    match run_guarded(&mut system, 100_000, &mut watchdog) {
        GuardedOutcome::Hung(hang) => {
            // Empty queues: this is the quiescent fixed point, not a
            // token deadlock, and it must be flagged within one window
            // of the start (plus the baseline observation).
            assert!(
                matches!(hang, Hang::Quiescent { .. }),
                "expected a quiescent hang, got {hang:?}"
            );
            assert!(
                hang.cycle() <= window + 2,
                "hang at cycle {} should be within the {window}-cycle window",
                hang.cycle()
            );
            assert_eq!(hang.stalled_for(), window);

            // The diagnostic dump carries the hang, a per-PE cycle
            // stack labeling the wedged stall class, and the complete
            // system state for post-mortem inspection.
            let report = hang_report(&system, &hang);
            for key in [
                "\"hang\"",
                "\"description\"",
                "\"system\"",
                "\"pes\"",
                "\"profile\"",
                "\"stack\"",
                "\"bottleneck\"",
                "\"wedged_in\"",
            ] {
                assert!(report.contains(key), "report missing {key}:\n{report}");
            }
            assert!(report.contains("quiescent"), "report:\n{report}");
            // Neither relay PE ever triggers: both are wedged idle
            // (starved inputs, no full outputs, no memory ports).
            assert!(
                report.contains("\"wedged_in\": \"idle\""),
                "report:\n{report}"
            );
        }
        other => panic!("watchdog did not fire: {other:?}"),
    }
}

#[test]
fn watchdog_stays_quiet_on_a_healthy_run_of_the_same_program() {
    // The same relay program with a halting producer: seed PE 0's
    // input directly, let the token circulate, and make sure steady
    // retirement keeps the watchdog silent until the cycle limit.
    let params = Params::default();
    let mut system = relay_deadlock_system(&params);
    assert!(
        system.pe_mut(0).input_queue_mut(0).push(Token::data(7)),
        "seed token fits"
    );
    let mut watchdog = Watchdog::new(64);
    let outcome = run_guarded(&mut system, 1_000, &mut watchdog);
    assert_eq!(outcome, GuardedOutcome::CycleLimit { cycle: 1_000 });
    assert!(system.total_retired() > 0);
}

#[test]
fn checker_and_watchdog_agree_on_the_shared_fixture() {
    // The model checker must find, statically, the same wedge the
    // runtime watchdog catches dynamically — same classification
    // (quiescent: frozen with zero buffered tokens).
    let params = Params::default();
    let fixture = relay_deadlock(&params);
    let report =
        tia::verify::verify_system(&fixture.programs, &params, &fixture.links, &fixture.options);
    assert!(report.exhaustive, "{report:?}");
    let finding = report
        .findings
        .iter()
        .find(|f| f.check == tia::lint::Check::FabricQuiescence)
        .expect("checker finds the quiescent wedge");
    let trace = finding.trace.as_ref().expect("with a counterexample");
    assert_eq!(trace.bad.tokens, 0, "quiescent means zero tokens");

    let mut system = relay_deadlock_system(&params);
    let mut watchdog = Watchdog::new(64);
    match run_guarded(&mut system, 100_000, &mut watchdog) {
        GuardedOutcome::Hung(hang) => {
            assert!(
                matches!(hang, Hang::Quiescent { .. }),
                "watchdog classification must match the checker's: {hang:?}"
            );
        }
        other => panic!("watchdog missed the verified wedge: {other:?}"),
    }
}
