//! Differential conformance: the smoke matrix and the fault-injection
//! suite must pass under `cargo test`, independent of the `harness`
//! CLI. The full 96-point matrix runs in CI behind `HARNESS_FULL=1`
//! (see ci.sh) and locally via `cargo run -p tutel-harness -- --full`.

use tutel_harness::faults::{run_fault_scenarios, Collective};
use tutel_harness::matrix::{configs, run_matrix, Mode};
use tutel_suite::comm::AllToAllAlgo;

#[test]
fn smoke_matrix_passes() {
    let verdicts = run_matrix(Mode::Smoke, 42);
    assert_eq!(verdicts.len(), configs(Mode::Smoke).len());
    let failures: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.pass)
        .map(|v| {
            format!(
                "{}: out {:.2} ULP, d_x {:.2} ULP, aux {}",
                v.config.label(),
                v.output_ulp,
                v.d_x_ulp,
                if v.aux_bitwise { "bitwise" } else { "DIFFERS" }
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "matrix failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn bitwise_eligible_points_are_actually_bitwise() {
    let verdicts = run_matrix(Mode::Smoke, 7);
    let mut bitwise_points = 0;
    for v in &verdicts {
        if v.config.ulp_budget() == 0 {
            assert!(v.bitwise, "{} must be bitwise", v.config.label());
            bitwise_points += 1;
        }
    }
    assert!(
        bitwise_points > 0,
        "smoke must include bitwise-eligible points"
    );
}

#[test]
fn fault_scenarios_pass_for_a2a_and_2dh() {
    for algo in AllToAllAlgo::ALL {
        let collective = Collective::AllToAllV(algo);
        let report = run_fault_scenarios(collective, 0xFA17);
        assert!(
            report.pass,
            "{} fault scenarios failed: {report:?}",
            report.collective.label()
        );
        assert!(report.injected > 0, "scenario must actually inject faults");
    }
}
