//! The fabric toolchain check: every workload fabric as built goes
//! through `tia-lint` and `tia-verify`, then runs on the functional
//! model (`tia-sim`) against its golden output.

use std::time::Instant;

use tia_fabric::{Link, ProcessingElement};
use tia_isa::{Params, Program};
use tia_lint::{lint_system, Check};
use tia_sim::FuncPe;
use tia_verify::{lint_system_with_verify, SeedToken, VerifyOptions, VerifyReport};
use tia_workloads::{ProbePe, Scale, WorkloadError, WorkloadKind, ALL_WORKLOADS};

use crate::inputs::{self, InputSeed};
use crate::spans::Tracer;

/// Findings the repository's `verify_gate` test allowlists, with the
/// same justification: these fabrics bound their loops with register
/// data the model checker's control-plane abstraction cannot see.
const ALLOWLIST: &[(&str, Check)] = &[
    ("stream", Check::FabricDeadlock),
    ("udiv", Check::FabricDeadlock),
    ("filter", Check::FabricDeadlock),
    ("dot_product", Check::FabricDeadlock),
];

/// Fabrics `verify_gate` accepts an inconclusive (state-bounded)
/// verdict for.
const INCONCLUSIVE_ALLOWLIST: &[&str] = &["string_search", "merge", "filter", "dot_product"];

/// One workload fabric as wired, ready for the checkers.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// The workload.
    pub kind: WorkloadKind,
    programs: Vec<Program>,
    links: Vec<Link>,
    options: VerifyOptions,
}

/// Builds every workload's fabric with program-capturing probe PEs, as
/// `verify_gate` does, folding tokens the builder pre-seeds into input
/// queues into the checker's initial state.
///
/// # Errors
///
/// Fails when a builder fails or pre-seeds an output queue, which the
/// checker cannot model.
pub fn build_fabrics(
    scale: Scale,
    seed: InputSeed,
    max_states: usize,
) -> Result<Vec<Fabric>, String> {
    let params = Params::default();
    ALL_WORKLOADS
        .into_iter()
        .map(|kind| {
            let mut factory = |p: &Params, prog| ProbePe::new(p, prog);
            let mut built = inputs::build(kind, scale, seed, &params, &mut factory)
                .map_err(|e| format!("{kind}: probe build failed: {e}"))?;
            let programs: Vec<Program> = (0..built.system.num_pes())
                .map(|pe| built.system.pe(pe).program().clone())
                .collect();
            let mut options = VerifyOptions {
                max_states,
                ..VerifyOptions::default()
            };
            for pe in 0..programs.len() {
                let probe = built.system.pe_mut(pe);
                for queue in 0..params.num_input_queues {
                    let tags: Vec<_> = probe.input_queue_mut(queue).iter().map(|t| t.tag).collect();
                    options
                        .seed_tokens
                        .extend(tags.into_iter().map(|tag| SeedToken { pe, queue, tag }));
                }
                for queue in 0..params.num_output_queues {
                    if !probe.output_queue_mut(queue).is_empty() {
                        return Err(format!("{kind}: pe {pe} %o{queue} is pre-seeded"));
                    }
                }
            }
            Ok(Fabric {
                kind,
                programs,
                links: built.system.links().to_vec(),
                options,
            })
        })
        .collect()
}

/// Whether `report` is a proof, or fails only in the ways
/// `verify_gate` allowlists for this workload. A workload that is newly
/// proved passes.
pub fn verdict_accepted(kind: WorkloadKind, report: &VerifyReport) -> bool {
    let name = kind.name();
    (report.exhaustive || INCONCLUSIVE_ALLOWLIST.contains(&name))
        && report
            .findings
            .iter()
            .all(|f| ALLOWLIST.iter().any(|&(w, c)| w == name && c == f.check))
}

/// What one fabric's check found.
#[derive(Debug, Clone)]
pub struct FabricResult {
    /// The workload.
    pub kind: WorkloadKind,
    /// Wall milliseconds for lint, verify and the functional run.
    pub ms: f64,
    /// Diagnostics from the combined lint-and-verify pass.
    pub diagnostics: usize,
    /// The model checker's report.
    pub report: VerifyReport,
    /// The verdict is a proof or allowlisted.
    pub verdict_ok: bool,
    /// The golden-checked functional run's cycles, or why it failed.
    pub func: Result<u64, WorkloadError>,
}

/// Checks every fabric once: lint alone, lint with the model checker,
/// then a golden-checked functional run from the same inputs.
pub fn pass(
    fabrics: &[Fabric],
    scale: Scale,
    seed: InputSeed,
    tracer: Tracer,
) -> Vec<FabricResult> {
    let params = Params::default();
    fabrics
        .iter()
        .map(|fabric| {
            let name = fabric.kind.name();
            let started = Instant::now();
            let (diags, report, func) = tracer.span("toolchain.fabric", name, || {
                tracer.span("lint.system", name, || {
                    lint_system(&fabric.programs, &params, &fabric.links)
                });
                let (diags, report) = tracer.span("verify.check", name, || {
                    lint_system_with_verify(
                        &fabric.programs,
                        &params,
                        &fabric.links,
                        &fabric.options,
                    )
                });
                let func = functional_run(fabric.kind, scale, seed, &params, tracer);
                (diags, report, func)
            });
            FabricResult {
                kind: fabric.kind,
                ms: started.elapsed().as_secs_f64() * 1e3,
                diagnostics: diags.len(),
                verdict_ok: verdict_accepted(fabric.kind, &report),
                report,
                func,
            }
        })
        .collect()
}

/// Runs `kind` from the same inputs on the functional model and checks
/// its golden output; returns the simulated cycles.
fn functional_run(
    kind: WorkloadKind,
    scale: Scale,
    seed: InputSeed,
    params: &Params,
    tracer: Tracer,
) -> Result<u64, WorkloadError> {
    let name = kind.name();
    let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
    let mut built = tracer.span("workloads.build", name, || {
        inputs::build(kind, scale, seed, params, &mut factory)
    })?;
    tracer.span("sim.func", name, || built.run_to_completion())?;
    tracer.span("workloads.golden", name, || built.verify())?;
    Ok(built.system.cycle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_lint::Level;
    use tia_verify::Finding;

    fn report(exhaustive: bool, checks: &[Check]) -> VerifyReport {
        VerifyReport {
            findings: checks
                .iter()
                .map(|&check| Finding {
                    level: Level::Error,
                    check,
                    pe: None,
                    link: None,
                    message: String::new(),
                    trace: None,
                })
                .collect(),
            exhaustive,
            states: 1,
            transitions: 1,
            max_states: 1,
            fingerprint: 0,
            note: None,
        }
    }

    #[test]
    fn verdicts_follow_the_verify_gate_allowlists() {
        let deadlock = [Check::FabricDeadlock];
        assert!(verdict_accepted(WorkloadKind::Gcd, &report(true, &[])));
        assert!(!verdict_accepted(WorkloadKind::Gcd, &report(false, &[])));
        assert!(!verdict_accepted(
            WorkloadKind::Gcd,
            &report(true, &deadlock)
        ));
        assert!(verdict_accepted(
            WorkloadKind::Udiv,
            &report(true, &deadlock)
        ));
        assert!(!verdict_accepted(
            WorkloadKind::Udiv,
            &report(false, &deadlock)
        ));
        assert!(verdict_accepted(
            WorkloadKind::Filter,
            &report(false, &deadlock)
        ));
        assert!(!verdict_accepted(
            WorkloadKind::Merge,
            &report(false, &deadlock)
        ));
        // Newly proved is never a failure.
        assert!(verdict_accepted(WorkloadKind::Merge, &report(true, &[])));
    }
}
