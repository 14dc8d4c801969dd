//! Regenerates **Figure 3**: area and power breakdown of the
//! single-cycle baseline PE (64,435 µm², 1.95 mW), plus the §4
//! front-end / back-end accounting.

use serde::Serialize;
use tia_bench::{checked_args, json_out_from_args, write_json, Table, JSON_FLAG};
use tia_energy::area_power::{Component, TDX_AREA_UM2, TDX_POWER_MW};

#[derive(Serialize)]
struct BreakdownPoint {
    component: String,
    end: String,
    area_fraction: f64,
    area_um2: f64,
    power_fraction: f64,
    power_mw: f64,
}

fn main() {
    checked_args(&[JSON_FLAG]);
    let mut t = Table::new(&["component", "area %", "area µm²", "power %", "power mW"]);
    let mut points: Vec<BreakdownPoint> = Vec::new();
    for c in Component::ALL {
        points.push(BreakdownPoint {
            component: c.name().to_string(),
            end: c.end().to_string(),
            area_fraction: c.area_fraction(),
            area_um2: TDX_AREA_UM2 * c.area_fraction(),
            power_fraction: c.power_fraction(),
            power_mw: TDX_POWER_MW * c.power_fraction(),
        });
        t.row_owned(vec![
            c.name().to_string(),
            format!("{:.0}%", 100.0 * c.area_fraction()),
            format!("{:.0}", TDX_AREA_UM2 * c.area_fraction()),
            format!("{:.0}%", 100.0 * c.power_fraction()),
            format!("{:.3}", TDX_POWER_MW * c.power_fraction()),
        ]);
    }
    println!(
        "Figure 3: single-cycle PE breakdown (total {TDX_AREA_UM2} µm², {TDX_POWER_MW} mW).\n"
    );
    print!("{}", t.render());

    let split = |end: &str, f: fn(Component) -> f64| -> f64 {
        Component::ALL
            .iter()
            .filter(|c| c.end() == end)
            .map(|c| f(*c))
            .sum::<f64>()
    };
    println!();
    println!(
        "front end (Pred. Unit + Ins. Mem. + Scheduler): {:.0}% area, {:.0}% power (paper: 32% / 48%)",
        100.0 * split("front", Component::area_fraction),
        100.0 * split("front", Component::power_fraction),
    );
    println!(
        "back end (RegFile + ALU):                       {:.0}% area, {:.0}% power (paper: 46% / 23%)",
        100.0 * split("back", Component::area_fraction),
        100.0 * split("back", Component::power_fraction),
    );
    println!(
        "queues (neutral):                               {:.0}% area, {:.0}% power (paper: 18% / 22%)",
        100.0 * Component::Queues.area_fraction(),
        100.0 * Component::Queues.power_fraction(),
    );
    if let Some(path) = json_out_from_args() {
        write_json(&path, &points);
    }
}
