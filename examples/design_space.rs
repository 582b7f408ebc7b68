//! Design-space exploration with the extended memory-system knobs: port
//! implementations (ideal ports, interleaved banks, line buffer) and
//! recovery policy — the cost/complexity investigation the paper's
//! conclusion calls for.
//!
//! ```text
//! cargo run --release --example design_space -- vortex
//! ```

use arl::stats::TableBuilder;
use arl::timing::{MachineConfig, RecoveryMode, TimingSim};
use arl::workloads::{workload, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vortex".to_string());
    let spec = workload(&name)
        .ok_or_else(|| format!("unknown workload `{name}` (try: go, gcc, li, vortex, ...)"))?;
    let program = spec.build(Scale::default());

    let mut configs: Vec<MachineConfig> = Vec::new();

    // Bandwidth implementations around a 4-wide budget.
    configs.push(MachineConfig::conventional(1, 2));
    let mut lb = MachineConfig::conventional(1, 2);
    lb.dcache = lb.dcache.with_line_buffer();
    lb.name = "(1-port+linebuf)".into();
    configs.push(lb);
    let mut banked = MachineConfig::conventional(4, 2);
    banked.dcache = banked.dcache.with_banks(4);
    banked.name = "(4-bank)".into();
    configs.push(banked);
    configs.push(MachineConfig::conventional(4, 2));

    // The decoupled design, ideal and with realistic trimmings.
    configs.push(MachineConfig::decoupled(3, 3));
    let mut trimmed = MachineConfig::decoupled(3, 3);
    trimmed.dcache = trimmed.dcache.with_banks(4);
    trimmed.recovery = RecoveryMode::Squash;
    trimmed.name = "(3b+3) realistic".into();
    configs.push(trimmed);

    let mut t = TableBuilder::new(&["config", "cycles", "IPC", "vs 1-port", "L1 hit%"]);
    let mut base = 0u64;
    for config in &configs {
        let stats = TimingSim::run_program(&program, config);
        if base == 0 {
            base = stats.cycles;
        }
        t.row(&[
            stats.config_name.clone(),
            stats.cycles.to_string(),
            format!("{:.2}", stats.ipc()),
            format!("{:.3}", base as f64 / stats.cycles as f64),
            format!("{:.1}", 100.0 * stats.dcache.hit_rate()),
        ]);
    }
    println!(
        "{} ({}) across bandwidth implementations:\n\n{}",
        spec.name,
        spec.spec_name,
        t.render()
    );
    println!(
        "The \"realistic\" row swaps two idealizations at once: 4 single-ported\n\
         banks instead of 3 ideal ports, and squash recovery. That it keeps pace\n\
         with the idealized (3+3) is the cost argument the paper's conclusion\n\
         asks for: the decoupled design survives realistic bandwidth\n\
         implementations."
    );
    Ok(())
}
