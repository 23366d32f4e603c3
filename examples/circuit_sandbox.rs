//! Circuit sandbox: using `ulp-spice` as a standalone analog
//! playground.
//!
//! Builds the paper's Fig. 2 STSCL buffer at transistor level, prints
//! the netlist as `.ulp` text and the tabulated operating point, sweeps the
//! VTC, measures the propagation delay in transient analysis, and runs
//! a noise analysis — the full analog tool flow, no converter involved.
//!
//! Run with: `cargo run --example circuit_sandbox`

use ulp_device::Technology;
use ulp_num::interp::{decade_sweep, linspace};
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::noise::noise_analysis;
use ulp_spice::report::OpReport;
use ulp_spice::Waveform;
use ulp_stscl::vtc::SclBufferCircuit;
use ulp_stscl::SclParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::default();
    let params = SclParams::default();
    let iss = 1e-9;
    let circuit = SclBufferCircuit::build(&tech, &params, iss, 0.6, Waveform::Dc(0.0));

    println!("--- netlist (.ulp) ---");
    print!("{}", ulp_ir::design_from_netlist(&circuit.netlist)?.to_text());

    println!("\n--- DC operating point ---");
    let op = DcOperatingPoint::solve(&circuit.netlist, &tech)?;
    let report = OpReport::new(&circuit.netlist, &tech, &op);
    print!("{}", report.to_table());
    println!(
        "source power: {:.3e} W (= ISS × VDD = {:.3e} W: no hidden leakage)",
        report.total_source_power(),
        iss * params.vdd
    );

    println!("\n--- VTC (differential) ---");
    let curve = circuit.dc_transfer(&tech, &linspace(-0.3, 0.3, 13))?;
    for (vin, vout) in &curve {
        let bar = ((vout + 0.2) / 0.4 * 40.0) as usize;
        println!("{vin:>7.3} V | {:>7.1} mV |{}*", vout * 1e3, " ".repeat(bar.min(40)));
    }

    println!("\n--- transient propagation delay ---");
    let td = circuit.spice_delay(&tech)?;
    println!(
        "measured {td:.3e} s vs ln2·VSW·CL/ISS = {:.3e} s",
        params.delay(iss)
    );

    println!("\n--- output noise ---");
    let bw = 1.0 / (2.0 * std::f64::consts::PI * (params.vsw / iss) * params.cl);
    let freqs = decade_sweep(bw * 1e-3, bw * 1e2, 15);
    let noise = noise_analysis(&circuit.netlist, &tech, &op, circuit.outp, &freqs)?;
    println!(
        "integrated output noise: {:.3e} V rms over {:.0}-{:.0} Hz",
        noise.output_rms,
        freqs[0],
        freqs[freqs.len() - 1]
    );
    if let Some(worst) = noise.worst_offender() {
        println!("dominant contributor: {}", worst.name);
    }
    Ok(())
}
