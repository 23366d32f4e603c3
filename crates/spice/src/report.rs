//! Operating-point reports.
//!
//! `ulp-spice` netlists are built programmatically; when a circuit
//! misbehaves you want to *see* it. [`OpReport`] tabulates every
//! element's branch current, dissipation and — for MOS devices — region
//! and small-signal parameters at a solved operating point. (To see the
//! netlist itself, `ulp_ir::design_from_netlist(&nl)?.to_text()` prints
//! it as `.ulp` text that `ulp_ir::parse` reads back.)

use crate::dcop::DcOperatingPoint;
use crate::mna::voltage_of;
use crate::netlist::{Element, Netlist};
use std::fmt::Write as _;

/// One element's operating-point record.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementOp {
    /// Instance name.
    pub name: String,
    /// Element kind tag (`R`, `C`, `V`, `I`, `E`, `G`, `D`, `M`, `L`).
    pub kind: char,
    /// Current through the element, A (for capacitors: 0 at DC; sign
    /// follows the element's own convention).
    pub current: f64,
    /// Power dissipated (positive) or delivered (negative), W.
    pub power: f64,
    /// MOS only: saturated?
    pub saturated: Option<bool>,
    /// MOS only: gm, S.
    pub gm: Option<f64>,
}

/// A tabulated DC operating point.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Per-element records, netlist order.
    pub elements: Vec<ElementOp>,
}

impl OpReport {
    /// Builds the report from a solved operating point.
    pub fn new(nl: &Netlist, tech: &ulp_device::Technology, op: &DcOperatingPoint) -> Self {
        let x = op.solution();
        let mut elements = Vec::with_capacity(nl.elements().len());
        for e in nl.elements() {
            let rec = match e {
                Element::Resistor { name, a, b, ohms } => {
                    let v = voltage_of(x, *a) - voltage_of(x, *b);
                    let i = v / ohms;
                    ElementOp {
                        name: name.clone(),
                        kind: 'R',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: None,
                    }
                }
                Element::Capacitor { name, .. } => ElementOp {
                    name: name.clone(),
                    kind: 'C',
                    current: 0.0,
                    power: 0.0,
                    saturated: None,
                    gm: None,
                },
                Element::Vsource { name, p, n, wave, .. } => {
                    let i = op.branch_current(nl, name).unwrap_or(0.0);
                    let v = voltage_of(x, *p) - voltage_of(x, *n);
                    let _ = wave;
                    ElementOp {
                        name: name.clone(),
                        kind: 'V',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: None,
                    }
                }
                Element::Isource { name, p, n, wave, .. } => {
                    let i = wave.dc();
                    let v = voltage_of(x, *p) - voltage_of(x, *n);
                    ElementOp {
                        name: name.clone(),
                        kind: 'I',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: None,
                    }
                }
                Element::Vcvs { name, .. } => ElementOp {
                    name: name.clone(),
                    kind: 'E',
                    current: op.branch_current(nl, name).unwrap_or(0.0),
                    power: 0.0,
                    saturated: None,
                    gm: None,
                },
                Element::Vccs { name, p, n, cp, cn, gm } => {
                    let vc = voltage_of(x, *cp) - voltage_of(x, *cn);
                    let i = gm * vc;
                    let v = voltage_of(x, *p) - voltage_of(x, *n);
                    ElementOp {
                        name: name.clone(),
                        kind: 'G',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: Some(*gm),
                    }
                }
                Element::Diode { name, p, n, is_sat, n_id } => {
                    let v = voltage_of(x, *p) - voltage_of(x, *n);
                    let vt = n_id * tech.thermal_voltage();
                    let i = is_sat * ((v / vt).min(40.0).exp() - 1.0);
                    ElementOp {
                        name: name.clone(),
                        kind: 'D',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: None,
                    }
                }
                Element::Mos { name, d, g, s: src, b, dev } => {
                    let vb = voltage_of(x, *b);
                    let mos = dev.operating_point(
                        tech,
                        voltage_of(x, *g) - vb,
                        voltage_of(x, *src) - vb,
                        voltage_of(x, *d) - vb,
                    );
                    let vds = voltage_of(x, *d) - voltage_of(x, *src);
                    ElementOp {
                        name: name.clone(),
                        kind: 'M',
                        current: mos.id,
                        power: (mos.id * vds).abs(),
                        saturated: Some(mos.saturated),
                        gm: Some(mos.gm),
                    }
                }
                Element::SclLoad { name, a, b, load, iss } => {
                    let v = voltage_of(x, *a) - voltage_of(x, *b);
                    let i = load.current(v, *iss);
                    ElementOp {
                        name: name.clone(),
                        kind: 'L',
                        current: i,
                        power: v * i,
                        saturated: None,
                        gm: None,
                    }
                }
            };
            elements.push(rec);
        }
        OpReport { elements }
    }

    /// Total power delivered by sources (= dissipated by the rest), W.
    pub fn total_source_power(&self) -> f64 {
        -self
            .elements
            .iter()
            .filter(|e| e.kind == 'V' || e.kind == 'I')
            .map(|e| e.power)
            .sum::<f64>()
    }

    /// Renders a fixed-width table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<12} {:>4} {:>14} {:>14} {:>6} {:>12}", "name", "kind", "I_A", "P_W", "sat", "gm_S");
        for e in &self.elements {
            let sat = match e.saturated {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            };
            let gm = e.gm.map(|g| format!("{g:.3e}")).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                s,
                "{:<12} {:>4} {:>14.4e} {:>14.4e} {:>6} {:>12}",
                e.name, e.kind, e.current, e.power, sat, gm
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcop::DcOperatingPoint;
    use ulp_device::{Mosfet, Polarity, Technology};

    fn divider() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("mid");
        nl.vsource("V1", a, Netlist::GROUND, 2.0);
        nl.resistor("R1", a, m, 1e3);
        nl.resistor("R2", m, Netlist::GROUND, 1e3);
        nl
    }

    #[test]
    fn report_balances_power() {
        let nl = divider();
        let tech = Technology::default();
        let op = DcOperatingPoint::solve(&nl, &tech).unwrap();
        let report = OpReport::new(&nl, &tech, &op);
        // Source delivers 2 V × 1 mA = 2 mW; resistors dissipate it.
        let delivered = report.total_source_power();
        let dissipated: f64 = report
            .elements
            .iter()
            .filter(|e| e.kind == 'R')
            .map(|e| e.power)
            .sum();
        assert!((delivered - 2e-3).abs() < 1e-8, "delivered {delivered}");
        assert!((dissipated - delivered).abs() < 1e-8);
    }

    #[test]
    fn mos_record_has_region_and_gm() {
        let tech = Technology::default();
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VD", d, Netlist::GROUND, 0.8);
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.mosfet(
            "M1",
            d,
            g,
            Netlist::GROUND,
            Netlist::GROUND,
            Mosfet::new(Polarity::Nmos, 1e-6, 1e-6),
        );
        let op = DcOperatingPoint::solve(&nl, &tech).unwrap();
        let report = OpReport::new(&nl, &tech, &op);
        let m = report.elements.iter().find(|e| e.name == "M1").unwrap();
        assert_eq!(m.kind, 'M');
        assert_eq!(m.saturated, Some(true));
        assert!(m.gm.unwrap() > 0.0);
        assert!(m.current > 0.0);
        let table = report.to_table();
        assert!(table.contains("M1"));
        assert!(table.contains("yes"));
    }

    #[test]
    fn table_renders_all_kinds() {
        let tech = Technology::default();
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.resistor("R1", a, Netlist::GROUND, 1e5);
        nl.capacitor("C1", a, Netlist::GROUND, 1e-12);
        nl.vcvs("E1", b, Netlist::GROUND, a, Netlist::GROUND, 2.0);
        nl.resistor("RL", b, Netlist::GROUND, 1e6);
        nl.diode("D1", Netlist::GROUND, a, 1e-15, 1.0);
        let op = DcOperatingPoint::solve(&nl, &tech).unwrap();
        let report = OpReport::new(&nl, &tech, &op);
        assert_eq!(report.elements.len(), 6);
        let kinds: Vec<char> = report.elements.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!['I', 'R', 'C', 'E', 'R', 'D']);
        let s = report.to_table();
        for name in ["I1", "R1", "C1", "E1", "RL", "D1"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
