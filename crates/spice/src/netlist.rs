//! Circuit description: nodes, elements, stimulus waveforms.
//!
//! A [`Netlist`] is a flat element list over named nodes, built with
//! ordinary method calls (no text parser — netlists in this workspace
//! are constructed programmatically by the analog block generators).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use ulp_device::load::PmosLoad;
use ulp_device::Mosfet;

/// A circuit node handle. `Netlist::GROUND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// Index into the netlist's node table (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// True for the reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Time-domain stimulus for independent sources.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Trapezoidal pulse train.
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge, s.
        delay: f64,
        /// Rise time, s (must be > 0).
        rise: f64,
        /// Fall time, s (must be > 0).
        fall: f64,
        /// Time at `v1` between edges, s.
        width: f64,
        /// Repetition period, s (0 = single pulse).
        period: f64,
    },
    /// Sinusoid `offset + amp·sin(2πf·(t − delay))` (0 before `delay`...
    /// the sine starts at its zero crossing).
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        amp: f64,
        /// Frequency, Hz.
        freq: f64,
        /// Start delay, s.
        delay: f64,
    },
    /// Piecewise-linear in `(time, value)` points (must be sorted by
    /// time; clamps outside the range).
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Value at time `t` (seconds). For DC analyses call with `t = 0`.
    pub fn at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    v0 + (v1 - v0) * tau / rise
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    v1 + (v0 - v1) * (tau - rise - width) / fall
                } else {
                    *v0
                }
            }
            Waveform::Sine {
                offset,
                amp,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amp * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let i = points.partition_point(|p| p.0 < t).max(1);
                let (t0, v0) = points[i - 1];
                let (t1, v1) = points[i];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
        }
    }

    /// The DC (t = 0) value.
    pub fn dc(&self) -> f64 {
        self.at(0.0)
    }
}

/// One circuit element. Constructed through the [`Netlist`] builder
/// methods, stored publicly so analyses can walk the list.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance, Ω (> 0).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance, F (> 0).
        farads: f64,
    },
    /// Independent voltage source from `p` (+) to `n` (−); adds one MNA
    /// branch unknown.
    Vsource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Large-signal stimulus.
        wave: Waveform,
        /// AC magnitude for small-signal analysis, V.
        ac: f64,
    },
    /// Independent current source pushing current from `p` through the
    /// external circuit into `n` (SPICE convention: positive current
    /// flows `p → n` *inside* the source, i.e. it is drawn out of `n`
    /// and into `p`... here we use the simpler convention: the source
    /// injects `i` into node `n` and removes `i` from node `p`).
    Isource {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        p: Node,
        /// Terminal the current is injected into.
        n: Node,
        /// Large-signal stimulus, A.
        wave: Waveform,
        /// AC magnitude for small-signal analysis, A.
        ac: f64,
    },
    /// Voltage-controlled voltage source `V(p,n) = gain·V(cp,cn)`; adds
    /// one branch unknown.
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// Positive controlling terminal.
        cp: Node,
        /// Negative controlling terminal.
        cn: Node,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source: injects `gm·V(cp,cn)` into `n`
    /// and removes it from `p`.
    Vccs {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        p: Node,
        /// Terminal the current is injected into.
        n: Node,
        /// Positive controlling terminal.
        cp: Node,
        /// Negative controlling terminal.
        cn: Node,
        /// Transconductance, S.
        gm: f64,
    },
    /// Junction diode from `p` (anode) to `n` (cathode):
    /// `I = Is·(e^{V/(n_id·UT)} − 1)`.
    Diode {
        /// Instance name.
        name: String,
        /// Anode.
        p: Node,
        /// Cathode.
        n: Node,
        /// Saturation current, A.
        is_sat: f64,
        /// Ideality factor.
        n_id: f64,
    },
    /// EKV MOS device with explicit bulk terminal.
    Mos {
        /// Instance name.
        name: String,
        /// Drain.
        d: Node,
        /// Gate.
        g: Node,
        /// Source.
        s: Node,
        /// Bulk/well.
        b: Node,
        /// Sized device instance.
        dev: Mosfet,
    },
    /// Replica-calibrated STSCL load: conducts
    /// [`PmosLoad::current`]`(V(a) − V(b), iss)` from `a` to `b`.
    SclLoad {
        /// Instance name.
        name: String,
        /// Supply-side terminal.
        a: Node,
        /// Output-side terminal.
        b: Node,
        /// Load model.
        load: PmosLoad,
        /// Calibration tail current, A.
        iss: f64,
    },
}

impl Element {
    /// Instance name of this element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Vsource { name, .. }
            | Element::Isource { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. }
            | Element::Diode { name, .. }
            | Element::Mos { name, .. }
            | Element::SclLoad { name, .. } => name,
        }
    }

    /// True when the element adds an MNA branch unknown (voltage-defined
    /// elements).
    pub fn has_branch(&self) -> bool {
        matches!(self, Element::Vsource { .. } | Element::Vcvs { .. })
    }
}

/// A programmatically built circuit.
#[derive(Debug, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<Element>,
    /// Monotone edit counter: bumped by every mutation that can change a
    /// static-analysis verdict (new node, new element, element edit).
    revision: u64,
    /// `revision + 1` at which the ERC gate last found this netlist
    /// clean (0 = no cached verdict), so repeated analyses of an
    /// unchanged netlist skip the re-check. Interior-mutable because the
    /// gate takes `&Netlist`; atomic (rather than `Cell`) so a built
    /// netlist is `Sync` and parallel ensemble workers (`ulp-exec`) can
    /// analyse one shared circuit from many threads. Clones carry the
    /// cached verdict (they are byte-identical circuits).
    erc_clean_at: AtomicU64,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            node_names: self.node_names.clone(),
            elements: self.elements.clone(),
            revision: self.revision,
            erc_clean_at: AtomicU64::new(self.erc_clean_at.load(Ordering::Relaxed)),
        }
    }
}

impl Netlist {
    /// The reference (ground) node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty netlist (containing only the ground node).
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            revision: 0,
            erc_clean_at: AtomicU64::new(0),
        }
    }

    /// Creates (or re-uses, by name) a node.
    pub fn node(&mut self, name: &str) -> Node {
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            return Node(i);
        }
        self.invalidate();
        self.node_names.push(name.to_string());
        Node(self.node_names.len() - 1)
    }

    /// Current edit revision — bumped on every structural or parameter
    /// mutation. [`crate::mna::MnaWorkspace`] keys its stamp plan on
    /// this, so `set_source` in a sweep rebuilds the plan but keeps the
    /// sparsity pattern and the symbolic factorization.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// True when the ERC gate already passed this exact revision.
    pub(crate) fn erc_clean_cached(&self) -> bool {
        self.erc_clean_at.load(Ordering::Relaxed) == self.revision + 1
    }

    /// Records that the ERC gate passed at the current revision.
    pub(crate) fn mark_erc_clean(&self) {
        self.erc_clean_at.store(self.revision + 1, Ordering::Relaxed);
    }

    fn invalidate(&mut self) {
        self.revision += 1;
        self.erc_clean_at.store(0, Ordering::Relaxed);
    }

    /// Node count including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node.
    pub fn node_name(&self, node: Node) -> &str {
        &self.node_names[node.0]
    }

    /// Borrows the element list.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Finds the element with the given instance name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.elements.iter().find(|e| e.name() == name)
    }

    /// Looks up a node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        self.node_names.iter().position(|n| n == name).map(Node)
    }

    pub(crate) fn elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        // Callers can mutate any element (e.g. `set_source`), so any
        // cached static-analysis verdict is conservatively dropped.
        self.invalidate();
        self.elements.iter_mut()
    }

    /// Rewrites every MOS device through `f`, in element order.
    ///
    /// This is the mismatch-sampling primitive: drawing one die of a
    /// design is `clone()` plus a `map_mosfets` that adds per-instance
    /// `delta_vt`/`delta_beta` shifts, without rebuilding the topology.
    pub fn map_mosfets(&mut self, mut f: impl FnMut(&Mosfet) -> Mosfet) -> &mut Self {
        for e in self.elements_mut() {
            if let Element::Mos { dev, .. } = e {
                *dev = f(dev);
            }
        }
        self
    }

    /// Rewrites the single MOS device named `name` through `f`.
    ///
    /// Returns `false` (and leaves the netlist untouched, caches
    /// intact) when no MOS element has that name. This is the sweep
    /// primitive: realizing one point of a geometry grid is `clone()`
    /// plus one `update_mosfet` per swept device.
    pub fn update_mosfet(&mut self, name: &str, f: impl FnOnce(&Mosfet) -> Mosfet) -> bool {
        let Some(idx) = self
            .elements
            .iter()
            .position(|e| matches!(e, Element::Mos { .. }) && e.name() == name)
        else {
            return false;
        };
        self.invalidate();
        if let Element::Mos { dev, .. } = &mut self.elements[idx] {
            *dev = f(dev);
        }
        true
    }

    /// Number of MNA branch unknowns (one per voltage-defined element).
    pub fn branch_count(&self) -> usize {
        self.elements.iter().filter(|e| e.has_branch()).count()
    }

    /// Total MNA system dimension: non-ground nodes + branches.
    pub fn unknown_count(&self) -> usize {
        (self.node_count() - 1) + self.branch_count()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics unless `ohms > 0`.
    pub fn resistor(&mut self, name: &str, a: Node, b: Node, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0, "resistance must be positive: {name}");
        self.push(Element::Resistor {
            name: name.into(),
            a,
            b,
            ohms,
        })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics unless `farads > 0`.
    pub fn capacitor(&mut self, name: &str, a: Node, b: Node, farads: f64) -> &mut Self {
        assert!(farads > 0.0, "capacitance must be positive: {name}");
        self.push(Element::Capacitor {
            name: name.into(),
            a,
            b,
            farads,
        })
    }

    /// Adds a DC voltage source.
    pub fn vsource(&mut self, name: &str, p: Node, n: Node, volts: f64) -> &mut Self {
        self.vsource_wave(name, p, n, Waveform::Dc(volts))
    }

    /// Adds a voltage source with an arbitrary stimulus.
    pub fn vsource_wave(&mut self, name: &str, p: Node, n: Node, wave: Waveform) -> &mut Self {
        self.push(Element::Vsource {
            name: name.into(),
            p,
            n,
            wave,
            ac: 0.0,
        })
    }

    /// Adds a voltage source with an arbitrary stimulus and an AC
    /// magnitude.
    pub fn vsource_wave_ac(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        wave: Waveform,
        ac: f64,
    ) -> &mut Self {
        self.push(Element::Vsource {
            name: name.into(),
            p,
            n,
            wave,
            ac,
        })
    }

    /// Adds a voltage source with both a DC value and an AC magnitude.
    pub fn vsource_ac(&mut self, name: &str, p: Node, n: Node, dc: f64, ac: f64) -> &mut Self {
        self.push(Element::Vsource {
            name: name.into(),
            p,
            n,
            wave: Waveform::Dc(dc),
            ac,
        })
    }

    /// Adds a DC current source drawing `amps` from `p` and injecting it
    /// into `n`.
    pub fn isource(&mut self, name: &str, p: Node, n: Node, amps: f64) -> &mut Self {
        self.isource_wave(name, p, n, Waveform::Dc(amps))
    }

    /// Adds a current source with an arbitrary stimulus.
    pub fn isource_wave(&mut self, name: &str, p: Node, n: Node, wave: Waveform) -> &mut Self {
        self.push(Element::Isource {
            name: name.into(),
            p,
            n,
            wave,
            ac: 0.0,
        })
    }

    /// Adds a current source with an arbitrary stimulus and an AC
    /// magnitude.
    pub fn isource_wave_ac(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        wave: Waveform,
        ac: f64,
    ) -> &mut Self {
        self.push(Element::Isource {
            name: name.into(),
            p,
            n,
            wave,
            ac,
        })
    }

    /// Adds a current source with both a DC value and an AC magnitude.
    pub fn isource_ac(&mut self, name: &str, p: Node, n: Node, dc: f64, ac: f64) -> &mut Self {
        self.push(Element::Isource {
            name: name.into(),
            p,
            n,
            wave: Waveform::Dc(dc),
            ac,
        })
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(&mut self, name: &str, p: Node, n: Node, cp: Node, cn: Node, gain: f64) -> &mut Self {
        self.push(Element::Vcvs {
            name: name.into(),
            p,
            n,
            cp,
            cn,
            gain,
        })
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, name: &str, p: Node, n: Node, cp: Node, cn: Node, gm: f64) -> &mut Self {
        self.push(Element::Vccs {
            name: name.into(),
            p,
            n,
            cp,
            cn,
            gm,
        })
    }

    /// Adds a junction diode.
    ///
    /// # Panics
    ///
    /// Panics unless `is_sat > 0` and `n_id > 0`.
    pub fn diode(&mut self, name: &str, p: Node, n: Node, is_sat: f64, n_id: f64) -> &mut Self {
        assert!(is_sat > 0.0 && n_id > 0.0, "bad diode parameters: {name}");
        self.push(Element::Diode {
            name: name.into(),
            p,
            n,
            is_sat,
            n_id,
        })
    }

    /// Adds a four-terminal MOS device.
    pub fn mosfet(&mut self, name: &str, d: Node, g: Node, s: Node, b: Node, dev: Mosfet) -> &mut Self {
        self.push(Element::Mos {
            name: name.into(),
            d,
            g,
            s,
            b,
            dev,
        })
    }

    /// Adds a replica-calibrated STSCL load conducting from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics unless `iss > 0`.
    pub fn scl_load(&mut self, name: &str, a: Node, b: Node, load: PmosLoad, iss: f64) -> &mut Self {
        assert!(iss > 0.0, "load calibration current must be positive: {name}");
        self.push(Element::SclLoad {
            name: name.into(),
            a,
            b,
            load,
            iss,
        })
    }

    fn push(&mut self, e: Element) -> &mut Self {
        debug_assert!(
            self.element(e.name()).is_none(),
            "duplicate element name {}",
            e.name()
        );
        self.invalidate();
        self.elements.push(e);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let a2 = nl.node("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(nl.node_count(), 3); // ground + a + b
        assert_eq!(nl.node_name(a), "a");
        assert!(Netlist::GROUND.is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn unknown_count_includes_branches() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, b, 1e3);
        nl.vcvs("E1", b, Netlist::GROUND, a, Netlist::GROUND, 2.0);
        assert_eq!(nl.branch_count(), 2);
        assert_eq!(nl.unknown_count(), 4); // 2 nodes + 2 branches
    }

    #[test]
    fn element_lookup_by_name() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 42.0);
        assert!(nl.element("R1").is_some());
        assert!(nl.element("R2").is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_resistance_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, -5.0);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.8,
            period: 2.0,
        };
        assert_eq!(w.at(0.0), 0.0);
        assert_eq!(w.at(0.99), 0.0);
        assert!((w.at(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.at(1.5), 1.0); // flat top
        assert!((w.at(1.95) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.at(2.5), 0.0); // low
        assert_eq!(w.at(3.5), 1.0); // second period flat top
    }

    #[test]
    fn sine_waveform() {
        let w = Waveform::Sine {
            offset: 0.5,
            amp: 0.2,
            freq: 1.0,
            delay: 0.0,
        };
        assert!((w.at(0.0) - 0.5).abs() < 1e-12);
        assert!((w.at(0.25) - 0.7).abs() < 1e-12);
        assert!((w.dc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)]);
        assert_eq!(w.at(-1.0), 0.0);
        assert_eq!(w.at(0.5), 0.5);
        assert_eq!(w.at(1.5), 0.0);
        assert_eq!(w.at(5.0), -1.0);
        assert_eq!(Waveform::Pwl(vec![]).at(1.0), 0.0);
    }

    #[test]
    fn pulse_before_delay_is_v0() {
        let w = Waveform::Pulse {
            v0: 0.3,
            v1: 1.0,
            delay: 10.0,
            rise: 1.0,
            fall: 1.0,
            width: 1.0,
            period: 0.0,
        };
        assert_eq!(w.at(5.0), 0.3);
        // Single pulse (period 0): stays at v0 after the pulse ends.
        assert_eq!(w.at(100.0), 0.3);
    }
}
