//! Electrical rule check (ERC): static netlist analysis run before any
//! matrix is assembled.
//!
//! Newton iteration fails late and cryptically on malformed circuits: a
//! floating node makes the MNA matrix singular (or silently gmin-pinned
//! to 0 V), a loop of voltage sources leaves a branch current
//! undetermined, a current source with no return path has no solution at
//! all. [`check`] catches these topologies *structurally* — by graph
//! traversal over the netlist, before a single matrix entry is stamped —
//! and reports them as named-node [`Diagnostic`]s instead of a
//! `SolveError::Singular {{ step: 17 }}` from deep inside the LU
//! factorisation.
//!
//! # Rules
//!
//! | rule code | severity | meaning |
//! |---|---|---|
//! | [`rule::FLOATING_NODE`] | error | node(s) with no DC path to ground |
//! | [`rule::CURRENT_SOURCE_CUTSET`] | error | a current source drives a net with no DC return path |
//! | [`rule::UNDRIVEN_GATE`] | error | a MOS gate net with no DC path fixing its potential |
//! | [`rule::VSOURCE_LOOP`] | error | voltage-defined elements form a loop (or are shorted) |
//! | [`rule::BAD_VALUE`] | error | non-finite or non-physical element value |
//! | [`rule::DUPLICATE_NAME`] | error | two elements share an instance name |
//! | [`rule::DANGLING_TERMINAL`] | warning | a MOS drain/source connected to nothing else |
//! | [`rule::SELF_LOOP`] | warning | a two-terminal element with both terminals on one node |
//! | [`rule::ZERO_VALUE_SOURCE`] | info | a source that contributes nothing |
//!
//! Connectivity reasoning distinguishes three kinds of element edges:
//! *conductive* edges that carry DC current (resistors, diodes, STSCL
//! loads, the MOS drain–source channel) and *voltage-defined* edges
//! (V sources, VCVS outputs) both establish a DC path; *current-defined*
//! edges (I sources, VCCS outputs) and capacitors do not. MOS gate and
//! bulk terminals and controlled-source sense terminals carry no current
//! at all ([`MosTerminal::conducts`]).
//!
//! The checker runs by default inside every analysis entry point
//! ([`crate::dcop::DcOperatingPoint::solve`], [`crate::sweep::dc_sweep`],
//! [`crate::tran::Transient::run`], [`crate::ac::AcResult::run`] and
//! their `*_traced` forms); [`crate::dcop::newton_solve_gmin_stepping`]
//! is the one ungated route, for deliberately degenerate netlists. A
//! clean [`gate`] verdict is memoised on the netlist and
//! reused until the netlist is mutated, so repeated analyses of one
//! netlist (sweep drivers, replica bias iteration) pay for the check
//! once.
//!
//! Since PR 3 these rules are registry entries in the wider design lint
//! framework ([`crate::lint`]): [`gate`] is exactly the deny-level
//! subset of the configured lint run, and the severities above are the
//! *default* levels, overridable per rule or per group through a
//! [`crate::lint::LintConfig`] or the `ULP_LINT` environment variable.

use crate::diag::{Diagnostic, ErcReport, Severity};
use crate::error::SimError;
use crate::netlist::{Element, Netlist, Node, Waveform};
use std::collections::HashMap;
use ulp_device::MosTerminal;

/// Stable machine-readable rule codes carried in
/// [`Diagnostic::rule`](crate::diag::Diagnostic).
pub mod rule {
    /// A node (or connected group of nodes) with no DC path to ground.
    pub const FLOATING_NODE: &str = "floating-node";
    /// A loop of voltage-defined elements, or a shorted voltage source.
    pub const VSOURCE_LOOP: &str = "vsource-loop";
    /// A current source whose current has no DC return path.
    pub const CURRENT_SOURCE_CUTSET: &str = "current-source-cutset";
    /// A MOS gate net whose DC potential nothing fixes.
    pub const UNDRIVEN_GATE: &str = "undriven-gate";
    /// A MOS drain or source connected to nothing else.
    pub const DANGLING_TERMINAL: &str = "dangling-terminal";
    /// A non-finite or non-physical element value.
    pub const BAD_VALUE: &str = "bad-value";
    /// Two elements sharing one instance name.
    pub const DUPLICATE_NAME: &str = "duplicate-name";
    /// A two-terminal element with both terminals on the same node.
    pub const SELF_LOOP: &str = "self-loop";
    /// An independent source with zero DC and AC value.
    pub const ZERO_VALUE_SOURCE: &str = "zero-value-source";
}

/// Runs every electrical rule against `nl` and returns the full report,
/// sorted most-severe-first.
///
/// The check is purely structural (no device evaluation, no matrix) and
/// runs in near-linear time in the number of element terminals, so it is
/// cheap enough to gate every analysis call.
pub fn check(nl: &Netlist) -> ErcReport {
    crate::lint::run_ctx(
        &crate::lint::LintContext::new(nl),
        &crate::lint::LintConfig::new(),
    )
}

/// Runs the structural rules (honouring any `ULP_LINT` overrides) and
/// converts an unclean report into [`SimError::Erc`]. This is the
/// pre-solve gate used by the checked analysis entry points.
///
/// A clean verdict is cached on the netlist (keyed to its mutation
/// revision), so calling `gate` repeatedly on an unchanged netlist —
/// every point of a sweep driver, every iteration of a replica-bias
/// search — runs the graph traversal only once. Unclean verdicts are
/// *not* cached: the caller gets the full report every time.
///
/// # Errors
///
/// [`SimError::Erc`] carrying the full report when it contains at least
/// one error-severity diagnostic; [`SimError::BadParameter`] naming the
/// rejected entry when `ULP_LINT` is set but malformed (a typo must not
/// leave the gate silently unarmed).
pub fn gate(nl: &Netlist) -> Result<(), SimError> {
    if nl.erc_clean_cached() {
        return Ok(());
    }
    let config = crate::lint::LintConfig::try_from_env()
        .map_err(|err| SimError::BadParameter(err.to_string()))?;
    let report = crate::lint::run_ctx(&crate::lint::LintContext::new(nl), &config);
    if report.is_clean() {
        nl.mark_erc_clean();
        Ok(())
    } else {
        Err(SimError::Erc(report))
    }
}

// ---------------------------------------------------------------------
// Rule implementations
// ---------------------------------------------------------------------

/// Duplicate instance names. The `Netlist` builder only debug-asserts
/// uniqueness, so in release builds this rule is the real guard —
/// analyses address sources and branches by name.
pub(crate) fn check_names(nl: &Netlist, report: &mut ErcReport) {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for e in nl.elements() {
        *counts.entry(e.name()).or_insert(0) += 1;
    }
    // Report in first-occurrence netlist order for determinism.
    let mut seen: Vec<&str> = Vec::new();
    for e in nl.elements() {
        let name = e.name();
        if counts[name] > 1 && !seen.contains(&name) {
            seen.push(name);
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    rule::DUPLICATE_NAME,
                    format!("element name `{name}` is used {} times", counts[name]),
                )
                .with_elements([name.to_string()])
                .with_hint(
                    "rename the duplicates; analyses and sweeps address elements by name",
                ),
            );
        }
    }
}

fn waveform_finite(w: &Waveform) -> bool {
    match w {
        Waveform::Dc(v) => v.is_finite(),
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => [v0, v1, delay, rise, fall, width, period]
            .iter()
            .all(|x| x.is_finite()),
        Waveform::Sine {
            offset,
            amp,
            freq,
            delay,
        } => [offset, amp, freq, delay].iter().all(|x| x.is_finite()),
        Waveform::Pwl(points) => points.iter().all(|(t, v)| t.is_finite() && v.is_finite()),
    }
}

/// Value sanity: non-finite parameters (reachable through sources and
/// controlled-source gains, whose builders do not validate) and
/// non-physical device values (defence in depth behind the builder
/// asserts, since `Element` fields are public and mutable via clones).
pub(crate) fn check_values(nl: &Netlist, report: &mut ErcReport) {
    let bad = |name: &str, what: &str, hint: &str| {
        Diagnostic::new(
            Severity::Error,
            rule::BAD_VALUE,
            format!("{what} of `{name}` is not a finite, physical value"),
        )
        .with_elements([name.to_string()])
        .with_hint(hint.to_string())
    };
    for e in nl.elements() {
        match e {
            Element::Resistor { name, ohms, .. } => {
                if !(ohms.is_finite() && *ohms > 0.0) {
                    report.push(bad(name, "resistance", "resistance must be finite and > 0"));
                }
            }
            Element::Capacitor { name, farads, .. } => {
                if !(farads.is_finite() && *farads > 0.0) {
                    report.push(bad(
                        name,
                        "capacitance",
                        "capacitance must be finite and > 0",
                    ));
                }
            }
            Element::Vsource { name, wave, ac, .. } | Element::Isource { name, wave, ac, .. } => {
                if !waveform_finite(wave) || !ac.is_finite() {
                    report.push(bad(
                        name,
                        "stimulus",
                        "check the waveform parameters and AC magnitude for NaN/inf",
                    ));
                }
            }
            Element::Vcvs { name, gain, .. } => {
                if !gain.is_finite() {
                    report.push(bad(name, "gain", "the voltage gain must be finite"));
                }
            }
            Element::Vccs { name, gm, .. } => {
                if !gm.is_finite() {
                    report.push(bad(name, "transconductance", "gm must be finite"));
                }
            }
            Element::Diode {
                name, is_sat, n_id, ..
            } => {
                if !(is_sat.is_finite() && *is_sat > 0.0 && n_id.is_finite() && *n_id > 0.0) {
                    report.push(bad(
                        name,
                        "model parameter set",
                        "saturation current and ideality factor must be finite and > 0",
                    ));
                }
            }
            Element::Mos { name, dev, .. } => {
                let geom_ok = dev.w.is_finite() && dev.w > 0.0 && dev.l.is_finite() && dev.l > 0.0;
                let mismatch_ok = dev.delta_vt.is_finite() && dev.delta_beta.is_finite();
                if !geom_ok || !mismatch_ok {
                    report.push(bad(
                        name,
                        "device parameter set",
                        "W and L must be finite and > 0; mismatch deltas must be finite",
                    ));
                }
            }
            Element::SclLoad {
                name, load, iss, ..
            } => {
                if !(iss.is_finite() && *iss > 0.0 && load.vsw.is_finite() && load.vsw > 0.0) {
                    report.push(bad(
                        name,
                        "calibration",
                        "tail current and swing must be finite and > 0",
                    ));
                }
            }
        }
    }
    // Advisory: sources that contribute nothing (exercises the Info
    // tier; a 0 V source is deliberately exempt — it is the standard
    // ammeter idiom).
    for e in nl.elements() {
        let dead = match e {
            Element::Isource { wave, ac, .. } => {
                matches!(wave, Waveform::Dc(v) if *v == 0.0) && *ac == 0.0
            }
            Element::Vccs { gm, .. } => *gm == 0.0,
            _ => false,
        };
        if dead {
            report.push(
                Diagnostic::new(
                    Severity::Info,
                    rule::ZERO_VALUE_SOURCE,
                    format!("`{}` has zero value and contributes nothing", e.name()),
                )
                .with_elements([e.name().to_string()])
                .with_hint("remove it, or set a value if it is a sweep placeholder"),
            );
        }
    }
}

/// How an element terminal touches a node, for connectivity reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// Carries DC current and fixes a voltage relation: R, diode, STSCL
    /// load, MOS channel ends, V-source and VCVS output terminals.
    Conduct,
    /// Injects DC current but fixes no voltage: I-source and VCCS
    /// output terminals.
    CurrentDrive,
    /// MOS gate (zero current; the net needs external DC drive).
    Gate,
    /// MOS bulk (zero current in this model).
    Bulk,
    /// Controlled-source sense terminal (zero current).
    Sense,
    /// Capacitor terminal (open at DC).
    Cap,
}

/// Disjoint-set forest over node indices, with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `false` when they were
    /// already connected (i.e. this edge closes a cycle).
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

fn quoted_list(names: &[String]) -> String {
    names
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Topological rules: connectivity (floating nodes, cutsets, undriven
/// gates), voltage-source loops, dangling channel terminals, self-loops.
pub(crate) fn check_topology(nl: &Netlist, report: &mut ErcReport) {
    let nn = nl.node_count();
    // Per-node attachment list: (element index, attachment kind).
    let mut attach: Vec<Vec<(usize, Attach)>> = vec![Vec::new(); nn];
    // DC connectivity: conductive + voltage-defined edges.
    let mut conn = UnionFind::new(nn);
    // Voltage-defined edges only, for loop detection, plus an adjacency
    // list to recover and name the loop members.
    let mut vuf = UnionFind::new(nn);
    let mut vadj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nn];

    for (idx, e) in nl.elements().iter().enumerate() {
        let mut att = |node: Node, kind: Attach| attach[node.index()].push((idx, kind));
        match e {
            Element::Resistor { a, b, .. }
            | Element::SclLoad { a, b, .. } => {
                att(*a, Attach::Conduct);
                att(*b, Attach::Conduct);
                if a == b {
                    report.push(self_loop(nl, e, *a));
                } else {
                    conn.union(a.index(), b.index());
                }
            }
            Element::Diode { p, n, .. } => {
                att(*p, Attach::Conduct);
                att(*n, Attach::Conduct);
                if p == n {
                    report.push(self_loop(nl, e, *p));
                } else {
                    conn.union(p.index(), n.index());
                }
            }
            Element::Capacitor { a, b, .. } => {
                att(*a, Attach::Cap);
                att(*b, Attach::Cap);
                if a == b {
                    report.push(self_loop(nl, e, *a));
                }
            }
            Element::Vsource { p, n, .. } | Element::Vcvs { p, n, .. } => {
                att(*p, Attach::Conduct);
                att(*n, Attach::Conduct);
                if let Element::Vcvs { cp, cn, .. } = e {
                    att(*cp, Attach::Sense);
                    att(*cn, Attach::Sense);
                }
                if p == n {
                    report.push(
                        Diagnostic::new(
                            Severity::Error,
                            rule::VSOURCE_LOOP,
                            format!(
                                "voltage-defined element `{}` is shorted: both terminals \
                                 connect to node `{}`",
                                e.name(),
                                nl.node_name(*p)
                            ),
                        )
                        .with_nodes([nl.node_name(*p).to_string()])
                        .with_elements([e.name().to_string()])
                        .with_hint(
                            "its branch current is undetermined (singular); \
                             reconnect one terminal",
                        ),
                    );
                } else if !vuf.union(p.index(), n.index()) {
                    // This edge closes a cycle of voltage-defined
                    // elements: recover the existing p→n path to name
                    // every loop member.
                    let (loop_elems, loop_nodes) =
                        voltage_loop_members(nl, &vadj, p.index(), n.index(), idx);
                    report.push(
                        Diagnostic::new(
                            Severity::Error,
                            rule::VSOURCE_LOOP,
                            format!(
                                "voltage-defined elements {} form a loop through nodes {}",
                                quoted_list(&loop_elems),
                                quoted_list(&loop_nodes)
                            ),
                        )
                        .with_nodes(loop_nodes)
                        .with_elements(loop_elems)
                        .with_hint(
                            "the loop voltage is over-determined and the branch currents \
                             singular; break the loop or add series resistance",
                        ),
                    );
                    conn.union(p.index(), n.index());
                } else {
                    vadj[p.index()].push((n.index(), idx));
                    vadj[n.index()].push((p.index(), idx));
                    conn.union(p.index(), n.index());
                }
            }
            Element::Isource { p, n, .. } => {
                att(*p, Attach::CurrentDrive);
                att(*n, Attach::CurrentDrive);
                if p == n {
                    report.push(self_loop(nl, e, *p));
                }
            }
            Element::Vccs { p, n, cp, cn, .. } => {
                att(*p, Attach::CurrentDrive);
                att(*n, Attach::CurrentDrive);
                att(*cp, Attach::Sense);
                att(*cn, Attach::Sense);
                if p == n {
                    report.push(self_loop(nl, e, *p));
                }
            }
            Element::Mos { d, g, s, b, .. } => {
                att(*d, Attach::Conduct);
                att(*g, Attach::Gate);
                att(*s, Attach::Conduct);
                att(*b, Attach::Bulk);
                if d == s {
                    report.push(
                        Diagnostic::new(
                            Severity::Warning,
                            rule::SELF_LOOP,
                            format!(
                                "channel of `{}` is shorted: drain and source both \
                                 connect to node `{}`",
                                e.name(),
                                nl.node_name(*d)
                            ),
                        )
                        .with_nodes([nl.node_name(*d).to_string()])
                        .with_elements([e.name().to_string()])
                        .with_hint("the device conducts no net current; check the wiring"),
                    );
                } else {
                    conn.union(d.index(), s.index());
                }
            }
        }
    }

    // Dangling MOS channel terminals: a drain or source whose node has
    // no other attachment of any kind. Solvable (the channel equation
    // pins the node at zero current) but almost always a wiring bug.
    for (idx, e) in nl.elements().iter().enumerate() {
        if let Element::Mos { d, s, .. } = e {
            for (term, node) in [(MosTerminal::Drain, *d), (MosTerminal::Source, *s)] {
                let alone = !node.is_ground()
                    && attach[node.index()]
                        .iter()
                        .all(|&(ei, _)| ei == idx)
                    && attach[node.index()].len() == 1;
                if alone {
                    report.push(
                        Diagnostic::new(
                            Severity::Warning,
                            rule::DANGLING_TERMINAL,
                            format!(
                                "{} of `{}` (node `{}`) is dangling: nothing else \
                                 connects to it",
                                term.word(),
                                e.name(),
                                nl.node_name(node)
                            ),
                        )
                        .with_nodes([nl.node_name(node).to_string()])
                        .with_elements([e.name().to_string()])
                        .with_hint(
                            "a dangling channel terminal carries zero current; \
                             connect it or remove the device",
                        ),
                    );
                }
            }
        }
    }

    // Connectivity: group every node not in ground's component and
    // classify each group by what attaches to it.
    let ground_root = conn.find(Netlist::GROUND.index());
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut root_slot: HashMap<usize, usize> = HashMap::new();
    for node in 1..nn {
        let root = conn.find(node);
        if root == ground_root {
            continue;
        }
        let slot = *root_slot.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[slot].push(node);
    }
    for nodes in components {
        report.push(classify_floating_component(nl, &attach, &nodes));
    }
}

fn self_loop(nl: &Netlist, e: &Element, node: Node) -> Diagnostic {
    Diagnostic::new(
        Severity::Warning,
        rule::SELF_LOOP,
        format!(
            "`{}` connects node `{}` to itself and has no effect",
            e.name(),
            nl.node_name(node)
        ),
    )
    .with_nodes([nl.node_name(node).to_string()])
    .with_elements([e.name().to_string()])
    .with_hint("remove it or reconnect one terminal")
}

/// BFS through the voltage-defined adjacency to recover the existing
/// `from → to` path, returning the member element and node names of the
/// loop that `closing` completes.
fn voltage_loop_members(
    nl: &Netlist,
    vadj: &[Vec<(usize, usize)>],
    from: usize,
    to: usize,
    closing: usize,
) -> (Vec<String>, Vec<String>) {
    let mut prev: HashMap<usize, (usize, usize)> = HashMap::new(); // node -> (parent node, via elem)
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            break;
        }
        for &(next, elem) in &vadj[node] {
            if next != from && !prev.contains_key(&next) {
                prev.insert(next, (node, elem));
                queue.push_back(next);
            }
        }
    }
    let mut elems = vec![closing];
    let mut nodes = vec![to];
    let mut cursor = to;
    while cursor != from {
        // The path must exist: union-find said from/to are connected.
        let (parent, elem) = prev[&cursor];
        elems.push(elem);
        nodes.push(parent);
        cursor = parent;
    }
    elems.sort_unstable();
    elems.dedup();
    (
        elems
            .into_iter()
            .map(|i| nl.elements()[i].name().to_string())
            .collect(),
        nodes
            .into_iter()
            .map(|i| nl.node_name(Node(i)).to_string())
            .collect(),
    )
}

/// Decides what a ground-unreachable component actually is: a current
/// source with no return path, an undriven gate net, or a plain
/// floating node group.
fn classify_floating_component(
    nl: &Netlist,
    attach: &[Vec<(usize, Attach)>],
    nodes: &[usize],
) -> Diagnostic {
    let node_names: Vec<String> = nodes
        .iter()
        .map(|&i| nl.node_name(Node(i)).to_string())
        .collect();
    let mut elem_indices: Vec<usize> = nodes
        .iter()
        .flat_map(|&i| attach[i].iter().map(|&(e, _)| e))
        .collect();
    elem_indices.sort_unstable();
    elem_indices.dedup();
    let names_of = |pred: &dyn Fn(Attach) -> bool| -> Vec<String> {
        let mut out: Vec<usize> = nodes
            .iter()
            .flat_map(|&i| {
                attach[i]
                    .iter()
                    .filter(|&&(_, k)| pred(k))
                    .map(|&(e, _)| e)
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out.into_iter()
            .map(|i| nl.elements()[i].name().to_string())
            .collect()
    };

    let drivers = names_of(&|k| k == Attach::CurrentDrive);
    if !drivers.is_empty() {
        let plural = if nodes.len() > 1 { "nodes" } else { "node" };
        return Diagnostic::new(
            Severity::Error,
            rule::CURRENT_SOURCE_CUTSET,
            format!(
                "current source {} drives {plural} {} with no DC return path to ground",
                quoted_list(&drivers),
                quoted_list(&node_names)
            ),
        )
        .with_nodes(node_names)
        .with_elements(drivers)
        .with_hint(
            "a current source needs a conductive loop; add a resistive path, channel \
             or voltage source from the driven net back to the circuit",
        );
    }

    let gates = names_of(&|k| k == Attach::Gate);
    if !gates.is_empty() {
        let gate_word = if gates.len() > 1 { "gates" } else { "gate" };
        return Diagnostic::new(
            Severity::Error,
            rule::UNDRIVEN_GATE,
            format!(
                "{gate_word} of {} (node {}) undriven: no DC path fixes the gate potential",
                quoted_list(&gates),
                quoted_list(&node_names)
            ),
        )
        .with_nodes(node_names)
        .with_elements(gates)
        .with_hint(
            "drive the gate from a source, divider or preceding stage; capacitive \
             coupling alone sets no DC level",
        );
    }

    let elems: Vec<String> = elem_indices
        .into_iter()
        .map(|i| nl.elements()[i].name().to_string())
        .collect();
    let what = if nodes.len() > 1 {
        format!("nodes {} have", quoted_list(&node_names))
    } else {
        format!("node {} has", quoted_list(&node_names))
    };
    let touched = if elems.is_empty() {
        " and no element connects to it".to_string()
    } else {
        format!(" (touched only by {})", quoted_list(&elems))
    };
    Diagnostic::new(
        Severity::Error,
        rule::FLOATING_NODE,
        format!("{what} no DC path to ground{touched}"),
    )
    .with_nodes(node_names)
    .with_elements(elems)
    .with_hint(
        "every node needs a conductive path to the reference; connect a resistor, \
         device channel or source — or remove the node",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use ulp_device::load::PmosLoad;
    use ulp_device::{Mosfet, Polarity};

    fn nmos() -> Mosfet {
        Mosfet::new(Polarity::Nmos, 1e-6, 1e-6)
    }

    /// A minimal well-formed circuit passes with an empty report.
    #[test]
    fn clean_divider_has_empty_report() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, m, 1e3);
        nl.resistor("R2", m, Netlist::GROUND, 1e3);
        nl.capacitor("C1", m, Netlist::GROUND, 1e-12);
        let report = check(&nl);
        assert!(report.is_empty(), "unexpected diagnostics:\n{report}");
        assert!(gate(&nl).is_ok());
    }

    #[test]
    fn floating_node_behind_capacitor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f = nl.node("float");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.capacitor("C1", a, f, 1e-12);
        let report = check(&nl);
        let d = report.find(rule::FLOATING_NODE).expect("floating-node");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.nodes, ["float"]);
        assert_eq!(d.elements, ["C1"]);
        assert!(!report.is_clean());
    }

    #[test]
    fn unused_node_is_floating() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.node("orphan");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let report = check(&nl);
        let d = report.find(rule::FLOATING_NODE).expect("floating-node");
        assert_eq!(d.nodes, ["orphan"]);
        assert!(d.message.contains("no element connects"), "{d}");
    }

    #[test]
    fn floating_island_groups_nodes() {
        // Two nodes joined by a resistor, the pair unreachable from
        // ground: one diagnostic covering both.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let x = nl.node("x");
        let y = nl.node("y");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R0", a, Netlist::GROUND, 1e3);
        nl.resistor("RF", x, y, 1e3);
        let report = check(&nl);
        let d = report.find(rule::FLOATING_NODE).expect("floating-node");
        assert_eq!(d.nodes, ["x", "y"]);
        assert_eq!(d.elements, ["RF"]);
        assert_eq!(report.count(Severity::Error), 1);
    }

    #[test]
    fn vsource_loop_named() {
        // Two voltage sources in parallel fix the same node twice.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.vsource("V2", a, Netlist::GROUND, 2.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let report = check(&nl);
        let d = report.find(rule::VSOURCE_LOOP).expect("vsource-loop");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.elements, ["V1", "V2"]);
    }

    #[test]
    fn vsource_loop_through_vcvs() {
        // V1 fixes a; E1 fixes a from b — a three-element loop with
        // ground: V1 a-0, E1 a-b, V2 b-0.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.vsource("V2", b, Netlist::GROUND, 0.5);
        nl.vcvs("E1", a, b, b, Netlist::GROUND, 2.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let report = check(&nl);
        let d = report.find(rule::VSOURCE_LOOP).expect("vsource-loop");
        assert_eq!(d.elements, ["V1", "V2", "E1"]);
    }

    #[test]
    fn shorted_vsource_is_a_loop_error() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.vsource("V1", a, a, 1.0);
        let report = check(&nl);
        let d = report.find(rule::VSOURCE_LOOP).expect("vsource-loop");
        assert!(d.message.contains("shorted"), "{d}");
        assert_eq!(d.elements, ["V1"]);
    }

    #[test]
    fn current_source_without_return_path() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f = nl.node("f");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.isource("I1", a, f, 1e-9); // injects into f, nothing drains it
        let report = check(&nl);
        let d = report
            .find(rule::CURRENT_SOURCE_CUTSET)
            .expect("current-source-cutset");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.nodes, ["f"]);
        assert_eq!(d.elements, ["I1"]);
        // Classified as a cutset, not a plain floating node.
        assert!(report.find(rule::FLOATING_NODE).is_none());
    }

    #[test]
    fn series_current_sources_cutset() {
        // Two current sources in series: the middle node's KCL is
        // i1 = i2, unsolvable for the node voltage.
        let mut nl = Netlist::new();
        let mid = nl.node("mid");
        nl.isource("I1", Netlist::GROUND, mid, 1e-9);
        nl.isource("I2", mid, Netlist::GROUND, 1e-9);
        let report = check(&nl);
        let d = report
            .find(rule::CURRENT_SOURCE_CUTSET)
            .expect("current-source-cutset");
        assert_eq!(d.nodes, ["mid"]);
        assert_eq!(d.elements, ["I1", "I2"]);
    }

    #[test]
    fn undriven_gate_named_with_device() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.resistor("RD", vdd, d, 1e6);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, nmos());
        let report = check(&nl);
        let diag = report.find(rule::UNDRIVEN_GATE).expect("undriven-gate");
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.nodes, ["g"]);
        assert_eq!(diag.elements, ["M1"]);
    }

    #[test]
    fn capacitively_coupled_gate_is_still_undriven() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.resistor("RD", vdd, d, 1e6);
        nl.capacitor("CC", vdd, g, 1e-12);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, nmos());
        let report = check(&nl);
        assert!(report.find(rule::UNDRIVEN_GATE).is_some(), "{report}");
    }

    #[test]
    fn driven_gate_is_clean() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.resistor("RD", vdd, d, 1e6);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, nmos());
        assert!(check(&nl).is_clean());
    }

    #[test]
    fn dangling_drain_warns_but_passes_gate() {
        let mut nl = Netlist::new();
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, nmos());
        let report = check(&nl);
        let diag = report
            .find(rule::DANGLING_TERMINAL)
            .expect("dangling-terminal");
        assert_eq!(diag.severity, Severity::Warning);
        assert!(diag.message.contains("drain"), "{diag}");
        assert_eq!(diag.nodes, ["d"]);
        // The channel still reaches ground through the source, so the
        // drain is solvable: warnings do not block the gate.
        assert!(report.is_clean());
        assert!(gate(&nl).is_ok());
    }

    #[test]
    fn bad_values_reported_per_element() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.vsource("V1", a, Netlist::GROUND, f64::NAN);
        nl.vcvs("E1", a, Netlist::GROUND, a, Netlist::GROUND, f64::INFINITY);
        nl.vccs("G1", a, Netlist::GROUND, a, Netlist::GROUND, f64::NAN);
        let report = check(&nl);
        let bad: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == rule::BAD_VALUE)
            .flat_map(|d| d.elements.iter().map(String::as_str))
            .collect();
        // Content-sorted (rule, then message): gain < stimulus <
        // transconductance — not discovery order.
        assert_eq!(bad, ["E1", "V1", "G1"]);
        assert!(!report.is_clean());
    }

    #[test]
    fn nan_mos_mismatch_is_bad_value() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.resistor("RD", d, Netlist::GROUND, 1e6);
        let mut dev = nmos();
        dev.delta_vt = f64::NAN;
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, dev);
        let report = check(&nl);
        let diag = report.find(rule::BAD_VALUE).expect("bad-value");
        assert_eq!(diag.elements, ["M1"]);
    }

    #[test]
    fn duplicate_names_error_once_per_name() {
        // The builder only debug-asserts uniqueness (compiled out in
        // release), so ERC is the real guard. Forge the duplicate via
        // the crate-internal mutable accessor, mirroring what a release
        // caller could do through the builder.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("RA", a, b, 1e3);
        nl.resistor("RB", b, Netlist::GROUND, 1e3);
        for e in nl.elements_mut() {
            if let Element::Resistor { name, .. } = e {
                *name = "R1".into();
            }
        }
        let report = check(&nl);
        let diag = report.find(rule::DUPLICATE_NAME).expect("duplicate-name");
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.elements, ["R1"]);
        assert!(diag.message.contains("2 times"), "{diag}");
        assert_eq!(
            report
                .diagnostics()
                .iter()
                .filter(|d| d.rule == rule::DUPLICATE_NAME)
                .count(),
            1
        );
    }

    #[test]
    fn self_loop_elements_warn() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.resistor("RS", a, a, 1e3);
        nl.capacitor("CS", a, a, 1e-12);
        nl.isource("IS", a, a, 1e-9);
        let report = check(&nl);
        let loops: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == rule::SELF_LOOP)
            .flat_map(|d| d.elements.iter().map(String::as_str))
            .collect();
        // Message-sorted within the rule, not discovery order.
        assert_eq!(loops, ["CS", "IS", "RS"]);
        assert!(report.is_clean(), "self-loops are warnings:\n{report}");
    }

    #[test]
    fn shorted_channel_warns() {
        let mut nl = Netlist::new();
        let g = nl.node("g");
        let x = nl.node("x");
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.resistor("RX", x, Netlist::GROUND, 1e3);
        nl.mosfet("M1", x, g, x, Netlist::GROUND, nmos());
        let report = check(&nl);
        let d = report.find(rule::SELF_LOOP).expect("self-loop");
        assert!(d.message.contains("channel"), "{d}");
        assert_eq!(d.elements, ["M1"]);
    }

    #[test]
    fn zero_value_sources_are_info_only() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 0.0); // ammeter idiom: exempt
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.isource("I1", a, Netlist::GROUND, 0.0);
        nl.vccs("G1", a, Netlist::GROUND, a, Netlist::GROUND, 0.0);
        let report = check(&nl);
        let zeros: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == rule::ZERO_VALUE_SOURCE)
            .flat_map(|d| d.elements.iter().map(String::as_str))
            .collect();
        // Message-sorted within the rule, not discovery order.
        assert_eq!(zeros, ["G1", "I1"]);
        assert_eq!(report.count(Severity::Info), 2);
        assert!(report.is_clean());
    }

    #[test]
    fn report_orders_errors_first() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f = nl.node("f");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.resistor("RS", a, a, 1e3); // warning, stamped first…
        nl.capacitor("C1", a, f, 1e-12); // …error found later
        let report = check(&nl);
        assert_eq!(report.diagnostics()[0].rule, rule::FLOATING_NODE);
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    }

    /// The acceptance scenario from the issue: a deliberately
    /// floating-gate STSCL-style netlist must fail with a diagnostic
    /// naming the gate node.
    #[test]
    fn floating_gate_stscl_netlist_rejected_by_name() {
        let t = ulp_device::Technology::default();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        let inp = nl.node("inp");
        let inn = nl.node("inn");
        let cs = nl.node("cs");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.vsource("VINP", inp, Netlist::GROUND, 0.5);
        // BUG under test: `inn` is left floating — no source drives it.
        let dev = nmos();
        nl.scl_load("RLP", vdd, outp, PmosLoad::new(0.2), 1e-9);
        nl.scl_load("RLN", vdd, outn, PmosLoad::new(0.2), 1e-9);
        nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, dev);
        nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, dev);
        nl.isource("ITAIL", cs, Netlist::GROUND, 1e-9);
        let err = crate::dcop::DcOperatingPoint::solve(&nl, &t).unwrap_err();
        match err {
            crate::SimError::Erc(report) => {
                let d = report.find(rule::UNDRIVEN_GATE).expect("undriven-gate");
                assert!(d.nodes.contains(&"inn".to_string()), "{d}");
                assert!(d.elements.contains(&"M2".to_string()), "{d}");
                // Rendering is the stable machine-readable line format.
                assert!(
                    d.to_string().starts_with("error[undriven-gate]:"),
                    "{d}"
                );
            }
            other => panic!("expected ERC rejection, got {other}"),
        }
    }

    #[test]
    fn gate_memoises_clean_verdict_per_revision() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        assert!(!nl.erc_clean_cached());
        assert!(gate(&nl).is_ok());
        assert!(nl.erc_clean_cached(), "clean verdict must be cached");
        // Repeated gating of the unchanged netlist stays cached (the
        // sweep/replica driver fast path) and does not bump the revision.
        let rev = nl.revision();
        assert!(gate(&nl).is_ok());
        assert!(nl.erc_clean_cached());
        assert_eq!(nl.revision(), rev);
        // The cache survives a clone (sweep drivers clone the netlist).
        let cloned = nl.clone();
        assert!(cloned.erc_clean_cached());
        // Any mutation — even just registering a node, which can float —
        // invalidates the verdict; the re-run sees the new topology.
        let orphan = nl.node("orphan");
        assert!(!nl.erc_clean_cached());
        let err = gate(&nl).unwrap_err();
        match err {
            crate::SimError::Erc(report) => {
                assert!(report.find(rule::FLOATING_NODE).is_some(), "{report}");
            }
            other => panic!("expected ERC rejection, got {other}"),
        }
        // Fixing the netlist re-arms the cache on the next clean gate.
        nl.resistor("R2", orphan, Netlist::GROUND, 1e6);
        assert!(gate(&nl).is_ok());
        assert!(nl.erc_clean_cached());
    }
}
