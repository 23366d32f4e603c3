//! Sound circuit certifier: interval abstract interpretation over
//! netlists.
//!
//! Every other analysis in this crate evaluates the circuit at *points*
//! — one die, one temperature, one candidate solution. This module
//! evaluates it over *boxes*: each MNA unknown becomes an
//! [`Interval`], each device model the directed-rounding envelope from
//! [`ulp_device::envelope`], and each claim a certificate that holds
//! for **every** die in a PVT/mismatch box
//! ([`PvtBox`] × the discrete [`Corner`] cards):
//!
//! * [`rule::PROVED_NONSINGULAR`] — the interval MNA Jacobian,
//!   stamped over the solution enclosure, admits a nonsingularity
//!   proof at every corner. No member matrix — hence no die in the
//!   box, at any enclosed operating point — can produce
//!   [`crate::SimError::Singular`].
//! * [`rule::PROVED_INFEASIBLE`] — a headroom or swing spec is
//!   violated over the *entire* box (supply below the proven minimum
//!   on every die, or swing below the steering requirement at every
//!   temperature). Design-space exploration may prune such a point
//!   without simulating a single die.
//! * [`rule::UNPROVEN`] — neither proof went through: the box is too
//!   wide. Never an error; absence of proof is not a defect.
//!
//! The five PR-3 electrical lints additionally gain *sound box
//! variants* (`*-box` rules): each fires when its bound may be
//! violated **somewhere** in the box. Because the point value always
//! lies inside the interval, a box variant can only be *more*
//! conservative than its point counterpart, never less.
//!
//! # Abstract domain and fixpoint
//!
//! The abstract state is one interval per MNA unknown. Starting from
//! `±(max |V_source| + v_limit)`, the interpreter alternates two sound
//! narrowing steps until a post-fixpoint:
//!
//! 1. **Source pinning** — for every voltage-defined branch
//!    `V(p) − V(n) = V`, propagate `X_p ∩= X_n + V` (and symmetrically),
//!    collapsing supply and input nodes to points.
//! 2. **Monotone bisection** — at every node whose KCL residual is
//!    provably non-decreasing in its own voltage (true for resistors,
//!    gmin, diodes, STSCL loads and MOS channels at *any* combination
//!    of terminals, using the EKV slope factor `n > 1` for
//!    diode-connected gates), binary-search the largest `m` with
//!    `f([m]).hi < 0` and the smallest with `f([m]).lo > 0`. Only
//!    proven-signed points move a bound, so every concrete solution in
//!    the box stays enclosed.
//!
//! Branch currents are then recovered from interval KCL at a source
//! terminal, the per-corner boxes hulled, and the result inflated by a
//! configurable `solver_slack` to absorb the float error of the
//! concrete Newton/LU path relative to the exact-arithmetic solutions
//! the enclosure bounds.
//!
//! # Nonsingularity proof chain
//!
//! A *structural* certificate is tried first: when the voltage
//! sources pin a forest rooted at ground and the free-node
//! conductance block peels down to a strictly column-dominant
//! Z-matrix per die (see [`structural_nonsingular`]), the Jacobian is
//! nonsingular for every die at **every** voltage — no intervals, no
//! corners. Otherwise the interval Jacobian is stamped exactly like
//! [`crate::mna`] assembles the point Jacobian (same stamps, same
//! `max(1e-18)` floors, same gmin), then proved regular by the
//! cheapest sufficient argument: Gershgorin diagonal dominance,
//! midpoint-preconditioned enclosure (`‖I − R·[A]‖∞ < 1`), or a full
//! interval LU ([`ulp_num::IntervalLu`]) whose completion implies
//! every member matrix is nonsingular — case-splitting the
//! temperature axis into [`CertifyOptions::t_slices`] slices when the
//! full-range box defeats all three.
//!
//! # Example
//!
//! ```
//! use ulp_spice::absint::{certify, CertifyOptions};
//! use ulp_spice::Netlist;
//! use ulp_device::load::PmosLoad;
//! use ulp_device::{Mosfet, Polarity, Technology};
//!
//! # fn main() -> Result<(), ulp_spice::SimError> {
//! let mut nl = Netlist::new();
//! let vdd = nl.node("vdd");
//! let inp = nl.node("inp");
//! let out = nl.node("out");
//! let cs = nl.node("cs");
//! nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
//! nl.vsource("VIN", inp, Netlist::GROUND, 0.6);
//! nl.mosfet("M1", out, inp, cs, Netlist::GROUND,
//!           Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6));
//! nl.scl_load("RL", vdd, out, PmosLoad::new(0.2), 1e-9);
//! nl.isource("ITAIL", cs, Netlist::GROUND, 1e-9);
//! let cert = certify(&nl, &Technology::default(), &CertifyOptions::default())?;
//! assert!(cert.proved_nonsingular());
//! assert!(!cert.proved_infeasible());
//! # Ok(())
//! # }
//! ```

use crate::diag::{Diagnostic, ErcReport, Severity};
use crate::lint::{
    self, rule, LintConfig, IC_WEAK_MAX, MIN_POINTS_PER_TAU, SIGMA_MARGIN, STEERING_NUT,
};
use crate::netlist::{Element, Netlist, Node};
use crate::SimError;
use ulp_device::envelope::PvtBox;
use ulp_device::mismatch::MismatchRng;
use ulp_device::pvt::Corner;
use ulp_device::{Polarity, Technology};
use ulp_num::interval::{gershgorin_nonsingular, prove_regular};
use ulp_num::{Interval, IntervalLu, Matrix};

/// Fallback half-width for unknowns nothing constrains (a numeric
/// stand-in for "unbounded" that keeps interval arithmetic finite).
const UNBOUNDED: f64 = 1e30;

/// Tuning knobs of the abstract interpreter. The defaults certify the
/// builder netlists in well under a second each; the knobs exist so
/// bulk harnesses (thousands of random ladders) can trade tightness
/// for speed.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// The temperature/mismatch box certificates quantify over (the
    /// discrete process corners are always all of [`Corner::all`]).
    pub pvt: PvtBox,
    /// The gmin the concrete solver stamps (must match the
    /// [`crate::dcop::NewtonOptions`] used for point solves the
    /// enclosure is compared against).
    pub gmin: f64,
    /// Half-width added to the largest DC source magnitude to form the
    /// initial node-voltage box, V. Node voltages outside
    /// `±(max |V| + v_limit)` are outside the certified enclosure.
    pub v_limit: f64,
    /// Narrowing sweeps (pinning + bisection) per corner.
    pub sweeps: usize,
    /// Binary-search steps per bound per node per sweep.
    pub bisect_steps: usize,
    /// Relative inflation of the final enclosure, absorbing the float
    /// error of the concrete Newton/LU path relative to the
    /// exact-arithmetic solutions the fixpoint bounds.
    pub solver_slack: f64,
    /// Planned transient step, s — enables [`rule::RC_TIME_STEP_BOX`].
    pub dt: Option<f64>,
    /// Temperature case-split depth: when the full-range proof fails
    /// at a corner, the temperature interval is subdivided into this
    /// many slices and the proof chain re-run per slice (any die has
    /// *one* junction temperature, so proving every slice proves the
    /// box). This recovers cross-device temperature correlation —
    /// e.g. a current mirror whose reference and output legs track —
    /// that single-interval evaluation must forfeit. `1` disables the
    /// split.
    pub t_slices: usize,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            pvt: PvtBox::qualification(),
            gmin: 1e-12,
            v_limit: 2.0,
            sweeps: 6,
            bisect_steps: 40,
            solver_slack: 1e-6,
            dt: None,
            t_slices: 8,
        }
    }
}

/// Outcome of the nonsingularity proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every corner's interval Jacobian admits a regularity proof; no
    /// die in the box can hit [`crate::SimError::Singular`].
    ProvedNonsingular {
        /// The argument that closed the proof: `"structural
        /// M-matrix"` when the corner-independent certificate of
        /// [`structural_nonsingular`] applies, otherwise the strongest
        /// interval argument any corner needed (`"Gershgorin
        /// circles"`, `"midpoint-preconditioned enclosure"`,
        /// `"interval LU"`, or `"temperature-sliced interval LU"`).
        method: &'static str,
    },
    /// The box is too wide for any of the proof methods. Not an
    /// error: absence of proof is not a defect.
    Unproven {
        /// The first corner at which every proof method failed.
        corner: Corner,
    },
}

/// A completed certification run: the verdict, the solution enclosure,
/// and every certificate/box finding at its natural severity.
#[derive(Debug, Clone)]
pub struct Certified {
    verdict: Verdict,
    solution: Vec<Interval>,
    diagnostics: Vec<Diagnostic>,
}

impl Certified {
    /// The nonsingularity verdict.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// True when every corner's Jacobian was proved regular.
    pub fn proved_nonsingular(&self) -> bool {
        matches!(self.verdict, Verdict::ProvedNonsingular { .. })
    }

    /// True when some spec is violated over the entire box
    /// (a [`rule::PROVED_INFEASIBLE`] certificate was emitted).
    pub fn proved_infeasible(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.rule == rule::PROVED_INFEASIBLE)
    }

    /// The certified enclosure of the full MNA unknown vector (node
    /// voltages in index order, then branch currents in element
    /// order), hulled over the corners and slack-inflated: every
    /// concrete DC solution of any die in the box lies componentwise
    /// inside.
    pub fn solution_box(&self) -> &[Interval] {
        &self.solution
    }

    /// The certified voltage enclosure of one node (`[0, 0]` for
    /// ground).
    pub fn voltage_box(&self, node: Node) -> Interval {
        if node.is_ground() {
            Interval::ZERO
        } else {
            self.solution[node.index() - 1]
        }
    }

    /// All findings at their natural severity (certificates are
    /// `Info`, box-variant and infeasibility findings `Warning`).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The certificate findings rendered through the lint pipeline:
    /// mapped through `config` (level overrides, deterministic
    /// ordering) exactly like any other lint group, ready for
    /// [`crate::sarif::to_sarif`].
    pub fn report(&self, config: &LintConfig) -> ErcReport {
        let mut raw = ErcReport::new();
        for d in &self.diagnostics {
            raw.push(d.clone());
        }
        lint::finish(raw, config)
    }
}

/// Certifies a netlist over the PVT/mismatch box: runs the enclosure
/// fixpoint and the nonsingularity proof chain at every corner, then
/// the feasibility and box-variant checks.
///
/// Structurally broken netlists cannot be meaningfully certified, so
/// this gates on [`crate::erc::gate`] first (`Err(SimError::Erc)`), and
/// a netlist with no unknowns has no system to certify
/// (`Err(SimError::EmptyNetlist)`).
pub fn certify(
    nl: &Netlist,
    tech: &Technology,
    opts: &CertifyOptions,
) -> Result<Certified, SimError> {
    crate::erc::gate(nl)?;
    crate::mna::require_unknowns(nl)?;
    let nn = nl.node_count() - 1;
    let dim = nl.unknown_count();

    let mut hull: Vec<Option<Interval>> = vec![None; dim];
    let mut verdict: Option<Verdict> = None;
    let mut strongest = 0usize; // index into METHODS
    const METHODS: [&str; 4] = [
        "Gershgorin circles",
        "midpoint-preconditioned enclosure",
        "interval LU",
        "temperature-sliced interval LU",
    ];
    // Corner- and voltage-independent structural proof: when it holds
    // there is nothing left for the per-corner interval chain to show,
    // so the corner loop only computes the solution enclosure.
    let structural = structural_nonsingular(nl);
    // Proof strength of one (corner, pvt) evaluation, or None.
    let prove_at = |tc: &Technology, o: &CertifyOptions, boxes: &[Interval]| -> Option<usize> {
        let jac = interval_jacobian(nl, tc, o, boxes);
        if gershgorin_nonsingular(&jac) {
            Some(0)
        } else if prove_regular(&jac) {
            Some(1)
        } else if IntervalLu::new(&jac).is_ok() {
            Some(2)
        } else {
            None
        }
    };

    for corner in Corner::all() {
        let tc = tech.at_corner(corner);
        let boxes = enclosure_fixpoint(nl, &tc, opts);
        // Per-corner proof chain on the interval Jacobian; if the
        // full-range box defeats every method, case-split the
        // temperature axis — each die sits in exactly one slice, and a
        // slice restores the cross-device temperature correlation
        // (mirror legs, replica loops) the full-range intervals lose.
        if !structural && verdict.is_none() {
            match prove_at(&tc, opts, &boxes) {
                Some(m) => strongest = strongest.max(m),
                None if opts.t_slices > 1 => {
                    let width = (opts.pvt.t_hi - opts.pvt.t_lo) / opts.t_slices as f64;
                    let all_slices = (0..opts.t_slices).all(|si| {
                        let mut o = opts.clone();
                        o.pvt.t_lo = opts.pvt.t_lo + width * si as f64;
                        o.pvt.t_hi = (o.pvt.t_lo + width).min(opts.pvt.t_hi);
                        let slice_boxes = enclosure_fixpoint(nl, &tc, &o);
                        prove_at(&tc, &o, &slice_boxes).is_some()
                    });
                    if all_slices {
                        strongest = 3;
                    } else {
                        verdict = Some(Verdict::Unproven { corner });
                    }
                }
                None => verdict = Some(Verdict::Unproven { corner }),
            }
        }
        for (h, b) in hull.iter_mut().zip(&boxes) {
            *h = Some(match h {
                Some(prev) => prev.hull(*b),
                None => *b,
            });
        }
    }

    let verdict = if structural {
        Verdict::ProvedNonsingular {
            method: "structural M-matrix",
        }
    } else {
        verdict.unwrap_or(Verdict::ProvedNonsingular {
            method: METHODS[strongest],
        })
    };
    let solution: Vec<Interval> = hull
        .into_iter()
        .map(|h| {
            let iv = h.expect("at least one corner ran");
            iv.inflate(opts.solver_slack * (1.0 + iv.mag()))
        })
        .collect();
    debug_assert_eq!(solution.len(), nn + nl.branch_count());

    let mut diagnostics = Vec::new();
    push_verdict(&verdict, opts, &mut diagnostics);
    check_feasibility(nl, tech, opts, &mut diagnostics);
    check_box_lints(nl, tech, opts, &mut diagnostics);

    Ok(Certified {
        verdict,
        solution,
        diagnostics,
    })
}

/// [`certify`] rendered through the lint pipeline: the raw certificate
/// findings mapped through `config` (level overrides, deterministic
/// ordering) exactly like any other lint group, ready for
/// [`crate::sarif::to_sarif`].
pub fn certify_lint(
    nl: &Netlist,
    tech: &Technology,
    config: &LintConfig,
    opts: &CertifyOptions,
) -> Result<ErcReport, SimError> {
    Ok(certify(nl, tech, opts)?.report(config))
}

/// Sign class of one symbolic Jacobian contribution.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PairClass {
    /// Magnitude provably `≥ 0` for every die at every voltage:
    /// two-terminal conductances, `|gms|`, `gds`, and the combined
    /// `gm + gds` of a diode-connected channel.
    NonNeg,
    /// Magnitude of unknown sign. The only producer is the MOS gate
    /// transconductance, which reverses with the channel
    /// (`n·gm = |gms| − gds` changes sign when `F'(x_r) > F'(x_f)`).
    Unknown,
}

/// One symbolic Jacobian contribution: some per-die magnitude `q`
/// entering column `col` as `+q` at row `rp` and `−q` at row `rm`
/// (ground rows are simply absent from the matrix).
struct Pair {
    col: Node,
    rp: Node,
    rm: Node,
    cls: PairClass,
}

/// Structural (corner- and voltage-independent) nonsingularity proof:
/// `true` certifies that **every** die in **every** PVT/mismatch box
/// has a nonsingular MNA Jacobian at **every** voltage assignment —
/// strictly stronger than the interval chain, which only covers the
/// solution enclosure of one box.
///
/// The argument has three stages, each exact (no interval slack):
///
/// 1. **Pin forest.** Voltage-defined branches are closed over from
///    ground: a branch whose far terminal (and, for a VCVS, both
///    controls) is already pinned pins its other terminal. When every
///    branch terminal/control ends up pinned and the branch count
///    equals the pinned-node count, ordering unknowns as
///    (free nodes, pinned nodes, branches) makes the Jacobian
///    block-triangular — free KCL rows carry no branch entries, branch
///    rows carry only pinned-node entries (`±1`/gains, forming a
///    unit-diagonal triangle in pin order), and branch columns hit
///    pinned KCL rows the same way — so
///    `det(A) = ±det(G_ff)`, the free-node conductance block.
/// 2. **Peeling.** A free node whose `G_ff` row is diagonal-only with
///    provably non-negative contributions factors out of the
///    determinant with its diagonal `gmin + Σq > 0`. The canonical
///    case is a diode-connected mirror reference: its `gm + gds`
///    lands on the diagonal and equals `|gms|/n + gds·(1 − 1/n) ≥ 0`
///    per die — positive even where the decorrelated interval
///    envelope of `gm` alone straddles zero. Peeling a column can
///    expose new diagonal-only rows, so iterate to a fixpoint.
/// 3. **M-matrix residual.** Every surviving contribution must keep
///    the residual block a Z-matrix (off-diagonals `≤ 0`) whose
///    column sums stay `≥ gmin`: a contribution pairs `+q` and `−q`
///    in one column, so it cancels out of the column sum when both
///    rows are free, adds `+q` when only the `+` row survives, and is
///    rejected when only the `−` row does. Sign-unknown gate
///    contributions are admissible only into pinned or peeled
///    columns, or from fully pinned rows. What remains is strictly
///    column-diagonally-dominant with positive diagonal
///    (Levy–Desplanques), hence nonsingular — for each die
///    separately, which is exactly the per-member claim interval
///    methods approximate.
///
/// `false` means only that *this* argument does not apply (e.g. a
/// free-floating VCCS or a source loop) — the caller falls back to the
/// interval proof chain.
fn structural_nonsingular(nl: &Netlist) -> bool {
    let nc = nl.node_count();
    let mut pinned = vec![false; nc];
    pinned[Netlist::GROUND.index()] = true;

    // Stage 1: pin-forest closure over the voltage-defined branches.
    loop {
        let mut grew = false;
        for e in nl.elements() {
            let (p, n, controls_pinned) = match e {
                Element::Vsource { p, n, .. } => (*p, *n, true),
                Element::Vcvs { p, n, cp, cn, .. } => {
                    (*p, *n, pinned[cp.index()] && pinned[cn.index()])
                }
                _ => continue,
            };
            if controls_pinned && pinned[p.index()] != pinned[n.index()] {
                let far = if pinned[p.index()] { n } else { p };
                pinned[far.index()] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut branches = 0usize;
    for e in nl.elements() {
        let ok = match e {
            Element::Vsource { p, n, .. } => pinned[p.index()] && pinned[n.index()],
            Element::Vcvs { p, n, cp, cn, .. } => {
                pinned[p.index()]
                    && pinned[n.index()]
                    && pinned[cp.index()]
                    && pinned[cn.index()]
            }
            _ => continue,
        };
        if !ok {
            // A floating source pair leaves a branch entry in a free
            // KCL row (or a free control in a branch row): the
            // block-triangular factorisation does not apply.
            return false;
        }
        branches += 1;
    }
    if pinned.iter().filter(|&&p| p).count() - 1 != branches {
        // Extra branches (source loops) make the branch block
        // rectangular; its unit-triangular determinant argument dies.
        return false;
    }

    // Stage 2 prep: the symbolic contribution table of `G_ff`.
    let mut pairs: Vec<Pair> = Vec::new();
    let mut push = |col: Node, rp: Node, rm: Node, cls: PairClass| {
        if rp != rm {
            pairs.push(Pair { col, rp, rm, cls });
        }
    };
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, .. } | Element::SclLoad { a, b, .. } => {
                push(*a, *a, *b, PairClass::NonNeg);
                push(*b, *b, *a, PairClass::NonNeg);
            }
            Element::Diode { p, n, .. } => {
                push(*p, *p, *n, PairClass::NonNeg);
                push(*n, *n, *p, PairClass::NonNeg);
            }
            Element::Vccs { p, n, cp, cn, gm, .. } => {
                let (hi, lo) = if *gm >= 0.0 { (*p, *n) } else { (*n, *p) };
                push(*cp, hi, lo, PairClass::NonNeg);
                push(*cn, lo, hi, PairClass::NonNeg);
            }
            Element::Mos { d, g, s, b, .. } => {
                if d == s {
                    continue; // degenerate: all stamps cancel row-wise
                }
                // |gms| into the source column (and its bulk return).
                push(*s, *s, *d, PairClass::NonNeg);
                push(*b, *d, *s, PairClass::NonNeg);
                if d == g {
                    // Diode-connected: gm and gds merge into one
                    // non-negative conductance `gm + gds`.
                    push(*d, *d, *s, PairClass::NonNeg);
                    push(*b, *s, *d, PairClass::NonNeg);
                } else {
                    // gds into the drain column; gm into the gate
                    // column with channel-dependent sign.
                    push(*d, *d, *s, PairClass::NonNeg);
                    push(*b, *s, *d, PairClass::NonNeg);
                    push(*g, *d, *s, PairClass::Unknown);
                    push(*b, *s, *d, PairClass::Unknown);
                }
            }
            Element::Capacitor { .. } | Element::Isource { .. } => {}
            Element::Vsource { .. } | Element::Vcvs { .. } => {}
        }
    }

    // Stage 2: iteratively peel diagonal-only free rows.
    let mut free: Vec<bool> = (0..nc)
        .map(|i| i != Netlist::GROUND.index() && !pinned[i])
        .collect();
    loop {
        let peel = (0..nc).find(|&j| {
            free[j]
                && pairs.iter().all(|p| {
                    let touches_row_j = (p.rp.index() == j || p.rm.index() == j)
                        && free[p.col.index()];
                    // Only an all-positive diagonal entry may remain.
                    !touches_row_j
                        || (p.col.index() == j
                            && p.rp.index() == j
                            && p.cls == PairClass::NonNeg)
                })
        });
        match peel {
            Some(j) => free[j] = false,
            None => break,
        }
    }

    // Stage 3: Z-pattern and per-column cancellation accounting on the
    // residual free set.
    pairs.iter().all(|p| {
        if !free[p.col.index()] {
            return true; // pinned or peeled column: outside the residual
        }
        match p.cls {
            PairClass::Unknown => !free[p.rp.index()] && !free[p.rm.index()],
            PairClass::NonNeg => {
                if free[p.rp.index()] && p.rp != p.col {
                    return false; // positive off-diagonal breaks the Z-pattern
                }
                if free[p.rm.index()] && !free[p.rp.index()] {
                    return false; // unpaired −q pulls a column sum below gmin
                }
                true
            }
        }
    })
}

// ---------------------------------------------------------------------
// Enclosure fixpoint.
// ---------------------------------------------------------------------

/// Interval of a node's box under a candidate assignment: the node
/// under scrutiny is held at `at`, everything else at its current box.
fn node_iv(boxes: &[Interval], node: Node, scrutiny: Node, at: Interval) -> Interval {
    if node == scrutiny {
        at
    } else if node.is_ground() {
        Interval::ZERO
    } else {
        boxes[node.index() - 1]
    }
}

/// Interval KCL residual of a *cut*: the total current leaving the
/// node set `cut` (indexed by [`Node::index`]; ground is never a
/// member) through every element crossing the cut boundary, plus the
/// gmin of every member node, with `scrutiny` held at `at` and every
/// other node at its box.
///
/// Elements entirely inside the cut cancel *exactly* and are skipped —
/// this is the whole trick: summing KCL over a channel-connected
/// component removes the MOS channel currents (whose interval
/// evaluation blows up over wide boxes) from the residual, leaving the
/// well-behaved boundary elements.
///
/// For every die in the box and every assignment inside the boxes, the
/// die's true cut residual lies inside the returned interval. With
/// `cut = {scrutiny}` this degenerates to the nodal KCL residual.
#[allow(clippy::too_many_arguments)] // one parameter per quantifier of the proof obligation
fn cut_residual_iv(
    nl: &Netlist,
    tech: &Technology,
    pvt: &PvtBox,
    gmin: f64,
    boxes: &[Interval],
    cut: &[bool],
    scrutiny: Node,
    at: Interval,
) -> Interval {
    let bx = |n: Node| node_iv(boxes, n, scrutiny, at);
    let memb = |n: Node| cut[n.index()];
    let mut sum = Interval::ZERO;
    for (i, inside) in cut.iter().enumerate().skip(1) {
        if *inside {
            sum = sum + bx(Node(i)).scale(gmin);
        }
    }
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                if memb(*a) == memb(*b) {
                    continue;
                }
                let i = (bx(*a) - bx(*b)).scale(1.0 / ohms);
                sum = if memb(*a) { sum + i } else { sum - i };
            }
            // Open at DC.
            Element::Capacitor { .. } => {}
            // Branch elements are handled by pinning / branch-current
            // recovery, never by the residual; cut eligibility keeps
            // them off the boundary during narrowing.
            Element::Vsource { .. } | Element::Vcvs { .. } => {}
            Element::Isource { p, n, wave, .. } => {
                let i = wave.at(0.0);
                if memb(*p) {
                    sum = sum + Interval::point(i);
                }
                if memb(*n) {
                    sum = sum - Interval::point(i);
                }
            }
            Element::Vccs { p, n, cp, cn, gm, .. } => {
                if memb(*p) == memb(*n) {
                    continue;
                }
                let ctl = (bx(*cp) - bx(*cn)).scale(*gm);
                sum = if memb(*p) { sum + ctl } else { sum - ctl };
            }
            Element::Diode {
                p, n, is_sat, n_id, ..
            } => {
                if memb(*p) == memb(*n) {
                    continue;
                }
                let vt = pvt.thermal_voltage_iv().scale(*n_id);
                let arg = (bx(*p) - bx(*n))
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    .min_with(40.0);
                let i = (arg.exp() - Interval::point(1.0)).scale(*is_sat);
                sum = if memb(*p) { sum + i } else { sum - i };
            }
            Element::Mos { d, g, s, b, dev, .. } => {
                let coeff = memb(*d) as i32 - memb(*s) as i32;
                if coeff == 0 {
                    continue;
                }
                let vb = bx(*b);
                let op = dev.operating_point_iv(
                    tech,
                    pvt,
                    bx(*g) - vb,
                    bx(*s) - vb,
                    bx(*d) - vb,
                );
                let i_dt = match dev.polarity {
                    Polarity::Nmos => op.id,
                    Polarity::Pmos => -op.id,
                };
                sum = sum + i_dt.scale(coeff as f64);
            }
            Element::SclLoad { a, b, load, iss, .. } => {
                if memb(*a) == memb(*b) {
                    continue;
                }
                let i = load.current_iv(bx(*a) - bx(*b), *iss);
                sum = if memb(*a) { sum + i } else { sum - i };
            }
        }
    }
    sum
}

/// Whether the cut residual is provably non-decreasing in `scrutiny`'s
/// voltage for every die (the precondition of monotone bisection):
///
/// * no voltage-defined branch may cross the boundary (its current is
///   an extra unknown in the cut's KCL);
/// * no crossing VCCS may be controlled by a cut member (its current
///   is not monotone in the control voltage's sign context);
/// * a crossing MOS channel must not see `scrutiny` on its gate while
///   only the source is inside (`∂(−I_D)/∂V_G = −g_m ≤ 0`; every other
///   terminal combination is non-decreasing, including diode-connected
///   gates via the EKV slope factor `n > 1`), nor on its bulk unless
///   the bulk rides a channel terminal.
fn cut_eligible(nl: &Netlist, cut: &[bool], scrutiny: Node) -> bool {
    let memb = |n: Node| cut[n.index()];
    for e in nl.elements() {
        match e {
            Element::Vsource { p, n, .. } | Element::Vcvs { p, n, .. }
                if memb(*p) || memb(*n) =>
            {
                return false;
            }
            Element::Vccs { p, n, cp, cn, .. }
                if memb(*p) != memb(*n) && (memb(*cp) || memb(*cn)) =>
            {
                return false;
            }
            Element::Mos { d, g, s, b, .. } => {
                let coeff = memb(*d) as i32 - memb(*s) as i32;
                if coeff == 0 {
                    continue;
                }
                if *g == scrutiny && coeff == -1 && *s != scrutiny {
                    return false;
                }
                if *b == scrutiny && *d != scrutiny && *s != scrutiny {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// The set of nodes reachable from `node` through MOS drain–source
/// channels (ground acts as a barrier), as a membership mask indexed
/// by [`Node::index`].
fn channel_component(nl: &Netlist, node: Node) -> Vec<bool> {
    let mut mask = vec![false; nl.node_count()];
    if node.is_ground() {
        return mask;
    }
    mask[node.index()] = true;
    loop {
        let mut grew = false;
        for e in nl.elements() {
            let Element::Mos { d, s, .. } = e else {
                continue;
            };
            for (x, y) in [(*d, *s), (*s, *d)] {
                if !x.is_ground() && !y.is_ground() && mask[x.index()] && !mask[y.index()] {
                    mask[y.index()] = true;
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    mask
}

/// One sound narrowing pass of source pinning: every voltage-defined
/// branch fixes the difference of its terminal boxes.
fn pin_sources(nl: &Netlist, boxes: &mut [Interval]) {
    let tighten = |boxes: &mut [Interval], node: Node, iv: Interval| {
        if let Some(i) = (!node.is_ground()).then(|| node.index() - 1) {
            if let Some(t) = boxes[i].intersect(iv) {
                boxes[i] = t;
            }
        }
    };
    for e in nl.elements() {
        let (p, n, v) = match e {
            Element::Vsource { p, n, wave, .. } => (*p, *n, Interval::point(wave.at(0.0))),
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let bx = |node: Node| {
                    if node.is_ground() {
                        Interval::ZERO
                    } else {
                        boxes[node.index() - 1]
                    }
                };
                (*p, *n, (bx(*cp) - bx(*cn)).scale(*gain))
            }
            _ => continue,
        };
        let bn = if n.is_ground() {
            Interval::ZERO
        } else {
            boxes[n.index() - 1]
        };
        tighten(boxes, p, bn + v);
        let bp = if p.is_ground() {
            Interval::ZERO
        } else {
            boxes[p.index() - 1]
        };
        tighten(boxes, n, bp - v);
    }
}

/// Runs the pinning + monotone-bisection fixpoint at one corner and
/// recovers branch currents; returns the full unknown-vector enclosure
/// (uninflated).
fn enclosure_fixpoint(nl: &Netlist, tech: &Technology, opts: &CertifyOptions) -> Vec<Interval> {
    let nn = nl.node_count() - 1;
    let mut src_span = 0.0f64;
    for e in nl.elements() {
        if let Element::Vsource { wave, .. } = e {
            src_span = src_span.max(wave.at(0.0).abs());
        }
    }
    let span = src_span + opts.v_limit;
    let mut boxes = vec![Interval::new(-span, span); nn];

    // Each node is narrowed through every eligible cut that contains
    // it: its singleton cut (plain nodal KCL) and its MOS
    // channel-connected component (which cancels the channel currents
    // out of the residual — essential for source-coupled pairs, where
    // the nodal residuals of the drain and tail nodes stay
    // sign-indefinite as long as the *other* node is wide).
    let mut narrowers: Vec<(usize, Vec<bool>)> = Vec::new();
    for i in 0..nn {
        let node = Node(i + 1);
        let mut single = vec![false; nl.node_count()];
        single[i + 1] = true;
        let comp = channel_component(nl, node);
        if comp.iter().filter(|&&m| m).count() > 1 && cut_eligible(nl, &comp, node) {
            narrowers.push((i, comp));
        }
        if cut_eligible(nl, &single, node) {
            narrowers.push((i, single));
        }
    }

    for _ in 0..opts.sweeps.max(1) {
        // Two pinning passes let Vcvs chains settle within a sweep.
        pin_sources(nl, &mut boxes);
        pin_sources(nl, &mut boxes);
        for (i, cut) in &narrowers {
            let i = *i;
            let node = Node(i + 1);
            let f = |boxes: &[Interval], v: f64| {
                cut_residual_iv(
                    nl,
                    tech,
                    &opts.pvt,
                    opts.gmin,
                    boxes,
                    cut,
                    node,
                    Interval::point(v),
                )
            };
            let (lo, hi) = (boxes[i].lo(), boxes[i].hi());
            // Raise the lower bound to the largest point proved
            // negative for every die.
            let mut new_lo = lo;
            if f(&boxes, lo).hi() < 0.0 {
                if f(&boxes, hi).hi() < 0.0 {
                    new_lo = hi;
                } else {
                    let (mut a, mut b) = (lo, hi);
                    for _ in 0..opts.bisect_steps {
                        let m = 0.5 * (a + b);
                        if m <= a || m >= b {
                            break;
                        }
                        if f(&boxes, m).hi() < 0.0 {
                            a = m;
                        } else {
                            b = m;
                        }
                    }
                    new_lo = a;
                }
            }
            // Lower the upper bound symmetrically.
            let mut new_hi = hi;
            if f(&boxes, hi).lo() > 0.0 {
                if f(&boxes, lo).lo() > 0.0 {
                    new_hi = lo;
                } else {
                    let (mut a, mut b) = (lo, hi);
                    for _ in 0..opts.bisect_steps {
                        let m = 0.5 * (a + b);
                        if m <= a || m >= b {
                            break;
                        }
                        if f(&boxes, m).lo() > 0.0 {
                            b = m;
                        } else {
                            a = m;
                        }
                    }
                    new_hi = b;
                }
            }
            if new_lo <= new_hi {
                boxes[i] = Interval::new(new_lo, new_hi);
            }
        }
    }

    // Branch currents from interval KCL at the source terminals. At a
    // node `t`, `Σ_branches ±i_b = −(non-branch out-current at t)`, so
    // a branch whose *other* co-terminal branches are already bounded
    // resolves from either terminal; iterating lets chains settle
    // (e.g. a common-mode source feeding the reference terminals of
    // two VCVSs resolves once both VCVS currents are known).
    let nodal = |t: Node| {
        let mut single = vec![false; nl.node_count()];
        single[t.index()] = true;
        cut_residual_iv(
            nl,
            tech,
            &opts.pvt,
            opts.gmin,
            &boxes,
            &single,
            t,
            boxes[t.index() - 1],
        )
    };
    let branches: Vec<(Node, Node)> = nl
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Vsource { p, n, .. } | Element::Vcvs { p, n, .. } => Some((*p, *n)),
            _ => None,
        })
        .collect();
    // Out-current signs of every branch at node `t` (net zero when a
    // degenerate branch has both terminals there).
    let signs_at = |t: Node| -> Vec<f64> {
        branches
            .iter()
            .map(|(p, n)| (*p == t) as i32 as f64 - (*n == t) as i32 as f64)
            .collect()
    };
    let mut bcur: Vec<Option<Interval>> = vec![None; branches.len()];
    for _ in 0..branches.len().max(1) {
        let mut settled = true;
        for bi in 0..branches.len() {
            if bcur[bi].is_some() {
                continue;
            }
            let (p, n) = branches[bi];
            for t in [p, n] {
                if t.is_ground() {
                    continue;
                }
                let signs = signs_at(t);
                if signs[bi] == 0.0 {
                    continue;
                }
                if (0..branches.len())
                    .any(|o| o != bi && signs[o] != 0.0 && bcur[o].is_none())
                {
                    continue;
                }
                let mut iv = -nodal(t);
                for o in 0..branches.len() {
                    if o != bi && signs[o] != 0.0 {
                        iv = iv - bcur[o].expect("checked above").scale(signs[o]);
                    }
                }
                let iv = iv.scale(signs[bi]); // signs are ±1 here
                bcur[bi] = Some(match bcur[bi] {
                    Some(prev) => prev.intersect(iv).unwrap_or(iv),
                    None => iv,
                });
            }
            if bcur[bi].is_none() {
                settled = false;
            }
        }
        if settled {
            break;
        }
    }
    let mut out = boxes.clone();
    out.extend(
        bcur.into_iter()
            .map(|b| b.unwrap_or(Interval::new(-UNBOUNDED, UNBOUNDED))),
    );
    out
}

// ---------------------------------------------------------------------
// Interval Jacobian.
// ---------------------------------------------------------------------

struct IvStamper<'m> {
    a: &'m mut Matrix<Interval>,
}

impl IvStamper<'_> {
    fn idx(node: Node) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    fn conductance(&mut self, p: Node, n: Node, g: Interval) {
        if let Some(i) = Self::idx(p) {
            self.a.add_at(i, i, g);
            if let Some(j) = Self::idx(n) {
                self.a.add_at(i, j, -g);
            }
        }
        if let Some(j) = Self::idx(n) {
            self.a.add_at(j, j, g);
            if let Some(i) = Self::idx(p) {
                self.a.add_at(j, i, -g);
            }
        }
    }

    fn transconductance(&mut self, p: Node, n: Node, cp: Node, cn: Node, gm: Interval) {
        for (out, sign) in [(p, 1.0), (n, -1.0)] {
            if let Some(r) = Self::idx(out) {
                if let Some(c) = Self::idx(cp) {
                    self.a.add_at(r, c, gm.scale(sign));
                }
                if let Some(c) = Self::idx(cn) {
                    self.a.add_at(r, c, -gm.scale(sign));
                }
            }
        }
    }
}

/// Interval sum of all out-currents at `t` over the boxes, excluding
/// the elements `skip` selects (by element index); MOS channel
/// currents come from the running terminal-current bounds `dt`.
/// `None` when `t` is ground or carries a voltage-defined branch
/// (whose current is not interval-computable from the boxes).
///
/// This is the KCL identity backing current refinement: at any die's
/// solution, the skipped elements' total current at `t` equals minus
/// the returned interval.
fn node_rest_iv(
    nl: &Netlist,
    pvt: &PvtBox,
    gmin: f64,
    boxes: &[Interval],
    t: Node,
    dt: &[Option<Interval>],
    skip: &dyn Fn(usize) -> bool,
) -> Option<Interval> {
    if t.is_ground() {
        return None;
    }
    let adjacent_branch = nl.elements().iter().any(|e| {
        matches!(e, Element::Vsource { p, n, .. } | Element::Vcvs { p, n, .. }
            if *p == t || *n == t)
    });
    if adjacent_branch {
        return None;
    }
    let bx = |n: Node| {
        if n.is_ground() {
            Interval::ZERO
        } else {
            boxes[n.index() - 1]
        }
    };
    let mut sum = bx(t).scale(gmin);
    for (k, e) in nl.elements().iter().enumerate() {
        if skip(k) {
            continue;
        }
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                if a == b || (*a != t && *b != t) {
                    continue;
                }
                let i = (bx(*a) - bx(*b)).scale(1.0 / ohms);
                sum = if *a == t { sum + i } else { sum - i };
            }
            Element::Capacitor { .. } | Element::Vsource { .. } | Element::Vcvs { .. } => {}
            Element::Isource { p, n, wave, .. } => {
                let i = wave.at(0.0);
                if *p == t {
                    sum = sum + Interval::point(i);
                }
                if *n == t {
                    sum = sum - Interval::point(i);
                }
            }
            Element::Vccs { p, n, cp, cn, gm, .. } => {
                if *p == *n || (*p != t && *n != t) {
                    continue;
                }
                let ctl = (bx(*cp) - bx(*cn)).scale(*gm);
                if *p == t {
                    sum = sum + ctl;
                }
                if *n == t {
                    sum = sum - ctl;
                }
            }
            Element::Diode {
                p, n, is_sat, n_id, ..
            } => {
                if p == n || (*p != t && *n != t) {
                    continue;
                }
                let vt = pvt.thermal_voltage_iv().scale(*n_id);
                let arg = (bx(*p) - bx(*n))
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    .min_with(40.0);
                let i = (arg.exp() - Interval::point(1.0)).scale(*is_sat);
                sum = if *p == t { sum + i } else { sum - i };
            }
            Element::Mos { d, s, .. } => {
                let coeff = (*d == t) as i32 - (*s == t) as i32;
                if coeff == 0 {
                    continue;
                }
                let i_dt = dt[k].expect("terminal-current bound prefilled for every MOS");
                sum = sum + i_dt.scale(coeff as f64);
            }
            Element::SclLoad { a, b, load, iss, .. } => {
                if a == b || (*a != t && *b != t) {
                    continue;
                }
                let i = load.current_iv(bx(*a) - bx(*b), *iss);
                sum = if *a == t { sum + i } else { sum - i };
            }
        }
    }
    Some(sum)
}

/// Stamps the interval DC Jacobian over the node-voltage boxes,
/// mirroring [`crate::mna::MnaWorkspace::assemble`] stamp for stamp (same
/// conductance floors, same branch rows, same gmin) so the concrete
/// Jacobian of any die *at its enclosed operating point* is a member
/// matrix.
///
/// MOS stamps are refined with KCL-consistent current bounds: at any
/// die's solution, a device's terminal current is pinned by the other
/// element currents at its drain and source nodes (both interval-
/// computable over the boxes), and in subthreshold every
/// transconductance is proportional to current — so the KCL bound
/// collapses the exponential spread the raw voltage boxes would imply.
/// Tail nodes additionally get a grouped diagonal lower bound: the
/// source-coupled devices' `g_ms` sum is at least
/// `ratio_min·ΣI_D/U_T`, and `ΣI_D` is the (narrow) tail-cut current,
/// even though no per-device split of it is known.
fn interval_jacobian(
    nl: &Netlist,
    tech: &Technology,
    opts: &CertifyOptions,
    boxes: &[Interval],
) -> Matrix<Interval> {
    let nn = nl.node_count() - 1;
    let dim = nl.unknown_count();
    let mut a = Matrix::zeros(dim, dim);
    let bx = |node: Node| {
        if node.is_ground() {
            Interval::ZERO
        } else {
            boxes[node.index() - 1]
        }
    };
    for i in 0..nn {
        a.add_at(i, i, Interval::point(opts.gmin));
    }

    // Terminal-current bounds per MOS (drain-terminal sign), seeded
    // from the box envelope and tightened by the KCL identities at the
    // drain and source nodes. Two passes let a bound sharpened at one
    // device's drain propagate into its neighbour's source identity.
    let sigma = |dev: &ulp_device::Mosfet| match dev.polarity {
        Polarity::Nmos => 1.0,
        Polarity::Pmos => -1.0,
    };
    let mut dt: Vec<Option<Interval>> = nl
        .elements()
        .iter()
        .map(|e| match e {
            Element::Mos { d, g, s, b, dev, .. } => {
                let vb = bx(*b);
                let op =
                    dev.operating_point_iv(tech, &opts.pvt, bx(*g) - vb, bx(*s) - vb, bx(*d) - vb);
                Some(op.id.scale(sigma(dev)))
            }
            _ => None,
        })
        .collect();
    for _ in 0..2 {
        for k in 0..nl.elements().len() {
            let Element::Mos { d, s, .. } = &nl.elements()[k] else {
                continue;
            };
            let (d, s) = (*d, *s);
            if d == s {
                continue;
            }
            let mut bound = dt[k].expect("seeded above");
            if let Some(r) =
                node_rest_iv(nl, &opts.pvt, opts.gmin, boxes, d, &dt, &|i| i == k)
            {
                bound = bound.intersect(-r).unwrap_or(bound);
            }
            if let Some(r) =
                node_rest_iv(nl, &opts.pvt, opts.gmin, boxes, s, &dt, &|i| i == k)
            {
                bound = bound.intersect(r).unwrap_or(bound);
            }
            dt[k] = Some(bound);
        }
    }
    let one = Interval::point(1.0);
    let mut st = IvStamper { a: &mut a };
    let mut branch = nn;
    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                st.conductance(*a, *b, Interval::point(1.0 / ohms));
            }
            Element::Capacitor { .. } | Element::Isource { .. } => {}
            Element::Vsource { p, n, .. } => {
                let rb = branch;
                branch += 1;
                if let Some(i) = IvStamper::idx(*p) {
                    st.a.add_at(i, rb, one);
                    st.a.add_at(rb, i, one);
                }
                if let Some(j) = IvStamper::idx(*n) {
                    st.a.add_at(j, rb, -one);
                    st.a.add_at(rb, j, -one);
                }
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let rb = branch;
                branch += 1;
                if let Some(i) = IvStamper::idx(*p) {
                    st.a.add_at(i, rb, one);
                    st.a.add_at(rb, i, one);
                }
                if let Some(j) = IvStamper::idx(*n) {
                    st.a.add_at(j, rb, -one);
                    st.a.add_at(rb, j, -one);
                }
                if let Some(c) = IvStamper::idx(*cp) {
                    st.a.add_at(rb, c, Interval::point(-gain));
                }
                if let Some(c) = IvStamper::idx(*cn) {
                    st.a.add_at(rb, c, Interval::point(*gain));
                }
            }
            Element::Vccs { p, n, cp, cn, gm, .. } => {
                st.transconductance(*p, *n, *cp, *cn, Interval::point(*gm));
            }
            Element::Diode {
                p, n, is_sat, n_id, ..
            } => {
                let vt = opts.pvt.thermal_voltage_iv().scale(*n_id);
                let arg = (bx(*p) - bx(*n))
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    .min_with(40.0);
                let g = (Interval::point(*is_sat)
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    * arg.exp())
                .max_with(1e-18);
                st.conductance(*p, *n, g);
            }
            Element::Mos { d, g, s, b, dev, .. } => {
                let vb = bx(*b);
                let id_bound = dt[k].expect("seeded above").scale(sigma(dev));
                let op = dev.operating_point_iv_bounded(
                    tech,
                    &opts.pvt,
                    bx(*g) - vb,
                    bx(*s) - vb,
                    bx(*d) - vb,
                    id_bound,
                );
                if d == g && d != s {
                    // Diode-connected: the gm and gds stamps land on
                    // identical positions, so stamp their sum once —
                    // floored by the correlated total conductance,
                    // which stays strictly positive where the
                    // decorrelated `gm` envelope dips negative.
                    let raw = op.gm + op.gds;
                    let floor =
                        dev.diode_conductance_floor(tech, &opts.pvt, bx(*d) - vb, bx(*s) - vb);
                    let gtot = if floor > raw.lo() && floor <= raw.hi() {
                        Interval::new(floor, raw.hi())
                    } else {
                        raw
                    };
                    st.transconductance(*d, *s, *d, *b, gtot);
                    st.transconductance(*d, *s, *s, *b, op.gms);
                } else {
                    st.transconductance(*d, *s, *g, *b, op.gm);
                    st.transconductance(*d, *s, *s, *b, op.gms);
                    st.transconductance(*d, *s, *d, *b, op.gds);
                }
            }
            Element::SclLoad { a, b, load, iss, .. } => {
                let g = load.conductance_iv(bx(*a) - bx(*b), *iss).max_with(1e-18);
                st.conductance(*a, *b, g);
            }
        }
    }

    // Grouped tail-node diagonal refinement. At a source-coupled node
    // the diagonal is `gmin + Σ gms_k + (per-die non-negative terms)`,
    // and per die `gms_k = ratio(x_f)·I_S·clm·i_f/U_T ≥
    // ratio_min·max(I_D_k, 0)/U_T` — so the tail-cut KCL bound on
    // `Σ I_D_k` (exactly ISS plus gmin leakage, even though no
    // per-device split is known) yields a diagonal lower bound the
    // independent per-entry envelopes cannot see (each device alone
    // may carry anything from 0 to the full tail current).
    for t in 1..=nn {
        let tn = Node(t);
        let mut src: Vec<usize> = Vec::new();
        let mut drn: Vec<usize> = Vec::new();
        let mut sign_definite = true;
        for (k, e) in nl.elements().iter().enumerate() {
            match e {
                Element::Vccs { p, n, cp, cn, .. }
                    if (*p == tn || *n == tn) && (*cp == tn || *cn == tn) =>
                {
                    sign_definite = false;
                }
                Element::Mos { d, g, s, b, .. } => {
                    if (*d == tn) == (*s == tn) {
                        continue;
                    }
                    if *g == tn || *b == tn {
                        // A diode-connected gate or a bulk tied to the
                        // tail adds gm/bulk terms of unproven sign to
                        // the diagonal.
                        sign_definite = false;
                    } else if *s == tn {
                        src.push(k);
                    } else {
                        drn.push(k);
                    }
                }
                _ => {}
            }
        }
        if !sign_definite || src.is_empty() {
            continue;
        }
        let Element::Mos { dev: first, .. } = &nl.elements()[src[0]] else {
            unreachable!("src holds MOS indices");
        };
        let pol = first.polarity;
        let same_pol = src.iter().all(|&k| {
            matches!(&nl.elements()[k], Element::Mos { dev, .. } if dev.polarity == pol)
        });
        if !same_pol {
            continue;
        }
        let channel_at_t = |k: usize| src.contains(&k) || drn.contains(&k);
        let Some(rest) = node_rest_iv(
            nl,
            &opts.pvt,
            opts.gmin,
            boxes,
            tn,
            &dt,
            &channel_at_t,
        ) else {
            continue;
        };
        // KCL at the tail: Σ_src i_dt = Σ_drn i_dt + rest; project onto
        // the group's polarity so the bound is on Σ max(I_D, 0).
        let mut s_sum = rest;
        for &j in &drn {
            s_sum = s_sum + dt[j].expect("seeded above");
        }
        let group_sign = match pol {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        };
        let l = s_sum.scale(group_sign).lo().max(0.0);
        if l <= 0.0 {
            continue;
        }
        let mut ratio_lo = 1.0f64;
        for &k in &src {
            let Element::Mos { g, s, b, dev, .. } = &nl.elements()[k] else {
                unreachable!("src holds MOS indices");
            };
            let vb = bx(*b);
            let xf = dev.forward_injection_iv(tech, &opts.pvt, bx(*g) - vb, bx(*s) - vb);
            ratio_lo = ratio_lo.min(ulp_device::envelope::interp_ratio_iv(xf).lo());
        }
        let ut_hi = opts.pvt.thermal_voltage_iv().hi();
        let bound = opts.gmin + ratio_lo * l / ut_hi;
        let diag = a[(t - 1, t - 1)];
        if bound > diag.lo() && bound <= diag.hi() {
            a[(t - 1, t - 1)] = Interval::new(bound, diag.hi());
        }
    }
    a
}

// ---------------------------------------------------------------------
// Certificates and box lints.
// ---------------------------------------------------------------------

fn box_label(opts: &CertifyOptions) -> String {
    format!(
        "5 corners \u{d7} [{:.0}, {:.0}] K \u{d7} \u{b1}{:.0}\u{3c3} mismatch",
        opts.pvt.t_lo, opts.pvt.t_hi, opts.pvt.k_sigma
    )
}

fn push_verdict(verdict: &Verdict, opts: &CertifyOptions, out: &mut Vec<Diagnostic>) {
    match verdict {
        Verdict::ProvedNonsingular { method } => out.push(Diagnostic::new(
            Severity::Info,
            rule::PROVED_NONSINGULAR,
            format!(
                "MNA Jacobian proved nonsingular over {} via {method}: no die \
                 in the box can produce a singular system",
                box_label(opts)
            ),
        )),
        Verdict::Unproven { corner } => out.push(
            Diagnostic::new(
                Severity::Info,
                rule::UNPROVEN,
                format!(
                    "nonsingularity unproven over {}: every proof method failed \
                     at the {corner} corner (box too wide)",
                    box_label(opts)
                ),
            )
            .with_hint(
                "not a defect — shrink the temperature/mismatch box or tighten \
                 the netlist's operating range to let a proof go through",
            ),
        ),
    }
}

/// Headroom/swing feasibility over the whole box: `proved-infeasible`
/// fires only when the spec fails on *every* die.
fn check_feasibility(
    nl: &Netlist,
    tech: &Technology,
    opts: &CertifyOptions,
    out: &mut Vec<Diagnostic>,
) {
    for e in nl.elements() {
        let Element::SclLoad {
            name, a, b, load, iss,
        } = e
        else {
            continue;
        };
        // Supply headroom, mirroring the point lint's pattern match.
        let supply = nl.elements().iter().find_map(|s| match s {
            Element::Vsource { name, p, n, wave, .. } if p == a && n.is_ground() => {
                Some((name.clone(), wave.dc()))
            }
            _ => None,
        });
        let pair = nl.elements().iter().find_map(|m| match m {
            Element::Mos { name, d, dev, .. } if d == b => Some((name.clone(), *dev)),
            _ => None,
        });
        if let (Some((vname, vdd)), Some((mname, dev))) = (supply, pair) {
            let mut need: Option<Interval> = None;
            for corner in Corner::all() {
                let tc = tech.at_corner(corner);
                let iv = dev.min_supply_iv(&tc, &opts.pvt, *iss, load.vsw);
                need = Some(match need {
                    Some(prev) => prev.hull(iv),
                    None => iv,
                });
            }
            let need = need.expect("corners are non-empty");
            if vdd < need.lo() {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::PROVED_INFEASIBLE,
                        format!(
                            "supply `{vname}` = {vdd:.2} V is below the proven \
                             minimum [{:.2}, {:.2}] V the STSCL stack under \
                             `{name}` needs over {} — infeasible on every die",
                            need.lo(),
                            need.hi(),
                            box_label(opts)
                        ),
                    )
                    .with_nodes([nl.node_name(*a).to_string()])
                    .with_elements([name.clone(), mname, vname])
                    .with_hint(
                        "a DSE may prune this point without simulation; raise \
                         VDD or cut ISS/VSW to re-enter the feasible region",
                    ),
                );
            }
        }
        // Swing steering, mirroring the point lint's pattern match.
        for drv in nl.elements() {
            let Element::Mos {
                name: dname,
                g,
                dev,
                ..
            } = drv
            else {
                continue;
            };
            if g != b {
                continue;
            }
            let n_slope = match dev.polarity {
                Polarity::Nmos => tech.nmos.n,
                Polarity::Pmos => tech.pmos.n,
            };
            let required = opts
                .pvt
                .thermal_voltage_iv()
                .scale(STEERING_NUT * n_slope);
            if load.vsw < required.lo() {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::PROVED_INFEASIBLE,
                        format!(
                            "load `{name}` swings {:.0} mV on node `{}` but the \
                             driven pair device `{dname}` needs at least \
                             {:.0} mV at every temperature in {} — infeasible \
                             on every die",
                            load.vsw * 1e3,
                            nl.node_name(*b),
                            required.lo() * 1e3,
                            box_label(opts)
                        ),
                    )
                    .with_nodes([nl.node_name(*b).to_string()])
                    .with_elements([name.clone(), dname.clone()])
                    .with_hint(
                        "a DSE may prune this point without simulation; raise \
                         RL\u{b7}ISS to restore complete steering",
                    ),
                );
            }
        }
    }
}

/// Sound box variants of the five PR-3 electrical lints: each fires
/// when its bound may be violated *somewhere* in the box. The point
/// value lies inside every interval used here, so a box variant fires
/// whenever its point counterpart does — never less conservative.
fn check_box_lints(
    nl: &Netlist,
    tech: &Technology,
    opts: &CertifyOptions,
    out: &mut Vec<Diagnostic>,
) {
    let elems = nl.elements();
    // weak-inversion-box -----------------------------------------------
    for e in elems {
        let Element::Mos { name, d, s, dev, .. } = e else {
            continue;
        };
        let Some(bias) = lint::inferred_bias(nl, *d, *s) else {
            continue;
        };
        let mut ic: Option<Interval> = None;
        for corner in Corner::all() {
            let iv = dev.inversion_coefficient_iv(&tech.at_corner(corner), &opts.pvt, bias);
            ic = Some(match ic {
                Some(prev) => prev.hull(iv),
                None => iv,
            });
        }
        let ic = ic.expect("corners are non-empty");
        if ic.hi() > IC_WEAK_MAX {
            out.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::WEAK_INVERSION_BOX,
                    format!(
                        "`{name}` may reach inversion coefficient {:.3} at its \
                         inferred bias of {bias:.3e} A somewhere in {} — \
                         outside weak inversion (bound {IC_WEAK_MAX})",
                        ic.hi(),
                        box_label(opts)
                    ),
                )
                .with_elements([name.clone()])
                .with_hint(
                    "widen W/L or reduce the bias so the whole box stays in \
                     weak inversion",
                ),
            );
        }
    }
    // swing-compatibility-box / vdd-headroom-box ------------------------
    for e in elems {
        let Element::SclLoad {
            name, a, b, load, iss,
        } = e
        else {
            continue;
        };
        for drv in elems {
            let Element::Mos {
                name: dname,
                g,
                dev,
                ..
            } = drv
            else {
                continue;
            };
            if g != b {
                continue;
            }
            let n_slope = match dev.polarity {
                Polarity::Nmos => tech.nmos.n,
                Polarity::Pmos => tech.pmos.n,
            };
            let required = opts
                .pvt
                .thermal_voltage_iv()
                .scale(STEERING_NUT * n_slope);
            if load.vsw < required.hi() {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::SWING_COMPATIBILITY_BOX,
                        format!(
                            "load `{name}` swings {:.0} mV on node `{}` but the \
                             driven pair device `{dname}` may need up to {:.0} mV \
                             to steer somewhere in {}",
                            load.vsw * 1e3,
                            nl.node_name(*b),
                            required.hi() * 1e3,
                            box_label(opts)
                        ),
                    )
                    .with_nodes([nl.node_name(*b).to_string()])
                    .with_elements([name.clone(), dname.clone()])
                    .with_hint("raise RL\u{b7}ISS to cover the hot end of the box"),
                );
            }
        }
        let supply = elems.iter().find_map(|s| match s {
            Element::Vsource { name, p, n, wave, .. } if p == a && n.is_ground() => {
                Some((name.clone(), wave.dc()))
            }
            _ => None,
        });
        let pair = elems.iter().find_map(|m| match m {
            Element::Mos { name, d, dev, .. } if d == b => Some((name.clone(), *dev)),
            _ => None,
        });
        if let (Some((vname, vdd)), Some((mname, dev))) = (supply, pair) {
            let mut need: Option<Interval> = None;
            for corner in Corner::all() {
                let iv = dev.min_supply_iv(&tech.at_corner(corner), &opts.pvt, *iss, load.vsw);
                need = Some(match need {
                    Some(prev) => prev.hull(iv),
                    None => iv,
                });
            }
            let need = need.expect("corners are non-empty");
            if vdd < need.hi() {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::VDD_HEADROOM_BOX,
                        format!(
                            "supply `{vname}` = {vdd:.2} V may fall below the \
                             {:.2} V the STSCL stack under `{name}` needs \
                             somewhere in {}",
                            need.hi(),
                            box_label(opts)
                        ),
                    )
                    .with_nodes([nl.node_name(*a).to_string()])
                    .with_elements([name.clone(), mname, vname])
                    .with_hint("raise VDD or cut ISS/VSW to cover the whole box"),
                );
            }
        }
    }
    // mismatch-budget-box ----------------------------------------------
    let load_vsw = |node: Node| {
        elems.iter().find_map(|e| match e {
            Element::SclLoad { b, load, .. } if *b == node => Some(load.vsw),
            _ => None,
        })
    };
    for (i, ei) in elems.iter().enumerate() {
        let Element::Mos {
            name: n1,
            d: d1,
            s: s1,
            dev: m1,
            ..
        } = ei
        else {
            continue;
        };
        for ej in &elems[i + 1..] {
            let Element::Mos {
                name: n2,
                d: d2,
                s: s2,
                dev: m2,
                ..
            } = ej
            else {
                continue;
            };
            let matched = m1.polarity == m2.polarity
                && m1.w == m2.w
                && m1.l == m2.l
                && s1 == s2
                && d1 != d2;
            if !matched {
                continue;
            }
            let (Some(v1), Some(v2)) = (load_vsw(*d1), load_vsw(*d2)) else {
                continue;
            };
            let vsw = v1.min(v2);
            // σ_Pelgrom depends only on the model card's area law, so
            // the box-wide worst case coincides with the point value;
            // firing on the same bound keeps the variant exactly as
            // conservative (never less).
            let model = match m1.polarity {
                Polarity::Nmos => &tech.nmos,
                Polarity::Pmos => &tech.pmos,
            };
            let sigma = MismatchRng::sigma_pair_offset(model, m1.w, m1.l);
            if vsw < SIGMA_MARGIN * sigma {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::MISMATCH_BUDGET_BOX,
                        format!(
                            "pair `{n1}`/`{n2}` carries a Pelgrom offset sigma \
                             of {:.1} mV against a {:.0} mV swing — the \
                             \u{b1}{:.0}\u{3c3} box eats the noise margin",
                            sigma * 1e3,
                            vsw * 1e3,
                            opts.pvt.k_sigma
                        ),
                    )
                    .with_elements([n1.clone(), n2.clone()])
                    .with_hint("grow W\u{b7}L of the pair or raise the swing"),
                );
            }
        }
    }
    // rc-time-step-box --------------------------------------------------
    if let Some(dt) = opts.dt {
        let mut r_min = Interval::point(f64::INFINITY);
        let mut c_min = f64::INFINITY;
        let mut seen_r = false;
        for e in elems {
            match e {
                Element::Resistor { ohms, .. } => {
                    if *ohms < r_min.lo() {
                        r_min = Interval::point(*ohms);
                    }
                    seen_r = true;
                }
                Element::SclLoad { load, iss, .. } => {
                    // The load's interval small-signal resistance:
                    // 1/g over the box, minimal at the origin.
                    let g = load.conductance_iv(Interval::ZERO, *iss);
                    let r = g
                        .recip()
                        .expect("load conductance at the origin is strictly positive");
                    if r.lo() < r_min.lo() {
                        r_min = r;
                    }
                    seen_r = true;
                }
                Element::Capacitor { farads, .. } => c_min = c_min.min(*farads),
                _ => {}
            }
        }
        if seen_r && c_min.is_finite() {
            let tau = r_min.scale(c_min);
            if dt > tau.lo() / MIN_POINTS_PER_TAU {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::RC_TIME_STEP_BOX,
                        format!(
                            "transient step {dt:.3e} s may resolve the fastest \
                             RC time constant (as low as {:.3e} s over the box) \
                             with fewer than {MIN_POINTS_PER_TAU} points",
                            tau.lo()
                        ),
                    )
                    .with_hint("shrink dt to cover the fast end of the box"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcop::{DcOperatingPoint, NewtonOptions};
    use crate::mna::SolverKind;
    use ulp_device::load::PmosLoad;
    use ulp_device::Mosfet;

    fn tech() -> Technology {
        Technology::default()
    }

    /// The STSCL buffer at the paper's design point (same fixture as
    /// the lint tests).
    fn stscl_cell(iss: f64, vsw: f64, vdd: f64) -> Netlist {
        let mut nl = Netlist::new();
        let vddn = nl.node("vdd");
        let inp = nl.node("inp");
        let inn = nl.node("inn");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        let cs = nl.node("cs");
        nl.vsource("VDD", vddn, Netlist::GROUND, vdd);
        nl.vsource("VINP", inp, Netlist::GROUND, 0.6);
        nl.vsource("VINN", inn, Netlist::GROUND, 0.6);
        let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, pair);
        nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, pair);
        nl.scl_load("RLP", vddn, outp, PmosLoad::new(vsw), iss);
        nl.scl_load("RLN", vddn, outn, PmosLoad::new(vsw), iss);
        nl.isource("ITAIL", cs, Netlist::GROUND, iss);
        nl
    }

    fn assert_contained(cert: &Certified, x: &[f64]) {
        let sol = cert.solution_box();
        assert_eq!(sol.len(), x.len());
        for (i, (&v, iv)) in x.iter().zip(sol).enumerate() {
            assert!(
                iv.contains(v),
                "unknown {i}: concrete {v} outside certified [{}, {}]",
                iv.lo(),
                iv.hi()
            );
        }
    }

    #[test]
    fn stscl_cell_certifies_nonsingular_and_contains_solution() {
        let t = tech();
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        assert!(cert.proved_nonsingular(), "{:?}", cert.verdict());
        assert!(!cert.proved_infeasible());
        // Dense and sparse concrete solutions lie inside the box.
        let dense = DcOperatingPoint::solve(&nl, &t).unwrap();
        assert_contained(&cert, dense.solution());
        let sparse = DcOperatingPoint::solve_with(
            &nl,
            &t,
            &NewtonOptions {
                solver: SolverKind::Sparse,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert_contained(&cert, sparse.solution());
    }

    #[test]
    fn resistor_ladder_certifies_and_contains_solution() {
        let t = tech();
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.vsource("V1", top, Netlist::GROUND, 1.0);
        let mut prev = top;
        for i in 0..6 {
            let n = nl.node(&format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, n, 1e3 * (i + 1) as f64);
            prev = n;
        }
        nl.resistor("RT", prev, Netlist::GROUND, 4.7e3);
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        assert!(cert.proved_nonsingular(), "{:?}", cert.verdict());
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        assert_contained(&cert, op.solution());
    }

    #[test]
    fn structural_certificate_covers_diode_connected_mirror() {
        // A weak-inversion current mirror: the diode-connected
        // reference decorrelates gate and drain under independent
        // interval evaluation (its gm envelope straddles zero at ±6σ),
        // but the structural argument peels it exactly — `gm + gds =
        // |gms|/n + gds·(1 − 1/n) ≥ 0` per die.
        let t = tech();
        let mut nl = Netlist::new();
        let vddn = nl.node("vdd");
        let vbn = nl.node("vbn");
        let out = nl.node("out");
        nl.vsource("VDD", vddn, Netlist::GROUND, 1.0);
        nl.isource("IREF", vddn, vbn, 1e-9);
        let mirror = Mosfet::new(Polarity::Nmos, 2e-6, 2e-6);
        nl.mosfet("MREF", vbn, vbn, Netlist::GROUND, Netlist::GROUND, mirror);
        nl.mosfet("MOUT", out, vbn, Netlist::GROUND, Netlist::GROUND, mirror);
        nl.resistor("RL", vddn, out, 1e6);
        assert!(structural_nonsingular(&nl));
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        assert_eq!(
            cert.verdict(),
            &Verdict::ProvedNonsingular {
                method: "structural M-matrix"
            }
        );
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        assert_contained(&cert, op.solution());
    }

    #[test]
    fn structural_certificate_rejects_inapplicable_topologies() {
        // Cross-coupled VCCSs put positive off-diagonals in *both*
        // free rows: no row is diagonal-only (a single feed-forward
        // VCCS would peel away by Laplace expansion along its row),
        // and the Z-pattern is broken — the M-matrix argument must
        // refuse, and certify falls back to the interval chain, which
        // handles the weakly coupled pair fine.
        let t = tech();
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let drv = nl.node("drv");
        nl.vsource("V1", drv, Netlist::GROUND, 1.0);
        nl.resistor("RA", drv, a, 1e3);
        nl.resistor("RB", drv, b, 1e3);
        nl.resistor("RAG", a, Netlist::GROUND, 1e3);
        nl.resistor("RBG", b, Netlist::GROUND, 1e3);
        nl.vccs("G1", b, Netlist::GROUND, a, Netlist::GROUND, 1e-5);
        nl.vccs("G2", a, Netlist::GROUND, b, Netlist::GROUND, 1e-5);
        assert!(!structural_nonsingular(&nl));
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        let Verdict::ProvedNonsingular { method } = cert.verdict() else {
            panic!("interval fallback should prove: {:?}", cert.verdict());
        };
        assert_ne!(*method, "structural M-matrix");

        // A source loop (second branch across already-pinned nodes)
        // breaks the unit-triangular branch-block factorisation.
        let mut loopy = Netlist::new();
        let x = loopy.node("x");
        loopy.vsource("V1", x, Netlist::GROUND, 1.0);
        loopy.vsource("V2", x, Netlist::GROUND, 1.0);
        loopy.resistor("R1", x, Netlist::GROUND, 1e3);
        assert!(!structural_nonsingular(&loopy));

        // A floating source pair leaves branch entries in free rows.
        let mut floating = Netlist::new();
        let p = floating.node("p");
        let q = floating.node("q");
        floating.vsource("VF", p, q, 0.1);
        floating.resistor("RP", p, Netlist::GROUND, 1e3);
        floating.resistor("RQ", q, Netlist::GROUND, 1e3);
        assert!(!structural_nonsingular(&floating));
    }

    #[test]
    fn starved_supply_is_proved_infeasible() {
        // VDD far below the proven minimum over the whole corner box.
        let nl = stscl_cell(1e-9, 0.2, 0.25);
        let cert = certify(&nl, &tech(), &CertifyOptions::default()).unwrap();
        assert!(cert.proved_infeasible());
        let d = cert
            .diagnostics()
            .iter()
            .find(|d| d.rule == rule::PROVED_INFEASIBLE)
            .unwrap();
        assert!(d.message.contains("every die"), "{d}");
    }

    #[test]
    fn starved_swing_is_proved_infeasible_on_cascade() {
        // A load driving a next-stage gate with 50 mV of swing: below
        // the steering need at every temperature in the box.
        let mut nl = stscl_cell(1e-9, 0.05, 1.0);
        let outp = nl.node("outp");
        let out2 = nl.node("out2");
        let cs2 = nl.node("cs2");
        let vddn = nl.node("vdd");
        let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        nl.mosfet("M3", out2, outp, cs2, Netlist::GROUND, pair);
        nl.scl_load("RL2", vddn, out2, PmosLoad::new(0.05), 1e-9);
        nl.isource("ITAIL2", cs2, Netlist::GROUND, 1e-9);
        let cert = certify(&nl, &tech(), &CertifyOptions::default()).unwrap();
        let infeasible: Vec<_> = cert
            .diagnostics()
            .iter()
            .filter(|d| d.rule == rule::PROVED_INFEASIBLE)
            .collect();
        assert!(
            infeasible.iter().any(|d| d.message.contains("steer")
                || d.message.contains("mV")),
            "expected a swing infeasibility: {infeasible:?}"
        );
    }

    #[test]
    fn design_point_yields_no_infeasibility_or_unproven() {
        let cert = certify(&stscl_cell(1e-9, 0.2, 1.0), &tech(), &CertifyOptions::default())
            .unwrap();
        assert!(!cert.proved_infeasible());
        assert!(cert
            .diagnostics()
            .iter()
            .all(|d| d.rule != rule::UNPROVEN));
    }

    #[test]
    fn box_variant_is_never_less_conservative_than_point_lint() {
        // Over-biased pair: the point weak-inversion lint fires, so
        // the box variant must fire too.
        let t = tech();
        let nl = stscl_cell(10e-6, 0.2, 1.0);
        let point = lint::run(&nl, &t, &LintConfig::new());
        assert!(point.find(rule::WEAK_INVERSION).is_some());
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        assert!(cert
            .diagnostics()
            .iter()
            .any(|d| d.rule == rule::WEAK_INVERSION_BOX));
    }

    #[test]
    fn certificates_render_through_the_lint_pipeline() {
        let t = tech();
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let report =
            certify_lint(&nl, &t, &LintConfig::new(), &CertifyOptions::default()).unwrap();
        let d = report.find(rule::PROVED_NONSINGULAR).expect("certificate");
        // Certificates are Info-natural: a default (warn-level) config
        // keeps them Info, so they never trip --deny-warnings.
        assert_eq!(d.severity, Severity::Info);
        assert!(report.is_clean());
        // Allow-listing the certify group drops them entirely.
        let quiet = certify_lint(
            &nl,
            &t,
            &LintConfig::new().set("certify", LintLevel::Allow),
            &CertifyOptions::default(),
        )
        .unwrap();
        assert!(quiet.is_empty(), "{quiet}");
    }

    use crate::lint::LintLevel;

    #[test]
    fn erc_broken_netlists_are_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        // A current source with no return path: ERC cutset error.
        nl.isource("I1", a, Netlist::GROUND, 1e-9);
        let err = certify(&nl, &tech(), &CertifyOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::Erc(_)));
    }

    #[test]
    fn rc_time_step_box_fires_with_planned_dt() {
        let t = tech();
        let mut nl = stscl_cell(1e-9, 0.2, 1.0);
        let outp = nl.node("outp");
        nl.capacitor("CL", outp, Netlist::GROUND, 1e-12);
        let opts = CertifyOptions {
            dt: Some(1.0),
            ..CertifyOptions::default()
        };
        let cert = certify(&nl, &t, &opts).unwrap();
        assert!(cert
            .diagnostics()
            .iter()
            .any(|d| d.rule == rule::RC_TIME_STEP_BOX));
    }
}
