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
//! The five electrical lints of [`crate::lint`] additionally gain
//! *sound box variants* (`*-box` rules): each fires when its bound may
//! be violated **somewhere** in the box. Because the point value always
//! lies inside the interval, a box variant can only be *more*
//! conservative than its point counterpart, never less. Both read the
//! lint module's STSCL patterns, and each rule's interval is computed
//! once: its best end decides `proved-infeasible`, its worst end the
//! `*-box` finding.
//!
//! # Abstract domain and fixpoint
//!
//! The abstract state is one interval per MNA unknown. Starting from
//! `±(max |V_source| + V_LIMIT)`, the interpreter alternates two sound
//! narrowing steps for up to `SWEEPS` sweeps, stopping at the first
//! sweep that moves no bound (every later sweep would repeat it bit
//! for bit):
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
//! terminal, the per-corner boxes hulled, and the result inflated by
//! `SOLVER_SLACK` to absorb the float error of the concrete Newton/LU
//! path relative to the exact-arithmetic solutions the enclosure
//! bounds.
//!
//! Every interval KCL sum — a narrowing cut, a branch terminal, the
//! current refinement of the Jacobian — runs through one kernel that
//! walks only the elements incident to its nodes, read from a table
//! built once per [`certify`] together with the narrowing cuts. Its
//! MOS channels come from a table of [`MosEnvelope`]s built once per
//! corner card and box (or temperature slice) and shared by the
//! fixpoint, branch recovery and the Jacobian; a KCL sum evaluates
//! only the drain current ([`MosEnvelope::drain_current`]). The
//! interpreter's tuning (`GMIN`, `V_LIMIT`, sweeps, bisection steps,
//! `SOLVER_SLACK`, `T_SLICES`) is private constants; [`CertifyOptions`]
//! sets only the box and the planned transient step.
//!
//! # Nonsingularity proof chain
//!
//! A *structural* certificate is tried first: when the voltage
//! sources pin a forest rooted at ground and the free-node
//! conductance block peels down to a strictly column-dominant
//! Z-matrix per die (see [`structural_nonsingular`]), the Jacobian is
//! nonsingular for every die at **every** voltage — no intervals, no
//! corners. Otherwise the interval Jacobian is stamped exactly like
//! [`crate::mna`] assembles the point Jacobian (it replays the same
//! static stamp layout and device quads, with the same `max(1e-18)`
//! floors and the same gmin), then proved regular by the
//! cheapest sufficient argument: Gershgorin diagonal dominance,
//! midpoint-preconditioned enclosure (`‖I − R·[A]‖∞ < 1`), or a full
//! interval LU ([`ulp_num::IntervalLu`]) whose completion implies
//! every member matrix is nonsingular — case-splitting the
//! temperature axis into `T_SLICES` slices when the full-range box
//! defeats all three.
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
    self, rule, LintConfig, Resistive, IC_WEAK_MAX, MIN_POINTS_PER_TAU, SIGMA_MARGIN,
    STEERING_NUT,
};
use crate::mna::{add_quad, mos_quads, static_stamps, StaticKind};
use crate::netlist::{Element, Netlist, Node};
use crate::SimError;
use ulp_device::envelope::{interp_ratio_iv, MosEnvelope, PvtBox};
use ulp_device::pvt::Corner;
use ulp_device::{Polarity, Technology};
use ulp_num::interval::{gershgorin_nonsingular, prove_regular};
use ulp_num::{Interval, IntervalLu, Matrix};

/// Fallback half-width for unknowns nothing constrains (a numeric
/// stand-in for "unbounded" that keeps interval arithmetic finite).
const UNBOUNDED: f64 = 1e30;

/// The gmin the concrete solver stamps: the
/// [`crate::dcop::NewtonOptions`] default of the point solves the
/// enclosure is compared against.
const GMIN: f64 = 1e-12;
/// Half-width added to the largest DC source magnitude to form the
/// initial node-voltage box, V: node voltages outside
/// `±(max |V| + V_LIMIT)` are outside the certified enclosure.
const V_LIMIT: f64 = 2.0;
/// Most narrowing sweeps (pinning + bisection) per corner; the
/// fixpoint stops earlier at the first sweep that moves no bound.
const SWEEPS: usize = 6;
/// Binary-search steps per bound per cut per sweep.
const BISECT_STEPS: usize = 40;
/// Relative inflation of the final enclosure, absorbing the float
/// error of the concrete Newton/LU path relative to the
/// exact-arithmetic solutions the fixpoint bounds.
const SOLVER_SLACK: f64 = 1e-6;
/// Temperature case-split depth: when the full-range proof fails at a
/// corner, the temperature interval is subdivided into this many
/// slices and the proof chain re-run per slice (any die has *one*
/// junction temperature, so proving every slice proves the box). This
/// recovers cross-device temperature correlation — e.g. a current
/// mirror whose reference and output legs track — that single-interval
/// evaluation must forfeit.
const T_SLICES: usize = 8;

/// What a certification quantifies over.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// The temperature/mismatch box certificates quantify over (the
    /// discrete process corners are always all of [`Corner::all`]).
    pub pvt: PvtBox,
    /// Planned transient step, s — enables [`rule::RC_TIME_STEP_BOX`].
    pub dt: Option<f64>,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            pvt: PvtBox::qualification(),
            dt: None,
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
/// the interval pass over the electrical rules (infeasibility proofs
/// and box variants).
///
/// Structurally broken netlists cannot be meaningfully certified, so
/// this gates on [`crate::erc::gate`] first (`Err(SimError::Erc)`), and
/// a netlist with no unknowns has no system to certify
/// (`Err(SimError::EmptyNetlist)`).
///
/// # Errors
///
/// Besides the two above, `Err(SimError::BadParameter)` names the
/// field of a PVT box no envelope exists over: a temperature bound
/// that is not finite, not positive or out of order, a `t_lo` so close
/// to 0 K that the thermal-voltage box reaches zero, a `k_sigma` that
/// is not finite or negative, or one that spreads some device's beta
/// factor to zero or below (the device is named).
pub fn certify(
    nl: &Netlist,
    tech: &Technology,
    opts: &CertifyOptions,
) -> Result<Certified, SimError> {
    crate::erc::gate(nl)?;
    crate::mna::require_unknowns(nl)?;
    check_pvt(&opts.pvt)?;
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
    let kcl = Kcl::new(nl);
    // Proof strength of one (corner, pvt) evaluation, or None.
    let prove_at = |env: &Envelopes, boxes: &[Interval]| -> Option<usize> {
        let jac = interval_jacobian(&kcl, env, boxes);
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
        let env = Envelopes::new(nl, &tc, &opts.pvt)?;
        let boxes = enclosure_fixpoint(&kcl, &env);
        // Per-corner proof chain on the interval Jacobian; if the
        // full-range box defeats every method, case-split the
        // temperature axis — each die sits in exactly one slice, and a
        // slice restores the cross-device temperature correlation
        // (mirror legs, replica loops) the full-range intervals lose.
        if !structural && verdict.is_none() {
            match prove_at(&env, &boxes) {
                Some(m) => strongest = strongest.max(m),
                None => {
                    let width = (opts.pvt.t_hi - opts.pvt.t_lo) / T_SLICES as f64;
                    let mut all_slices = true;
                    for si in 0..T_SLICES {
                        let mut pvt = opts.pvt;
                        pvt.t_lo = opts.pvt.t_lo + width * si as f64;
                        pvt.t_hi = (pvt.t_lo + width).min(opts.pvt.t_hi);
                        let slice = Envelopes::new(nl, &tc, &pvt)?;
                        if prove_at(&slice, &enclosure_fixpoint(&kcl, &slice)).is_none() {
                            all_slices = false;
                            break;
                        }
                    }
                    if all_slices {
                        strongest = 3;
                    } else {
                        verdict = Some(Verdict::Unproven { corner });
                    }
                }
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
            iv.inflate(SOLVER_SLACK * (1.0 + iv.mag()))
        })
        .collect();
    debug_assert_eq!(solution.len(), nn + nl.branch_count());

    let mut diagnostics = Vec::new();
    push_verdict(&verdict, opts, &mut diagnostics);
    check_rules(nl, tech, opts, &mut diagnostics);

    Ok(Certified {
        verdict,
        solution,
        diagnostics,
    })
}

/// Rejects a PVT box no device envelope exists over, naming the
/// field: temperatures must be finite with `0 < t_lo ≤ t_hi` and a
/// strictly positive thermal-voltage box, and `k_sigma` finite and
/// non-negative. (A `k_sigma` too wide for some device's beta factor
/// is caught per device by [`Envelopes::new`].)
fn check_pvt(pvt: &PvtBox) -> Result<(), SimError> {
    let PvtBox {
        t_lo,
        t_hi,
        k_sigma,
    } = *pvt;
    let problem = if !(t_lo.is_finite() && t_lo > 0.0) {
        format!("`t_lo` = {t_lo} K must be a finite positive temperature")
    } else if !(t_hi.is_finite() && t_hi >= t_lo) {
        format!("`t_hi` = {t_hi} K must be finite and at least `t_lo` = {t_lo} K")
    } else if pvt.thermal_voltage_iv().lo() <= 0.0 {
        format!("`t_lo` = {t_lo} K is too close to 0 K for a positive thermal-voltage box")
    } else if !(k_sigma.is_finite() && k_sigma >= 0.0) {
        format!("`k_sigma` = {k_sigma} must be finite and non-negative")
    } else {
        return Ok(());
    };
    let msg = format!("certify PVT box: {problem}");
    Err(SimError::BadParameter(msg))
}

/// The device envelopes of one corner card over one PVT box (the full
/// box or a temperature slice): every voltage-independent interval the
/// fixpoint, branch recovery and the interval Jacobian evaluate
/// devices with, derived once instead of per evaluation.
struct Envelopes {
    /// Thermal voltage over the box, V (diodes, tail-node bound).
    ut: Interval,
    /// Per element, its MOS envelope (`None` for every other kind).
    mos: Vec<Option<MosEnvelope>>,
}

impl Envelopes {
    /// Builds the table of `nl`'s devices at the card `tech` over
    /// `pvt`, which [`check_pvt`] has accepted (a slice of an accepted
    /// box is accepted too). Fails only on a device whose beta factor
    /// the mismatch spread reaches zero at.
    fn new(nl: &Netlist, tech: &Technology, pvt: &PvtBox) -> Result<Self, SimError> {
        let mos = nl
            .elements()
            .iter()
            .map(|e| match e {
                Element::Mos { name, dev, .. } => {
                    dev.envelope(tech, pvt).map(Some).ok_or_else(|| {
                        SimError::BadParameter(format!(
                            "certify PVT box: `k_sigma` = {} spreads the beta factor of \
                             `{name}` to zero or below",
                            pvt.k_sigma
                        ))
                    })
                }
                _ => Ok(None),
            })
            .collect::<Result<_, _>>()?;
        Ok(Envelopes {
            ut: pvt.thermal_voltage_iv(),
            mos,
        })
    }

    /// The envelope of MOS element `k`.
    fn mos(&self, k: usize) -> &MosEnvelope {
        self.mos[k]
            .as_ref()
            .expect("an envelope for every MOS element")
    }
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
// KCL topology and the interval KCL kernel.
// ---------------------------------------------------------------------

/// Interval of `node`'s box (`[0, 0]` for ground).
fn node_box(boxes: &[Interval], node: Node) -> Interval {
    if node.is_ground() {
        Interval::ZERO
    } else {
        boxes[node.index() - 1]
    }
}

/// Whether `node` is one of `members` (sorted node indices).
fn member(members: &[usize], node: Node) -> bool {
    members.binary_search(&node.index()).is_ok()
}

/// A node set the enclosure fixpoint narrows `node` through: its
/// interval KCL residual is provably non-decreasing in `node`'s
/// voltage.
struct Cut {
    node: Node,
    /// Member node indices, sorted (the gmin terms sum in this order).
    members: Vec<usize>,
    /// The members' incident elements, in element order.
    elems: Vec<usize>,
}

/// Where [`Kcl::residual`] takes MOS channel currents from.
#[derive(Clone, Copy)]
enum Channels<'a> {
    /// The device envelopes' drain current over the terminal boxes.
    Envelope,
    /// The running drain-terminal bounds, indexed by element, leaving
    /// out every element `skip` selects.
    Bounds {
        dt: &'a [Option<Interval>],
        skip: &'a dyn Fn(usize) -> bool,
    },
}

/// The netlist's DC current topology, built once per [`certify`]: the
/// elements each node's KCL sums over and the cuts the enclosure
/// fixpoint narrows through. Both depend on the topology alone, so
/// every corner and temperature slice shares them, and every KCL sum
/// costs the degree of its nodes rather than the size of the netlist.
struct Kcl<'a> {
    nl: &'a Netlist,
    /// Per node (by [`Node::index`]), the elements whose DC current
    /// enters or leaves it, in element order: the two terminals of
    /// every resistor, diode, STSCL load, source and VCCS output, and
    /// the drain and source of every MOS channel (gates and bulks draw
    /// no current, capacitors are open).
    incident: Vec<Vec<usize>>,
    /// The narrowing cuts, in narrowing order.
    cuts: Vec<Cut>,
}

impl<'a> Kcl<'a> {
    fn new(nl: &'a Netlist) -> Self {
        let mut incident = vec![Vec::new(); nl.node_count()];
        for (k, e) in nl.elements().iter().enumerate() {
            let (p, n) = match e {
                Element::Resistor { a, b, .. } | Element::SclLoad { a, b, .. } => (a, b),
                Element::Vsource { p, n, .. }
                | Element::Vcvs { p, n, .. }
                | Element::Vccs { p, n, .. }
                | Element::Isource { p, n, .. }
                | Element::Diode { p, n, .. } => (p, n),
                Element::Mos { d, s, .. } => (d, s),
                Element::Capacitor { .. } => continue,
            };
            incident[p.index()].push(k);
            if n != p {
                incident[n.index()].push(k);
            }
        }
        let mut kcl = Kcl {
            nl,
            incident,
            cuts: Vec::new(),
        };
        // Each node is narrowed through every eligible cut that
        // contains it: its MOS channel-connected component (which
        // cancels the channel currents out of the residual — essential
        // for source-coupled pairs, where the nodal residuals of the
        // drain and tail nodes stay sign-indefinite as long as the
        // *other* node is wide) and its singleton cut (plain nodal KCL).
        for t in 1..nl.node_count() {
            let comp = kcl.channel_component(t);
            if comp.len() > 1 {
                kcl.push_cut(Node(t), comp);
            }
            kcl.push_cut(Node(t), vec![t]);
        }
        kcl
    }

    /// The nodes reachable from node index `node` through MOS
    /// drain–source channels (ground acts as a barrier), sorted.
    fn channel_component(&self, node: usize) -> Vec<usize> {
        let mut comp = vec![node];
        let mut next = 0;
        while let Some(&x) = comp.get(next) {
            next += 1;
            for &k in &self.incident[x] {
                if let Element::Mos { d, s, .. } = &self.nl.elements()[k] {
                    let y = if d.index() == x { *s } else { *d };
                    if !y.is_ground() && !comp.contains(&y.index()) {
                        comp.push(y.index());
                    }
                }
            }
        }
        comp.sort_unstable();
        comp
    }

    /// Adds the cut of `members` narrowing `node` when its residual is
    /// provably non-decreasing in `node`'s voltage for every die (the
    /// precondition of monotone bisection):
    ///
    /// * no voltage-defined branch may touch the cut (its current is an
    ///   extra unknown in the cut's KCL);
    /// * no crossing VCCS may be controlled by a cut member (its current
    ///   is not monotone in the control voltage's sign context);
    /// * a crossing MOS channel must not see `node` on its gate while
    ///   only the source is inside (`∂(−I_D)/∂V_G = −g_m ≤ 0`; every
    ///   other terminal combination is non-decreasing, including
    ///   diode-connected gates via the EKV slope factor `n > 1`), nor on
    ///   its bulk unless the bulk rides a channel terminal.
    fn push_cut(&mut self, node: Node, members: Vec<usize>) {
        let mut elems: Vec<usize> = members
            .iter()
            .flat_map(|&m| self.incident[m].iter().copied())
            .collect();
        elems.sort_unstable();
        elems.dedup();
        let memb = |n: Node| member(&members, n);
        let eligible = elems.iter().all(|&k| match &self.nl.elements()[k] {
            Element::Vsource { .. } | Element::Vcvs { .. } => false,
            Element::Vccs { p, n, cp, cn, .. } => memb(*p) == memb(*n) || !(memb(*cp) || memb(*cn)),
            Element::Mos { d, g, s, b, .. } => {
                let coeff = memb(*d) as i32 - memb(*s) as i32;
                let gate_against = *g == node && coeff == -1 && *s != node;
                let bulk_alone = *b == node && *d != node && *s != node;
                coeff == 0 || !(gate_against || bulk_alone)
            }
            _ => true,
        });
        if eligible {
            self.cuts.push(Cut {
                node,
                members,
                elems,
            });
        }
    }

    /// Interval KCL residual of the node set `members` (sorted node
    /// indices; ground is never a member) over `elems`, the set's
    /// incident elements in element order: the total current leaving
    /// the set through every element crossing its boundary, plus the
    /// gmin of every member, with node voltages read from `bx`.
    ///
    /// Elements entirely inside the set cancel *exactly* and are
    /// skipped — this is the whole trick: summing KCL over a
    /// channel-connected component removes the MOS channel currents
    /// (whose interval evaluation blows up over wide boxes) from the
    /// residual, leaving the well-behaved boundary elements. Voltage
    /// branches never enter: their currents are recovered from this
    /// residual, and cut eligibility keeps them off a narrowing
    /// boundary.
    ///
    /// For every die in `env`'s box and every assignment inside the
    /// boxes, the die's true residual lies inside the returned
    /// interval. An envelope sum starts from zero and adds the members'
    /// gmin terms in node order; a bound sum is one node's, `[t]`, and
    /// starts at its gmin term — the identity behind current
    /// refinement: at any die's solution, the skipped elements' total
    /// current at `t` equals minus the sum.
    fn residual(
        &self,
        env: &Envelopes,
        bx: impl Fn(Node) -> Interval,
        members: &[usize],
        elems: &[usize],
        channels: Channels<'_>,
    ) -> Interval {
        let memb = |n: Node| member(members, n);
        let mut sum = match channels {
            Channels::Envelope => members
                .iter()
                .fold(Interval::ZERO, |sum, &m| sum + bx(Node(m)).scale(GMIN)),
            Channels::Bounds { .. } => bx(Node(members[0])).scale(GMIN),
        };
        for &k in elems {
            if let Channels::Bounds { skip, .. } = channels {
                if skip(k) {
                    continue;
                }
            }
            match &self.nl.elements()[k] {
                Element::Isource { p, n, wave, .. } => {
                    let i = Interval::point(wave.at(0.0));
                    if memb(*p) {
                        sum = sum + i;
                    }
                    if memb(*n) {
                        sum = sum - i;
                    }
                }
                Element::Mos { d, g, s, b, dev, .. } => {
                    let coeff = memb(*d) as i32 - memb(*s) as i32;
                    if coeff == 0 {
                        continue;
                    }
                    let i_dt = match channels {
                        Channels::Envelope => {
                            let vb = bx(*b);
                            let (vg, vs, vd) = (bx(*g) - vb, bx(*s) - vb, bx(*d) - vb);
                            let id = env.mos(k).drain_current(vg, vs, vd);
                            match dev.polarity {
                                Polarity::Nmos => id,
                                Polarity::Pmos => -id,
                            }
                        }
                        Channels::Bounds { dt, .. } => {
                            dt[k].expect("terminal-current bound prefilled for every MOS")
                        }
                    };
                    sum = sum + i_dt.scale(coeff as f64);
                }
                e @ (Element::Resistor { a: p, b: n, .. }
                | Element::Vccs { p, n, .. }
                | Element::Diode { p, n, .. }
                | Element::SclLoad { a: p, b: n, .. }) => {
                    if memb(*p) == memb(*n) {
                        continue;
                    }
                    // The current from `p` to `n`.
                    let i = match e {
                        Element::Resistor { ohms, .. } => (bx(*p) - bx(*n)).scale(1.0 / ohms),
                        Element::Vccs { cp, cn, gm, .. } => (bx(*cp) - bx(*cn)).scale(*gm),
                        Element::Diode { is_sat, n_id, .. } => {
                            let vt = env.ut.scale(*n_id);
                            let arg = (bx(*p) - bx(*n))
                                .checked_div(vt)
                                .expect("thermal voltage box is strictly positive")
                                .min_with(40.0);
                            (arg.exp() - Interval::point(1.0)).scale(*is_sat)
                        }
                        Element::SclLoad { load, iss, .. } => {
                            load.current_iv(bx(*p) - bx(*n), *iss)
                        }
                        _ => unreachable!("matched a one-port above"),
                    };
                    sum = if memb(*p) { sum + i } else { sum - i };
                }
                Element::Capacitor { .. } | Element::Vsource { .. } | Element::Vcvs { .. } => {}
            }
        }
        sum
    }

    /// Interval sum of all out-currents at `t` over the boxes, MOS
    /// channels from the running terminal-current bounds `dt`, leaving
    /// out the elements `skip` selects (by element index). `None` when
    /// `t` is ground or carries a voltage-defined branch (whose current
    /// is not interval-computable from the boxes).
    fn node_rest(
        &self,
        env: &Envelopes,
        boxes: &[Interval],
        t: Node,
        dt: &[Option<Interval>],
        skip: &dyn Fn(usize) -> bool,
    ) -> Option<Interval> {
        if t.is_ground() {
            return None;
        }
        let elems = &self.incident[t.index()];
        if elems.iter().any(|&k| self.nl.elements()[k].has_branch()) {
            return None;
        }
        let channels = Channels::Bounds { dt, skip };
        Some(self.residual(env, |n| node_box(boxes, n), &[t.index()], elems, channels))
    }
}

// ---------------------------------------------------------------------
// Enclosure fixpoint.
// ---------------------------------------------------------------------

/// Binary search of `[a, b]` for the point where `below` stops holding,
/// given that it holds at `a` and fails at `b`: the final bracket after
/// at most [`BISECT_STEPS`] halvings.
fn bisect(mut a: f64, mut b: f64, below: impl Fn(f64) -> bool) -> (f64, f64) {
    for _ in 0..BISECT_STEPS {
        let m = 0.5 * (a + b);
        if m <= a || m >= b {
            break;
        }
        if below(m) {
            a = m;
        } else {
            b = m;
        }
    }
    (a, b)
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
                let ctl = node_box(boxes, *cp) - node_box(boxes, *cn);
                (*p, *n, ctl.scale(*gain))
            }
            _ => continue,
        };
        tighten(boxes, p, node_box(boxes, n) + v);
        tighten(boxes, n, node_box(boxes, p) - v);
    }
}

/// One narrowing sweep: two pinning passes (so VCVS chains settle
/// within a sweep), then monotone bisection through every cut in
/// order. Returns whether any bound's bits moved, comparing against a
/// snapshot taken into `before` (scratch space the caller reuses). A
/// sweep is a function of the boxes' bits alone, so one that moves no
/// bit would repeat itself exactly.
fn sweep(
    kcl: &Kcl<'_>,
    env: &Envelopes,
    boxes: &mut [Interval],
    before: &mut Vec<Interval>,
) -> bool {
    before.clear();
    before.extend_from_slice(boxes);
    pin_sources(kcl.nl, boxes);
    pin_sources(kcl.nl, boxes);
    for cut in &kcl.cuts {
        let i = cut.node.index() - 1;
        let f = |v: f64| {
            let at = Interval::point(v);
            let bx = |n: Node| {
                if n == cut.node {
                    at
                } else {
                    node_box(boxes, n)
                }
            };
            kcl.residual(env, bx, &cut.members, &cut.elems, Channels::Envelope)
        };
        // Proved negative (positive) for every die.
        let neg = |r: Interval| r.hi() < 0.0;
        let pos = |r: Interval| r.lo() > 0.0;
        let (lo, hi) = (boxes[i].lo(), boxes[i].hi());
        let (f_lo, f_hi) = (f(lo), f(hi));
        // Raise the lower bound to the largest point proved
        // negative, and lower the upper bound symmetrically.
        let new_lo = if !neg(f_lo) {
            lo
        } else if neg(f_hi) {
            hi
        } else {
            bisect(lo, hi, |m| neg(f(m))).0
        };
        let new_hi = if !pos(f_hi) {
            hi
        } else if pos(f_lo) {
            lo
        } else {
            bisect(lo, hi, |m| !pos(f(m))).1
        };
        if new_lo <= new_hi {
            boxes[i] = Interval::new(new_lo, new_hi);
        }
    }
    let bits = |iv: &Interval| (iv.lo().to_bits(), iv.hi().to_bits());
    boxes
        .iter()
        .zip(before.iter())
        .any(|(a, b)| bits(a) != bits(b))
}

/// The node-voltage boxes of the narrowing fixpoint at one corner card
/// over one box, starting from `±(max |V| + V_LIMIT)`, and the number
/// of sweeps run: at most [`SWEEPS`], stopping after the first sweep
/// that moves no bound.
fn narrow(kcl: &Kcl<'_>, env: &Envelopes) -> (Vec<Interval>, usize) {
    let nl = kcl.nl;
    let nn = nl.node_count() - 1;
    let mut src_span = 0.0f64;
    for e in nl.elements() {
        if let Element::Vsource { wave, .. } = e {
            src_span = src_span.max(wave.at(0.0).abs());
        }
    }
    let span = src_span + V_LIMIT;
    let mut boxes = vec![Interval::new(-span, span); nn];
    let mut before = Vec::with_capacity(nn);
    let mut ran = 0;
    while ran < SWEEPS {
        ran += 1;
        if !sweep(kcl, env, &mut boxes, &mut before) {
            break;
        }
    }
    (boxes, ran)
}

/// Runs the narrowing fixpoint at one corner card over one box and
/// recovers branch currents; returns the full unknown-vector enclosure
/// (uninflated).
fn enclosure_fixpoint(kcl: &Kcl<'_>, env: &Envelopes) -> Vec<Interval> {
    let nl = kcl.nl;
    let (boxes, _) = narrow(kcl, env);

    // Branch currents from interval KCL at the source terminals. At a
    // node `t`, `Σ_branches ±i_b = −(non-branch out-current at t)`, so
    // a branch whose *other* co-terminal branches are already bounded
    // resolves from either terminal; iterating lets chains settle
    // (e.g. a common-mode source feeding the reference terminals of
    // two VCVSs resolves once both VCVS currents are known).
    let nodal = |t: Node| {
        let bx = |n: Node| node_box(&boxes, n);
        let elems = &kcl.incident[t.index()];
        kcl.residual(env, bx, &[t.index()], elems, Channels::Envelope)
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
    let mut out = boxes;
    out.extend(
        bcur.into_iter()
            .map(|b| b.unwrap_or(Interval::new(-UNBOUNDED, UNBOUNDED))),
    );
    out
}

// ---------------------------------------------------------------------
// Interval Jacobian.
// ---------------------------------------------------------------------

/// Stamps the interval DC Jacobian over the node-voltage boxes,
/// mirroring [`crate::mna::MnaWorkspace::assemble`] stamp for stamp:
/// the same static layout ([`static_stamps`]: gmin, R, V, E and G, with
/// capacitors open), the same device quads and conductance floors — so
/// the concrete Jacobian of any die *at its enclosed operating point* is
/// a member matrix.
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
fn interval_jacobian(kcl: &Kcl<'_>, env: &Envelopes, boxes: &[Interval]) -> Matrix<Interval> {
    let nl = kcl.nl;
    let nn = nl.node_count() - 1;
    let dim = nl.unknown_count();
    let mut jac = Matrix::zeros(dim, dim);
    let bx = |node: Node| node_box(boxes, node);

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
        .enumerate()
        .map(|(k, e)| match e {
            Element::Mos { d, g, s, b, dev, .. } => {
                let vb = bx(*b);
                let id = env
                    .mos(k)
                    .drain_current(bx(*g) - vb, bx(*s) - vb, bx(*d) - vb);
                Some(id.scale(sigma(dev)))
            }
            _ => None,
        })
        .collect();
    for _ in 0..2 {
        for k in 0..nl.elements().len() {
            let Element::Mos { d, s, .. } = &nl.elements()[k] else {
                continue;
            };
            if d == s {
                continue;
            }
            let mut bound = dt[k].expect("seeded above");
            let this = |i| i == k;
            if let Some(r) = kcl.node_rest(env, boxes, *d, &dt, &this) {
                bound = bound.intersect(-r).unwrap_or(bound);
            }
            if let Some(r) = kcl.node_rest(env, boxes, *s, &dt, &this) {
                bound = bound.intersect(r).unwrap_or(bound);
            }
            dt[k] = Some(bound);
        }
    }

    static_stamps(nl, |r, c, kind, v| match kind {
        StaticKind::Const => jac.add_at(r, c, Interval::point(v)),
        StaticKind::Gmin => jac.add_at(r, c, Interval::point(GMIN)),
        StaticKind::Cap => {}
    });
    // Each MOS device's forward-injection box, for the tail-node
    // refinement below.
    let mut xfs: Vec<Option<Interval>> = vec![None; nl.elements().len()];
    let mut add = |r, c, g| jac.add_at(r, c, g);
    for (k, e) in nl.elements().iter().enumerate() {
        match e {
            Element::Diode {
                p, n, is_sat, n_id, ..
            } => {
                let vt = env.ut.scale(*n_id);
                let arg = (bx(*p) - bx(*n))
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    .min_with(40.0);
                let g = (Interval::point(*is_sat)
                    .checked_div(vt)
                    .expect("thermal voltage box is strictly positive")
                    * arg.exp())
                .max_with(1e-18);
                add_quad([*p, *n, *p, *n], g, &mut add);
            }
            Element::Mos { d, g, s, b, dev, .. } => {
                let vb = bx(*b);
                let id_bound = dt[k].expect("seeded above").scale(sigma(dev));
                let m = env.mos(k);
                let op = m.operating_point(bx(*g) - vb, bx(*s) - vb, bx(*d) - vb, id_bound);
                xfs[k] = Some(op.xf);
                let [qg, qs, qd] = mos_quads(*d, *g, *s, *b);
                if d == g && d != s {
                    // Diode-connected: the gm and gds stamps land on
                    // identical positions, so stamp their sum once —
                    // floored by the correlated total conductance,
                    // which stays strictly positive where the
                    // decorrelated `gm` envelope dips negative.
                    let raw = op.gm + op.gds;
                    let floor = op.diode_floor;
                    let gtot = if floor > raw.lo() && floor <= raw.hi() {
                        Interval::new(floor, raw.hi())
                    } else {
                        raw
                    };
                    add_quad(qd, gtot, &mut add);
                    add_quad(qs, op.gms, &mut add);
                } else {
                    add_quad(qg, op.gm, &mut add);
                    add_quad(qs, op.gms, &mut add);
                    add_quad(qd, op.gds, &mut add);
                }
            }
            Element::SclLoad {
                a: p,
                b: n,
                load,
                iss,
                ..
            } => {
                let g = load.conductance_iv(bx(*p) - bx(*n), *iss).max_with(1e-18);
                add_quad([*p, *n, *p, *n], g, &mut add);
            }
            _ => {}
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
        for &k in &kcl.incident[t] {
            match &nl.elements()[k] {
                Element::Vccs { cp, cn, .. } if *cp == tn || *cn == tn => {
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
        let Some(rest) = kcl.node_rest(env, boxes, tn, &dt, &channel_at_t) else {
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
            let xf = xfs[k].expect("stamped above");
            ratio_lo = ratio_lo.min(interp_ratio_iv(xf).lo());
        }
        let ut_hi = env.ut.hi();
        let bound = GMIN + ratio_lo * l / ut_hi;
        let diag = jac[(t - 1, t - 1)];
        if bound > diag.lo() && bound <= diag.hi() {
            jac[(t - 1, t - 1)] = Interval::new(bound, diag.hi());
        }
    }
    jac
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

/// Hull of a per-card interval over every process corner of `tech`.
fn corner_hull(tech: &Technology, f: impl Fn(&Technology) -> Interval) -> Interval {
    let mut ivs = Corner::all().into_iter().map(|c| f(&tech.at_corner(c)));
    let first = ivs.next().expect("corners are non-empty");
    ivs.fold(first, Interval::hull)
}

/// The interval side of the five electrical rules, in one pass over the
/// [`crate::lint`] patterns. Each rule's spec quantity is computed once
/// as an interval over the box: a spec failing even at the interval's
/// best end fails on every die ([`rule::PROVED_INFEASIBLE`], for the
/// headroom and swing specs); one failing at its worst end may fail
/// somewhere in the box (the rule's `*-box` finding). The point value
/// lies inside every interval, so a box finding fires whenever its
/// point lint does — never less conservative.
fn check_rules(nl: &Netlist, tech: &Technology, opts: &CertifyOptions, out: &mut Vec<Diagnostic>) {
    let pvt = &opts.pvt;
    // weak-inversion-box -----------------------------------------------
    for (name, dev, bias) in lint::biased_devices(nl) {
        let ic = corner_hull(tech, |tc| dev.inversion_coefficient_iv(tc, pvt, bias));
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
                .with_elements([name.to_string()])
                .with_hint(
                    "widen W/L or reduce the bias so the whole box stays in \
                     weak inversion",
                ),
            );
        }
    }
    // swing steering: proved-infeasible / swing-compatibility-box -------
    for (load, gate, dev) in lint::steered_gates(nl) {
        let required = pvt
            .thermal_voltage_iv()
            .scale(STEERING_NUT * dev.model(tech).n);
        let node = nl.node_name(load.b);
        let finding = |rule, message: String, hint| {
            Diagnostic::new(Severity::Warning, rule, message)
                .with_nodes([node.to_string()])
                .with_elements([load.name.to_string(), gate.to_string()])
                .with_hint(hint)
        };
        if load.vsw < required.lo() {
            out.push(finding(
                rule::PROVED_INFEASIBLE,
                format!(
                    "load `{}` swings {:.0} mV on node `{node}` but the \
                     driven pair device `{gate}` needs at least \
                     {:.0} mV at every temperature in {} — infeasible \
                     on every die",
                    load.name,
                    load.vsw * 1e3,
                    required.lo() * 1e3,
                    box_label(opts)
                ),
                "a DSE may prune this point without simulation; raise \
                 RL\u{b7}ISS to restore complete steering",
            ));
        }
        if load.vsw < required.hi() {
            out.push(finding(
                rule::SWING_COMPATIBILITY_BOX,
                format!(
                    "load `{}` swings {:.0} mV on node `{node}` but the \
                     driven pair device `{gate}` may need up to {:.0} mV \
                     to steer somewhere in {}",
                    load.name,
                    load.vsw * 1e3,
                    required.hi() * 1e3,
                    box_label(opts)
                ),
                "raise RL\u{b7}ISS to cover the hot end of the box",
            ));
        }
    }
    // supply headroom: proved-infeasible / vdd-headroom-box --------------
    for st in lint::stacks(nl) {
        let need = corner_hull(tech, |tc| {
            st.dev.min_supply_iv(tc, pvt, st.load.iss, st.load.vsw)
        });
        let (supply, vdd, name) = (st.supply, st.vdd, st.load.name);
        let finding = |rule, message: String, hint| {
            Diagnostic::new(Severity::Warning, rule, message)
                .with_nodes([nl.node_name(st.load.a).to_string()])
                .with_elements([name.to_string(), st.switch.to_string(), supply.to_string()])
                .with_hint(hint)
        };
        if vdd < need.lo() {
            out.push(finding(
                rule::PROVED_INFEASIBLE,
                format!(
                    "supply `{supply}` = {vdd:.2} V is below the proven \
                     minimum [{:.2}, {:.2}] V the STSCL stack under \
                     `{name}` needs over {} — infeasible on every die",
                    need.lo(),
                    need.hi(),
                    box_label(opts)
                ),
                "a DSE may prune this point without simulation; raise \
                 VDD or cut ISS/VSW to re-enter the feasible region",
            ));
        }
        if vdd < need.hi() {
            out.push(finding(
                rule::VDD_HEADROOM_BOX,
                format!(
                    "supply `{supply}` = {vdd:.2} V may fall below the \
                     {:.2} V the STSCL stack under `{name}` needs \
                     somewhere in {}",
                    need.hi(),
                    box_label(opts)
                ),
                "raise VDD or cut ISS/VSW to cover the whole box",
            ));
        }
    }
    // mismatch-budget-box: sigma's box-wide worst case is its point
    // value, so the variant fires on the point bound — exactly as
    // conservative, never less.
    for pair in lint::matched_pairs(nl, tech) {
        if pair.vsw < SIGMA_MARGIN * pair.sigma {
            let [n1, n2] = pair.names;
            out.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::MISMATCH_BUDGET_BOX,
                    format!(
                        "pair `{n1}`/`{n2}` carries a Pelgrom offset sigma \
                         of {:.1} mV against a {:.0} mV swing — the \
                         \u{b1}{:.0}\u{3c3} box eats the noise margin",
                        pair.sigma * 1e3,
                        pair.vsw * 1e3,
                        pvt.k_sigma
                    ),
                )
                .with_elements([n1.to_string(), n2.to_string()])
                .with_hint("grow W\u{b7}L of the pair or raise the swing"),
            );
        }
    }
    // rc-time-step-box --------------------------------------------------
    let Some(dt) = opts.dt else { return };
    let mut r_min = Interval::point(f64::INFINITY);
    let mut seen_r = false;
    for r in lint::resistive_elements(nl) {
        match r {
            Resistive::Resistor(ohms) => {
                if ohms < r_min.lo() {
                    r_min = Interval::point(ohms);
                }
            }
            Resistive::Load(load, iss) => {
                // The load's interval small-signal resistance: 1/g over
                // the box, minimal at the origin.
                let r = load
                    .conductance_iv(Interval::ZERO, iss)
                    .recip()
                    .expect("load conductance at the origin is strictly positive");
                if r.lo() < r_min.lo() {
                    r_min = r;
                }
            }
        }
        seen_r = true;
    }
    let c_min = lint::smallest_capacitance(nl);
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

    /// A 1 V source across seven resistors in series.
    fn resistor_ladder() -> Netlist {
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
        nl
    }

    #[test]
    fn resistor_ladder_certifies_and_contains_solution() {
        let t = tech();
        let nl = resistor_ladder();
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
        let cert = certify(&nl, &t, &CertifyOptions::default()).unwrap();
        let report = cert.report(&LintConfig::new());
        let d = report.find(rule::PROVED_NONSINGULAR).expect("certificate");
        // Certificates are Info-natural: a default (warn-level) config
        // keeps them Info, so they never trip --deny-warnings.
        assert_eq!(d.severity, Severity::Info);
        assert!(report.is_clean());
        // Allow-listing the certify group drops them entirely.
        let quiet = cert.report(&LintConfig::new().set("certify", LintLevel::Allow));
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

    #[test]
    fn fixpoint_exits_only_at_an_idle_sweep() {
        // The sweeps the early exit skipped, run by hand, move no
        // bound: the enclosure is bit for bit what all `SWEEPS` sweeps
        // give. Compared by bits: `Interval`'s `PartialEq` equates -0.0
        // and 0.0. (The ladder narrows through every sweep, so the cap
        // ends it and nothing is skipped.)
        let bits = |b: &[Interval]| -> Vec<(u64, u64)> {
            b.iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect()
        };
        let mut exited_early = false;
        for nl in [stscl_cell(1e-9, 0.2, 1.0), resistor_ladder()] {
            let kcl = Kcl::new(&nl);
            for corner in Corner::all() {
                let tc = tech().at_corner(corner);
                let env = Envelopes::new(&nl, &tc, &PvtBox::qualification()).unwrap();
                let (mut boxes, ran) = narrow(&kcl, &env);
                exited_early |= ran < SWEEPS;
                let settled = bits(&boxes);
                let mut before = Vec::new();
                for extra in ran..SWEEPS {
                    let moved = sweep(&kcl, &env, &mut boxes, &mut before);
                    let n = extra + 1;
                    assert!(!moved, "{corner}: sweep {n} after an exit at {ran} moved");
                }
                assert_eq!(bits(&boxes), settled, "{corner}");
            }
        }
        assert!(exited_early, "every fixpoint ran all {SWEEPS} sweeps");
    }

    /// `certify` on the STSCL cell over `pvt` fails with a
    /// `BadParameter` whose message names each of `names`.
    fn rejects_box(pvt: PvtBox, names: &[&str]) {
        let opts = CertifyOptions {
            pvt,
            ..CertifyOptions::default()
        };
        let err = certify(&stscl_cell(1e-9, 0.2, 1.0), &tech(), &opts).unwrap_err();
        let SimError::BadParameter(msg) = &err else {
            panic!("expected BadParameter, got {err:?}");
        };
        for name in names {
            assert!(msg.contains(name), "{name} missing from: {msg}");
        }
    }

    #[test]
    fn reversed_temperature_box_is_rejected() {
        let pvt = PvtBox {
            t_lo: 358.0,
            t_hi: 233.0,
            k_sigma: 6.0,
        };
        rejects_box(pvt, &["`t_hi`", "`t_lo`"]);
    }

    #[test]
    fn zero_kelvin_box_is_rejected() {
        let pvt = PvtBox {
            t_lo: 0.0,
            ..PvtBox::qualification()
        };
        rejects_box(pvt, &["`t_lo`"]);
    }

    #[test]
    fn negative_temperature_box_is_rejected() {
        let pvt = PvtBox {
            t_lo: -10.0,
            ..PvtBox::qualification()
        };
        rejects_box(pvt, &["`t_lo`"]);
    }

    #[test]
    fn nan_temperature_box_is_rejected() {
        let pvt = PvtBox {
            t_lo: f64::NAN,
            ..PvtBox::qualification()
        };
        rejects_box(pvt, &["`t_lo`"]);
    }

    #[test]
    fn beta_collapsing_mismatch_box_is_rejected() {
        let pvt = PvtBox {
            k_sigma: 1e4,
            ..PvtBox::qualification()
        };
        rejects_box(pvt, &["`k_sigma`", "`M1`"]);
    }

    #[test]
    fn negative_mismatch_box_is_rejected() {
        let pvt = PvtBox {
            k_sigma: -1.0,
            ..PvtBox::qualification()
        };
        rejects_box(pvt, &["`k_sigma`"]);
    }
}
