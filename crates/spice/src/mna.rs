//! Modified nodal analysis: system assembly and element stamping.
//!
//! The unknown vector is `x = [v₁ … v_N, i_b1 … i_bM]`: the voltages of
//! all non-ground nodes followed by one branch current per
//! voltage-defined element (independent voltage sources and VCVS), in
//! element order.
//!
//! Nonlinear elements (diode, MOS, STSCL load) are stamped as their
//! Newton companion models linearised about the current iterate, so the
//! assembled system reads `A(x_k)·x_{k+1} = b(x_k)` and a fixed point is
//! an exact solution of the nonlinear KCL equations.
//!
//! There is one assembly path. Every analysis (Newton, gmin ladder,
//! sweeps, transient, the lint operating-point audit) allocates one
//! [`MnaWorkspace`] per (netlist, analysis) and restamps it in place: the
//! sparsity pattern, the slot plan for every element stamp, and the
//! values of all *static* (iterate-independent) stamps are computed once,
//! and each iteration only replays the dynamic companion-model stamps.
//! The two linear-solver backends differ only in how they factor the
//! assembled system: the sparse one refactorises numerically against the
//! cached symbolic factorization from [`ulp_num::sparse`], the dense one
//! is the [`LuFactor`] oracle. The same factor policy, generic over the
//! scalar, factors the complex small-signal systems of AC and noise
//! analysis.

use crate::netlist::{Element, Netlist, Node};
use crate::SimError;
use ulp_num::lu::{LuFactor, SolveError};
use ulp_num::sparse::{SparseLu, SparseMatrix};
use ulp_num::{Field, Matrix};
use ulp_device::load::PmosLoad;
use ulp_device::{MosParams, Polarity, Technology};

/// Integration method for transient companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: robust, first order, slightly lossy.
    #[default]
    BackwardEuler,
    /// Trapezoidal: second order, energy-preserving.
    Trapezoidal,
}

/// What the assembler is being asked to build.
#[derive(Debug, Clone, Copy)]
pub enum AssembleMode<'a> {
    /// DC: capacitors open, sources at their `t = 0` values.
    Dc,
    /// One transient step ending at `time`, of length `dt`, integrating
    /// from the previous solution `prev` (and, for trapezoidal, the
    /// previous per-capacitor currents `cap_currents`).
    Transient {
        /// End time of the step, s.
        time: f64,
        /// Step length, s.
        dt: f64,
        /// Solution vector at the previous timepoint.
        prev: &'a [f64],
        /// Capacitor currents at the previous timepoint (same order as
        /// capacitors appear in the netlist); required for
        /// [`Integrator::Trapezoidal`].
        cap_currents: &'a [f64],
        /// Companion-model integrator.
        method: Integrator,
    },
}

/// Voltage of `node` in solution vector `x` (ground = 0).
pub fn voltage_of(x: &[f64], node: Node) -> f64 {
    if node.is_ground() {
        0.0
    } else {
        x[node.index() - 1]
    }
}

// ---------------------------------------------------------------------------
// Reusable workspace: restamp-in-place assembly + pattern-reusing solves.
// ---------------------------------------------------------------------------

/// Which linear-solver backend an [`MnaWorkspace`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Resolve per system: the sparse path for systems of dimension
    /// ≥ [`AUTO_SPARSE_MIN_DIM`], dense below.
    #[default]
    Auto,
    /// Always the dense reference path (fresh full-pivoted LU per solve).
    Dense,
    /// Always the sparse path (symbolic factorization reused across
    /// restamps of the fixed pattern).
    Sparse,
}

/// Smallest system dimension for which [`SolverKind::Auto`] picks the
/// sparse path. Below this the dense solve is a handful of FLOPs and the
/// sparse bookkeeping cannot pay for itself.
pub const AUTO_SPARSE_MIN_DIM: usize = 4;

impl SolverKind {
    /// The concrete backend for a system of dimension `dim`.
    pub(crate) fn resolve(self, dim: usize) -> SolverKind {
        match self {
            SolverKind::Auto if dim >= AUTO_SPARSE_MIN_DIM => SolverKind::Sparse,
            SolverKind::Auto => SolverKind::Dense,
            kind => kind,
        }
    }
}

/// Refuses a netlist with no unknowns (no non-ground node and no
/// voltage-defined element) before an analysis plans a system for it —
/// an empty `.ulp` deck parses and flattens to exactly that.
pub(crate) fn require_unknowns(nl: &Netlist) -> Result<(), SimError> {
    if nl.unknown_count() == 0 {
        Err(SimError::EmptyNetlist)
    } else {
        Ok(())
    }
}

/// Number of rows a permutation moved away from their natural position —
/// the pivoting-effort statistic surfaced by telemetry.
pub(crate) fn displaced_rows(perm: &[usize]) -> usize {
    perm.iter().enumerate().filter(|&(i, &p)| i != p).count()
}

/// Sentinel for "ground node": stamps touching it are dropped.
const NO_IDX: u32 = u32::MAX;
/// Sentinel for "no slot": quad corner fell on a ground row/column.
const NO_SLOT: u32 = u32::MAX;

fn uidx(node: Node) -> u32 {
    if node.is_ground() {
        NO_IDX
    } else {
        (node.index() - 1) as u32
    }
}

fn volt(x: &[f64], i: u32) -> f64 {
    if i == NO_IDX {
        0.0
    } else {
        x[i as usize]
    }
}

fn rhs_current(rhs: &mut [f64], p: u32, n: u32, i: f64) {
    if p != NO_IDX {
        rhs[p as usize] -= i;
    }
    if n != NO_IDX {
        rhs[n as usize] += i;
    }
}

/// The four value slots of one (trans)conductance stamp, resolved once at
/// plan time: `[(p,cp), (p,cn), (n,cp), (n,cn)]` with signs `+,−,−,+`.
/// An ordinary conductance between `a` and `b` is the special case
/// `cp = a, cn = b`.
#[derive(Debug, Clone, Copy)]
struct Quad([u32; 4]);

impl Quad {
    fn resolve(mat: &SparseMatrix, p: u32, n: u32, cp: u32, cn: u32) -> Quad {
        let sl = |r: u32, c: u32| -> u32 {
            if r == NO_IDX || c == NO_IDX {
                NO_SLOT
            } else {
                mat.slot(r as usize, c as usize)
                    .expect("stamp coordinate missing from sparse pattern") as u32
            }
        };
        Quad([sl(p, cp), sl(p, cn), sl(n, cp), sl(n, cn)])
    }

    fn add(&self, vals: &mut [f64], g: f64) {
        let [pp, pn, np, nn] = self.0;
        if pp != NO_SLOT {
            vals[pp as usize] += g;
        }
        if pn != NO_SLOT {
            vals[pn as usize] -= g;
        }
        if np != NO_SLOT {
            vals[np as usize] -= g;
        }
        if nn != NO_SLOT {
            vals[nn as usize] += g;
        }
    }
}

/// Where a [`StaticEntry`] takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticKind {
    /// The entry's own constant.
    Const,
    /// The gmin of the assembly.
    Gmin,
    /// The companion conductance of the entry's signed capacitance;
    /// transient only, skipped at DC.
    Cap,
}

/// One corner of an iterate-independent stamp, slot-resolved at plan
/// time: [`MnaWorkspace`] replays the entries in stamping order to fill
/// its static snapshot, so each slot sums the same terms in the same
/// order as a direct stamp would. A subtracted corner stores its value
/// negated (`x − g` and `x + (−g)` round identically), a capacitor its
/// signed farads (the companion divides by `dt` with the sign intact).
#[derive(Debug, Clone, Copy)]
struct StaticEntry {
    v: f64,
    slot: u32,
    kind: StaticKind,
}

/// Walks the iterate-independent stamps of `nl` in stamping order —
/// the gmin diagonal, then each element's corners — calling
/// `emit(row, col, kind, value)` for every corner off ground.
fn static_stamps(nl: &Netlist, mut emit: impl FnMut(u32, u32, StaticKind, f64)) {
    let mut put = |r: u32, c: u32, kind: StaticKind, v: f64| {
        if r != NO_IDX && c != NO_IDX {
            emit(r, c, kind, v);
        }
    };
    fn quad(
        put: &mut impl FnMut(u32, u32, StaticKind, f64),
        [p, n, cp, cn]: [u32; 4],
        kind: StaticKind,
        v: f64,
    ) {
        put(p, cp, kind, v);
        put(p, cn, kind, -v);
        put(n, cp, kind, -v);
        put(n, cn, kind, v);
    }
    fn pair(put: &mut impl FnMut(u32, u32, StaticKind, f64), i: u32, rb: u32, v: f64) {
        put(i, rb, StaticKind::Const, v);
        put(rb, i, StaticKind::Const, v);
    }

    let nn = (nl.node_count() - 1) as u32;
    for i in 0..nn {
        put(i, i, StaticKind::Gmin, 0.0);
    }
    let mut branch = nn;
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                let (p, n) = (uidx(*a), uidx(*b));
                quad(&mut put, [p, n, p, n], StaticKind::Const, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads, .. } => {
                let (p, n) = (uidx(*a), uidx(*b));
                quad(&mut put, [p, n, p, n], StaticKind::Cap, *farads);
            }
            Element::Vsource { p, n, .. } => {
                let rb = branch;
                branch += 1;
                pair(&mut put, uidx(*p), rb, 1.0);
                pair(&mut put, uidx(*n), rb, -1.0);
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let rb = branch;
                branch += 1;
                pair(&mut put, uidx(*p), rb, 1.0);
                pair(&mut put, uidx(*n), rb, -1.0);
                put(rb, uidx(*cp), StaticKind::Const, -*gain);
                put(rb, uidx(*cn), StaticKind::Const, *gain);
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                let q = [uidx(*p), uidx(*n), uidx(*cp), uidx(*cn)];
                quad(&mut put, q, StaticKind::Const, *gm);
            }
            Element::Isource { .. }
            | Element::Diode { .. }
            | Element::Mos { .. }
            | Element::SclLoad { .. } => {}
        }
    }
}

/// Companion conductance of `farads` over one step of length `dt`.
fn companion_g(method: Integrator, farads: f64, dt: f64) -> f64 {
    match method {
        Integrator::BackwardEuler => farads / dt,
        Integrator::Trapezoidal => 2.0 * farads / dt,
    }
}

/// One iterate-dependent stamp, replayed every [`MnaWorkspace::assemble`].
/// Element parameters are copied at plan time; a netlist edit (every
/// `set_source` included) bumps the revision and so rebuilds the plan.
#[derive(Debug, Clone, Copy)]
enum DynOp {
    /// Independent voltage source RHS: `b[rb] = wave.at(time)`.
    SourceV { elem: u32, rb: u32 },
    /// Independent current source RHS.
    SourceI { elem: u32, p: u32, n: u32 },
    /// Capacitor companion-model RHS (transient only, skipped at DC;
    /// the `geq` conductance itself is in the static program).
    Cap {
        farads: f64,
        cap: u32,
        p: u32,
        n: u32,
    },
    /// Diode companion model; `vt` is `n_id·UT`.
    Diode {
        is_sat: f64,
        vt: f64,
        p: u32,
        n: u32,
        q: Quad,
    },
    /// EKV MOS companion model; `params` indexes the plan's
    /// [`MosParams`] table.
    Mos {
        params: u32,
        d: u32,
        g: u32,
        s: u32,
        b: u32,
        qg: Quad,
        qs: Quad,
        qd: Quad,
    },
    /// Replica-calibrated STSCL load companion model.
    SclLoad {
        load: PmosLoad,
        iss: f64,
        a: u32,
        b: u32,
        q: Quad,
    },
}

/// The stamp plan of one (netlist revision, technology): the
/// slot-resolved static program, the dynamic ops and the MOS constants
/// they index. Each vector is allocated once, at its final size, when
/// the workspace is built.
struct Plan {
    statics: Vec<StaticEntry>,
    ops: Vec<DynOp>,
    mos: Vec<MosParams>,
}

/// What the plan and the static snapshot were built for. The plan
/// depends on the netlist revision and the technology; the snapshot
/// also on the assembly mode (capacitor `geq` bakes in `dt` and the
/// integrator) and the gmin rung.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PrepKey {
    mode: ModeKey,
    gmin_bits: u64,
    revision: u64,
    tech: Technology,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeKey {
    Dc,
    Tran { method: Integrator, dt_bits: u64 },
}

impl ModeKey {
    fn of(mode: &AssembleMode<'_>) -> ModeKey {
        match mode {
            AssembleMode::Dc => ModeKey::Dc,
            AssembleMode::Transient { dt, method, .. } => ModeKey::Tran {
                method: *method,
                dt_bits: dt.to_bits(),
            },
        }
    }

    /// Analysis *family*: DC vs transient. Within a family the matrix
    /// magnitudes evolve continuously (a step-size change rescales the
    /// capacitor companions by the controller's bounded factor), so the
    /// recorded pivot order stays trustworthy; across families whole
    /// stamp sets appear/disappear and a fresh symbolic factorization
    /// is forced.
    fn family(&self) -> u8 {
        match self {
            ModeKey::Dc => 0,
            ModeKey::Tran { .. } => 1,
        }
    }
}

/// Device-latency bypass state for one nonlinear element (diode, MOS
/// or STSCL load), indexed by nonlinear-element ordinal.
///
/// `v`/`g`/`i_eq` are the *committed* reference — the model inputs and
/// companion stamps of the last accepted time step. `pend_*` hold the
/// most recent evaluation inside the current step; [`MnaWorkspace::
/// commit_bypass`] promotes them after acceptance, so a rejected step
/// never becomes anyone's reference.
#[derive(Debug, Clone, Copy, Default)]
struct BypassSlot {
    valid: bool,
    fresh: bool,
    v: [f64; 3],
    g: [f64; 3],
    i_eq: f64,
    pend_v: [f64; 3],
    pend_g: [f64; 3],
    pend_i_eq: f64,
}

/// The one factor policy for every MNA-shaped system: the real
/// [`MnaWorkspace`], the complex AC sweep and the noise analysis all
/// factor and solve through it, so the refactor-or-re-pivot decision
/// exists once.
pub(crate) enum Backend<T> {
    /// The linear-algebra oracle: the assembled values are scattered
    /// into a reused dense matrix and factored from scratch by
    /// [`LuFactor`] on every call.
    Dense {
        full: Matrix<T>,
        lu: Option<LuFactor<T>>,
    },
    /// The symbolic factorization (pivot order + fill-in pattern) is
    /// reused across restamps, with a full re-pivot only when a numeric
    /// refactorization hits a collapsed pivot or the caller asks for one.
    Sparse(Option<SparseLu<T>>),
}

const UNFACTORED: &str = "factor() must succeed first";

impl<T: Field> Backend<T> {
    /// The backend `kind` resolves to for a system of dimension `dim`.
    pub(crate) fn new(kind: SolverKind, dim: usize) -> Self {
        match kind.resolve(dim) {
            SolverKind::Sparse => Backend::Sparse(None),
            _ => Backend::Dense {
                full: Matrix::zeros(dim, dim),
                lu: None,
            },
        }
    }

    /// Factors `a`. The sparse backend tries a numeric refactorization
    /// against the cached pivot order first (unless `repivot` is set)
    /// and escalates to a full factorization when a pivot has
    /// collapsed; the dense backend always factors from scratch.
    /// Returns `true` after a full (pivot-choosing) factorization and
    /// `false` after a refactorization.
    pub(crate) fn factor(
        &mut self,
        a: &SparseMatrix<T>,
        repivot: bool,
    ) -> Result<bool, SolveError> {
        match self {
            Backend::Dense { full, lu } => {
                *lu = None;
                full.clear();
                for i in 0..a.dim() {
                    let (cols, vals) = a.row(i);
                    for (c, v) in cols.iter().zip(vals) {
                        full[(i, *c as usize)] = *v;
                    }
                }
                *lu = Some(LuFactor::new(full)?);
            }
            Backend::Sparse(lu) => {
                if let (false, Some(l)) = (repivot, lu.as_mut()) {
                    match l.refactor(a) {
                        Ok(()) => return Ok(false),
                        // Stale pivot order — fall through and re-pivot.
                        Err(SolveError::Singular { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                *lu = Some(SparseLu::factor(a)?);
            }
        }
        Ok(true)
    }

    /// Row permutation of the last factorization.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::factor`] has not succeeded yet.
    pub(crate) fn permutation(&self) -> &[usize] {
        match self {
            Backend::Dense { lu, .. } => lu.as_ref().expect(UNFACTORED).permutation(),
            Backend::Sparse(lu) => lu.as_ref().expect(UNFACTORED).permutation(),
        }
    }

    /// Solves the factored system against `b`, writing into `x`.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::factor`] has not succeeded yet.
    pub(crate) fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), SolveError> {
        match self {
            Backend::Dense { lu, .. } => lu.as_ref().expect(UNFACTORED).solve_into(b, x),
            Backend::Sparse(lu) => lu.as_ref().expect(UNFACTORED).solve_into(b, x),
        }
    }
}

/// A reusable MNA assembly + solve workspace, allocated once per
/// (netlist, analysis) and restamped in place every Newton iteration,
/// sweep point and time step.
///
/// Assembly is planned once per (netlist revision, technology): the
/// iterate-independent stamps become a slot-resolved static program
/// over a fixed sparsity pattern, everything else a list of
/// slot-resolved dynamic ops, and each MOS device a set of
/// bias-independent constants. A change of assembly mode or gmin (each
/// step-size change of an adaptive transient, each gmin rung) replays
/// the static program into a value snapshot. Each [`Self::assemble`]
/// copies the snapshot and replays the ops, with no per-iteration
/// allocation. Both backends share that assembly; they differ only in
/// [`Self::factor`] / [`Self::solve_into`] (see [`SolverKind`]).
///
/// # Example
///
/// ```
/// use ulp_spice::netlist::Netlist;
/// use ulp_spice::mna::{AssembleMode, MnaWorkspace, SolverKind};
/// use ulp_device::Technology;
///
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// nl.vsource("V1", a, Netlist::GROUND, 1.0);
/// nl.resistor("R1", a, Netlist::GROUND, 1e3);
/// let tech = Technology::default();
/// let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
/// let x = vec![0.0; nl.unknown_count()];
/// ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
/// ws.factor().unwrap();
/// let mut sol = Vec::new();
/// ws.solve_into(&mut sol).unwrap();
/// assert!((sol[0] - 1.0).abs() < 1e-9);
/// ```
pub struct MnaWorkspace {
    dim: usize,
    n_elements: usize,
    mat: SparseMatrix,
    rhs: Vec<f64>,
    /// Snapshot of all iterate-independent stamp values; each assemble
    /// starts from `copy_from_slice` of this instead of restamping them.
    static_vals: Vec<f64>,
    plan: Plan,
    /// One slot per nonlinear element, in netlist order.
    bypass: Vec<BypassSlot>,
    prep: Option<PrepKey>,
    /// Set when the assembly *family* (DC ↔ transient) changed: the
    /// cached sparse pivot order was chosen for very different
    /// magnitudes, so force a full re-pivoting factorization instead of
    /// a numeric refactor. Same-family step-size changes keep the pivot
    /// order and only refresh the static values.
    force_symbolic: bool,
    backend: Backend<f64>,
    symbolic: usize,
    refactors: usize,
    swaps: usize,
    /// Device-bypass voltage tolerance; `0.0` (the default) disables
    /// bypass entirely and keeps the evaluation path bit-identical to
    /// the pre-bypass workspace.
    bypass_tol: f64,
    bypassed: u64,
}

impl MnaWorkspace {
    /// Builds a workspace for `nl`, resolving `solver` against the system
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no unknowns.
    pub fn new(nl: &Netlist, solver: SolverKind) -> Self {
        let dim = nl.unknown_count();
        assert!(dim > 0, "netlist has no unknowns");
        let mat = SparseMatrix::from_pattern(dim, &matrix_coords(nl));
        let nnz = mat.nnz();
        let mut n_static = 0;
        static_stamps(nl, |_, _, _, _| n_static += 1);
        let count = |f: fn(&Element) -> bool| nl.elements().iter().filter(|e| f(e)).count();
        // Every element but R, E and G replays one dynamic op.
        let n_ops = count(|e| {
            !matches!(
                e,
                Element::Resistor { .. } | Element::Vcvs { .. } | Element::Vccs { .. }
            )
        });
        let n_mos = count(|e| matches!(e, Element::Mos { .. }));
        let n_nonlinear = count(|e| {
            matches!(
                e,
                Element::Diode { .. } | Element::Mos { .. } | Element::SclLoad { .. }
            )
        });
        MnaWorkspace {
            dim,
            n_elements: nl.elements().len(),
            mat,
            rhs: vec![0.0; dim],
            static_vals: vec![0.0; nnz],
            plan: Plan {
                statics: Vec::with_capacity(n_static),
                ops: Vec::with_capacity(n_ops),
                mos: Vec::with_capacity(n_mos),
            },
            bypass: vec![BypassSlot::default(); n_nonlinear],
            prep: None,
            force_symbolic: false,
            backend: Backend::new(solver, dim),
            symbolic: 0,
            refactors: 0,
            swaps: 0,
            bypass_tol: 0.0,
            bypassed: 0,
        }
    }

    /// System dimension this workspace was planned for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when the resolved backend is the sparse pattern-reusing path.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse(_))
    }

    /// Full symbolic (re-pivoting) factorizations performed so far.
    pub fn symbolic_factorizations(&self) -> usize {
        self.symbolic
    }

    /// Numeric refactorizations that reused the cached pivot order.
    pub fn numeric_refactorizations(&self) -> usize {
        self.refactors
    }

    /// Total rows displaced by pivoting across all symbolic
    /// factorizations.
    pub fn pivot_swaps(&self) -> usize {
        self.swaps
    }

    /// Enables device-latency bypass: a nonlinear element (diode, MOS,
    /// STSCL load) whose model inputs have all moved by less than `tol`
    /// volts since the last *committed* reference point (see
    /// [`Self::commit_bypass`]) re-applies its cached companion stamps
    /// instead of re-evaluating the device model. Both backends share
    /// the assembly, so both bypass alike. `tol = 0.0` (the default)
    /// disables bypass and keeps the evaluation path bit-identical to an
    /// untouched workspace.
    ///
    /// # Panics
    ///
    /// Panics unless `tol` is finite and non-negative.
    pub fn set_bypass_tol(&mut self, tol: f64) {
        assert!(
            tol.is_finite() && tol >= 0.0,
            "bypass tolerance must be finite and non-negative"
        );
        self.bypass_tol = tol;
    }

    /// Promotes the most recent device evaluations to the committed
    /// bypass reference. The transient driver calls this after every
    /// *accepted* step, so rejected trial steps never contaminate the
    /// reference point future bypass decisions compare against.
    ///
    /// The committed stamps are those of the last Newton iterate, which
    /// sits within the Newton voltage tolerance of the accepted
    /// solution — a documented approximation far below the bypass
    /// tolerance itself.
    pub fn commit_bypass(&mut self) {
        for slot in &mut self.bypass {
            if slot.fresh {
                slot.v = slot.pend_v;
                slot.g = slot.pend_g;
                slot.i_eq = slot.pend_i_eq;
                slot.valid = true;
                slot.fresh = false;
            }
        }
    }

    /// Cumulative count of nonlinear device evaluations skipped via the
    /// bypass cache (one per device per assembly that re-applied cached
    /// stamps). Always `0` with bypass disabled.
    pub fn devices_bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Restamps the system `A(x)·x' = b(x)` for candidate solution `x`.
    ///
    /// `mode` selects DC or one transient step; `gmin` siemens are added
    /// from every non-ground node to ground (convergence aid,
    /// SPICE-standard).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Self::dim`], if a transient
    /// mode is supplied with mismatched state-vector lengths, or if the
    /// netlist topology changed since the workspace was planned
    /// (parameter edits such as `set_source` are fine and picked up
    /// automatically).
    pub fn assemble(
        &mut self,
        nl: &Netlist,
        tech: &Technology,
        x: &[f64],
        mode: AssembleMode<'_>,
        gmin: f64,
    ) {
        assert_eq!(x.len(), self.dim, "candidate solution has wrong dimension");
        assert!(
            nl.unknown_count() == self.dim && nl.elements().len() == self.n_elements,
            "netlist topology changed under a planned MnaWorkspace"
        );
        let key = PrepKey {
            mode: ModeKey::of(&mode),
            gmin_bits: gmin.to_bits(),
            revision: nl.revision(),
            tech: *tech,
        };
        if self.prep != Some(key) {
            let replan = match self.prep {
                None => true,
                Some(prev) => {
                    if prev.mode.family() != key.mode.family() {
                        self.force_symbolic = true;
                    }
                    prev.revision != key.revision || prev.tech != key.tech
                }
            };
            if replan {
                // A netlist edit or a new card may have changed the
                // device parameters baked into the cached stamps.
                self.bypass.fill(BypassSlot::default());
                self.plan(nl, tech);
            }
            self.fill_static(&mode, gmin);
            self.prep = Some(key);
        }
        self.mat.values_mut().copy_from_slice(&self.static_vals);
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        apply_dyn(
            &self.plan,
            nl,
            x,
            &mode,
            self.mat.values_mut(),
            &mut self.rhs,
            self.bypass_tol,
            &mut self.bypass,
            &mut self.bypassed,
        );
    }

    /// ∞-norm of `A·x − b` for the currently assembled system.
    ///
    /// Because nonlinear elements are stamped as companion models
    /// linearised about the iterate, evaluating the system assembled at
    /// `x` *at* `x` recovers the true nonlinear residual of the MNA
    /// equations: the net KCL current error at every node (and the
    /// voltage-law error of every branch equation), in amps.
    pub fn residual_inf(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.dim {
            let (cols, vals) = self.mat.row(i);
            let mut ax = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                ax += v * x[*c as usize];
            }
            worst = worst.max((ax - self.rhs[i]).abs());
        }
        worst
    }

    /// Factorises the currently assembled matrix through the workspace's
    /// [`Backend`]: a numeric refactorization on the cached sparse pivot
    /// order where possible, a full re-pivot after a change of assembly
    /// family or a collapsed pivot, and a fresh dense factorization on
    /// the dense backend.
    pub fn factor(&mut self) -> Result<(), SolveError> {
        if self.backend.factor(&self.mat, self.force_symbolic)? {
            self.symbolic += 1;
            self.swaps += displaced_rows(self.backend.permutation());
            self.force_symbolic = false;
        } else {
            self.refactors += 1;
        }
        Ok(())
    }

    /// Solves the factored system against the assembled RHS, writing into
    /// `x` (cleared first; allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::factor`] has not succeeded since the last
    /// [`Self::assemble`].
    pub fn solve_into(&self, x: &mut Vec<f64>) -> Result<(), SolveError> {
        self.backend.solve_into(&self.rhs, x)
    }

    /// Ratio of the largest to the smallest pivot magnitude of the last
    /// factorization — the near-singularity estimate of
    /// [`LuFactor::pivot_ratio`] (and its sparse counterpart).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::factor`] has not succeeded yet.
    pub fn pivot_ratio(&self) -> f64 {
        match &self.backend {
            Backend::Dense { lu, .. } => lu.as_ref().expect(UNFACTORED).pivot_ratio(),
            Backend::Sparse(lu) => lu.as_ref().expect(UNFACTORED).pivot_ratio(),
        }
    }

    /// Rebuilds the stamp plan in place. Runs once per (netlist
    /// revision, technology) — once per whole transient, once per sweep
    /// point — and reuses the plan's buffers.
    fn plan(&mut self, nl: &Netlist, tech: &Technology) {
        let Plan { statics, ops, mos } = &mut self.plan;
        let mat = &self.mat;
        statics.clear();
        static_stamps(nl, |r, c, kind, v| {
            let slot = mat
                .slot(r as usize, c as usize)
                .expect("static stamp missing from sparse pattern");
            statics.push(StaticEntry {
                v,
                slot: slot as u32,
                kind,
            });
        });

        ops.clear();
        mos.clear();
        let ut = tech.thermal_voltage();
        let mut branch = (nl.node_count() - 1) as u32;
        let mut cap = 0u32;
        for (ei, e) in nl.elements().iter().enumerate() {
            match e {
                Element::Resistor { .. } | Element::Vccs { .. } => {}
                Element::Vcvs { .. } => branch += 1,
                Element::Capacitor { a, b, farads, .. } => {
                    ops.push(DynOp::Cap {
                        farads: *farads,
                        cap,
                        p: uidx(*a),
                        n: uidx(*b),
                    });
                    cap += 1;
                }
                Element::Vsource { .. } => {
                    ops.push(DynOp::SourceV {
                        elem: ei as u32,
                        rb: branch,
                    });
                    branch += 1;
                }
                Element::Isource { p, n, .. } => {
                    ops.push(DynOp::SourceI {
                        elem: ei as u32,
                        p: uidx(*p),
                        n: uidx(*n),
                    });
                }
                Element::Diode {
                    p, n, is_sat, n_id, ..
                } => {
                    let (pi, ni) = (uidx(*p), uidx(*n));
                    ops.push(DynOp::Diode {
                        is_sat: *is_sat,
                        vt: n_id * ut,
                        p: pi,
                        n: ni,
                        q: Quad::resolve(mat, pi, ni, pi, ni),
                    });
                }
                Element::Mos { d, g, s, b, dev, .. } => {
                    let (di, gi, si, bi) = (uidx(*d), uidx(*g), uidx(*s), uidx(*b));
                    ops.push(DynOp::Mos {
                        params: mos.len() as u32,
                        d: di,
                        g: gi,
                        s: si,
                        b: bi,
                        qg: Quad::resolve(mat, di, si, gi, bi),
                        qs: Quad::resolve(mat, di, si, si, bi),
                        qd: Quad::resolve(mat, di, si, di, bi),
                    });
                    mos.push(dev.params(tech));
                }
                Element::SclLoad { a, b, load, iss, .. } => {
                    let (pi, ni) = (uidx(*a), uidx(*b));
                    ops.push(DynOp::SclLoad {
                        load: *load,
                        iss: *iss,
                        a: pi,
                        b: ni,
                        q: Quad::resolve(mat, pi, ni, pi, ni),
                    });
                }
            }
        }
    }

    /// Zeroes the static snapshot and replays the static program into
    /// it for `mode` and `gmin`; capacitor entries are skipped at DC.
    /// Runs once per (mode, gmin) change of a planned workspace.
    fn fill_static(&mut self, mode: &AssembleMode<'_>, gmin: f64) {
        let vals = &mut self.static_vals;
        vals.fill(0.0);
        for e in &self.plan.statics {
            let v = match e.kind {
                StaticKind::Const => e.v,
                StaticKind::Gmin => gmin,
                StaticKind::Cap => match mode {
                    AssembleMode::Dc => continue,
                    AssembleMode::Transient { dt, method, .. } => companion_g(*method, e.v, *dt),
                },
            };
            vals[e.slot as usize] += v;
        }
    }
}

/// Every matrix coordinate any stamp of `nl` can touch, including
/// capacitor companion conductances (zero at DC) and the gmin / AC-shunt
/// diagonal — so one pattern serves DC, transient and AC assembly alike.
pub(crate) fn matrix_coords(nl: &Netlist) -> Vec<(u32, u32)> {
    fn quad_coords(coords: &mut Vec<(u32, u32)>, p: u32, n: u32, cp: u32, cn: u32) {
        for (r, c) in [(p, cp), (p, cn), (n, cp), (n, cn)] {
            if r != NO_IDX && c != NO_IDX {
                coords.push((r, c));
            }
        }
    }
    fn branch_coords(coords: &mut Vec<(u32, u32)>, i: u32, rb: u32) {
        if i != NO_IDX {
            coords.push((i, rb));
            coords.push((rb, i));
        }
    }

    let nn = nl.node_count() - 1;
    let mut coords = Vec::new();
    for i in 0..nn as u32 {
        coords.push((i, i));
    }
    let mut branch = nn as u32;
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::SclLoad { a, b, .. } => {
                let (p, n) = (uidx(*a), uidx(*b));
                quad_coords(&mut coords, p, n, p, n);
            }
            Element::Diode { p, n, .. } => {
                let (p, n) = (uidx(*p), uidx(*n));
                quad_coords(&mut coords, p, n, p, n);
            }
            Element::Vsource { p, n, .. } => {
                let rb = branch;
                branch += 1;
                branch_coords(&mut coords, uidx(*p), rb);
                branch_coords(&mut coords, uidx(*n), rb);
            }
            Element::Vcvs { p, n, cp, cn, .. } => {
                let rb = branch;
                branch += 1;
                branch_coords(&mut coords, uidx(*p), rb);
                branch_coords(&mut coords, uidx(*n), rb);
                for c in [uidx(*cp), uidx(*cn)] {
                    if c != NO_IDX {
                        coords.push((rb, c));
                    }
                }
            }
            Element::Vccs { p, n, cp, cn, .. } => {
                quad_coords(&mut coords, uidx(*p), uidx(*n), uidx(*cp), uidx(*cn));
            }
            // Current sources only stamp the RHS.
            Element::Isource { .. } => {}
            Element::Mos { d, g, s, b, .. } => {
                let (d, g, s, b) = (uidx(*d), uidx(*g), uidx(*s), uidx(*b));
                quad_coords(&mut coords, d, s, g, b);
                quad_coords(&mut coords, d, s, s, b);
                quad_coords(&mut coords, d, s, d, b);
            }
        }
    }
    coords
}

/// Replays the dynamic-op plan for candidate solution `x` — the only
/// per-iteration work besides the static-value copy, and allocation-free.
///
/// With `tol > 0`, nonlinear ops whose model inputs all sit within
/// `tol` of their committed [`BypassSlot`] reference re-apply the
/// cached stamps (counting into `bypassed`) instead of re-evaluating
/// the device model; with `tol = 0` the slot bookkeeping is skipped
/// entirely and the arithmetic is bit-identical to the pre-bypass path.
#[allow(clippy::too_many_arguments)]
fn apply_dyn(
    plan: &Plan,
    nl: &Netlist,
    x: &[f64],
    mode: &AssembleMode<'_>,
    vals: &mut [f64],
    rhs: &mut [f64],
    tol: f64,
    slots: &mut [BypassSlot],
    bypassed: &mut u64,
) {
    let time = match mode {
        AssembleMode::Dc => 0.0,
        AssembleMode::Transient { time, .. } => *time,
    };
    let mut nli = 0usize;
    for op in &plan.ops {
        match *op {
            DynOp::SourceV { elem, rb } => {
                let Element::Vsource { wave, .. } = &nl.elements()[elem as usize] else {
                    unreachable!("workspace plan out of sync with netlist");
                };
                rhs[rb as usize] = wave.at(time);
            }
            DynOp::SourceI { elem, p, n } => {
                let Element::Isource { wave, .. } = &nl.elements()[elem as usize] else {
                    unreachable!("workspace plan out of sync with netlist");
                };
                rhs_current(rhs, p, n, wave.at(time));
            }
            DynOp::Cap { farads, cap, p, n } => {
                let AssembleMode::Transient {
                    dt,
                    prev,
                    cap_currents,
                    method,
                    ..
                } = mode
                else {
                    continue;
                };
                let geq = companion_g(*method, farads, *dt);
                let v_prev = volt(prev, p) - volt(prev, n);
                let i0 = match method {
                    Integrator::BackwardEuler => -geq * v_prev,
                    Integrator::Trapezoidal => -(geq * v_prev + cap_currents[cap as usize]),
                };
                rhs_current(rhs, p, n, i0);
            }
            DynOp::Diode {
                is_sat,
                vt,
                p,
                n,
                q,
            } => {
                let v = volt(x, p) - volt(x, n);
                let slot = &mut slots[nli];
                nli += 1;
                if tol > 0.0 && slot.valid && (v - slot.v[0]).abs() <= tol {
                    q.add(vals, slot.g[0]);
                    rhs_current(rhs, p, n, slot.i_eq);
                    *bypassed += 1;
                    slot.fresh = false;
                } else {
                    let arg = (v / vt).min(40.0);
                    let ex = arg.exp();
                    let i = is_sat * (ex - 1.0);
                    let g = (is_sat / vt * ex).max(1e-18);
                    q.add(vals, g);
                    rhs_current(rhs, p, n, i - g * v);
                    if tol > 0.0 {
                        slot.pend_v = [v, 0.0, 0.0];
                        slot.pend_g = [g, 0.0, 0.0];
                        slot.pend_i_eq = i - g * v;
                        slot.fresh = true;
                    }
                }
            }
            DynOp::Mos {
                params,
                d,
                g,
                s,
                b,
                qg,
                qs,
                qd,
            } => {
                let vb = volt(x, b);
                let vg = volt(x, g) - vb;
                let vs = volt(x, s) - vb;
                let vd = volt(x, d) - vb;
                let slot = &mut slots[nli];
                nli += 1;
                if tol > 0.0
                    && slot.valid
                    && (vg - slot.v[0]).abs() <= tol
                    && (vs - slot.v[1]).abs() <= tol
                    && (vd - slot.v[2]).abs() <= tol
                {
                    qg.add(vals, slot.g[0]);
                    qs.add(vals, slot.g[1]);
                    qd.add(vals, slot.g[2]);
                    rhs_current(rhs, d, s, slot.i_eq);
                    *bypassed += 1;
                    slot.fresh = false;
                } else {
                    let dev = &plan.mos[params as usize];
                    let op = dev.operating_point(vg, vs, vd);
                    let i_dt = match dev.polarity() {
                        Polarity::Nmos => op.id,
                        Polarity::Pmos => -op.id,
                    };
                    qg.add(vals, op.gm);
                    qs.add(vals, op.gms);
                    qd.add(vals, op.gds);
                    let i_eq = i_dt - op.gm * vg - op.gms * vs - op.gds * vd;
                    rhs_current(rhs, d, s, i_eq);
                    if tol > 0.0 {
                        slot.pend_v = [vg, vs, vd];
                        slot.pend_g = [op.gm, op.gms, op.gds];
                        slot.pend_i_eq = i_eq;
                        slot.fresh = true;
                    }
                }
            }
            DynOp::SclLoad { load, iss, a, b, q } => {
                let v = volt(x, a) - volt(x, b);
                let slot = &mut slots[nli];
                nli += 1;
                if tol > 0.0 && slot.valid && (v - slot.v[0]).abs() <= tol {
                    q.add(vals, slot.g[0]);
                    rhs_current(rhs, a, b, slot.i_eq);
                    *bypassed += 1;
                    slot.fresh = false;
                } else {
                    let (i, g) = load.eval(v, iss);
                    let g = g.max(1e-18);
                    q.add(vals, g);
                    rhs_current(rhs, a, b, i - g * v);
                    if tol > 0.0 {
                        slot.pend_v = [v, 0.0, 0.0];
                        slot.pend_g = [g, 0.0, 0.0];
                        slot.pend_i_eq = i - g * v;
                        slot.fresh = true;
                    }
                }
            }
        }
    }
}

/// Recovers the capacitor currents implied by a solved transient step —
/// needed to carry trapezoidal state forward.
///
/// Returns one entry per capacitor in netlist order.
pub fn capacitor_currents(
    nl: &Netlist,
    x: &[f64],
    prev: &[f64],
    prev_currents: &[f64],
    dt: f64,
    method: Integrator,
) -> Vec<f64> {
    let mut out = Vec::new();
    capacitor_currents_into(nl, x, prev, prev_currents, dt, method, &mut out);
    out
}

/// [`capacitor_currents`] writing into a caller-owned buffer (cleared
/// first) — lets the transient loop reuse its per-step allocation.
pub fn capacitor_currents_into(
    nl: &Netlist,
    x: &[f64],
    prev: &[f64],
    prev_currents: &[f64],
    dt: f64,
    method: Integrator,
    out: &mut Vec<f64>,
) {
    out.clear();
    let mut k = 0usize;
    for e in nl.elements() {
        if let Element::Capacitor { a, b, farads, .. } = e {
            let v_new = voltage_of(x, *a) - voltage_of(x, *b);
            let v_old = voltage_of(prev, *a) - voltage_of(prev, *b);
            let i = companion_g(method, *farads, dt) * (v_new - v_old);
            out.push(match method {
                Integrator::BackwardEuler => i,
                Integrator::Trapezoidal => i - prev_currents[k],
            });
            k += 1;
        }
    }
}

/// What one MNA unknown physically is: the voltage of a named node or
/// the branch current of a named voltage-defined element.
///
/// Because LU elimination pivots rows only, the `step` of a
/// [`ulp_num::lu::SolveError::Singular`] is a column — i.e. unknown —
/// index, and this function translates it straight back to circuit
/// terms: index `i < node_count − 1` is the voltage of node `i + 1`;
/// the remainder are branch currents in element order.
///
/// Returns `(description, is_branch)`, or `None` when `index` is out of
/// range for this netlist.
pub fn unknown_name(nl: &Netlist, index: usize) -> Option<(String, bool)> {
    let nn = nl.node_count() - 1;
    if index < nn {
        return Some((
            format!("voltage of node `{}`", nl.node_name(Node(index + 1))),
            false,
        ));
    }
    let branch = index - nn;
    nl.elements()
        .iter()
        .filter(|e| e.has_branch())
        .nth(branch)
        .map(|e| (format!("branch current of `{}`", e.name()), true))
}

/// The branch-current index (within the solution vector) of the named
/// voltage-defined element, if present.
pub fn branch_index(nl: &Netlist, name: &str) -> Option<usize> {
    let nn = nl.node_count() - 1;
    let mut b = 0usize;
    for e in nl.elements() {
        if e.has_branch() {
            if e.name() == name {
                return Some(nn + b);
            }
            b += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_num::lu;

    // -----------------------------------------------------------------
    // Stamping oracle: the seed's element-by-element dense assembler,
    // kept verbatim as the reference the compiled workspace program is
    // pinned against.
    // -----------------------------------------------------------------

    /// Assembled real MNA system `A·x = b`.
    #[derive(Debug, Clone)]
    pub struct MnaSystem {
        /// System matrix.
        pub matrix: Matrix,
        /// Right-hand side.
        pub rhs: Vec<f64>,
    }

    impl MnaSystem {
        /// ∞-norm of `A·x − b`.
        ///
        /// Because nonlinear elements are stamped as companion models
        /// linearised about `x`, evaluating the assembled system at the
        /// *same* `x` recovers the true nonlinear residual of the MNA
        /// equations: the net KCL current error at every node (and the
        /// voltage-law error of every branch equation), in amps.
        pub fn residual_inf(&self, x: &[f64]) -> f64 {
            self.matrix
                .mul_vec(x)
                .iter()
                .zip(&self.rhs)
                .map(|(ax, b)| (ax - b).abs())
                .fold(0.0, f64::max)
        }
    }

    /// Row/column index of a node in the MNA system (`None` for ground).
    fn idx(node: Node) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    struct Stamper<'m> {
        a: &'m mut Matrix,
        b: &'m mut Vec<f64>,
    }

    impl Stamper<'_> {
        fn conductance(&mut self, p: Node, n: Node, g: f64) {
            if let Some(i) = idx(p) {
                self.a[(i, i)] += g;
                if let Some(j) = idx(n) {
                    self.a[(i, j)] -= g;
                }
            }
            if let Some(j) = idx(n) {
                self.a[(j, j)] += g;
                if let Some(i) = idx(p) {
                    self.a[(j, i)] -= g;
                }
            }
        }

        /// Transconductance: current `gm·(V(cp) − V(cn))` leaves `p`, enters
        /// `n`.
        fn transconductance(&mut self, p: Node, n: Node, cp: Node, cn: Node, gm: f64) {
            for (out, sign) in [(p, 1.0), (n, -1.0)] {
                if let Some(r) = idx(out) {
                    if let Some(c) = idx(cp) {
                        self.a[(r, c)] += sign * gm;
                    }
                    if let Some(c) = idx(cn) {
                        self.a[(r, c)] -= sign * gm;
                    }
                }
            }
        }

        /// Constant current `i` leaving node `p` and entering node `n`.
        fn current(&mut self, p: Node, n: Node, i: f64) {
            if let Some(r) = idx(p) {
                self.b[r] -= i;
            }
            if let Some(r) = idx(n) {
                self.b[r] += i;
            }
        }
    }

    /// Assembles the real MNA system for the given candidate solution `x`.
    ///
    /// `gmin` siemens are added from every non-ground node to ground
    /// (convergence aid, SPICE-standard).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Netlist::unknown_count`], or if a
    /// transient mode is supplied with mismatched state-vector lengths.
    pub fn assemble(
        nl: &Netlist,
        tech: &Technology,
        x: &[f64],
        mode: AssembleMode<'_>,
        gmin: f64,
    ) -> MnaSystem {
        let dim = nl.unknown_count();
        let mut matrix = Matrix::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        assemble_into(nl, tech, x, mode, gmin, &mut matrix, &mut rhs);
        MnaSystem { matrix, rhs }
    }

    /// [`assemble`] writing into caller-owned buffers (resized and cleared
    /// first). Stamp order is identical to [`assemble`], so the resulting
    /// system is bitwise equal.
    pub fn assemble_into(
        nl: &Netlist,
        tech: &Technology,
        x: &[f64],
        mode: AssembleMode<'_>,
        gmin: f64,
        matrix: &mut Matrix,
        rhs: &mut Vec<f64>,
    ) {
        let nn = nl.node_count() - 1;
        let dim = nl.unknown_count();
        assert_eq!(x.len(), dim, "candidate solution has wrong dimension");
        if matrix.rows() != dim || matrix.cols() != dim {
            *matrix = Matrix::zeros(dim, dim);
        } else {
            matrix.clear();
        }
        rhs.clear();
        rhs.resize(dim, 0.0);
        let mut st = Stamper {
            a: matrix,
            b: rhs,
        };

        // gmin from every node to ground.
        for i in 0..nn {
            st.a[(i, i)] += gmin;
        }

        let mut branch = nn; // next branch row
        let mut cap_index = 0usize;
        let time = match mode {
            AssembleMode::Dc => 0.0,
            AssembleMode::Transient { time, .. } => time,
        };

        for e in nl.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => st.conductance(*a, *b, 1.0 / ohms),
                Element::Capacitor { a, b, farads, .. } => {
                    if let AssembleMode::Transient {
                        dt,
                        prev,
                        cap_currents,
                        method,
                        ..
                    } = mode
                    {
                        let v_prev = voltage_of(prev, *a) - voltage_of(prev, *b);
                        match method {
                            Integrator::BackwardEuler => {
                                let geq = farads / dt;
                                st.conductance(*a, *b, geq);
                                // i = geq·v − geq·v_prev ⇒ constant part −geq·v_prev
                                st.current(*a, *b, -geq * v_prev);
                            }
                            Integrator::Trapezoidal => {
                                let geq = 2.0 * farads / dt;
                                let i_prev = cap_currents[cap_index];
                                st.conductance(*a, *b, geq);
                                st.current(*a, *b, -(geq * v_prev + i_prev));
                            }
                        }
                    }
                    cap_index += 1;
                }
                Element::Vsource { p, n, wave, .. } => {
                    let rb = branch;
                    branch += 1;
                    if let Some(i) = idx(*p) {
                        st.a[(i, rb)] += 1.0;
                        st.a[(rb, i)] += 1.0;
                    }
                    if let Some(j) = idx(*n) {
                        st.a[(j, rb)] -= 1.0;
                        st.a[(rb, j)] -= 1.0;
                    }
                    st.b[rb] = wave.at(time);
                }
                Element::Isource { p, n, wave, .. } => {
                    st.current(*p, *n, wave.at(time));
                }
                Element::Vcvs {
                    p, n, cp, cn, gain, ..
                } => {
                    let rb = branch;
                    branch += 1;
                    if let Some(i) = idx(*p) {
                        st.a[(i, rb)] += 1.0;
                        st.a[(rb, i)] += 1.0;
                    }
                    if let Some(j) = idx(*n) {
                        st.a[(j, rb)] -= 1.0;
                        st.a[(rb, j)] -= 1.0;
                    }
                    if let Some(c) = idx(*cp) {
                        st.a[(rb, c)] -= gain;
                    }
                    if let Some(c) = idx(*cn) {
                        st.a[(rb, c)] += gain;
                    }
                }
                Element::Vccs {
                    p, n, cp, cn, gm, ..
                } => st.transconductance(*p, *n, *cp, *cn, *gm),
                Element::Diode {
                    p, n, is_sat, n_id, ..
                } => {
                    let v = voltage_of(x, *p) - voltage_of(x, *n);
                    let vt = n_id * tech.thermal_voltage();
                    // Clamp the exponent to keep the companion model finite;
                    // Newton's voltage limiting does the rest.
                    let arg = (v / vt).min(40.0);
                    let ex = arg.exp();
                    let i = is_sat * (ex - 1.0);
                    let g = (is_sat / vt * ex).max(1e-18);
                    st.conductance(*p, *n, g);
                    st.current(*p, *n, i - g * v);
                }
                Element::Mos { d, g, s, b, dev, .. } => {
                    let vb = voltage_of(x, *b);
                    let vg = voltage_of(x, *g) - vb;
                    let vs = voltage_of(x, *s) - vb;
                    let vd = voltage_of(x, *d) - vb;
                    let op = dev.operating_point(tech, vg, vs, vd);
                    // Signed drain-terminal current (leaving node d through
                    // the channel): +id for NMOS, −id for PMOS. In both
                    // cases its derivatives w.r.t. the *physical*
                    // bulk-referred voltages equal the reflected-model
                    // values (two sign flips cancel).
                    let i_dt = match dev.polarity {
                        ulp_device::Polarity::Nmos => op.id,
                        ulp_device::Polarity::Pmos => -op.id,
                    };
                    let (gm, gms, gds) = (op.gm, op.gms, op.gds);
                    // Stamp ∂I/∂V terms: row d positive, row s negative.
                    st.transconductance(*d, *s, *g, *b, gm);
                    st.transconductance(*d, *s, *s, *b, gms);
                    st.transconductance(*d, *s, *d, *b, gds);
                    let i_eq = i_dt - gm * vg - gms * vs - gds * vd;
                    st.current(*d, *s, i_eq);
                }
                Element::SclLoad { a, b, load, iss, .. } => {
                    let v = voltage_of(x, *a) - voltage_of(x, *b);
                    let i = load.current(v, *iss);
                    let g = load.conductance(v, *iss).max(1e-18);
                    st.conductance(*a, *b, g);
                    st.current(*a, *b, i - g * v);
                }
            }
        }
    }

    fn solve_linear(nl: &Netlist, tech: &Technology) -> Vec<f64> {
        let x0 = vec![0.0; nl.unknown_count()];
        let sys = assemble(nl, tech, &x0, AssembleMode::Dc, 1e-12);
        lu::solve(&sys.matrix, &sys.rhs).expect("linear solve")
    }

    #[test]
    fn divider_solves() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GROUND, 2.0);
        nl.resistor("R1", a, m, 1e3);
        nl.resistor("R2", m, Netlist::GROUND, 1e3);
        let x = solve_linear(&nl, &Technology::default());
        assert!((voltage_of(&x, m) - 1.0).abs() < 1e-9);
        assert!((voltage_of(&x, a) - 2.0).abs() < 1e-12);
        // Branch current of V1: 2V across 2kΩ = 1 mA drawn from the + node.
        let ib = x[branch_index(&nl, "V1").unwrap()];
        assert!((ib - (-1e-3)).abs() < 1e-9, "ib = {ib}");
    }

    #[test]
    fn isource_into_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        // 1 µA injected into node a (drawn from ground).
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.resistor("R1", a, Netlist::GROUND, 1e6);
        let x = solve_linear(&nl, &Technology::default());
        assert!((voltage_of(&x, a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", inp, Netlist::GROUND, 0.1);
        nl.vcvs("E1", out, Netlist::GROUND, inp, Netlist::GROUND, 10.0);
        nl.resistor("RL", out, Netlist::GROUND, 1e3);
        let x = solve_linear(&nl, &Technology::default());
        assert!((voltage_of(&x, out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", inp, Netlist::GROUND, 1.0);
        // gm = 1 mS drawn from ground, injected into out → current into
        // out = 1 mA.
        nl.vccs("G1", Netlist::GROUND, out, inp, Netlist::GROUND, 1e-3);
        nl.resistor("RL", out, Netlist::GROUND, 1e3);
        let x = solve_linear(&nl, &Technology::default());
        assert!((voltage_of(&x, out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_kinds_resolve_without_consulting_the_environment() {
        // Explicit kinds win at any dimension.
        assert_eq!(SolverKind::Dense.resolve(1000), SolverKind::Dense);
        assert_eq!(SolverKind::Sparse.resolve(1), SolverKind::Sparse);
    }

    #[test]
    fn ground_stamps_are_dropped() {
        // An element entirely to ground must not corrupt the system.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("Rg", Netlist::GROUND, Netlist::GROUND, 1e3);
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let x = solve_linear(&nl, &Technology::default());
        assert!((voltage_of(&x, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_index_ordering() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, b, 1.0);
        nl.vsource("V2", b, Netlist::GROUND, 0.5);
        assert_eq!(branch_index(&nl, "V1"), Some(2));
        assert_eq!(branch_index(&nl, "V2"), Some(3));
        assert_eq!(branch_index(&nl, "R1"), None);
        assert_eq!(branch_index(&nl, "nope"), None);
    }

    #[test]
    fn capacitor_open_in_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, b, 1e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
        let x = solve_linear(&nl, &Technology::default());
        // No DC path through C: node b floats to the source value via R.
        assert!((voltage_of(&x, b) - 1.0).abs() < 1e-6);
    }

    /// A small netlist exercising every dynamic stamp family: source,
    /// resistor, diode.
    fn diode_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vsource("V1", a, Netlist::GROUND, 0.5);
        nl.resistor("R1", a, d, 1e4);
        nl.diode("D1", d, Netlist::GROUND, 1e-14, 1.0);
        nl
    }

    fn ws_solve(nl: &Netlist, solver: SolverKind, x: &[f64]) -> Vec<f64> {
        let tech = Technology::default();
        let mut ws = MnaWorkspace::new(nl, solver);
        ws.assemble(nl, &tech, x, AssembleMode::Dc, 1e-12);
        ws.factor().expect("factor");
        let mut out = Vec::new();
        ws.solve_into(&mut out).expect("solve");
        out
    }

    /// One netlist holding every element kind — R, C, V, I, E, G, D, M
    /// and the STSCL load — each with a terminal on ground, plus two
    /// capacitors so the trapezoidal history is indexed per capacitor.
    fn every_element_netlist() -> Netlist {
        use ulp_device::Mosfet;
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        let mid = nl.node("mid");
        let amp = nl.node("amp");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.vsource("VIN", inp, Netlist::GROUND, 0.4);
        nl.resistor("R1", inp, mid, 2e5);
        nl.capacitor("C1", mid, Netlist::GROUND, 1e-12);
        nl.isource("I1", Netlist::GROUND, mid, 3e-9);
        nl.vcvs("E1", amp, Netlist::GROUND, mid, Netlist::GROUND, 2.5);
        nl.vccs("G1", out, Netlist::GROUND, amp, Netlist::GROUND, 1e-9);
        nl.diode("D1", mid, Netlist::GROUND, 1e-15, 1.2);
        let dev = Mosfet::new(Polarity::Nmos, 2e-6, 1e-6);
        nl.mosfet("M1", out, inp, Netlist::GROUND, Netlist::GROUND, dev);
        nl.scl_load("RL", vdd, out, PmosLoad::new(0.2), 1e-9);
        nl.capacitor("CL", out, vdd, 5e-15);
        nl
    }

    #[test]
    fn stamping_matches_the_seed_assembler_on_every_element_kind() {
        let nl = every_element_netlist();
        let tech = Technology::default();
        let dim = nl.unknown_count();
        // A nonzero iterate, and a different previous timepoint, so every
        // companion model and capacitor history term is exercised.
        let x: Vec<f64> = (0..dim).map(|i| 0.05 + 0.11 * i as f64).collect();
        let prev: Vec<f64> = (0..dim).map(|i| 0.3 - 0.07 * i as f64).collect();
        let cap_i = [2e-10, -4e-10];
        let tran = |method| AssembleMode::Transient {
            time: 3e-7,
            dt: 1e-8,
            prev: &prev,
            cap_currents: &cap_i,
            method,
        };
        let modes = [
            AssembleMode::Dc,
            tran(Integrator::BackwardEuler),
            tran(Integrator::Trapezoidal),
        ];
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let mut ws = MnaWorkspace::new(&nl, solver);
            for mode in modes {
                for gmin in [1e-12, 1e-5] {
                    let oracle = assemble(&nl, &tech, &x, mode, gmin);
                    ws.assemble(&nl, &tech, &x, mode, gmin);
                    let ctx = format!("{solver:?} {mode:?} gmin {gmin:e}");
                    let got = ws.mat.to_dense();
                    let mut worst_scale = 0.0f64;
                    for i in 0..dim {
                        let row = oracle.matrix.row(i);
                        let scale = row.iter().fold(oracle.rhs[i].abs(), |m, v| m.max(v.abs()));
                        worst_scale = worst_scale.max(scale);
                        let tol = 1e-14 * scale;
                        for (j, want) in row.iter().enumerate() {
                            let d = (got[(i, j)] - want).abs();
                            assert!(d <= tol, "{ctx}: A[{i},{j}] off by {d:e}");
                        }
                        let d = (ws.rhs[i] - oracle.rhs[i]).abs();
                        assert!(d <= tol, "{ctx}: b[{i}] off by {d:e}");
                    }
                    let (r_ws, r_seed) = (ws.residual_inf(&x), oracle.residual_inf(&x));
                    assert!(
                        (r_ws - r_seed).abs() <= 1e-13 * worst_scale,
                        "{ctx}: residual {r_ws:e} vs {r_seed:e}"
                    );
                    // The dense backend factors exactly the assembled
                    // values, scattered into its full matrix.
                    ws.factor().expect("factor");
                    if let Backend::Dense { full, .. } = &ws.backend {
                        assert_eq!(full, &got, "{ctx}: dense scatter");
                    }
                }
            }
        }
    }

    #[test]
    fn replayed_statics_match_a_fresh_workspace_bit_for_bit() {
        // One workspace driven through every re-fill path — step-size,
        // integrator, gmin and family changes — and a technology
        // change, which must rebuild the plan. Each stage must assemble
        // exactly the bits a fresh workspace assembles in that mode:
        // `mid`'s diagonal sums gmin, R1 and C1, so a change in the
        // summation order would show.
        let nl = every_element_netlist();
        let dim = nl.unknown_count();
        let x: Vec<f64> = (0..dim).map(|i| 0.05 + 0.11 * i as f64).collect();
        let prev: Vec<f64> = (0..dim).map(|i| 0.3 - 0.07 * i as f64).collect();
        let cap_i = [2e-10, -4e-10];
        let tran = |method, dt| AssembleMode::Transient {
            time: 3e-7,
            dt,
            prev: &prev,
            cap_currents: &cap_i,
            method,
        };
        let (trap, be) = (Integrator::Trapezoidal, Integrator::BackwardEuler);
        let (dt1, dt2) = (1e-8, 3.7e-9);
        let nominal = Technology::default();
        let hot = nominal.at_temperature(400.0);
        let stages = [
            (AssembleMode::Dc, 1e-12, nominal),
            (tran(trap, dt1), 1e-12, nominal),
            (tran(trap, dt2), 1e-12, nominal),
            (tran(be, dt1), 1e-12, nominal),
            (AssembleMode::Dc, 1e-5, nominal),
            (AssembleMode::Dc, 1e-12, nominal),
            (tran(trap, dt1), 1e-12, hot),
        ];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let mut ws = MnaWorkspace::new(&nl, solver);
            for (k, (mode, gmin, tech)) in stages.iter().enumerate() {
                ws.assemble(&nl, tech, &x, *mode, *gmin);
                let mut fresh = MnaWorkspace::new(&nl, solver);
                fresh.assemble(&nl, tech, &x, *mode, *gmin);
                let ctx = format!("{solver:?} stage {k} ({mode:?}, gmin {gmin:e})");
                assert_eq!(bits(ws.mat.values()), bits(fresh.mat.values()), "{ctx}: A");
                assert_eq!(bits(&ws.rhs), bits(&fresh.rhs), "{ctx}: b");
            }
        }
    }

    #[test]
    fn workspace_sparse_agrees_with_dense() {
        let nl = diode_netlist();
        let x = vec![0.1, 0.2, -1e-5];
        let dense = ws_solve(&nl, SolverKind::Dense, &x);
        let sparse = ws_solve(&nl, SolverKind::Sparse, &x);
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((d - s).abs() < 1e-12, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn workspace_residual_matches_between_backends() {
        let nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.3, 0.25, -2e-5];
        let mut dense = MnaWorkspace::new(&nl, SolverKind::Dense);
        let mut sparse = MnaWorkspace::new(&nl, SolverKind::Sparse);
        dense.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        sparse.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        let rd = dense.residual_inf(&x);
        let rs = sparse.residual_inf(&x);
        assert!(
            (rd - rs).abs() <= 1e-12 * rd.abs().max(1.0),
            "dense {rd} vs sparse {rs}"
        );
    }

    #[test]
    fn sparse_pattern_survives_source_edit() {
        let mut nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.0; nl.unknown_count()];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        assert!(ws.is_sparse());
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.factor().expect("factor");
        assert_eq!(ws.symbolic_factorizations(), 1);
        // Editing a source value bumps the revision (statics refresh)
        // but must not throw away the symbolic factorization.
        nl.set_source("V1", 0.6).expect("source exists");
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.factor().expect("refactor");
        assert_eq!(ws.symbolic_factorizations(), 1);
        assert_eq!(ws.numeric_refactorizations(), 1);
    }

    #[test]
    fn mode_change_forces_fresh_symbolic_factorization() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, b, 1e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-6);
        let tech = Technology::default();
        let x = vec![0.0; nl.unknown_count()];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.factor().expect("dc factor");
        assert_eq!(ws.symbolic_factorizations(), 1);
        // DC → transient swaps the capacitor stamps in; the recorded
        // pivot order may be invalid for the new values, so the
        // workspace must re-pivot rather than trust a refactor.
        let prev = x.clone();
        let cap_i = [0.0];
        let mode = AssembleMode::Transient {
            time: 1e-6,
            dt: 1e-6,
            prev: &prev,
            cap_currents: &cap_i,
            method: Integrator::BackwardEuler,
        };
        ws.assemble(&nl, &tech, &x, mode, 1e-12);
        ws.factor().expect("tran factor");
        assert_eq!(ws.symbolic_factorizations(), 2);
        assert_eq!(ws.numeric_refactorizations(), 0);
    }

    #[test]
    fn tran_step_size_change_reuses_the_symbolic_factorization() {
        // The adaptive engine changes dt nearly every accepted step;
        // that must cost a static-value refresh + numeric refactor, not
        // a re-pivot — dt changes stay within the same mode family.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, b, 1e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-6);
        let tech = Technology::default();
        let x = vec![0.0; nl.unknown_count()];
        let prev = x.clone();
        let cap_i = [0.0];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        let tran = |dt: f64| AssembleMode::Transient {
            time: dt,
            dt,
            prev: &prev,
            cap_currents: &cap_i,
            method: Integrator::BackwardEuler,
        };
        ws.assemble(&nl, &tech, &x, tran(1e-6), 1e-12);
        ws.factor().expect("first factor");
        assert_eq!(ws.symbolic_factorizations(), 1);
        for dt in [5e-7, 1.2e-6, 3e-6] {
            ws.assemble(&nl, &tech, &x, tran(dt), 1e-12);
            ws.factor().expect("refactor at new dt");
        }
        assert_eq!(ws.symbolic_factorizations(), 1);
        assert_eq!(ws.numeric_refactorizations(), 3);
    }

    #[test]
    fn bypass_skips_unmoved_devices_after_commit() {
        let nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.3, 0.25, -2e-5];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        ws.set_bypass_tol(1e-4);
        // First assembly evaluates the diode (no committed reference).
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 0);
        ws.commit_bypass();
        // Unmoved terminals: the cached stamps are re-applied, and the
        // system is bitwise what a bypass-free workspace assembles
        // (cached values were computed at this exact point).
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 1);
        ws.factor().expect("factor");
        let mut bypassed = Vec::new();
        ws.solve_into(&mut bypassed).expect("solve");
        let plain = ws_solve(&nl, SolverKind::Sparse, &x);
        assert_eq!(bypassed, plain, "cached stamps must be bit-identical here");
        // A move beyond tol re-evaluates.
        let far = vec![0.3, 0.26, -2e-5];
        ws.assemble(&nl, &tech, &far, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 1);
    }

    #[test]
    fn bypass_reference_needs_a_commit() {
        let nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.3, 0.25, -2e-5];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        ws.set_bypass_tol(1e-4);
        // Without commit_bypass, repeated assemblies at the same point
        // keep evaluating — rejected steps must leave no reference.
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 0);
    }

    #[test]
    fn netlist_edit_invalidates_the_bypass_reference() {
        let mut nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.3, 0.25, -2e-5];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        ws.set_bypass_tol(1e-4);
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.commit_bypass();
        // The revision bump must clear the committed reference even
        // though the diode itself did not change.
        nl.set_source("V1", 0.6).expect("source exists");
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 0);
    }

    #[test]
    fn disabled_bypass_never_counts() {
        let nl = diode_netlist();
        let tech = Technology::default();
        let x = vec![0.3, 0.25, -2e-5];
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        ws.commit_bypass();
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
        assert_eq!(ws.devices_bypassed(), 0);
    }

    #[test]
    #[should_panic(expected = "netlist topology changed")]
    fn workspace_rejects_topology_change() {
        let mut nl = diode_netlist();
        let tech = Technology::default();
        let mut ws = MnaWorkspace::new(&nl, SolverKind::Sparse);
        // Adding a parallel element keeps the dimension but changes the
        // element list — the workspace plan no longer matches.
        let (a, d) = (nl.node("a"), nl.node("d"));
        nl.resistor("R2", a, d, 1e3);
        let x = vec![0.0; ws.dim()];
        ws.assemble(&nl, &tech, &x, AssembleMode::Dc, 1e-12);
    }
}
