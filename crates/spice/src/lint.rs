//! Design lint framework: configurable electrical rules on top of the
//! structural ERC.
//!
//! The paper's premise is that STSCL only works inside a narrow
//! electrical envelope — every transistor in weak inversion, load swing
//! `RL·ISS ≈ 150–200 mV`, enough headroom down to `VDD = 1.0 V` — yet
//! the electrical rule checker ([`crate::erc`]) only catches
//! *topological* faults. [`run_ctx`] runs a fixed sequence of static
//! checks whose rules sit in one [`REGISTRY`] across three groups:
//!
//! * **topology** — the nine ERC rules ([`crate::erc::rule`]), registry
//!   entries like any other lint;
//! * **electrical** — EKV analytics from `ulp-device` applied *without a
//!   full solve*: weak-inversion bound per MOSFET at its inferred bias,
//!   STSCL swing compatibility between cascaded gates, VDD headroom at
//!   PVT corners, Pelgrom mismatch budget vs. swing — plus the
//!   post-solve operating-region audit ([`audit`]);
//! * **numerics** — RC time constant vs. requested transient step, and
//!   the post-solve near-singularity estimate from the LU pivots.
//!
//! Each electrical rule's netlist pattern (biased devices, load → driven
//! gate, load → supply rail and switching device, matched pairs, the
//! elements behind the fastest RC) is matched once, in this module; the
//! sound interval twins in [`crate::absint`] read the same patterns.
//!
//! Every rule has a default [`LintLevel`] that can be overridden per
//! rule, per group, or wholesale through a [`LintConfig`] — programmatic
//! or via the `ULP_LINT` environment variable
//! (`ULP_LINT="swing-compatibility=deny,electrical=allow,all=warn"`).
//! [`crate::erc::gate`] is exactly the deny-level subset of this linter
//! over the topology group: a finding whose configured level is `deny`
//! renders as an error and blocks checked analyses, `warn` caps it at a
//! warning, `allow` drops it.
//!
//! Findings are ordinary [`Diagnostic`]s in an [`ErcReport`] (stable
//! text rendering, machine-readable rule codes) and can be exported as
//! SARIF 2.1.0 through [`crate::sarif`].

use crate::dcop::{DcOperatingPoint, NewtonOptions};
use crate::diag::{Diagnostic, ErcReport, Severity};
use crate::mna::{self, AssembleMode, MnaWorkspace, SolverKind};
use crate::netlist::{Element, Netlist, Node};
use ulp_device::load::PmosLoad;
use ulp_device::mismatch::MismatchRng;
use ulp_device::pvt::Corner;
use ulp_device::{Mosfet, Technology};

/// Stable machine-readable codes of the electrical and numerics rules
/// (the topology codes live in [`crate::erc::rule`]).
pub mod rule {
    /// A MOSFET whose inferred bias puts it outside weak inversion.
    pub const WEAK_INVERSION: &str = "weak-inversion";
    /// An STSCL load whose swing is below the driven pair's switching
    /// requirement.
    pub const SWING_COMPATIBILITY: &str = "swing-compatibility";
    /// A supply too low for the STSCL stack at some PVT corner.
    pub const VDD_HEADROOM: &str = "vdd-headroom";
    /// A matched pair whose Pelgrom offset eats the signal swing.
    pub const MISMATCH_BUDGET: &str = "mismatch-budget";
    /// A transient step too coarse for the fastest RC in the netlist.
    pub const RC_TIME_STEP: &str = "rc-time-step";
    /// A device in strong inversion at the solved operating point.
    pub const STRONG_INVERSION: &str = "strong-inversion";
    /// A conducting channel out of saturation at the solved point.
    pub const UNSATURATED_CHANNEL: &str = "unsaturated-channel";
    /// An MNA system close to singular at the solved point.
    pub const NEAR_SINGULAR: &str = "near-singular";
    /// A shared access in the execution engine unordered by
    /// happens-before (vector-clock audit under `ulp-check`).
    pub const RACE: &str = "race";
    /// A telemetry/result fold whose bytes depend on the schedule
    /// (found by the bounded schedule explorer).
    pub const NON_DETERMINISTIC_FOLD: &str = "non-deterministic-fold";
    /// A cancellation acknowledged by a worker without the trial
    /// yielding either a complete result or a clean `Cancelled` mark.
    pub const LOST_CANCEL: &str = "lost-cancel";
    /// An explored schedule on which the engine can no longer make
    /// progress (cyclic lock wait or lost wakeup).
    pub const SCHEDULE_DEADLOCK: &str = "schedule-deadlock";
    /// Certificate: the interval MNA Jacobian is nonsingular over the
    /// whole PVT/mismatch box — no die in the box can hit
    /// `SimError::Singular` (emitted by [`crate::absint`]).
    pub const PROVED_NONSINGULAR: &str = "proved-nonsingular";
    /// Certificate: an electrical spec is violated over the *entire*
    /// PVT/mismatch box — design-space exploration may prune the point.
    pub const PROVED_INFEASIBLE: &str = "proved-infeasible";
    /// The certifier could not establish a proof either way (the box is
    /// too wide). Never an error: absence of proof is not a defect.
    pub const UNPROVEN: &str = "unproven";
    /// Sound interval variant of [`WEAK_INVERSION`]: the inversion
    /// coefficient may exceed the weak-inversion bound somewhere in the
    /// PVT/mismatch box.
    pub const WEAK_INVERSION_BOX: &str = "weak-inversion-box";
    /// Sound interval variant of [`SWING_COMPATIBILITY`]: the load swing
    /// may fall below the steering requirement somewhere in the box.
    pub const SWING_COMPATIBILITY_BOX: &str = "swing-compatibility-box";
    /// Sound interval variant of [`VDD_HEADROOM`]: the supply may be
    /// insufficient for the STSCL stack somewhere in the box.
    pub const VDD_HEADROOM_BOX: &str = "vdd-headroom-box";
    /// Sound interval variant of [`MISMATCH_BUDGET`]: the Pelgrom pair
    /// offset may eat the swing margin somewhere in the box.
    pub const MISMATCH_BUDGET_BOX: &str = "mismatch-budget-box";
    /// Sound interval variant of [`RC_TIME_STEP`]: the planned step may
    /// under-resolve the fastest RC somewhere in the box.
    pub const RC_TIME_STEP_BOX: &str = "rc-time-step-box";
}

/// Inversion coefficient above which a device no longer counts as
/// weakly inverted for the static [`rule::WEAK_INVERSION`] bound.
pub(crate) const IC_WEAK_MAX: f64 = 0.1;

/// Inversion coefficient above which the post-solve audit flags
/// [`rule::STRONG_INVERSION`].
const IC_STRONG: f64 = 1.0;

/// Required swing in multiples of `n·UT` for (near-)complete steering of
/// a source-coupled pair (`tanh(vid/(2nUT))`: 4 n·UT ≈ 96 % steered).
pub(crate) const STEERING_NUT: f64 = 4.0;

/// Minimum ratio of signal swing to the Pelgrom pair offset sigma.
pub(crate) const SIGMA_MARGIN: f64 = 10.0;

/// Minimum timepoints resolving the fastest RC time constant.
pub(crate) const MIN_POINTS_PER_TAU: f64 = 4.0;

/// Default LU pivot ratio above which the audit flags
/// [`rule::NEAR_SINGULAR`] (see [`LintConfig::near_singular_ratio`]).
/// Healthy subthreshold MNA systems span ~1 S (source rows) down to
/// nS-class device conductances — ratios around 1e9; a near-floating
/// node held up only by gmin pushes past 1e11.
pub const NEAR_SINGULAR_RATIO: f64 = 1e11;

/// How a configured rule's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Findings are dropped entirely.
    Allow,
    /// Findings are reported but capped at warning severity (never block
    /// the analysis gate).
    Warn,
    /// Findings are forced to error severity and block checked analyses.
    Deny,
}

impl LintLevel {
    /// Lower-case name (`allow` / `warn` / `deny`), as accepted by
    /// `ULP_LINT`.
    pub fn name(self) -> &'static str {
        match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        }
    }

    /// Parses a level name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }

    /// Maps a natural-severity diagnostic through this level: `Deny`
    /// forces an error, `Warn` caps at warning (a naturally-info
    /// diagnostic stays info), `Allow` drops it.
    fn apply(self, natural: Severity) -> Option<Severity> {
        match self {
            LintLevel::Allow => None,
            LintLevel::Deny => Some(Severity::Error),
            LintLevel::Warn => Some(natural.min(Severity::Warning)),
        }
    }
}

/// Rule family, addressable as a unit in a [`LintConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintGroup {
    /// Structural netlist rules (the original ERC).
    Topology,
    /// Operating-region and signal-integrity rules from EKV analytics.
    Electrical,
    /// Solver-conditioning and discretisation rules.
    Numerics,
    /// Execution-engine schedule/race findings from the `ulp-check`
    /// model checker (reported through the same SARIF pipeline so
    /// concurrency audits land next to electrical lints).
    Concurrency,
    /// Sound certificates from the interval abstract interpreter
    /// ([`crate::absint`]): nonsingularity/feasibility proofs and the
    /// box variants of the electrical lints, quantified over the whole
    /// PVT/mismatch box rather than a point.
    Certify,
}

impl LintGroup {
    /// Lower-case name (`topology` / `electrical` / `numerics`), as
    /// accepted by `ULP_LINT`.
    pub fn name(self) -> &'static str {
        match self {
            LintGroup::Topology => "topology",
            LintGroup::Electrical => "electrical",
            LintGroup::Numerics => "numerics",
            LintGroup::Concurrency => "concurrency",
            LintGroup::Certify => "certify",
        }
    }

    /// Parses a group name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "topology" => Some(LintGroup::Topology),
            "electrical" => Some(LintGroup::Electrical),
            "numerics" => Some(LintGroup::Numerics),
            "concurrency" => Some(LintGroup::Concurrency),
            "certify" => Some(LintGroup::Certify),
            _ => None,
        }
    }
}

/// One registry entry: a rule's identity and default policy.
#[derive(Debug, Clone, Copy)]
pub struct LintRule {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Rule family.
    pub group: LintGroup,
    /// Level applied when no [`LintConfig`] override matches.
    pub default_level: LintLevel,
    /// One-line description (used in the SARIF rule catalogue).
    pub summary: &'static str,
}

/// The full rule registry. Default levels reproduce the historical ERC
/// behaviour exactly: error-severity topology rules are `deny`,
/// everything advisory is `warn`.
pub const REGISTRY: &[LintRule] = &[
    // -- topology: the PR-1 ERC rules --------------------------------
    LintRule {
        code: crate::erc::rule::FLOATING_NODE,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "node (or node group) with no DC path to ground",
    },
    LintRule {
        code: crate::erc::rule::VSOURCE_LOOP,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "loop of voltage-defined elements, or a shorted source",
    },
    LintRule {
        code: crate::erc::rule::CURRENT_SOURCE_CUTSET,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "current source driving a net with no DC return path",
    },
    LintRule {
        code: crate::erc::rule::UNDRIVEN_GATE,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "MOS gate net whose DC potential nothing fixes",
    },
    LintRule {
        code: crate::erc::rule::BAD_VALUE,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "non-finite or non-physical element value",
    },
    LintRule {
        code: crate::erc::rule::DUPLICATE_NAME,
        group: LintGroup::Topology,
        default_level: LintLevel::Deny,
        summary: "two elements sharing one instance name",
    },
    LintRule {
        code: crate::erc::rule::DANGLING_TERMINAL,
        group: LintGroup::Topology,
        default_level: LintLevel::Warn,
        summary: "MOS drain/source connected to nothing else",
    },
    LintRule {
        code: crate::erc::rule::SELF_LOOP,
        group: LintGroup::Topology,
        default_level: LintLevel::Warn,
        summary: "two-terminal element with both terminals on one node",
    },
    LintRule {
        code: crate::erc::rule::ZERO_VALUE_SOURCE,
        group: LintGroup::Topology,
        default_level: LintLevel::Warn,
        summary: "independent source contributing nothing",
    },
    // -- electrical ---------------------------------------------------
    LintRule {
        code: rule::WEAK_INVERSION,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "MOSFET biased outside weak inversion (IC above bound)",
    },
    LintRule {
        code: rule::SWING_COMPATIBILITY,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "STSCL load swing below the driven pair's steering need",
    },
    LintRule {
        code: rule::VDD_HEADROOM,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "supply below the STSCL stack requirement at a corner",
    },
    LintRule {
        code: rule::MISMATCH_BUDGET,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "matched-pair Pelgrom offset too large for the swing",
    },
    LintRule {
        code: rule::STRONG_INVERSION,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "device in strong inversion at the solved DC point",
    },
    LintRule {
        code: rule::UNSATURATED_CHANNEL,
        group: LintGroup::Electrical,
        default_level: LintLevel::Warn,
        summary: "conducting channel out of saturation at the DC point",
    },
    // -- numerics -----------------------------------------------------
    LintRule {
        code: rule::RC_TIME_STEP,
        group: LintGroup::Numerics,
        default_level: LintLevel::Warn,
        summary: "transient step too coarse for the fastest RC",
    },
    LintRule {
        code: rule::NEAR_SINGULAR,
        group: LintGroup::Numerics,
        default_level: LintLevel::Warn,
        summary: "MNA system nearly singular (LU pivot-ratio estimate)",
    },
    // -- concurrency (findings produced by `ulp-check`) ---------------
    LintRule {
        code: rule::RACE,
        group: LintGroup::Concurrency,
        default_level: LintLevel::Deny,
        summary: "shared engine access unordered by happens-before",
    },
    LintRule {
        code: rule::NON_DETERMINISTIC_FOLD,
        group: LintGroup::Concurrency,
        default_level: LintLevel::Deny,
        summary: "gathered results or folded telemetry depend on the schedule",
    },
    LintRule {
        code: rule::LOST_CANCEL,
        group: LintGroup::Concurrency,
        default_level: LintLevel::Deny,
        summary: "cancellation left a trial neither merged nor marked Cancelled",
    },
    LintRule {
        code: rule::SCHEDULE_DEADLOCK,
        group: LintGroup::Concurrency,
        default_level: LintLevel::Deny,
        summary: "an explored schedule reaches a state with no runnable worker",
    },
    // -- certify (certificates produced by `crate::absint`) ------------
    LintRule {
        code: rule::PROVED_NONSINGULAR,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "interval MNA Jacobian proved nonsingular over the PVT box",
    },
    LintRule {
        code: rule::PROVED_INFEASIBLE,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "electrical spec violated over the entire PVT/mismatch box",
    },
    LintRule {
        code: rule::UNPROVEN,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "certifier could not prove the property (box too wide)",
    },
    LintRule {
        code: rule::WEAK_INVERSION_BOX,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "inversion coefficient may leave weak inversion in the box",
    },
    LintRule {
        code: rule::SWING_COMPATIBILITY_BOX,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "load swing may fall below the steering need in the box",
    },
    LintRule {
        code: rule::VDD_HEADROOM_BOX,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "supply may be below the stack requirement in the box",
    },
    LintRule {
        code: rule::MISMATCH_BUDGET_BOX,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "Pelgrom pair offset may eat the swing margin in the box",
    },
    LintRule {
        code: rule::RC_TIME_STEP_BOX,
        group: LintGroup::Certify,
        default_level: LintLevel::Warn,
        summary: "transient step may under-resolve the fastest RC in the box",
    },
];

/// Looks up a rule's registry entry by code.
pub fn rule_info(code: &str) -> Option<&'static LintRule> {
    REGISTRY.iter().find(|r| r.code == code)
}

/// Why a `ULP_LINT` override spec was rejected.
///
/// Mirrors the `ULP_JOBS` policy in `ulp-exec`: a set-but-broken
/// configuration variable is an operator bug that must surface with a
/// diagnostic naming the offending entry, never a silent fallback — a
/// typo like `tpology=deny` would otherwise leave a gate the user asked
/// for unarmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintEnvError {
    /// A key that is neither `all`, a group name, nor a registered rule
    /// code.
    UnknownKey {
        /// The rejected key, verbatim.
        key: String,
    },
    /// A level that is not `allow`, `warn` or `deny`.
    BadLevel {
        /// The key whose level was rejected.
        key: String,
        /// The rejected level, verbatim.
        level: String,
    },
    /// An entry with no `=` separator at all.
    Malformed {
        /// The rejected entry, verbatim.
        entry: String,
    },
}

impl std::fmt::Display for LintEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintEnvError::UnknownKey { key } => write!(
                f,
                "ULP_LINT names unknown rule or group `{key}`: valid keys \
                 are `all`, a group (topology/electrical/numerics/\
                 concurrency/certify), or a registered rule code"
            ),
            LintEnvError::BadLevel { key, level } => write!(
                f,
                "ULP_LINT sets `{key}` to unknown level `{level}`: valid \
                 levels are allow, warn, deny"
            ),
            LintEnvError::Malformed { entry } => write!(
                f,
                "ULP_LINT entry `{entry}` is malformed: expected \
                 `key=level` pairs separated by commas"
            ),
        }
    }
}

impl std::error::Error for LintEnvError {}

/// Per-run lint policy: rule-level overrides on top of the registry
/// defaults, with precedence `rule > group > all > default`.
///
/// # Example
///
/// ```
/// use ulp_spice::lint::{LintConfig, LintLevel, rule_info};
///
/// let cfg = LintConfig::new()
///     .set("electrical", LintLevel::Deny)          // whole group
///     .set("weak-inversion", LintLevel::Allow);    // rule beats group
/// let weak = rule_info("weak-inversion").unwrap();
/// let swing = rule_info("swing-compatibility").unwrap();
/// assert_eq!(cfg.level(weak), LintLevel::Allow);
/// assert_eq!(cfg.level(swing), LintLevel::Deny);
/// ```
#[derive(Debug, Clone)]
pub struct LintConfig {
    all: Option<LintLevel>,
    groups: Vec<(LintGroup, LintLevel)>,
    rules: Vec<(String, LintLevel)>,
    near_singular_ratio: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            all: None,
            groups: Vec::new(),
            rules: Vec::new(),
            near_singular_ratio: NEAR_SINGULAR_RATIO,
        }
    }
}

impl LintConfig {
    /// The registry defaults with no overrides.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Adds an override. `key` is a rule code, a group name
    /// (`topology` / `electrical` / `numerics`), or `all`. Later calls
    /// with the same key win. Unknown rule codes are accepted (and
    /// simply never match), so configs stay forward-compatible.
    pub fn set(mut self, key: &str, level: LintLevel) -> Self {
        if key == "all" {
            self.all = Some(level);
        } else if let Some(group) = LintGroup::parse(key) {
            self.groups.retain(|(g, _)| *g != group);
            self.groups.push((group, level));
        } else {
            self.rules.retain(|(c, _)| c != key);
            self.rules.push((key.to_string(), level));
        }
        self
    }

    /// Builds a config from the `ULP_LINT` environment variable:
    /// comma-separated `key=level` pairs, e.g.
    /// `ULP_LINT="swing-compatibility=deny,electrical=warn,all=allow"`.
    ///
    /// # Panics
    ///
    /// Panics with the [`LintEnvError`] diagnostic when the variable is
    /// set but invalid. A set-but-broken `ULP_LINT` is a configuration
    /// bug the operator must see — a silently ignored `tpology=deny`
    /// would leave a gate the user asked for unarmed (the same policy
    /// `ULP_JOBS` applies through its typed `JobsError`). Use
    /// [`LintConfig::try_from_env`] to surface the error without
    /// panicking, as the analysis gate [`crate::erc::gate`] does.
    pub fn from_env() -> Self {
        match LintConfig::try_from_env() {
            Ok(cfg) => cfg,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible form of [`LintConfig::from_env`]: `Err` names exactly
    /// which `ULP_LINT` entry was rejected and why. An unset variable
    /// yields the registry defaults.
    pub fn try_from_env() -> Result<Self, LintEnvError> {
        match std::env::var("ULP_LINT") {
            Ok(spec) => LintConfig::parse_spec(&spec),
            Err(_) => Ok(LintConfig::new()),
        }
    }

    /// Parses a `ULP_LINT`-syntax override spec: comma-separated
    /// `key=level` pairs where `key` is a registered rule code, a group
    /// name, or `all`, and `level` is `allow`/`warn`/`deny`. Empty
    /// entries (stray commas) are tolerated; everything else unknown or
    /// malformed is a typed error naming the offending text.
    pub fn parse_spec(spec: &str) -> Result<Self, LintEnvError> {
        let mut cfg = LintConfig::new();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, level)) = pair.split_once('=') else {
                return Err(LintEnvError::Malformed {
                    entry: pair.to_string(),
                });
            };
            let (key, level) = (key.trim(), level.trim());
            let known_rule = REGISTRY.iter().any(|r| r.code == key);
            if key != "all" && LintGroup::parse(key).is_none() && !known_rule {
                return Err(LintEnvError::UnknownKey {
                    key: key.to_string(),
                });
            }
            let Some(level) = LintLevel::parse(level) else {
                return Err(LintEnvError::BadLevel {
                    key: key.to_string(),
                    level: level.to_string(),
                });
            };
            cfg = cfg.set(key, level);
        }
        Ok(cfg)
    }

    /// Sets the LU pivot-ratio threshold above which the post-solve
    /// [`audit`] flags [`rule::NEAR_SINGULAR`]. Defaults to
    /// [`NEAR_SINGULAR_RATIO`].
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is finite and positive.
    pub fn with_near_singular_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "near-singular pivot-ratio threshold must be finite and \
             positive, got {ratio}"
        );
        self.near_singular_ratio = ratio;
        self
    }

    /// The configured [`rule::NEAR_SINGULAR`] pivot-ratio threshold.
    pub fn near_singular_ratio(&self) -> f64 {
        self.near_singular_ratio
    }

    /// Effective level for a registry rule under this config.
    pub fn level(&self, rule: &LintRule) -> LintLevel {
        if let Some((_, l)) = self.rules.iter().find(|(c, _)| c == rule.code) {
            return *l;
        }
        if let Some((_, l)) = self.groups.iter().find(|(g, _)| *g == rule.group) {
            return *l;
        }
        self.all.unwrap_or(rule.default_level)
    }

    /// Maps one natural-severity diagnostic through the configured
    /// level; `None` when the rule is allowed (dropped). Diagnostics
    /// with codes outside the registry pass through at `warn`.
    fn configure(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        let level = rule_info(d.rule)
            .map(|r| self.level(r))
            .unwrap_or(LintLevel::Warn);
        let severity = level.apply(d.severity)?;
        d.severity = severity;
        Some(d)
    }
}

/// What a static lint pass gets to look at.
///
/// `tech` is optional so the topology-only entry points
/// ([`crate::erc::check`]) can run without device models — electrical
/// lints skip silently when it is absent. `dt` enables the
/// [`rule::RC_TIME_STEP`] check for a planned transient.
#[derive(Debug, Clone, Copy)]
pub struct LintContext<'a> {
    /// The netlist under analysis.
    pub nl: &'a Netlist,
    /// Device models, for electrical lints.
    pub tech: Option<&'a Technology>,
    /// Planned transient timestep, s, for numerics lints.
    pub dt: Option<f64>,
}

impl<'a> LintContext<'a> {
    /// Topology-only context (no device models).
    pub fn new(nl: &'a Netlist) -> Self {
        LintContext {
            nl,
            tech: None,
            dt: None,
        }
    }

    /// Full static context with device models.
    pub fn with_tech(nl: &'a Netlist, tech: &'a Technology) -> Self {
        LintContext {
            nl,
            tech: Some(tech),
            dt: None,
        }
    }

    /// Adds a planned transient step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }
}

/// Runs the static lints under `config`: the three ERC passes, then the
/// four EKV electrical rules (with device models), then the RC rule
/// (with a planned step). Each pushes findings at its *natural*
/// severity; the level mapping (deny/warn/allow) is applied once, here.
pub fn run_ctx(cx: &LintContext<'_>, config: &LintConfig) -> ErcReport {
    let mut raw = ErcReport::new();
    crate::erc::check_names(cx.nl, &mut raw);
    crate::erc::check_values(cx.nl, &mut raw);
    crate::erc::check_topology(cx.nl, &mut raw);
    if let Some(tech) = cx.tech {
        weak_inversion(cx.nl, tech, &mut raw);
        swing_compatibility(cx.nl, tech, &mut raw);
        vdd_headroom(cx.nl, tech, &mut raw);
        mismatch_budget(cx.nl, tech, &mut raw);
    }
    if let Some(dt) = cx.dt {
        rc_time_step(cx.nl, dt, &mut raw);
    }
    finish(raw, config)
}

/// Runs every static lint with device models available.
pub fn run(nl: &Netlist, tech: &Technology, config: &LintConfig) -> ErcReport {
    run_ctx(&LintContext::with_tech(nl, tech), config)
}

/// Applies the configured levels and the deterministic ordering.
pub(crate) fn finish(raw: ErcReport, config: &LintConfig) -> ErcReport {
    let mut out = ErcReport::new();
    for d in raw.into_diagnostics() {
        if let Some(d) = config.configure(d) {
            out.push(d);
        }
    }
    out.sort();
    out
}

/// Debug-build assertion that a generated netlist has no deny-level
/// findings under the full static lint (environment-configured).
///
/// Circuit builders call this after construction so both topology *and*
/// electrical bugs in generator code fail at the build site, at zero
/// release cost.
///
/// # Panics
///
/// In debug builds, panics with the rendered report when the lint run
/// contains error-severity findings.
pub fn debug_assert_clean(nl: &Netlist, tech: &Technology) {
    if cfg!(debug_assertions) {
        let report = run(nl, tech, &LintConfig::from_env());
        assert!(
            report.is_clean(),
            "generated netlist fails design lint:\n{report}"
        );
    }
}

// ---------------------------------------------------------------------
// STSCL patterns: the netlist match behind each electrical rule, made
// once here for the point lints below and their interval twins
// (`*-box`, `proved-infeasible`) in `crate::absint`.
// ---------------------------------------------------------------------

/// Every MOS device whose branch bias current the netlist pins, with
/// that current, in netlist order. An STSCL load on the drain defines
/// the steered branch current (its calibration `iss`); failing that, an
/// independent current source on the drain or source net (the tail /
/// reference idiom) does. Devices nothing pins are audited post-solve
/// instead.
pub(crate) fn biased_devices(nl: &Netlist) -> impl Iterator<Item = (&str, &Mosfet, f64)> {
    let elems = nl.elements();
    elems.iter().filter_map(move |e| {
        let Element::Mos { name, d, s, dev, .. } = e else {
            return None;
        };
        let source = || {
            elems.iter().find_map(|e| match e {
                Element::Isource { p, n, wave, .. }
                    if [p, n].contains(&d) || [p, n].contains(&s) =>
                {
                    Some(wave.dc().abs()).filter(|&i| i > 0.0)
                }
                _ => None,
            })
        };
        let load = loads(nl).find(|l| l.b == *d).map(|l| l.iss);
        Some((name.as_str(), dev, load.or_else(source)?))
    })
}

/// One STSCL load element.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load<'a> {
    pub(crate) name: &'a str,
    /// Supply-side terminal.
    pub(crate) a: Node,
    /// Output terminal.
    pub(crate) b: Node,
    /// Calibrated swing, V.
    pub(crate) vsw: f64,
    /// Calibration tail current, A.
    pub(crate) iss: f64,
}

fn loads(nl: &Netlist) -> impl Iterator<Item = Load<'_>> {
    nl.elements().iter().filter_map(|e| match e {
        Element::SclLoad {
            name, a, b, load, iss,
        } => Some(Load {
            name,
            a: *a,
            b: *b,
            vsw: load.vsw,
            iss: *iss,
        }),
        _ => None,
    })
}

/// The MOS devices whose gate sits on `node`, in netlist order.
fn gates_on(nl: &Netlist, node: Node) -> impl Iterator<Item = (&str, &Mosfet)> {
    nl.elements().iter().filter_map(move |e| match e {
        Element::Mos { name, g, dev, .. } if *g == node => Some((name.as_str(), dev)),
        _ => None,
    })
}

/// Every (STSCL load, MOS gate on its output) pair, in netlist order:
/// the gate belongs to a driven (cascaded) stage, which needs the full
/// differential swing to steer its pair.
pub(crate) fn steered_gates(nl: &Netlist) -> impl Iterator<Item = (Load<'_>, &str, &Mosfet)> {
    loads(nl).flat_map(move |load| {
        gates_on(nl, load.b).map(move |(gate, dev)| (load, gate, dev))
    })
}

/// An STSCL stack the headroom rules size.
pub(crate) struct Stack<'a> {
    pub(crate) load: Load<'a>,
    /// The supply rail: the first DC voltage source from the load's
    /// supply side to ground.
    pub(crate) supply: &'a str,
    /// The rail's DC value, V.
    pub(crate) vdd: f64,
    /// The switching device: the first MOS with its drain on the load's
    /// output.
    pub(crate) switch: &'a str,
    pub(crate) dev: &'a Mosfet,
}

/// Every STSCL load with both a supply rail and a switching device, in
/// netlist order.
pub(crate) fn stacks(nl: &Netlist) -> impl Iterator<Item = Stack<'_>> {
    let elems = nl.elements();
    loads(nl).filter_map(move |load| {
        let (supply, vdd) = elems.iter().find_map(|e| match e {
            Element::Vsource { name, p, n, wave, .. } if *p == load.a && n.is_ground() => {
                Some((name.as_str(), wave.dc()))
            }
            _ => None,
        })?;
        let (switch, dev) = elems.iter().find_map(|e| match e {
            Element::Mos { name, d, dev, .. } if *d == load.b => Some((name.as_str(), dev)),
            _ => None,
        })?;
        Some(Stack {
            load,
            supply,
            vdd,
            switch,
            dev,
        })
    })
}

/// A matched source-coupled pair: two MOS devices of one polarity and
/// W/L sharing a source node, with distinct drains each loaded by an
/// STSCL load.
pub(crate) struct MatchedPair<'a> {
    pub(crate) names: [&'a str; 2],
    /// The smaller of the two loads' swings, V.
    pub(crate) vsw: f64,
    /// Pelgrom sigma of the pair's offset, V. It depends only on the
    /// card's area law, so the box-wide worst case is this point value.
    pub(crate) sigma: f64,
}

/// Every matched pair, in netlist order of its first then second device.
pub(crate) fn matched_pairs<'a>(
    nl: &'a Netlist,
    tech: &'a Technology,
) -> impl Iterator<Item = MatchedPair<'a>> {
    let elems = nl.elements();
    // The swing of the STSCL load on a drain node, if any.
    let load_vsw = move |node: Node| loads(nl).find(|l| l.b == node).map(|l| l.vsw);
    let mos = |e: &'a Element| match e {
        Element::Mos { name, d, s, dev, .. } => Some((name.as_str(), *d, *s, dev)),
        _ => None,
    };
    let devices = elems.iter().enumerate().filter_map(move |(i, e)| Some((i, mos(e)?)));
    devices.flat_map(move |(i, (n1, d1, s1, m1))| {
        elems[i + 1..].iter().filter_map(mos).filter_map(move |(n2, d2, s2, m2)| {
            let matched =
                m1.polarity == m2.polarity && m1.w == m2.w && m1.l == m2.l && s1 == s2 && d1 != d2;
            if !matched {
                return None;
            }
            let (v1, v2) = (load_vsw(d1)?, load_vsw(d2)?);
            Some(MatchedPair {
                names: [n1, n2],
                vsw: v1.min(v2),
                sigma: MismatchRng::sigma_pair_offset(m1.model(tech), m1.w, m1.l),
            })
        })
    })
}

/// A resistive element behind the fastest RC time constant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resistive {
    /// An explicit resistor, Ω.
    Resistor(f64),
    /// An STSCL load at its calibration current, A.
    Load(PmosLoad, f64),
}

/// Every resistive element, in netlist order.
pub(crate) fn resistive_elements(nl: &Netlist) -> impl Iterator<Item = Resistive> + '_ {
    nl.elements().iter().filter_map(|e| match e {
        Element::Resistor { ohms, .. } => Some(Resistive::Resistor(*ohms)),
        Element::SclLoad { load, iss, .. } => Some(Resistive::Load(*load, *iss)),
        _ => None,
    })
}

/// The smallest capacitance in the netlist, F (`+∞` without any).
pub(crate) fn smallest_capacitance(nl: &Netlist) -> f64 {
    nl.elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { farads, .. } => Some(*farads),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min)
}

/// The fastest plausible RC time constant of `nl`, s: the smallest
/// resistance (explicit resistors plus the small-signal resistance of
/// STSCL loads at the origin) against the smallest capacitance. `None`
/// when the netlist lacks either.
pub fn fastest_rc(nl: &Netlist) -> Option<f64> {
    let r_min = resistive_elements(nl)
        .map(|r| match r {
            Resistive::Resistor(ohms) => ohms,
            Resistive::Load(load, iss) => load.resistance(iss),
        })
        .fold(f64::INFINITY, f64::min);
    let c_min = smallest_capacitance(nl);
    (r_min.is_finite() && c_min.is_finite()).then_some(r_min * c_min)
}

// ---------------------------------------------------------------------
// Electrical lints: EKV analytics at the nominal card, no solve.
// ---------------------------------------------------------------------

fn weak_inversion(nl: &Netlist, tech: &Technology, report: &mut ErcReport) {
    for (name, dev, bias) in biased_devices(nl) {
        let ic = dev.inversion_coefficient(tech, bias);
        if ic > IC_WEAK_MAX {
            report.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::WEAK_INVERSION,
                    format!(
                        "`{name}` would run at inversion coefficient {ic:.3} \
                         at its inferred bias of {bias:.3e} A — outside weak \
                         inversion (bound {IC_WEAK_MAX})"
                    ),
                )
                .with_elements([name.to_string()])
                .with_hint(
                    "widen W/L or reduce the bias current; the STSCL delay and \
                     swing laws assume IC \u{226a} 1",
                ),
            );
        }
    }
}

fn swing_compatibility(nl: &Netlist, tech: &Technology, report: &mut ErcReport) {
    let ut = tech.thermal_voltage();
    for (load, gate, dev) in steered_gates(nl) {
        let required = STEERING_NUT * dev.model(tech).n * ut;
        if load.vsw < required {
            let node = nl.node_name(load.b);
            report.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::SWING_COMPATIBILITY,
                    format!(
                        "load `{}` swings {:.0} mV on node `{node}` but the \
                         driven pair device `{gate}` needs {:.0} mV \
                         ({STEERING_NUT}\u{b7}n\u{b7}UT) to steer",
                        load.name,
                        load.vsw * 1e3,
                        required * 1e3
                    ),
                )
                .with_nodes([node.to_string()])
                .with_elements([load.name.to_string(), gate.to_string()])
                .with_hint(
                    "raise RL\u{b7}ISS (the paper designs for 150\u{2013}200 mV) \
                     or the next stage will never switch completely",
                ),
            );
        }
    }
}

fn vdd_headroom(nl: &Netlist, tech: &Technology, report: &mut ErcReport) {
    for st in stacks(nl) {
        // Worst corner: VT shifts move the pair's gate drive. The first
        // corner reaching the maximum need is the one named.
        let mut worst: Option<(Corner, f64)> = None;
        for corner in Corner::all() {
            let tc = tech.at_corner(corner);
            let need = st.dev.min_supply(&tc, st.load.iss, st.load.vsw);
            if worst.is_none_or(|(_, w)| need > w) {
                worst = Some((corner, need));
            }
        }
        let (corner, need) = worst.expect("corners are non-empty");
        if st.vdd < need {
            report.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::VDD_HEADROOM,
                    format!(
                        "supply `{}` = {:.2} V is below the {need:.2} V the \
                         STSCL stack under `{}` needs at the {corner} corner",
                        st.supply, st.vdd, st.load.name
                    ),
                )
                .with_nodes([nl.node_name(st.load.a).to_string()])
                .with_elements([
                    st.load.name.to_string(),
                    st.switch.to_string(),
                    st.supply.to_string(),
                ])
                .with_hint(
                    "VDD must cover swing + pair VGS + tail saturation \
                     across corners; raise VDD or cut ISS/VSW",
                ),
            );
        }
    }
}

fn mismatch_budget(nl: &Netlist, tech: &Technology, report: &mut ErcReport) {
    for pair in matched_pairs(nl, tech) {
        if pair.vsw < SIGMA_MARGIN * pair.sigma {
            let [n1, n2] = pair.names;
            report.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::MISMATCH_BUDGET,
                    format!(
                        "pair `{n1}`/`{n2}` has a Pelgrom offset sigma of \
                         {:.1} mV against a {:.0} mV swing (margin below \
                         {SIGMA_MARGIN}\u{b7}\u{3c3})",
                        pair.sigma * 1e3,
                        pair.vsw * 1e3
                    ),
                )
                .with_elements([n1.to_string(), n2.to_string()])
                .with_hint(
                    "grow W\u{b7}L of the pair (\u{3c3} \u{221d} 1/\u{221a}(WL)) \
                     or raise the swing; offsets this large eat the noise \
                     margin the paper budgets",
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Numerics lints.
// ---------------------------------------------------------------------

fn rc_time_step(nl: &Netlist, dt: f64, report: &mut ErcReport) {
    let Some(tau) = fastest_rc(nl) else { return };
    if dt > tau / MIN_POINTS_PER_TAU {
        report.push(
            Diagnostic::new(
                Severity::Warning,
                rule::RC_TIME_STEP,
                format!(
                    "transient step {dt:.3e} s resolves the fastest RC time \
                     constant ({tau:.3e} s) with fewer than \
                     {MIN_POINTS_PER_TAU} points"
                ),
            )
            .with_hint(format!(
                "shrink dt to at most \u{3c4}/{MIN_POINTS_PER_TAU} = {:.3e} s or the \
                 integrator will smear the edge; backward Euler overdamps, \
                 trapezoidal rings",
                tau / MIN_POINTS_PER_TAU
            )),
        );
    }
}

// ---------------------------------------------------------------------
// Post-solve operating-point audit.
// ---------------------------------------------------------------------

/// Audits a completed DC operating point: flags devices that left their
/// intended region ([`rule::STRONG_INVERSION`],
/// [`rule::UNSATURATED_CHANNEL`]) and near-singular MNA systems
/// ([`rule::NEAR_SINGULAR`], via the LU pivot-ratio estimate of the
/// Jacobian assembled at the solution).
///
/// This is the complement of the static lints: the static passes bound
/// what the bias *should* be from the netlist's sources; the audit
/// checks what the solver actually found, catching mis-biasing the
/// pattern matcher cannot see (e.g. a mirrored tail delivering the
/// wrong current).
pub fn audit(
    nl: &Netlist,
    tech: &Technology,
    op: &DcOperatingPoint,
    config: &LintConfig,
) -> ErcReport {
    let mut raw = ErcReport::new();
    let x = op.solution();
    for e in nl.elements() {
        let Element::Mos {
            name, d, g, s, b, dev,
        } = e
        else {
            continue;
        };
        // Bulk-referred terminal voltages, exactly as the MNA stamper
        // evaluates the device.
        let vb = mna::voltage_of(x, *b);
        let opp = dev.operating_point(
            tech,
            mna::voltage_of(x, *g) - vb,
            mna::voltage_of(x, *s) - vb,
            mna::voltage_of(x, *d) - vb,
        );
        if opp.inversion > IC_STRONG {
            raw.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::STRONG_INVERSION,
                    format!(
                        "`{name}` sits at inversion coefficient {:.2} at the \
                         solved operating point — strong inversion",
                        opp.inversion
                    ),
                )
                .with_elements([name.clone()])
                .with_hint(
                    "lower the tail/reference current or widen the device; the \
                     platform's delay, swing and gm laws assume weak inversion",
                ),
            );
        } else if !opp.saturated && opp.id > 1e-15 {
            raw.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::UNSATURATED_CHANNEL,
                    format!(
                        "channel of `{name}` is not saturated at the solved \
                         operating point (ID = {:.3e} A)",
                        opp.id
                    ),
                )
                .with_elements([name.clone()])
                .with_hint(
                    "give the device more VDS headroom (check VDD, swing and \
                     stacking); the gate model assumes saturated channels",
                ),
            );
        }
    }
    // Conditioning of the Jacobian at the solution, judged by dense LU.
    let mut ws = MnaWorkspace::new(nl, SolverKind::Dense);
    ws.assemble(nl, tech, x, AssembleMode::Dc, NewtonOptions::default().gmin);
    match ws.factor() {
        Ok(()) => {
            let ratio = ws.pivot_ratio();
            let bound = config.near_singular_ratio();
            if ratio > bound {
                raw.push(
                    Diagnostic::new(
                        Severity::Warning,
                        rule::NEAR_SINGULAR,
                        format!(
                            "MNA system is nearly singular at the solution: LU \
                             pivot ratio {ratio:.1e} exceeds {bound:.0e}"
                        ),
                    )
                    .with_hint(
                        "some unknown is barely constrained (gmin-held node or \
                         near-dependent source); results there are noise-level",
                    ),
                );
            }
        }
        Err(err) => {
            raw.push(
                Diagnostic::new(
                    Severity::Warning,
                    rule::NEAR_SINGULAR,
                    format!("MNA system is singular at the solution: {err}"),
                )
                .with_hint("the converged point sits on a fold; treat results as suspect"),
            );
        }
    }
    finish(raw, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_device::Polarity;

    fn tech() -> Technology {
        Technology::default()
    }

    /// An STSCL buffer cell at the paper's design point: VDD 1 V,
    /// 200 mV swing, nA tail — clean under every electrical lint.
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

    #[test]
    fn compliant_stscl_cell_lints_clean() {
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.is_empty(), "expected no findings:\n{report}");
    }

    // -- weak-inversion -----------------------------------------------

    #[test]
    fn weak_inversion_fires_on_over_biased_pair() {
        // 10 µA through a 1µ/0.5µ pair is IC ≈ 7: far out of the
        // subthreshold regime the delay law assumes.
        let nl = stscl_cell(10e-6, 0.2, 1.0);
        let report = run(&nl, &tech(), &LintConfig::new());
        let d = report.find(rule::WEAK_INVERSION).expect("weak-inversion");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.elements.contains(&"M1".to_string()), "{d}");
    }

    #[test]
    fn weak_inversion_clean_at_nanoamp_bias() {
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.find(rule::WEAK_INVERSION).is_none(), "{report}");
    }

    #[test]
    fn weak_inversion_infers_bias_from_current_source() {
        // A diode-connected reference leg: the bias comes from the
        // isource, not a load.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vbn = nl.node("vbn");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.isource("IREF", vdd, vbn, 50e-6); // way too much for 2µ/2µ
        let mirror = Mosfet::new(Polarity::Nmos, 2e-6, 2e-6);
        nl.mosfet("MREF", vbn, vbn, Netlist::GROUND, Netlist::GROUND, mirror);
        let report = run(&nl, &tech(), &LintConfig::new());
        let d = report.find(rule::WEAK_INVERSION).expect("weak-inversion");
        assert_eq!(d.elements, ["MREF"]);
    }

    // -- swing-compatibility ------------------------------------------

    /// Adds a second stage whose gates hang on the first stage's output.
    fn cascade(nl: &mut Netlist, vsw2: f64, iss: f64) {
        let vdd = nl.node("vdd");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        let o2p = nl.node("o2p");
        let o2n = nl.node("o2n");
        let cs2 = nl.node("cs2");
        let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        nl.mosfet("M3", o2n, outp, cs2, Netlist::GROUND, pair);
        nl.mosfet("M4", o2p, outn, cs2, Netlist::GROUND, pair);
        nl.scl_load("RL2P", vdd, o2p, PmosLoad::new(vsw2), iss);
        nl.scl_load("RL2N", vdd, o2n, PmosLoad::new(vsw2), iss);
        nl.isource("ITAIL2", cs2, Netlist::GROUND, iss);
    }

    #[test]
    fn swing_compatibility_fires_on_starved_first_stage() {
        // First stage swings only 100 mV; the cascaded pair needs
        // 4·n·UT ≈ 140 mV to steer.
        let mut nl = stscl_cell(1e-9, 0.1, 1.0);
        cascade(&mut nl, 0.2, 1e-9);
        let report = run(&nl, &tech(), &LintConfig::new());
        let d = report
            .find(rule::SWING_COMPATIBILITY)
            .expect("swing-compatibility");
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.elements.iter().any(|e| e == "RLP" || e == "RLN"),
            "{d}"
        );
        assert!(
            d.elements.iter().any(|e| e == "M3" || e == "M4"),
            "{d}"
        );
    }

    #[test]
    fn swing_compatibility_clean_at_paper_swing() {
        let mut nl = stscl_cell(1e-9, 0.2, 1.0);
        cascade(&mut nl, 0.2, 1e-9);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.find(rule::SWING_COMPATIBILITY).is_none(), "{report}");
    }

    // -- vdd-headroom -------------------------------------------------

    #[test]
    fn vdd_headroom_fires_on_half_volt_supply() {
        // 0.5 V cannot cover swing (0.2) + pair VGS (~0.22 nominal,
        // more at the SS corner) + tail saturation (~0.1).
        let nl = stscl_cell(1e-9, 0.2, 0.5);
        let report = run(&nl, &tech(), &LintConfig::new());
        let d = report.find(rule::VDD_HEADROOM).expect("vdd-headroom");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.elements.contains(&"VDD".to_string()), "{d}");
        assert!(d.message.contains("corner"), "{d}");
    }

    #[test]
    fn vdd_headroom_clean_at_one_volt() {
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.find(rule::VDD_HEADROOM).is_none(), "{report}");
    }

    // -- mismatch-budget ----------------------------------------------

    #[test]
    fn mismatch_budget_fires_on_minimum_size_pair() {
        // A 0.1µ×0.1µ pair: σ(ΔVT) = 5 nV·m / 0.1 µm = 50 mV against a
        // 200 mV swing — the offset eats the noise margin.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("inp");
        let inn = nl.node("inn");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        let cs = nl.node("cs");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.vsource("VINP", inp, Netlist::GROUND, 0.6);
        nl.vsource("VINN", inn, Netlist::GROUND, 0.6);
        let tiny = Mosfet::new(Polarity::Nmos, 0.1e-6, 0.1e-6);
        nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, tiny);
        nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, tiny);
        nl.scl_load("RLP", vdd, outp, PmosLoad::new(0.2), 1e-9);
        nl.scl_load("RLN", vdd, outn, PmosLoad::new(0.2), 1e-9);
        nl.isource("ITAIL", cs, Netlist::GROUND, 1e-9);
        let report = run(&nl, &tech(), &LintConfig::new());
        let d = report.find(rule::MISMATCH_BUDGET).expect("mismatch-budget");
        assert_eq!(d.elements, ["M1", "M2"]);
    }

    #[test]
    fn mismatch_budget_clean_for_sized_pair() {
        // The 1µ/0.5µ pair: σ ≈ 7 mV, an order below the 200 mV swing.
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.find(rule::MISMATCH_BUDGET).is_none(), "{report}");
    }

    // -- rc-time-step -------------------------------------------------

    #[test]
    fn rc_time_step_fires_on_coarse_step() {
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        // Add a load capacitance so there is an RC to resolve.
        let mut nl = nl;
        let outp = nl.node("outp");
        nl.capacitor("CL", outp, Netlist::GROUND, 10e-15);
        // τ ≈ 0.694·0.2/1e-9 · 10 fF ≈ 1.4 µs; a 10 µs step is absurd.
        let t = tech();
        let cx = LintContext::with_tech(&nl, &t).with_dt(10e-6);
        let report = run_ctx(&cx, &LintConfig::new());
        let d = report.find(rule::RC_TIME_STEP).expect("rc-time-step");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn rc_time_step_clean_with_resolved_step() {
        let mut nl = stscl_cell(1e-9, 0.2, 1.0);
        let outp = nl.node("outp");
        nl.capacitor("CL", outp, Netlist::GROUND, 10e-15);
        let t = tech();
        let cx = LintContext::with_tech(&nl, &t).with_dt(50e-9);
        let report = run_ctx(&cx, &LintConfig::new());
        assert!(report.find(rule::RC_TIME_STEP).is_none(), "{report}");
    }

    #[test]
    fn rc_time_step_silent_without_planned_step() {
        let mut nl = stscl_cell(1e-9, 0.2, 1.0);
        let outp = nl.node("outp");
        nl.capacitor("CL", outp, Netlist::GROUND, 10e-15);
        let report = run(&nl, &tech(), &LintConfig::new());
        assert!(report.find(rule::RC_TIME_STEP).is_none());
    }

    // -- config / levels ----------------------------------------------

    #[test]
    fn config_precedence_rule_over_group_over_all() {
        let weak = rule_info(rule::WEAK_INVERSION).unwrap();
        let swing = rule_info(rule::SWING_COMPATIBILITY).unwrap();
        let floating = rule_info(crate::erc::rule::FLOATING_NODE).unwrap();
        let cfg = LintConfig::new()
            .set("all", LintLevel::Allow)
            .set("electrical", LintLevel::Deny)
            .set(rule::WEAK_INVERSION, LintLevel::Warn);
        assert_eq!(cfg.level(weak), LintLevel::Warn);
        assert_eq!(cfg.level(swing), LintLevel::Deny);
        assert_eq!(cfg.level(floating), LintLevel::Allow);
        // Defaults when nothing matches.
        let dflt = LintConfig::new();
        assert_eq!(dflt.level(floating), LintLevel::Deny);
        assert_eq!(dflt.level(weak), LintLevel::Warn);
    }

    #[test]
    fn deny_promotes_and_allow_drops_findings() {
        let nl = stscl_cell(10e-6, 0.2, 1.0); // fires weak-inversion
        let deny = run(
            &nl,
            &tech(),
            &LintConfig::new().set(rule::WEAK_INVERSION, LintLevel::Deny),
        );
        let d = deny.find(rule::WEAK_INVERSION).unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(!deny.is_clean());
        let allow = run(
            &nl,
            &tech(),
            &LintConfig::new().set(rule::WEAK_INVERSION, LintLevel::Allow),
        );
        assert!(allow.find(rule::WEAK_INVERSION).is_none());
    }

    #[test]
    fn env_spec_parses_valid_overrides() {
        // Pure parser test (no env mutation — tests run in parallel).
        let cfg =
            LintConfig::parse_spec("weak-inversion=deny, electrical = allow, ,certify=warn")
                .expect("valid spec");
        let weak = rule_info(rule::WEAK_INVERSION).unwrap();
        let swing = rule_info(rule::SWING_COMPATIBILITY).unwrap();
        assert_eq!(cfg.level(weak), LintLevel::Deny);
        assert_eq!(cfg.level(swing), LintLevel::Allow);
    }

    #[test]
    fn env_spec_rejects_unknown_key_by_name() {
        // The `tpology=deny` typo must surface, not silently disarm a
        // gate the operator asked for.
        let err = LintConfig::parse_spec("all=warn,tpology=deny").unwrap_err();
        assert_eq!(
            err,
            LintEnvError::UnknownKey {
                key: "tpology".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("ULP_LINT"), "{msg}");
        assert!(msg.contains("`tpology`"), "{msg}");
    }

    #[test]
    fn env_spec_rejects_unknown_level_by_name() {
        let err = LintConfig::parse_spec("weak-inversion=fatal").unwrap_err();
        assert_eq!(
            err,
            LintEnvError::BadLevel {
                key: "weak-inversion".into(),
                level: "fatal".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("`fatal`") && msg.contains("weak-inversion"), "{msg}");
    }

    #[test]
    fn env_spec_rejects_malformed_entry() {
        let err = LintConfig::parse_spec("junk").unwrap_err();
        assert_eq!(err, LintEnvError::Malformed { entry: "junk".into() });
        assert!(err.to_string().contains("`junk`"), "{}", err);
        // `=x` has an empty key — unknown, not malformed.
        let err = LintConfig::parse_spec("=x").unwrap_err();
        assert_eq!(err, LintEnvError::UnknownKey { key: String::new() });
    }

    #[test]
    fn level_and_group_names_round_trip() {
        for l in [LintLevel::Allow, LintLevel::Warn, LintLevel::Deny] {
            assert_eq!(LintLevel::parse(l.name()), Some(l));
        }
        for g in [
            LintGroup::Topology,
            LintGroup::Electrical,
            LintGroup::Numerics,
            LintGroup::Concurrency,
            LintGroup::Certify,
        ] {
            assert_eq!(LintGroup::parse(g.name()), Some(g));
        }
        assert!(LintLevel::parse("fatal").is_none());
        assert!(LintGroup::parse("style").is_none());
    }

    #[test]
    fn registry_is_complete_and_unique() {
        // Completeness (every emitted electrical, box and infeasibility
        // code is registered) is checked on the findings themselves by
        // the golden test in `tests/certify_soundness.rs`; here, every
        // topology code is registered…
        for code in [
            crate::erc::rule::FLOATING_NODE,
            crate::erc::rule::VSOURCE_LOOP,
            crate::erc::rule::CURRENT_SOURCE_CUTSET,
            crate::erc::rule::UNDRIVEN_GATE,
            crate::erc::rule::DANGLING_TERMINAL,
            crate::erc::rule::BAD_VALUE,
            crate::erc::rule::DUPLICATE_NAME,
            crate::erc::rule::SELF_LOOP,
            crate::erc::rule::ZERO_VALUE_SOURCE,
        ] {
            assert!(rule_info(code).is_some(), "unregistered code {code}");
        }
        // …and codes are unique.
        for (i, r) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[i + 1..].iter().all(|o| o.code != r.code),
                "duplicate registry code {}",
                r.code
            );
        }
    }

    // -- post-solve audit ---------------------------------------------

    #[test]
    fn audit_flags_strong_inversion_on_mis_biased_gate() {
        // The satellite scenario: an STSCL gate whose tail current is
        // cranked three decades past the design point. The DC solution
        // converges fine — only the audit sees the region violation.
        let t = tech();
        let nl = stscl_cell(10e-6, 0.2, 1.0);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let report = audit(&nl, &t, &op, &LintConfig::new());
        let d = report
            .find(rule::STRONG_INVERSION)
            .expect("strong-inversion must fire");
        assert_eq!(d.rule, "strong-inversion");
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.elements.contains(&"M1".to_string())
                || d.elements.contains(&"M2".to_string()),
            "{d}"
        );
    }

    #[test]
    fn audit_clean_on_the_design_point() {
        let t = tech();
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let report = audit(&nl, &t, &op, &LintConfig::new());
        assert!(report.is_empty(), "expected clean audit:\n{report}");
    }

    #[test]
    fn audit_flags_near_singular_system() {
        // A teraohm-class leakage path keeps the node ERC-clean but the
        // matrix pivot collapses to the gmin floor.
        let t = tech();
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let x = nl.node("x");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.resistor("RLEAK", a, x, 1e18);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let report = audit(&nl, &t, &op, &LintConfig::new());
        let d = report.find(rule::NEAR_SINGULAR).expect("near-singular");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("pivot ratio"), "{d}");
    }

    #[test]
    fn near_singular_threshold_is_configurable() {
        // A healthy STSCL cell spans ~1 S source rows down to nS device
        // conductances — pivot ratio around 1e9: clean at the default
        // 1e11 bound, flagged once the operator tightens the bound
        // below the measured ratio.
        let t = tech();
        let nl = stscl_cell(1e-9, 0.2, 1.0);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let clean = audit(&nl, &t, &op, &LintConfig::new());
        assert!(clean.find(rule::NEAR_SINGULAR).is_none(), "{clean}");

        let strict = LintConfig::new().with_near_singular_ratio(1e6);
        let report = audit(&nl, &t, &op, &strict);
        let d = report.find(rule::NEAR_SINGULAR).expect("near-singular");
        // The finding reports both the measured ratio and the bound.
        assert!(d.message.contains("exceeds 1e6"), "{d}");
        assert!(d.message.contains("pivot ratio"), "{d}");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn near_singular_threshold_rejects_nonsense() {
        let _ = LintConfig::new().with_near_singular_ratio(f64::NAN);
    }
}
