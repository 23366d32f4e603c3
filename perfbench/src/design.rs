//! `design-check`: the `.ulp` submission gate over a fixed set of eight
//! designs — the six builder cells lifted to text through
//! `design_from_netlist` + `to_text`, and both `examples/*.ulp`. Each
//! design goes through the `ulp_ir` pipeline minus its sweep: parse,
//! serializer round-trip, flatten, ERC, lint, DC operating point and
//! audit, certify, SARIF. Every op is the same work; the seed only
//! permutes the submission order.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use ulp_device::Technology;
use ulp_spice::absint::{self, CertifyOptions, Verdict};
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::lint::{self, LintConfig, LintContext};
use ulp_spice::netlist::Element;
use ulp_spice::telemetry::MetricsCollector;
use ulp_spice::{erc, sarif, ErcReport, Netlist, Severity};

use crate::campaign::CellTransient;
use crate::chain::newton;
use crate::probe::Target;
use crate::trace::span;
use crate::{Layer, Workload};

pub const SCL_BUFFER_ULP: &str = include_str!("../../examples/scl_buffer.ulp");
const COMP_DOUBLETAIL_ULP: &str = include_str!("../../examples/comp_doubletail.ulp");
/// The one design whose cross-coupled latch has no nonsingularity proof.
const UNPROVEN: &str = "comp_doubletail";

/// A timestep resolving the fastest RC by 10 points per τ, as the
/// `ulp_ir` pipeline plans it, so the `rc-time-step` rules run.
fn conservative_dt(nl: &Netlist) -> Option<f64> {
    let mut r_min = f64::INFINITY;
    let mut c_min = f64::INFINITY;
    for e in nl.elements() {
        match e {
            Element::Resistor { ohms, .. } => r_min = r_min.min(*ohms),
            Element::SclLoad { load, iss, .. } => r_min = r_min.min(load.resistance(*iss)),
            Element::Capacitor { farads, .. } => c_min = c_min.min(*farads),
            _ => {}
        }
    }
    (r_min.is_finite() && c_min.is_finite()).then(|| r_min * c_min / 10.0)
}

/// One design's verdict from one submission.
pub struct Finding {
    name: String,
    errors: usize,
    verdict: Option<Verdict>,
    sarif: String,
    failure: Option<String>,
}

pub struct DesignCheck {
    /// `(name, .ulp text)` in submission order.
    designs: Vec<(String, String)>,
    tech: Technology,
    config: LintConfig,
    /// The `scl_buffer.ulp` cell transient of `tran_dev_mv`.
    probe_tran: CellTransient,
}

impl DesignCheck {
    fn submit_one(
        &self,
        name: &str,
        text: &str,
        mc: &mut Option<&mut MetricsCollector>,
    ) -> Finding {
        let mut finding = Finding {
            name: name.to_string(),
            errors: 0,
            verdict: None,
            sarif: String::new(),
            failure: None,
        };
        let design = match span("ir.parse", || ulp_ir::parse(text)) {
            Ok(d) => d,
            Err(e) => {
                finding.failure = Some(format!("parse: {e}"));
                return finding;
            }
        };
        let canon = span("ir.to_text", || design.to_text());
        match span("ir.parse", || ulp_ir::parse(&canon)) {
            Ok(again) if again == design && span("ir.to_text", || again.to_text()) == canon => {}
            Ok(_) => {
                finding.failure = Some("serializer round-trip is not a fixed point".into());
                return finding;
            }
            Err(e) => {
                finding.failure = Some(format!("canonical text fails to parse: {e}"));
                return finding;
            }
        }
        let nl = match span("ir.flatten", || ulp_ir::flatten(&design)) {
            Ok(nl) => nl,
            Err(e) => {
                finding.failure = Some(format!("flatten: {e}"));
                return finding;
            }
        };
        finding.errors += span("erc.check", || erc::check(&nl)).count(Severity::Error);
        let mut cx = LintContext::with_tech(&nl, &self.tech);
        if let Some(dt) = conservative_dt(&nl) {
            cx = cx.with_dt(dt);
        }
        let mut merged: ErcReport = span("lint.run", || lint::run_ctx(&cx, &self.config));
        let op = span("dcop.solve", || match mc.as_deref_mut() {
            Some(mc) => DcOperatingPoint::solve_traced(&nl, &self.tech, &newton(), mc),
            None => DcOperatingPoint::solve_with(&nl, &self.tech, &newton()),
        });
        match op {
            Ok(op) => {
                for d in span("lint.audit", || {
                    lint::audit(&nl, &self.tech, &op, &self.config)
                })
                .diagnostics()
                {
                    merged.push(d.clone());
                }
            }
            Err(e) => finding.failure = Some(format!("DC operating point: {e}")),
        }
        match span("absint.certify", || {
            absint::certify(&nl, &self.tech, &CertifyOptions::default())
        }) {
            Ok(cert) => {
                for d in cert.report(&self.config).diagnostics() {
                    merged.push(d.clone());
                }
                finding.verdict = Some(cert.verdict().clone());
            }
            Err(e) => finding.failure = Some(format!("certify: {e}")),
        }
        merged.sort();
        finding.errors += merged.count(Severity::Error);
        finding.sarif = span("sarif.to_sarif", || {
            sarif::to_sarif(&merged, &format!("{name}.ulp"))
        });
        finding
    }
}

impl Workload for DesignCheck {
    type Output = Vec<Finding>;

    fn setup(seed: u64) -> Result<Self, String> {
        let tech = Technology::default();
        let mut designs = Vec::new();
        for (name, nl) in ulp_bench::netlists::builder_netlists(&tech) {
            let design = span("ir.import", || ulp_ir::design_from_netlist(&nl))
                .map_err(|e| format!("{name}: import: {e}"))?;
            designs.push((name, span("ir.to_text", || design.to_text())));
        }
        designs.push(("scl_buffer".to_string(), SCL_BUFFER_ULP.to_string()));
        designs.push((UNPROVEN.to_string(), COMP_DOUBLETAIL_ULP.to_string()));
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..designs.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            designs.swap(i, j);
        }
        // First parse, flatten, ERC and DC solve of every design.
        let mut probe_nl = None;
        for (name, text) in &designs {
            let design =
                span("ir.parse", || ulp_ir::parse(text)).map_err(|e| format!("{name}: {e}"))?;
            let nl = span("ir.flatten", || ulp_ir::flatten(&design))
                .map_err(|e| format!("{name}: {e}"))?;
            span("erc.check", || erc::gate(&nl)).map_err(|e| format!("{name}: {e}"))?;
            span("dcop.solve", || {
                DcOperatingPoint::solve_with(&nl, &tech, &newton())
            })
            .map_err(|e| format!("{name}: DC: {e}"))?;
            if name == "scl_buffer" {
                probe_nl = Some(nl);
            }
        }
        let probe_nl = probe_nl.expect("the submission holds scl_buffer");
        Ok(DesignCheck {
            designs,
            tech,
            config: LintConfig::default(),
            probe_tran: CellTransient::new(&probe_nl),
        })
    }

    fn op(&self, mut mc: Option<&mut MetricsCollector>) -> Self::Output {
        self.designs
            .iter()
            .map(|(name, text)| self.submit_one(name, text, &mut mc))
            .collect()
    }

    fn check(&self, out: &Self::Output) -> Result<(), String> {
        for f in out {
            if let Some(why) = &f.failure {
                return Err(format!("{}: {why}", f.name));
            }
            if f.errors > 0 {
                return Err(format!("{}: {} error findings", f.name, f.errors));
            }
            let proved = matches!(f.verdict, Some(Verdict::ProvedNonsingular { .. }));
            let unproven = matches!(f.verdict, Some(Verdict::Unproven { .. }));
            if f.name == UNPROVEN && !unproven {
                return Err(format!(
                    "{}: latch certified {:?}, expected unproven",
                    f.name, f.verdict
                ));
            }
            if f.name != UNPROVEN && !proved {
                return Err(format!(
                    "{}: certified {:?}, expected proved-nonsingular",
                    f.name, f.verdict
                ));
            }
            let doc = sarif::parse_json(&f.sarif)
                .map_err(|e| format!("{}: SARIF does not parse: {e}", f.name))?;
            if doc.get("version").and_then(sarif::JsonValue::as_str) != Some(sarif::VERSION) {
                return Err(format!(
                    "{}: SARIF lacks version {}",
                    f.name,
                    sarif::VERSION
                ));
            }
        }
        if out.len() != self.designs.len() {
            return Err(format!(
                "{} findings for {} designs",
                out.len(),
                self.designs.len()
            ));
        }
        Ok(())
    }

    fn op_layer(&self, _out: &Self::Output, mc: Option<&MetricsCollector>) -> Layer {
        mc.map(|mc| crate::counter_layer(&mc.metrics().counters(), 0))
            .unwrap_or_default()
    }

    /// `tran_dev_mv` of the `scl_buffer` cell transient.
    fn after_window(&self) -> Result<Vec<crate::Metric>, String> {
        Ok(vec![self.probe_tran.deviation(&self.tech)?])
    }

    fn probe_target(&self) -> Target<'_> {
        Target {
            tech: self.tech,
            tran: (&self.probe_tran.nl, self.probe_tran.opts),
            tran_is_op: false,
            written: None,
        }
    }
}
