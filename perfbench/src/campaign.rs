//! `pvt-campaign`: a PVT × mismatch campaign of small DC solves on
//! `ulp-exec`. Each die is an STSCL buffer — one of the builder cells
//! across the paper's tail-current range, or a `SweepPlan` point of
//! `examples/scl_buffer.ulp` — at a seeded corner and temperature, with
//! clamped Pelgrom mismatch applied through `map_mosfets`. Per die: the
//! DC operating point and an 11-point transfer sweep, whose output
//! swing must stay at 2·VSW: the replica-calibrated load is what makes
//! the STSCL swing independent of process, voltage and temperature.
//! The replica-biased and pre-amplifier cells are left out because
//! their swing is not designed to hold across the box, so there is no
//! band to check them against.

use std::collections::BTreeMap;
use std::process::Command;

use rand::{Rng, RngCore};
use ulp_device::envelope::PvtBox;
use ulp_device::mismatch::MismatchRng;
use ulp_device::pvt::Corner;
use ulp_device::{Mosfet, Polarity, Technology};
use ulp_exec::obs::CampaignReport;
use ulp_exec::{Ensemble, TrialCtx, TrialError};
use ulp_spice::absint::CertifyOptions;
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::mna::voltage_of;
use ulp_spice::sweep::dc_sweep_with;
use ulp_spice::telemetry::MetricsCollector;
use ulp_spice::tran::{suggest_dt, AdaptiveOptions};
use ulp_spice::Netlist;

use crate::chain::newton;
use crate::design::SCL_BUFFER_ULP;
use crate::probe::Target;
use crate::trace::{self, span};
use crate::{Counts, Layer, Workload, JOBS};

/// Dies per campaign.
pub const DIES: usize = 1024;
/// Designed differential swing of every cell in the pool, V.
const VSW: f64 = 0.2;
/// The die's output swing must stay within this share of 2·VSW.
const SWING_TOL: f64 = 0.1;

/// The differential control values of the transfer sweep, V: far
/// enough past ±4·n·U_T to steer the pair fully both ways.
pub fn ctl_values() -> Vec<f64> {
    (0..11).map(|i| -0.3 + 0.06 * f64::from(i)).collect()
}

/// The transient the adaptive-transient suite pins on a builder cell:
/// a current step across the first capacitor (`pulsed_tran_netlist`),
/// a 50·τ window with steps up to τ, and the τ/50 oracle step.
pub struct CellTransient {
    pub nl: Netlist,
    pub opts: AdaptiveOptions,
    pub oracle_dt: f64,
}

impl CellTransient {
    pub fn new(cell: &Netlist) -> Self {
        let tau = suggest_dt(cell, 1.0, 0);
        let mut opts = AdaptiveOptions::new(50.0 * tau, tau);
        opts.newton = newton();
        CellTransient {
            nl: ulp_bench::netlists::pulsed_tran_netlist(cell, tau),
            opts,
            oracle_dt: tau / 50.0,
        }
    }

    /// `tran_dev_mv` on the cell's `outp`/`outn` pair.
    pub fn deviation(&self, tech: &Technology) -> Result<crate::Metric, String> {
        let pair = match (self.nl.find_node("outp"), self.nl.find_node("outn")) {
            (Some(p), Some(n)) => (p, n),
            _ => return Err("the cell has no outp/outn nets".into()),
        };
        let outputs = (&self.nl, &[pair][..]);
        let dev = crate::tran_dev_mv(outputs, outputs, tech, &self.opts, self.oracle_dt)?;
        Ok(("tran_dev_mv", dev, "mV"))
    }
}

/// Shifts every MOS by clamped Pelgrom-σ threshold and β errors.
fn apply_mismatch(die: &mut Netlist, tech: &Technology, k_sigma: f64, seed: u64) {
    let mut draws = MismatchRng::seed_from(seed);
    die.map_mosfets(|dev| {
        let model = match dev.polarity {
            Polarity::Nmos => &tech.nmos,
            Polarity::Pmos => &tech.pmos,
        };
        let s_vt = MismatchRng::sigma_delta_vt(model, dev.w, dev.l);
        let s_beta = MismatchRng::sigma_delta_beta(model, dev.w, dev.l);
        Mosfet {
            delta_vt: dev.delta_vt + draws.standard_normal().clamp(-k_sigma, k_sigma) * s_vt,
            delta_beta: dev.delta_beta + draws.standard_normal().clamp(-k_sigma, k_sigma) * s_beta,
            ..*dev
        }
    });
}

pub struct Campaign {
    seed: u64,
    tech: Technology,
    cells: Vec<Netlist>,
    plan: ulp_ir::SweepPlan,
    pvt: PvtBox,
    /// The `scl_buffer.ulp` cell transient of `tran_dev_mv`.
    probe_tran: CellTransient,
}

pub struct CampaignOut {
    results: Vec<Result<Result<(), String>, TrialError>>,
    report: CampaignReport,
}

impl Campaign {
    /// One die: solves it and checks its transfer-sweep output swing.
    fn die(&self, ctx: &mut TrialCtx) -> Result<(), String> {
        let slot = ctx.index() % (self.cells.len() + self.plan.len());
        let rng = ctx.rng();
        let t = self.pvt.t_lo + rng.gen::<f64>() * (self.pvt.t_hi - self.pvt.t_lo);
        let (mut die, tech) = match self.cells.get(slot) {
            Some(nl) => {
                let corner = Corner::all()[(rng.next_u64() % 5) as usize];
                (
                    span("netlist.clone", || nl.clone()),
                    self.tech.at_corner(corner),
                )
            }
            None => {
                let point = span("ir.sweep_point", || {
                    self.plan.point(slot - self.cells.len())
                });
                (point.netlist, point.tech.technology())
            }
        };
        let tech = tech.at_temperature(t);
        let mismatch_seed = rng.next_u64();
        span("netlist.map_mosfets", || {
            apply_mismatch(&mut die, &tech, self.pvt.k_sigma, mismatch_seed)
        });
        span("dcop.solve", || {
            DcOperatingPoint::solve_with(&die, &tech, &newton())
        })
        .map_err(|e| format!("die {}: DC: {e}", ctx.index()))?;
        let sweep = span("sweep.dc_sweep", || {
            dc_sweep_with(&die, &tech, "VCTL", &ctl_values(), &newton())
        })
        .map_err(|e| format!("die {}: sweep: {e}", ctx.index()))?;
        let (p, n) = match (die.find_node("outp"), die.find_node("outn")) {
            (Some(p), Some(n)) => (p, n),
            _ => return Err(format!("die {}: no outp/outn nets", ctx.index())),
        };
        let diffs: Vec<f64> = (0..sweep.len())
            .map(|i| voltage_of(sweep.solution(i), p) - voltage_of(sweep.solution(i), n))
            .collect();
        let swing = diffs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - diffs.iter().copied().fold(f64::INFINITY, f64::min);
        if (swing / (2.0 * VSW) - 1.0).abs() > SWING_TOL {
            return Err(format!(
                "die {}: swing {swing:.4} V outside 2·VSW ± {:.0}%",
                ctx.index(),
                100.0 * SWING_TOL
            ));
        }
        Ok(())
    }

    fn campaign(&self, jobs: usize) -> CampaignOut {
        span("exec.run_with_report", || {
            let parent = trace::current();
            let (results, report) = Ensemble::new(DIES)
                .seed(self.seed)
                .jobs(jobs)
                .label("pvt-campaign")
                .run_with_report(|ctx: &mut TrialCtx| {
                    trace::under(parent, || span("trial", || self.die(ctx)))
                });
            CampaignOut { results, report }
        })
    }
}

impl Workload for Campaign {
    type Output = CampaignOut;
    const THREADED: bool = true;

    fn setup(seed: u64) -> Result<Self, String> {
        let tech = Technology::default();
        // First ERC and DC solve of every base circuit.
        let mut cells = Vec::new();
        for (name, nl) in ulp_bench::netlists::builder_netlists(&tech) {
            if !name.starts_with("scl-buffer-") {
                continue;
            }
            span("erc.check", || ulp_spice::erc::gate(&nl)).map_err(|e| format!("{name}: {e}"))?;
            span("dcop.solve", || {
                DcOperatingPoint::solve_with(&nl, &tech, &newton())
            })
            .map_err(|e| format!("{name}: DC: {e}"))?;
            cells.push(nl);
        }
        let design = span("ir.parse", || ulp_ir::parse(SCL_BUFFER_ULP))
            .map_err(|e| format!("scl_buffer: {e}"))?;
        let plan = span("ir.sweep_plan", || ulp_ir::SweepPlan::build(&design))
            .map_err(|e| format!("scl_buffer: {e}"))?;
        let probe_nl = span("ir.flatten", || ulp_ir::flatten(&design))
            .map_err(|e| format!("scl_buffer: {e}"))?;
        span("dcop.solve", || {
            DcOperatingPoint::solve_with(&probe_nl, &tech, &newton())
        })
        .map_err(|e| format!("scl_buffer: DC: {e}"))?;
        Ok(Campaign {
            seed,
            tech,
            cells,
            plan,
            pvt: CertifyOptions::default().pvt,
            probe_tran: CellTransient::new(&probe_nl),
        })
    }

    fn op(&self, _mc: Option<&mut MetricsCollector>) -> Self::Output {
        self.campaign(JOBS)
    }

    fn check(&self, out: &Self::Output) -> Result<(), String> {
        if out.results.len() != DIES {
            return Err(format!("{} results for {DIES} dies", out.results.len()));
        }
        for r in &out.results {
            match r {
                Ok(Ok(_)) => {}
                Ok(Err(why)) => return Err(why.clone()),
                Err(e) => return Err(format!("trial failed: {e:?}")),
            }
        }
        Ok(())
    }

    fn op_layer(&self, out: &Self::Output, _mc: Option<&MetricsCollector>) -> Layer {
        let mut layer = crate::exec_layer(&out.report);
        layer.extend(crate::counter_layer(&out.report.counters_total(), 0));
        layer
    }

    /// `tran_dev_mv` of the cell transient; then replays the campaign at
    /// one worker in a child process with the program's counters on and
    /// requires its deterministic ledger to match the two-worker run.
    fn after_window(&self) -> Result<Vec<crate::Metric>, String> {
        let deviation = self.probe_tran.deviation(&self.tech)?;
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let out = Command::new(exe)
            .args([
                "--counts",
                "--workload",
                "pvt-campaign",
                "--seed",
                &self.seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("run the replay: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        if !out.status.success() || !last.contains("\"correct\":true") {
            return Err(format!(
                "ULP_JOBS=1 replay disagrees or failed: {last}\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(vec![deviation])
    }

    /// The campaign ledger's counters, after checking that a one-worker
    /// replay produces the same ledger (allocations are not recorded:
    /// their count depends on how the two workers interleave).
    fn counts(&self) -> Result<Counts, String> {
        let parallel = self.campaign(JOBS);
        self.check(&parallel)?;
        let serial = self.campaign(1);
        self.check(&serial)?;
        if !parallel.report.counters_recorded {
            return Err("campaign counters were not recorded".into());
        }
        if parallel.report.counters_json() != serial.report.counters_json() {
            return Err(format!(
                "counters_json differs between {JOBS} workers and 1"
            ));
        }
        Ok(crate::solver_counts(&parallel.report.counters_total()))
    }

    /// Where a die's time goes: die generation, the fresh ERC, the two
    /// workspace preps (DC solve and sweep), Newton numerics (iterations
    /// times one assembly, factorization and solve), and the rest of
    /// the DC and sweep drivers.
    fn explain(
        &self,
        v: &BTreeMap<&'static str, f64>,
        spans: &BTreeMap<&'static str, trace::Totals>,
        ops: usize,
    ) -> Vec<String> {
        let per_die = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |t| 1e3 * t.total_ms / (ops * DIES) as f64)
        };
        let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
        let die = per_die("trial");
        let generation =
            per_die("netlist.clone") + per_die("ir.sweep_point") + per_die("netlist.map_mosfets");
        let solves = per_die("dcop.solve") + per_die("sweep.dc_sweep");
        let iterations = get("newton.iters") / DIES as f64;
        let numerics =
            iterations * (get("mna.assemble_us") + get("mna.factor_us") + get("mna.solve_us"));
        let erc = get("erc.check_us");
        let prep = 2.0 * get("mna.prep_us");
        let rest = solves - numerics - erc - prep;
        let share = |x: f64| 100.0 * x / die;
        vec![format!(
            "per die {die:.1} us: generation {generation:.1} us ({:.0}%), ERC {erc:.1} us ({:.0}%), \
             workspace prep {prep:.1} us ({:.0}%), Newton numerics {iterations:.1} iterations = {numerics:.1} us ({:.0}%), \
             rest of the DC/sweep drivers {rest:.1} us ({:.0}%)",
            share(generation),
            share(erc),
            share(prep),
            share(numerics),
            share(rest)
        )]
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
