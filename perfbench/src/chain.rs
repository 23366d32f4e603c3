//! `chain-tran`: a transistor-level STSCL buffer chain at the encoder's
//! scale, simulated by the adaptive transient engine.
//!
//! The benchmark writes the circuit as `.ulp` text: one `scl_buf`
//! subcircuit (the cell of `examples/scl_buffer.ulp`) and
//! `CHAINS × DEPTH` instance cards, where each stage's output pair
//! drives the next stage's input pair. One differential pulse train
//! drives every chain. Its edges come faster than an edge traverses a
//! chain, so each chain carries up to three edges at different depths
//! while its other stages are latent. The chains switch in lockstep: they
//! share the source and differ only in their width jitter.
//!
//! The seed permutes the instance cards (real netlists are not written
//! in elimination order) and jitters each stage's pair width by ±2 %.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ulp_device::Technology;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::mna::{voltage_of, SolverKind};
use ulp_spice::netlist::Node;
use ulp_spice::telemetry::MetricsCollector;
use ulp_spice::tran::{AdaptiveOptions, Transient};
use ulp_spice::{erc, Netlist, SimError};

use crate::probe::Target;
use crate::trace::span;
use crate::{Layer, Workload};

/// Parallel chains.
pub const CHAINS: usize = 8;
/// Stages per chain: an edge takes about 2.5 µs to traverse one.
pub const DEPTH: usize = 16;
/// Designed differential swing, V.
const VSW: f64 = 0.2;
/// Stage time constant CL·VSW/ISS, s (10 fF, 0.2 V, 10 nA).
const TAU: f64 = 0.2e-6;
/// The input pulse train: first rising ramp, ramp time, the time from
/// one edge to the next, and the period (a rising and a falling edge).
const T_FIRST: f64 = 0.1e-6;
const RAMP: f64 = 20e-9;
const EDGE_SPACING: f64 = 1.2e-6;
const PERIOD: f64 = 2.0 * EDGE_SPACING;
/// Simulated window, s. The first edge traverses every chain and the
/// last stage settles; the next two are still in flight when the
/// window ends, the second about three stages short of the end.
const T_STOP: f64 = 3.4e-6;
/// Input edges that must reach the last stage within the window.
const COMPLETE_EDGES: usize = 1;
/// The last stage must reach this share of VSW after each edge.
const SWING_SHARE: f64 = 0.9;
/// Fixed step of the trapezoidal accuracy oracle, s.
const ORACLE_DT: f64 = 2e-9;

/// The input edges inside the window, at mid-ramp: `(time, rising)`.
fn input_edges() -> Vec<(f64, bool)> {
    (0usize..)
        .map(|i| {
            (
                T_FIRST + RAMP / 2.0 + i as f64 * EDGE_SPACING,
                i.is_multiple_of(2),
            )
        })
        .take_while(|e| e.0 < T_STOP)
        .collect()
}

/// The `.ulp` text of the chain. `permute` shuffles the instance cards
/// with the seed; the widths are seeded either way.
pub fn netlist_text(seed: u64, permute: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cards: Vec<(usize, usize, f64)> = Vec::with_capacity(CHAINS * DEPTH);
    for c in 0..CHAINS {
        for k in 1..=DEPTH {
            let jitter: f64 = rng.gen();
            cards.push((c, k, 1.0 + 0.02 * (2.0 * jitter - 1.0)));
        }
    }
    if permute {
        for i in (1..cards.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            cards.swap(i, j);
        }
    }
    let net = |c: usize, k: usize, pol: char| {
        if k == 0 {
            format!("in{pol}")
        } else {
            format!("c{c}s{k}{pol}")
        }
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "* chain-tran: {CHAINS} chains x {DEPTH} STSCL buffers, seed {seed}"
    );
    s.push_str(
        ".param vddv=1.0 vswv=0.2 clv=10f issv=10n\n\
         .default nmos w=1u l=0.5u\n\
         .subckt scl_buf vdd:in inp:in inn:in outp:out outn:out vsw=0.2 iss=1n cl=10f w=1u\n\
         M1 outn inp cs 0 nmos w=w\n\
         M2 outp inn cs 0 nmos w=w\n\
         ITAIL cs 0 dc iss\n\
         LP vdd outp vsw=vsw iss=iss\n\
         LN vdd outn vsw=vsw iss=iss\n\
         CLP outp 0 cl\n\
         CLN outn 0 cl\n\
         .ends\n\
         VDD vdd 0 dc vddv\n",
    );
    let width = EDGE_SPACING - RAMP;
    let _ = writeln!(
        s,
        "VINP inp 0 pulse 0.8 1.0 {T_FIRST:e} {RAMP:e} {RAMP:e} {width:e} {PERIOD:e}"
    );
    let _ = writeln!(
        s,
        "VINN inn 0 pulse 1.0 0.8 {T_FIRST:e} {RAMP:e} {RAMP:e} {width:e} {PERIOD:e}"
    );
    for (c, k, w) in cards {
        let _ = writeln!(
            s,
            "XC{c}S{k} vdd {} {} {} {} scl_buf vsw=vswv iss=issv cl=clv w={:.5}u",
            net(c, k - 1, 'p'),
            net(c, k - 1, 'n'),
            net(c, k, 'p'),
            net(c, k, 'n'),
            w
        );
    }
    s.push_str(".end\n");
    s
}

/// The damped Newton controls the transient suites use for nA-class
/// STSCL netlists.
pub fn newton() -> NewtonOptions {
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        solver: SolverKind::Sparse,
        ..NewtonOptions::default()
    }
}

/// Output nodes `(p, n)` of stage `k` of chain `c`.
fn stage_nodes(nl: &Netlist, c: usize, k: usize) -> (Node, Node) {
    let node = |pol: char| {
        nl.find_node(&format!("c{c}s{k}{pol}"))
            .expect("every stage output is a named net")
    };
    (node('p'), node('n'))
}

/// Parses and flattens `.ulp` text.
pub fn flatten_text(text: &str) -> Result<Netlist, String> {
    let design = span("ir.parse", || ulp_ir::parse(text)).map_err(|e| format!("parse: {e}"))?;
    span("ir.flatten", || ulp_ir::flatten(&design)).map_err(|e| format!("flatten: {e}"))
}

pub struct Chain {
    nl: Netlist,
    written: Netlist,
    tech: Technology,
    opts: AdaptiveOptions,
    /// `[chain][stage - 1]` output nodes `(p, n)`.
    stages: Vec<Vec<(Node, Node)>>,
    nonlinear: usize,
}

impl Chain {
    fn diff(&self, x: &[f64], c: usize, k: usize) -> f64 {
        let (p, n) = self.stages[c][k - 1];
        voltage_of(x, p) - voltage_of(x, n)
    }

    /// Zero crossings of stage `k` of chain `c`: `(time, rising)`.
    fn crossings(&self, tr: &Transient, c: usize, k: usize) -> Vec<(f64, bool)> {
        let t = tr.time();
        let mut out = Vec::new();
        let mut prev = self.diff(tr.solution(0), c, k);
        for i in 1..t.len() {
            let d = self.diff(tr.solution(i), c, k);
            if (prev < 0.0) != (d < 0.0) {
                let tc = t[i - 1] + (t[i] - t[i - 1]) * prev / (prev - d);
                out.push((tc, d >= 0.0));
            }
            prev = d;
        }
        out
    }
}

impl Workload for Chain {
    type Output = Result<Transient, SimError>;

    fn setup(seed: u64) -> Result<Self, String> {
        let text = netlist_text(seed, true);
        let nl = flatten_text(&text)?;
        let erc = span("erc.check", || erc::check(&nl));
        if !erc.is_clean() {
            return Err(format!("chain fails ERC:\n{erc}"));
        }
        let tech = Technology::default();
        let op = span("dcop.solve", || {
            DcOperatingPoint::solve_with(&nl, &tech, &newton())
        })
        .map_err(|e| format!("chain DC: {e}"))?;
        let stages: Vec<Vec<(Node, Node)>> = (0..CHAINS)
            .map(|c| (1..=DEPTH).map(|k| stage_nodes(&nl, c, k)).collect())
            .collect();
        let written = flatten_text(&netlist_text(seed, false))?;
        let mut opts = AdaptiveOptions::new(T_STOP, TAU);
        opts.newton = newton();
        let nonlinear = crate::nonlinear_count(&nl);
        let chain = Chain {
            nl,
            written,
            tech,
            opts,
            stages,
            nonlinear,
        };
        // The input pair sits low at t = 0, so every stage starts at -VSW.
        for c in 0..CHAINS {
            let d = chain.diff(op.solution(), c, DEPTH);
            if d > -SWING_SHARE * VSW {
                return Err(format!(
                    "chain {c} starts at {d:.4} V, expected about -{VSW} V"
                ));
            }
        }
        Ok(chain)
    }

    fn op(&self, mc: Option<&mut MetricsCollector>) -> Self::Output {
        span("tran.run_adaptive", || match mc {
            Some(mc) => Transient::run_adaptive_traced(&self.nl, &self.tech, &self.opts, mc),
            None => Transient::run_adaptive(&self.nl, &self.tech, &self.opts),
        })
    }

    fn check(&self, out: &Self::Output) -> Result<(), String> {
        let tr = out.as_ref().map_err(|e| format!("transient failed: {e}"))?;
        let inputs = input_edges();
        for c in 0..CHAINS {
            let mut prev = inputs.clone();
            for k in 1..=DEPTH {
                let xs = self.crossings(tr, c, k);
                // Every stage starts at -VSW, so its crossings alternate
                // rising, falling, ... and it cannot cross more often
                // than the stage before it.
                if xs.len() > prev.len()
                    || xs
                        .iter()
                        .enumerate()
                        .any(|(e, x)| x.1 != e.is_multiple_of(2))
                {
                    return Err(format!("chain {c} stage {k}: crossings {xs:?} do not follow the {} edges before it", prev.len()));
                }
                for (e, (x, p)) in xs.iter().zip(&prev).enumerate() {
                    if x.0 <= p.0 {
                        return Err(format!("chain {c} stage {k}: edge {e} crosses at {:e} s, not after stage {} at {:e} s", x.0, k - 1, p.0));
                    }
                }
                prev = xs;
            }
            if prev.len() < COMPLETE_EDGES {
                return Err(format!(
                    "chain {c}: {} edges reach the last stage, expected at least {COMPLETE_EDGES}",
                    prev.len()
                ));
            }
            // After each edge the last stage reaches the edge's rail
            // before the next edge arrives there.
            for (e, &(t0, rising)) in prev.iter().enumerate() {
                let t1 = prev.get(e + 1).map_or(f64::INFINITY, |x| x.0);
                let sign = if rising { 1.0 } else { -1.0 };
                let reached = tr
                    .time()
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t > t0 && t < t1)
                    .map(|(i, _)| sign * self.diff(tr.solution(i), c, DEPTH))
                    .fold(f64::NEG_INFINITY, f64::max);
                if reached < SWING_SHARE * VSW {
                    return Err(format!("chain {c}: after edge {e} the last stage reaches only {reached:.4} V of {VSW} V"));
                }
            }
        }
        Ok(())
    }

    fn op_layer(&self, _out: &Self::Output, mc: Option<&MetricsCollector>) -> Layer {
        mc.map(|mc| crate::counter_layer(&mc.metrics().counters(), self.nonlinear))
            .unwrap_or_default()
    }

    fn after_window(&self) -> Result<Vec<crate::Metric>, String> {
        // The oracle runs on the cards in written order: with the cards
        // permuted, the fixed-step engine on the sparse backend fails to
        // converge on most seeds (see the README).
        let last = |nl: &Netlist| -> Vec<(Node, Node)> {
            (0..CHAINS).map(|c| stage_nodes(nl, c, DEPTH)).collect()
        };
        let (mine, theirs) = (last(&self.nl), last(&self.written));
        let dev = crate::tran_dev_mv(
            (&self.nl, &mine),
            (&self.written, &theirs),
            &self.tech,
            &self.opts,
            ORACLE_DT,
        )?;
        Ok(vec![("tran_dev_mv", dev, "mV")])
    }

    fn probe_target(&self) -> Target<'_> {
        Target {
            tech: self.tech,
            tran: (&self.nl, self.opts),
            tran_is_op: true,
            written: Some(&self.written),
        }
    }
}
