//! End-to-end and per-layer benchmark of the ULP-SCL simulator.
//!
//! ```text
//! perfbench --workload <chain-tran|design-check|pvt-campaign> --seed N --seconds S --trace 0|1
//! perfbench --counts --workload W --seed N
//! ```
//!
//! `--trace 0` runs a closed loop with one client for at least `S`
//! seconds and until [`MIN_OPS`] ops are kept, in blocks: each block
//! sets the workload up afresh (timed, with one checked warm-up op)
//! and then runs [`stats::BLOCK`] checked ops on it. The op latencies
//! and set-up times of the quieter half of the blocks give the
//! end-to-end metrics. `--trace 1` alternates blocks of untraced ops,
//! run by a child process of this binary, with blocks of traced ops,
//! run with the benchmark's spans and the program's `ULP_TRACE=spans`
//! profiler on; then runs the layer probe, writes a Chrome trace under
//! `perfbench/out/` and prints the per-layer metrics. `--counts` prints
//! the deterministic work counts of one op. The last stdout line of
//! every mode is one JSON object. See `perfbench/README.md`.

mod alloc;
mod campaign;
mod chain;
mod design;
mod probe;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ulp_exec::CampaignReport;
use ulp_spice::mna::voltage_of;
use ulp_spice::netlist::{Element, Node};
use ulp_spice::telemetry::{self, MetricsCollector, SolverCounters, TraceMode};
use ulp_spice::tran::{AdaptiveOptions, TranOptions, Transient};
use ulp_spice::Netlist;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Workers of the campaign workloads (the 2-vCPU reference host's
/// `nproc`).
pub const JOBS: usize = 2;
/// Fewest ops in the blocks kept by [`stats::quiet_blocks`] per run: a
/// nearest-rank p90 then has at least ten ops above it.
const MIN_OPS: usize = 100;
/// Set-ups of the traced run, whose spans give the per-layer metrics
/// of layers a workload calls only while it sets up.
const TRACED_SETUPS: usize = 3;
/// Fewest pairs of an untraced and a traced block in the traced run.
const MIN_PAIRS: usize = 10;
/// The timed window never runs past this, so a run on a slow host still
/// ends well inside three minutes.
const MAX_WINDOW: Duration = Duration::from_secs(140);
/// Spans of each kind kept for the Chrome trace. A campaign op alone
/// records about 80k profiler spans, and the program's trace reader,
/// which checks the file before it is written, takes time quadratic in
/// the event count (1.4 s for 3k events, 65 s for 24k).
const MAX_TRACE_SPANS: usize = 2_000;

/// Deterministic work counts of one op.
pub type Counts = BTreeMap<&'static str, u64>;
/// Per-layer numbers of one op.
pub type Layer = Vec<(&'static str, f64)>;
/// An end-to-end metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric of the traced run, with its unit.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("ir.parse_ms", "ms"),
    ("ir.flatten_ms", "ms"),
    ("ir.sweep_point_us", "us"),
    ("erc.check_us", "us"),
    ("lint.run_ms", "ms"),
    ("lint.audit_ms", "ms"),
    ("certify_ms", "ms"),
    ("dcop_us", "us"),
    ("sweep_us", "us"),
    ("newton.iters", "count"),
    ("newton.gmin_fallbacks", "count"),
    ("mna.prep_us", "us"),
    ("mna.assemble_us", "us"),
    ("mna.assemble_latent_us", "us"),
    ("mna.replan_us", "us"),
    ("mna.factor_us", "us"),
    ("mna.solve_us", "us"),
    ("device.mos_eval_ns", "ns"),
    ("device.load_eval_ns", "ns"),
    ("lu.symbolic", "count"),
    ("lu.refactor", "count"),
    ("tran.steps", "count"),
    ("tran.rejected", "count"),
    ("tran.accept_ratio", "ratio"),
    ("tran.bypass_ratio", "ratio"),
    ("tran.newton_per_step", "count"),
    ("tran.self_ms", "ms"),
    ("exec.trial_p50_us", "us"),
    ("exec.trial_p90_us", "us"),
    ("exec.utilization", "ratio"),
    ("exec.overhead_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("allocs_per_op", "count"),
];

/// Benchmark span names whose per-op *total* is a per-layer metric.
const SPAN_TOTALS: [(&str, &str); 5] = [
    ("ir.parse_ms", "ir.parse"),
    ("ir.flatten_ms", "ir.flatten"),
    ("lint.run_ms", "lint.run"),
    ("lint.audit_ms", "lint.audit"),
    ("certify_ms", "absint.certify"),
];
/// Benchmark span names whose mean *per call* is a per-layer metric, µs.
const SPAN_PER_CALL: [(&str, &str); 4] = [
    ("ir.sweep_point_us", "ir.sweep_point"),
    ("erc.check_us", "erc.check"),
    ("dcop_us", "dcop.solve"),
    ("sweep_us", "sweep.dc_sweep"),
];

/// One benchmark workload.
pub trait Workload: Sized {
    type Output;
    /// Whether an op runs on more than one thread.
    const THREADED: bool = false;
    /// Generates the inputs from the seed and does every one-time step
    /// before the first op: parse/flatten, first ERC, DC set-up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// One op: the program calls only. With a collector the op reads
    /// `SimMetrics` through the program's `*_traced` entry points.
    fn op(&self, mc: Option<&mut MetricsCollector>) -> Self::Output;
    /// Checks one op's output.
    fn check(&self, out: &Self::Output) -> Result<(), String>;
    /// Per-layer numbers of one (traced) op.
    fn op_layer(&self, out: &Self::Output, mc: Option<&MetricsCollector>) -> Layer;
    /// Once per run, after the timed window: end-to-end metrics that
    /// are not op timings, and whole-run checks.
    fn after_window(&self) -> Result<Vec<Metric>, String>;
    /// Deterministic work counts of one checked op: the allocations of
    /// an untraced op, then the solver counters of a traced one.
    fn counts(&self) -> Result<Counts, String> {
        let before = alloc::allocations();
        let out = self.op(None);
        let allocations = alloc::allocations() - before;
        self.check(&out)?;
        let mut mc = MetricsCollector::new(TraceMode::Summary);
        let out = self.op(Some(&mut mc));
        self.check(&out)?;
        let mut counts = solver_counts(&mc.metrics().counters());
        counts.insert("allocations_per_op", allocations);
        Ok(counts)
    }
    /// What the layer probe measures on.
    fn probe_target(&self) -> probe::Target<'_>;
    /// Workload-specific lines for the traced run's report, from the
    /// per-layer values and the per-op span totals over `ops` ops.
    fn explain(
        &self,
        _values: &BTreeMap<&'static str, f64>,
        _spans: &BTreeMap<&'static str, trace::Totals>,
        _ops: usize,
    ) -> Vec<String> {
        Vec::new()
    }
}

/// Nonlinear elements: the devices a Newton iteration evaluates.
pub fn nonlinear_count(nl: &Netlist) -> usize {
    nl.elements()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Element::Mos { .. } | Element::SclLoad { .. } | Element::Diode { .. }
            )
        })
        .count()
}

/// Newton, LU and (when the op stepped in time) transient per-layer
/// numbers from the program's counters.
pub fn counter_layer(c: &SolverCounters, nonlinear: usize) -> Layer {
    let mut layer = vec![
        ("newton.iters", c.newton_iterations as f64),
        ("newton.gmin_fallbacks", c.gmin_fallbacks as f64),
        ("lu.symbolic", c.symbolic_factorizations as f64),
        ("lu.refactor", c.numeric_refactorizations as f64),
    ];
    if c.tran_steps > 0 {
        let attempts = (c.tran_steps + c.tran_rejected) as f64;
        let evaluations = (c.newton_iterations * nonlinear.max(1)) as f64;
        layer.extend([
            ("tran.steps", c.tran_steps as f64),
            ("tran.rejected", c.tran_rejected as f64),
            ("tran.accept_ratio", c.tran_steps as f64 / attempts),
            ("tran.bypass_ratio", c.devices_bypassed as f64 / evaluations),
            (
                "tran.newton_per_step",
                c.newton_iterations as f64 / c.tran_steps as f64,
            ),
        ]);
    }
    layer
}

/// Trial-cost percentiles, worker utilization and scheduling overhead
/// of one campaign.
pub fn exec_layer(r: &CampaignReport) -> Layer {
    let workers = r.worker_utilization();
    let utilization =
        workers.iter().map(|w| w.utilization).sum::<f64>() / workers.len().max(1) as f64;
    vec![
        ("exec.trial_p50_us", r.percentile_seconds(50.0) * 1e6),
        ("exec.trial_p90_us", r.percentile_seconds(90.0) * 1e6),
        ("exec.utilization", utilization),
        (
            "exec.overhead_ms",
            (r.wall_seconds - r.total_trial_seconds() / r.jobs as f64) * 1e3,
        ),
    ]
}

/// A netlist and the differential output pairs to compare on it.
pub type Outputs<'a> = (&'a Netlist, &'a [(Node, Node)]);

/// `tran_dev_mv`: the worst deviation, mV, of the differential outputs
/// of an adaptive transient of `run` from the fixed-step trapezoidal
/// oracle (`oracle_dt` steps) the adaptive-transient suite pins the
/// engine against, run on `oracle` — the same circuit, whose cards may
/// be in another order, with the same outputs in the same order. The
/// oracle is sampled at each of its time points, the adaptive solution
/// interpolated linearly.
pub fn tran_dev_mv(
    run: Outputs<'_>,
    oracle: Outputs<'_>,
    tech: &ulp_device::Technology,
    opts: &AdaptiveOptions,
    oracle_dt: f64,
) -> Result<f64, String> {
    let adaptive = Transient::run_adaptive(run.0, tech, opts)
        .map_err(|e| format!("adaptive transient: {e}"))?;
    let oracle_opts = TranOptions {
        newton: opts.newton,
        ..TranOptions::new(opts.t_stop, oracle_dt).trapezoidal()
    };
    let reference = Transient::run(oracle.0, tech, &oracle_opts)
        .map_err(|e| format!("oracle transient: {e}"))?;
    let diff = |x: &[f64], (p, n): (Node, Node)| voltage_of(x, p) - voltage_of(x, n);
    let times = adaptive.time();
    let mut worst = 0.0f64;
    for (i, &t) in reference.time().iter().enumerate() {
        let k = times
            .partition_point(|&ti| ti < t)
            .clamp(1, times.len() - 1);
        let (t0, t1) = (times[k - 1], times[k]);
        let w = if t1 > t0 {
            ((t - t0) / (t1 - t0)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        for (&mine, &theirs) in run.1.iter().zip(oracle.1) {
            let got = (1.0 - w) * diff(adaptive.solution(k - 1), mine)
                + w * diff(adaptive.solution(k), mine);
            worst = worst.max((got - diff(reference.solution(i), theirs)).abs());
        }
    }
    Ok(worst * 1e3)
}

/// The deterministic count record of one op.
pub fn solver_counts(c: &SolverCounters) -> Counts {
    Counts::from([
        ("newton_iterations", c.newton_iterations as u64),
        ("gmin_fallbacks", c.gmin_fallbacks as u64),
        ("lu_symbolic", c.symbolic_factorizations as u64),
        ("lu_refactor", c.numeric_refactorizations as u64),
        ("tran_accepted", c.tran_steps as u64),
        ("tran_rejected", c.tran_rejected as u64),
        ("tran_lte_exceeded", c.lte_exceeded as u64),
        ("devices_bypassed", c.devices_bypassed as u64),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: bool,
    serve: bool,
}

const USAGE: &str = "usage: perfbench --workload <chain-tran|design-check|pvt-campaign> \
--seed N --seconds S --trace 0|1  |  perfbench --counts --workload W --seed N";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut counts = false;
    let mut serve = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--counts" => counts = true,
            "--serve" => serve = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if counts || serve {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        counts,
        serve,
    })
}

fn main() {
    // The program must see only the generated inputs, not knobs a
    // caller's environment happens to carry.
    for var in [
        "ULP_TRACE",
        "ULP_JOBS",
        "ULP_SOLVER",
        "ULP_LINT",
        "ULP_TRAN",
    ] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The global collector is decided once per process, before any
    // analysis touches it.
    if args.trace && !args.counts && !args.serve {
        telemetry::install_global(TraceMode::Spans);
        trace::enable();
    } else if args.counts && args.workload == "pvt-campaign" {
        telemetry::install_global(TraceMode::Summary);
    }
    let result = match args.workload.as_str() {
        "chain-tran" => run::<chain::Chain>(&args),
        "design-check" => run::<design::DesignCheck>(&args),
        "pvt-campaign" => run::<campaign::Campaign>(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(line) if line.is_empty() => {}
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run<W: Workload>(a: &Args) -> Result<String, String> {
    if a.serve {
        serve::<W>(a)
    } else if a.counts {
        counts::<W>(a)
    } else if a.trace {
        traced::<W>(a)
    } else {
        untraced::<W>(a)
    }
}

fn counts<W: Workload>(a: &Args) -> Result<String, String> {
    let w = W::setup(a.seed)?;
    let (correct, body) = match w.counts() {
        Ok(c) => {
            let fields: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            (true, format!("\"counts\":{{{}}}", fields.join(",")))
        }
        Err(e) => (
            false,
            format!(
                "\"error\":\"{}\"",
                e.replace('\\', "\\\\").replace('"', "'")
            ),
        ),
    };
    Ok(format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"correct\":{correct},{body}}}",
        a.workload, a.seed
    ))
}

/// `TRACED_SETUPS` set-ups, each followed by one untimed, checked
/// warm-up op. Returns the last set-up. `per_setup(k)` runs after
/// set-up `k` (1-based); the traced run collects the set-up's spans
/// there.
fn setups<W: Workload>(seed: u64, mut per_setup: impl FnMut(u64)) -> Result<W, String> {
    let mut last = None;
    for k in 1..=TRACED_SETUPS as u64 {
        drop(last.take());
        trace::set_op(k);
        let w = set_up::<W>(seed)?.0;
        per_setup(k);
        last = Some(w);
    }
    Ok(last.expect("TRACED_SETUPS > 0"))
}

/// One set-up and one checked warm-up op on it; returns the workload
/// and the time both took, s.
fn set_up<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let t0 = Instant::now();
    let w = W::setup(seed)?;
    let warm = w.op(None);
    let seconds = t0.elapsed().as_secs_f64();
    w.check(&warm)
        .map_err(|e| format!("warm-up op failed its check: {e}"))?;
    Ok((w, seconds))
}

/// One block of the timed window.
struct Block {
    /// Set-up and warm-up op before the block's ops, s.
    setup_s: f64,
    /// Latency of each op, s.
    latencies: Vec<f64>,
    /// Wall time of the ops and their checks, s.
    wall_s: f64,
}

fn untraced<W: Workload>(a: &Args) -> Result<String, String> {
    let window = Duration::from_secs_f64(a.seconds);
    let mut blocks: Vec<Block> = Vec::new();
    let mut allocs = Vec::new();
    let mut failed = 0usize;
    let mut last: Option<W> = None;
    alloc::reset_peak();
    let start = Instant::now();
    while (blocks.len().div_ceil(2) * stats::BLOCK < MIN_OPS || start.elapsed() < window)
        && start.elapsed() < MAX_WINDOW
    {
        // Drop the previous set-up first so each one starts from the
        // same heap.
        drop(last.take());
        let (w, setup_s) = set_up::<W>(a.seed)?;
        let mut latencies = Vec::with_capacity(stats::BLOCK);
        let b0 = Instant::now();
        for _ in 0..stats::BLOCK {
            let a0 = alloc::allocations();
            let t0 = Instant::now();
            let out = w.op(None);
            latencies.push(t0.elapsed().as_secs_f64());
            allocs.push((alloc::allocations() - a0) as f64);
            if let Err(e) = w.check(&out) {
                if failed == 0 {
                    eprintln!("perfbench: op {} failed: {e}", allocs.len());
                }
                failed += 1;
            }
        }
        blocks.push(Block {
            setup_s,
            latencies,
            wall_s: b0.elapsed().as_secs_f64(),
        });
        last = Some(w);
    }
    let peak_mb = alloc::peak() as f64 / 1e6;
    let w = last.expect("the window runs at least one block");
    let mut correct = failed == 0;
    let extra = match w.after_window() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            correct = false;
            Vec::new()
        }
    };
    let block_medians: Vec<f64> = blocks.iter().map(|b| stats::median(&b.latencies)).collect();
    let kept = stats::quiet_blocks(&block_medians);
    let ms: Vec<f64> = kept
        .iter()
        .flat_map(|&i| blocks[i].latencies.iter().map(|s| s * 1e3))
        .collect();
    let setups: Vec<f64> = kept.iter().map(|&i| blocks[i].setup_s).collect();
    let kept_wall: f64 = kept.iter().map(|&i| blocks[i].wall_s).sum();
    let p90 = stats::percentile(&ms, 90.0);
    let mut metrics: Vec<Metric> = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("op_p50_ms", stats::median(&ms), "ms"),
        ("op_p90_ms", p90, "ms"),
        ("ops_per_s", ms.len() as f64 / kept_wall, "1/s"),
        ("peak_heap_mb", peak_mb, "MB"),
    ];
    metrics.extend(extra);
    let attempted = allocs.len();
    println!(
        "# {} seed {}: {} blocks of a set-up and {} ops in {:.2} s, {failed} of {attempted} ops failed; \
         figures from the quieter half: {} blocks, {} ops, {} above p90",
        a.workload,
        a.seed,
        blocks.len(),
        stats::BLOCK,
        start.elapsed().as_secs_f64(),
        kept.len(),
        ms.len(),
        stats::count_above(&ms, p90)
    );
    let block_ms: Vec<String> = block_medians
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    println!("# block medians, ms, in run order: {}", block_ms.join(" "));
    println!("# allocs_per_op {}", stats::median(&allocs));
    for (name, value, unit) in &metrics {
        println!("# {name} {value} {unit}");
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.1.is_finite())
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let correct = correct && metrics.iter().all(|m| m.1.is_finite());
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// `--serve`: sets the workload up untraced, prints `ready`, then for
/// every line `n` on stdin runs `n` checked ops and prints one line:
/// their latencies (s), `|`, their allocation counts, `|`, the number
/// that failed. Ends at end of input.
fn serve<W: Workload>(a: &Args) -> Result<String, String> {
    let w = set_up::<W>(a.seed)?.0;
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| format!("serve: {e}");
    writeln!(out, "ready").map_err(io)?;
    out.flush().map_err(io)?;
    for line in std::io::stdin().lock().lines() {
        let n: usize = line
            .map_err(io)?
            .trim()
            .parse()
            .map_err(|e| format!("serve: op count: {e}"))?;
        let (mut lat, mut allocs, mut failed) = (Vec::new(), Vec::new(), 0);
        for _ in 0..n {
            let a0 = alloc::allocations();
            let t0 = Instant::now();
            let o = w.op(None);
            lat.push(t0.elapsed().as_secs_f64().to_string());
            allocs.push((alloc::allocations() - a0).to_string());
            failed += usize::from(w.check(&o).is_err());
        }
        writeln!(out, "{} | {} | {failed}", lat.join(" "), allocs.join(" ")).map_err(io)?;
        out.flush().map_err(io)?;
    }
    Ok(String::new())
}

/// Restricts this thread, and the threads and processes it starts from
/// now on, to the CPU it is running on. Best effort: nothing changes if
/// a call fails.
fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return;
    };
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread, and `mask` is a live buffer
    // of exactly `size_of_val(&mask)` bytes that the call only reads.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// A `--serve` child of this binary: the untraced side of the traced
/// run. Dropping it kills the child and waits for it.
struct Server {
    child: Child,
    input: ChildStdin,
    output: BufReader<ChildStdout>,
}

impl Server {
    fn start(a: &Args) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "--serve",
                "--workload",
                &a.workload,
                "--seed",
                &a.seed.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the untraced side: {e}"))?;
        let input = child.stdin.take().expect("stdin is piped");
        let output = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            input,
            output,
        };
        let ready = server.line()?;
        if ready.trim() != "ready" {
            return Err(format!("untraced side did not start: {ready:?}"));
        }
        Ok(server)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.output.read_line(&mut line) {
            Ok(0) => Err("untraced side ended early".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("untraced side: {e}")),
        }
    }

    /// Runs `n` untraced ops; returns their latencies (ms), allocation
    /// counts and the number that failed.
    fn block(&mut self, n: usize) -> Result<(Vec<f64>, Vec<f64>, usize), String> {
        writeln!(self.input, "{n}").map_err(|e| format!("untraced side: {e}"))?;
        let line = self.line()?;
        let mut parts = line.trim().split(" | ");
        let mut numbers = || -> Vec<f64> {
            parts
                .next()
                .unwrap_or("")
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        };
        let ms: Vec<f64> = numbers().iter().map(|s| s * 1e3).collect();
        let allocs = numbers();
        let failed = numbers().first().copied().unwrap_or(f64::NAN);
        if ms.len() != n || allocs.len() != n || !failed.is_finite() {
            return Err(format!("untraced side answered {line:?}"));
        }
        Ok((ms, allocs, failed as usize))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Median over ops of each key's value.
fn medians(per_op: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in per_op {
        for (k, v) in op {
            all.entry(k).or_default().push(*v);
        }
    }
    all.into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

/// Per-layer values of one op (or one set-up) from its benchmark spans.
fn span_values(totals: &BTreeMap<&'static str, trace::Totals>) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    for (metric, name) in SPAN_TOTALS {
        if let Some(t) = totals.get(name) {
            v.insert(metric, t.total_ms);
        }
    }
    for (metric, name) in SPAN_PER_CALL {
        if let Some(t) = totals.get(name) {
            v.insert(metric, 1e3 * t.total_ms / t.calls as f64);
        }
    }
    v
}

fn traced<W: Workload>(a: &Args) -> Result<String, String> {
    // Both sides of a pair must run on the same CPU: on a shared host
    // one vCPU can be contended while the other is not, and the two
    // processes would otherwise be placed apart. A campaign spreads its
    // workers over every CPU in both processes alike.
    if !W::THREADED {
        pin_to_current_cpu();
    }
    let mut server = Server::start(a)?;
    let mut kept: Vec<trace::Span> = Vec::new();
    let mut setup_values = Vec::new();
    let w = setups::<W>(a.seed, |k| {
        let spans = trace::take();
        setup_values.push(span_values(&trace::totals(&spans)));
        if k == 1 {
            kept.extend(spans);
        }
        telemetry::take_spans();
        telemetry::take_events();
    })?;
    kept.truncate(MAX_TRACE_SPANS / 2);
    let mut program_spans = Vec::new();

    // Blocks of untraced ops (in the child) and traced ops (here)
    // alternate, first one side and then the other, so each pair sees
    // the same host.
    let window = Duration::from_secs_f64(a.seconds);
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut allocs: Vec<f64> = Vec::new();
    let mut op_values = Vec::new();
    let mut op_layers = Vec::new();
    let mut op_totals: BTreeMap<&'static str, trace::Totals> = BTreeMap::new();
    let mut n_ops = 0usize;
    let mut failed = 0usize;
    let start = Instant::now();
    while (pairs.len() < MIN_PAIRS || start.elapsed() < window) && start.elapsed() < MAX_WINDOW {
        let untraced = if pairs.len().is_multiple_of(2) {
            Some(server.block(stats::BLOCK)?)
        } else {
            None
        };
        let mut traced = Vec::with_capacity(stats::BLOCK);
        for _ in 0..stats::BLOCK {
            n_ops += 1;
            let op_id = (TRACED_SETUPS + n_ops) as u64;
            trace::set_op(op_id);
            let mut mc = MetricsCollector::new(TraceMode::Spans);
            let t0 = Instant::now();
            let out = w.op(Some(&mut mc));
            traced.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = w.check(&out) {
                eprintln!("perfbench: traced op {op_id} failed: {e}");
                failed += 1;
            }
            op_layers.push(
                w.op_layer(&out, Some(&mc))
                    .into_iter()
                    .collect::<BTreeMap<_, _>>(),
            );
            let spans = trace::take();
            let totals = trace::totals(&spans);
            op_values.push(span_values(&totals));
            for (k, t) in totals {
                let e = op_totals.entry(k).or_default();
                e.calls += t.calls;
                e.total_ms += t.total_ms;
                e.self_ms += t.self_ms;
            }
            let global = telemetry::take_spans();
            telemetry::take_events();
            // Keep the start of the first op for the Chrome trace.
            if n_ops == 1 {
                kept.extend(spans);
                kept.truncate(MAX_TRACE_SPANS);
                program_spans.extend(mc.take_spans());
                program_spans.extend(global);
                program_spans.truncate(MAX_TRACE_SPANS);
            }
        }
        let (u_ms, u_allocs, u_failed) = match untraced {
            Some(u) => u,
            None => server.block(stats::BLOCK)?,
        };
        allocs.extend(u_allocs);
        failed += u_failed;
        pairs.push((stats::median(&u_ms), stats::median(&traced)));
    }
    drop(server);
    let attempted = 2 * n_ops;
    let overhead: Vec<f64> = pairs.iter().map(|(u, t)| 100.0 * (t / u - 1.0)).collect();

    let probe::Probe {
        values: probed,
        stand_ins,
        lines,
    } = probe::run(&w.probe_target())?;
    let mut values = medians(&setup_values);
    values.extend(medians(&op_values));
    values.extend(medians(&op_layers));
    values.insert("telemetry.overhead_pct", stats::median(&overhead));
    values.insert("allocs_per_op", stats::median(&allocs));
    for (k, v) in probed {
        values.entry(k).or_insert(v);
    }
    let mut stood_in = Vec::new();
    for (k, v) in stand_ins {
        if let std::collections::btree_map::Entry::Vacant(e) = values.entry(k) {
            e.insert(v);
            stood_in.push(k);
        }
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# {} seed {}: {n_ops} traced ops in {} pairs of an untraced and a traced block; \
         traced/untraced block medians differ by {:.2} % (median pair)",
        a.workload,
        a.seed,
        pairs.len(),
        stats::median(&overhead)
    );
    let _ = writeln!(
        report,
        "# per-layer self time per op (benchmark spans; share of all self time):"
    );
    let _ = writeln!(
        report,
        "#   {:<24} {:>10} {:>12} {:>12} {:>7}",
        "span", "calls/op", "total ms", "self ms", "share"
    );
    let all_self: f64 = op_totals.values().map(|t| t.self_ms).sum();
    for (name, t) in &op_totals {
        let n = n_ops as f64;
        let _ = writeln!(
            report,
            "#   {name:<24} {:>10.1} {:>12.3} {:>12.3} {:>6.1}%",
            t.calls as f64 / n,
            t.total_ms / n,
            t.self_ms / n,
            100.0 * t.self_ms / all_self
        );
    }
    for line in lines.iter().chain(&w.explain(&values, &op_totals, n_ops)) {
        let _ = writeln!(report, "# {line}");
    }
    let _ = writeln!(
        report,
        "# program profiler: {} spans kept",
        program_spans.len()
    );
    print!("{report}");

    let path = write_chrome_trace(a, &kept, &program_spans)?;
    println!("# chrome trace -> {path}");

    let mut metrics: Vec<Metric> = Vec::new();
    for (name, unit) in LAYER_METRICS {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let note = if stood_in.contains(&name) {
            "  (stand-in: the workload never calls this layer; see the README)"
        } else {
            ""
        };
        println!("# {name} {value} {unit}{note}");
        metrics.push((name, value, unit));
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Writes the benchmark spans (pid 2) and the program's profiler spans
/// (pid 1) as one Chrome trace, checked with the program's own reader.
fn write_chrome_trace(
    a: &Args,
    spans: &[trace::Span],
    program: &[telemetry::SpanEvent],
) -> Result<String, String> {
    let mut events = trace::chrome_events(spans);
    events.extend(program.iter().map(telemetry::SpanEvent::to_chrome_json));
    let doc = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    );
    telemetry::validate_chrome_trace(&doc)
        .map_err(|e| format!("chrome trace is malformed: {e}"))?;
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", a.workload, a.seed));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
