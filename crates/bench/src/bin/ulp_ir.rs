//! `ulp-ir`: the full declarative pipeline over the shipped `.ulp`
//! example designs — parse → serializer round-trip → flatten → lint →
//! certify → DC solve → sweep campaign — with findings exported as
//! SARIF 2.1.0 under `results/ir/`.
//!
//! For each design (default: every `examples/*.ulp`; or the files given
//! on the command line) this:
//!
//! 1. parses the text dialect and proves the serializer is a fixed
//!    point (`parse(to_text(d)) == d`, canonical text byte-stable);
//! 2. flattens the hierarchy onto an [`ulp_spice::Netlist`];
//! 3. runs the full static lint + DC solve + post-solve audit, exactly
//!    as `ulp_lint` does for the builder netlists;
//! 4. runs the sound interval certifier and merges the certificate
//!    findings (the double-tail comparator's cross-coupled latch is
//!    honestly `unproven` — an info-level finding, not a defect);
//! 5. expands `.tech`/`.sweep` into a [`ulp_ir::SweepPlan`] and solves
//!    every point on an `ulp-exec` ensemble (worker count from
//!    `ULP_JOBS`), printing a solution digest; `--ledger-out FILE`
//!    writes the campaign cost ledgers, which are byte-identical at
//!    any `ULP_JOBS` (ci.sh proves it with `cmp`).
//!
//! The merged per-design report is written to `results/ir/<name>.sarif`
//! (two runs are byte-identical; ci.sh proves that with `cmp` too).
//! Exit is nonzero on any error-severity finding — or, under
//! `--deny-warnings`, any warning. `--check` re-parses every written
//! SARIF file with the crate's own JSON reader.

use std::path::{Path, PathBuf};
use ulp_bench::damped_newton;
use ulp_device::Technology;
use ulp_exec::Ensemble;
use ulp_ir::{flatten, parse, Design, SweepError, SweepPlan};
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::lint::{self, LintConfig};
use ulp_spice::{absint, json, sarif, ErcReport, Netlist, Severity};

/// Static lint + DC audit ([`ulp_bench::lint_and_audit`]) + interval
/// certification, merged.
fn analyze(nl: &Netlist, tech: &Technology, config: &LintConfig) -> ErcReport {
    let mut merged = ulp_bench::lint_and_audit(nl, tech, config);
    match absint::certify(nl, tech, &absint::CertifyOptions::default()) {
        Ok(cert) => {
            for d in cert.report(config).diagnostics() {
                merged.push(d.clone());
            }
        }
        Err(err) => {
            merged.push(ulp_spice::Diagnostic::new(
                Severity::Error,
                lint::rule::UNPROVEN,
                format!("certifier failed to run: {err}"),
            ));
        }
    }
    merged.sort();
    merged
}

/// Solves every sweep point on the ensemble and returns
/// `(points, digest, ledger)` — digest folds every unknown's bit
/// pattern so any cross-worker nondeterminism is visible in one u64.
fn run_sweep(design: &Design, name: &str) -> Result<(usize, u64, String), SweepError> {
    let plan = SweepPlan::build(design)?;
    let n = plan.len();
    let shared = plan.clone();
    let (results, report) = Ensemble::new(n)
        .seed(20260808)
        .label(&format!("ir-sweep-{name}"))
        .run_with_report(move |ctx: &mut ulp_exec::TrialCtx| {
            let point = shared.point(ctx.index());
            let tech = point.tech.technology();
            let op = DcOperatingPoint::solve_with(&point.netlist, &tech, &damped_newton())
                .unwrap_or_else(|e| panic!("{}: {e}", point.label()));
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for v in op.solution() {
                h = (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01b3);
            }
            h
        });
    let mut digest: u64 = 0;
    for r in results {
        digest = digest
            .rotate_left(7)
            .wrapping_add(r.expect("sweep point must solve"));
    }
    Ok((n, digest, report.counters_json()))
}

fn default_examples() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir("examples")
        .expect("run from the workspace root: examples/ not found")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "ulp")).then_some(p)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .ulp designs under examples/");
    files
}

fn main() {
    let mut deny_warnings = false;
    let mut check = false;
    let mut ledger_out: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--check" => check = true,
            "--ledger-out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--ledger-out needs a file argument");
                    std::process::exit(2);
                });
                ledger_out = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}; usage: ulp_ir [--deny-warnings] [--check] \
                     [--ledger-out FILE] [design.ulp …]"
                );
                std::process::exit(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        files = default_examples();
    }

    ulp_bench::header("IR", "declarative pipeline over the .ulp example designs");
    let tech = Technology::default();
    let config = LintConfig::try_from_env().unwrap_or_else(|err| {
        eprintln!("ulp-ir: {err}");
        std::process::exit(2);
    });
    let dir = Path::new("results/ir");
    std::fs::create_dir_all(dir).expect("create results/ir");

    let mut ledgers = String::new();
    let mut failed = false;
    for file in &files {
        let name = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "design".to_string());
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let design = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let canon = design.to_text();
        let reparsed = parse(&canon)
            .unwrap_or_else(|e| panic!("{name}: canonical text failed to re-parse: {e}"));
        assert_eq!(design, reparsed, "{name}: serializer round-trip mismatch");
        assert_eq!(canon, reparsed.to_text(), "{name}: serializer not a fixed point");

        let nl = flatten(&design).unwrap_or_else(|e| panic!("{name}: flatten: {e}"));
        let report = analyze(&nl, &tech, &config);
        let errors = report.count(Severity::Error);
        let warnings = report.count(Severity::Warning);
        let sarif_text = sarif::to_sarif(&report, &format!("examples/{name}.ulp"));
        let path = dir.join(format!("{name}.sarif"));
        std::fs::write(&path, &sarif_text).expect("write sarif");
        if check {
            let doc = json::parse_json(&sarif_text).unwrap_or_else(|e| {
                panic!("{}: emitted SARIF does not parse: {e}", path.display())
            });
            assert_eq!(
                doc.get("version").and_then(json::JsonValue::as_str),
                Some(sarif::VERSION),
                "{}: bad SARIF version",
                path.display()
            );
        }

        let sweep = match run_sweep(&design, &name) {
            Ok((n, digest, ledger)) => {
                ledgers.push_str(&format!("# {name}\n{ledger}\n"));
                format!("sweep {n:>3} pts digest {digest:016x}")
            }
            Err(SweepError::NoSweep) => "no sweep".to_string(),
            Err(e) => panic!("{name}: sweep: {e}"),
        };

        let bad = errors > 0 || (deny_warnings && warnings > 0);
        println!(
            "  {name:<18} devices {:>3}  errors {errors}  warnings {warnings}  {sweep}  -> {}",
            nl.elements().len(),
            path.display()
        );
        if bad {
            failed = true;
            println!("{report}");
        }
    }

    if let Some(path) = ledger_out {
        std::fs::write(&path, &ledgers)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        println!("  sweep ledgers -> {}", path.display());
    }
    if failed {
        eprintln!("ulp-ir: findings above the configured threshold");
        std::process::exit(1);
    }
    println!("ulp-ir: all designs parse, flatten, lint, certify and sweep");
}
