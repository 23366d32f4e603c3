//! `ulp-certify`: sound interval certification of every builder
//! netlist, exported as one merged SARIF 2.1.0 report plus Prometheus
//! counters under `results/lint/`.
//!
//! For each shipped builder circuit this runs the abstract interpreter
//! ([`ulp_spice::absint::certify`]) over the qualification PVT/mismatch
//! box (all process corners, 233.15–358.15 K, ±6σ mismatch) and prints
//! the certificate:
//!
//! * `proved-nonsingular` — no die in the box can hit a singular MNA
//!   system, with the strongest proof method any corner needed;
//! * `proved-infeasible` — some spec is violated over the *entire* box;
//! * `unproven` — the box is too wide for the proof chain (absence of
//!   proof is not a defect, but `--deny-unproven` makes it fatal for
//!   the builder netlists, which are all expected to certify).
//!
//! The per-netlist findings (certificates plus the interval variants of
//! the electrical lints) are merged — each message prefixed with its
//! netlist name — into `results/lint/certify.sarif`. Certification
//! counts are exposed as `ulp_certified_total` /
//! `ulp_certify_unproven_total` in `results/lint/certify.prom`,
//! validated through the crate's own Prometheus reader. `--check`
//! re-parses the SARIF with the crate's own JSON reader. Output is
//! deterministic: two runs produce byte-identical files.

use std::path::Path;
use std::time::Instant;
use ulp_bench::netlists::builder_netlists;
use ulp_device::Technology;
use ulp_spice::absint::{self, CertifyOptions, Verdict};
use ulp_spice::lint::LintConfig;
use ulp_spice::registry::{self, Registry};
use ulp_spice::{json, sarif, ErcReport, Severity};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_unproven = args.iter().any(|a| a == "--deny-unproven");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--deny-unproven" && *a != "--check")
    {
        eprintln!("unknown flag {bad}; usage: ulp_certify [--deny-unproven] [--check]");
        std::process::exit(2);
    }

    ulp_bench::header("CERTIFY", "interval certification of all builder netlists");
    let tech = Technology::default();
    // A set-but-broken ULP_LINT is a configuration error, not something
    // to certify through silently: name the bad key and stop.
    let config = LintConfig::try_from_env().unwrap_or_else(|err| {
        eprintln!("ulp-certify: {err}");
        std::process::exit(2);
    });
    let opts = CertifyOptions::default();
    let dir = Path::new("results/lint");
    std::fs::create_dir_all(dir).expect("create results/lint");

    let mut reg = Registry::new();
    // Register both counters up front so the exposition is complete
    // (and byte-stable) even when one of them never fires.
    reg.counter_add("ulp_certified_total", 0);
    reg.counter_add("ulp_certify_unproven_total", 0);

    let mut merged = ErcReport::new();
    let mut failed = false;
    let total = Instant::now();
    for (name, nl) in builder_netlists(&tech) {
        let t0 = Instant::now();
        let cert = match absint::certify(&nl, &tech, &opts) {
            Ok(cert) => cert,
            Err(err) => {
                eprintln!("ulp-certify: {name}: {err}");
                std::process::exit(1);
            }
        };
        let elapsed = t0.elapsed();
        let verdict = match cert.verdict() {
            Verdict::ProvedNonsingular { method } => {
                reg.counter_add("ulp_certified_total", 1);
                format!("proved-nonsingular ({method})")
            }
            Verdict::Unproven { corner } => {
                reg.counter_add("ulp_certify_unproven_total", 1);
                if deny_unproven {
                    failed = true;
                }
                format!("unproven (at {corner:?} corner)")
            }
        };
        let infeasible = cert.proved_infeasible();
        let report = cert.report(&config);
        let errors = report.count(Severity::Error);
        if errors > 0 {
            failed = true;
        }
        for d in report.diagnostics() {
            let mut d = d.clone();
            d.message = format!("{name}: {}", d.message);
            merged.push(d);
        }
        println!(
            "  {name:<22} {verdict:<42} findings {:>2}  {:>6.1} ms{}",
            report.diagnostics().len(),
            elapsed.as_secs_f64() * 1e3,
            if infeasible { "  PROVED-INFEASIBLE" } else { "" },
        );
    }
    merged.sort();

    let sarif_text = sarif::to_sarif(&merged, "netlists/builders");
    let sarif_path = dir.join("certify.sarif");
    std::fs::write(&sarif_path, &sarif_text).expect("write certify.sarif");
    if check {
        let doc = json::parse_json(&sarif_text).unwrap_or_else(|e| {
            panic!("{}: emitted SARIF does not parse: {e}", sarif_path.display())
        });
        assert_eq!(
            doc.get("version").and_then(json::JsonValue::as_str),
            Some(sarif::VERSION),
            "{}: bad SARIF version",
            sarif_path.display()
        );
    }

    let prom = reg.render_prometheus();
    registry::validate_prometheus(&prom).unwrap_or_else(|e| {
        panic!("certify.prom failed Prometheus validation: {e}");
    });
    let prom_path = dir.join("certify.prom");
    std::fs::write(&prom_path, &prom).expect("write certify.prom");

    println!(
        "  total {:.1} ms  -> {}  {}",
        total.elapsed().as_secs_f64() * 1e3,
        sarif_path.display(),
        prom_path.display()
    );
    if failed {
        eprintln!("ulp-certify: findings above the configured threshold");
        std::process::exit(1);
    }
    println!("ulp-certify: all builder netlists certified");
}
