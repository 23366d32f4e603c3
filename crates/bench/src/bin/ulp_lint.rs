//! `ulp-lint`: design-lint every transistor-level builder netlist and
//! export the findings as SARIF 2.1.0 under `results/lint/`.
//!
//! For each shipped builder circuit — the STSCL buffer across the
//! paper's bias range, the replica-biased buffer, and the ADC front-end
//! pre-amplifier in both well configurations — this runs
//! [`ulp_bench::lint_and_audit`]:
//!
//! 1. the full static lint ([`ulp_spice::lint::run_ctx`]): topology ERC
//!    plus the EKV electrical rules (weak inversion, swing
//!    compatibility, VDD headroom at PVT corners, mismatch budget) and
//!    the RC-vs-timestep numerics rule;
//! 2. a DC operating-point solve followed by the post-solve audit
//!    ([`ulp_spice::lint::audit`]): operating-region violations and
//!    near-singular MNA detection.
//!
//! The merged report is written to `results/lint/<name>.sarif`. Exit is
//! nonzero if any netlist has error-severity findings — or, under
//! `--deny-warnings` (the CI configuration), any warning at all.
//! `--check` re-parses every written SARIF file with the crate's own
//! JSON reader, so CI also proves the exports are well-formed.

use std::path::Path;
use ulp_bench::netlists::builder_netlists;
use ulp_device::Technology;
use ulp_spice::lint::LintConfig;
use ulp_spice::{json, sarif, Severity};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--deny-warnings" && *a != "--check")
    {
        eprintln!("unknown flag {bad}; usage: ulp_lint [--deny-warnings] [--check]");
        std::process::exit(2);
    }

    ulp_bench::header("LINT", "design lints over all builder netlists");
    let tech = Technology::default();
    // A set-but-broken ULP_LINT is a configuration error, not something
    // to lint through silently: name the bad key and stop.
    let config = LintConfig::try_from_env().unwrap_or_else(|err| {
        eprintln!("ulp-lint: {err}");
        std::process::exit(2);
    });
    let dir = Path::new("results/lint");
    std::fs::create_dir_all(dir).expect("create results/lint");

    let mut failed = false;
    for (name, nl) in builder_netlists(&tech) {
        let report = ulp_bench::lint_and_audit(&nl, &tech, &config);
        let errors = report.count(Severity::Error);
        let warnings = report.count(Severity::Warning);
        let sarif_text = sarif::to_sarif(&report, &format!("netlists/{name}"));
        let path = dir.join(format!("{name}.sarif"));
        std::fs::write(&path, &sarif_text).expect("write sarif");
        if check {
            let doc = json::parse_json(&sarif_text)
                .unwrap_or_else(|e| panic!("{}: emitted SARIF does not parse: {e}", path.display()));
            assert_eq!(
                doc.get("version").and_then(json::JsonValue::as_str),
                Some(sarif::VERSION),
                "{}: bad SARIF version",
                path.display()
            );
        }
        let bad = errors > 0 || (deny_warnings && warnings > 0);
        println!(
            "  {name:<22} errors {errors}  warnings {warnings}  -> {}",
            path.display()
        );
        if bad {
            failed = true;
            println!("{report}");
        }
    }

    if failed {
        eprintln!("ulp-lint: findings above the configured threshold");
        std::process::exit(1);
    }
    println!("ulp-lint: all builder netlists clean");
}
