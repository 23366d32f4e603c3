//! The deterministic count record: two runs at the committed seed give
//! identical counts, and a second seed passes the same checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The seed `perfbench/counts.jsonl` records.
const COMMITTED_SEED: u64 = 1;
const SECOND_SEED: u64 = 2;

fn counts(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--counts",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    text.lines().last().expect("a result line").to_string()
}

#[test]
fn counts_repeat_exactly_and_a_second_seed_passes() {
    for workload in ["chain-tran", "design-check", "pvt-campaign"] {
        let first = counts(workload, COMMITTED_SEED);
        assert!(first.contains("\"correct\":true"), "{first}");
        let again = counts(workload, COMMITTED_SEED);
        assert_eq!(first, again, "{workload}: counts differ between two runs");
        let other = counts(workload, SECOND_SEED);
        assert!(
            other.contains("\"correct\":true"),
            "{workload} seed {SECOND_SEED}: {other}"
        );
    }
}
