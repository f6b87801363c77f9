//! `capacity-cli --seed` takes the full u64 range: neighbouring seeds above
//! 2^53 (where an f64 can no longer tell them apart) run different
//! simulations, and a seed that is not an unsigned integer is refused.

use capacity::experiment::RunResult;
use std::process::{Command, Output};

fn cli(seed: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capacity-cli"))
        .args(["run", "--erlangs", "2", "--channels", "4", "--holding", "5"])
        .args(["--window", "10", "--json", "--seed", seed])
        .output()
        .expect("capacity-cli starts")
}

/// The physics digest of one small run (the JSON also carries wall-clock
/// fields, which differ between any two runs).
fn digest(seed: &str) -> u64 {
    let out = cli(seed);
    assert!(out.status.success(), "seed {seed}: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 JSON");
    let result: RunResult = serde_json::from_str(&text).expect("run prints a RunResult");
    assert!(result.attempted > 0, "seed {seed} placed calls");
    result.digest()
}

#[test]
fn seeds_above_2_pow_53_stay_distinct() {
    // 2^53 + 1 rounds to 2^53 as an f64.
    let odd = digest("9007199254740993");
    let even = digest("9007199254740992");
    assert_eq!(odd, digest("9007199254740993"), "same seed, same run");
    assert_ne!(odd, even, "neighbouring seeds ran the same simulation");
}

#[test]
fn unparsable_seed_exits_2() {
    for bad in ["12x", "-1", "1e3", "18446744073709551616"] {
        let out = cli(bad);
        assert_eq!(out.status.code(), Some(2), "--seed {bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--seed"), "--seed {bad}: {err}");
        assert!(out.stdout.is_empty(), "--seed {bad} ran anyway");
    }
}
