//! `capacity-cli` refuses numeric flags it cannot use: a value that does
//! not parse as a finite number, or an offered load that is not
//! positive, exits 2 with a message naming the flag instead of running
//! the default or panicking inside the arrival process.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capacity-cli"))
        .args(args)
        .output()
        .expect("capacity-cli starts")
}

fn assert_refused(args: &[&str], flag: &str) {
    let out = cli(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(flag), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn unparsable_erlangs_exits_2() {
    for bad in ["abc", "4x", ""] {
        assert_refused(&["run", "--erlangs", bad], "--erlangs");
    }
    assert_refused(&["run", "--erlangs"], "--erlangs");
}

#[test]
fn non_positive_or_non_finite_erlangs_exits_2() {
    for bad in ["0", "-3", "nan", "inf", "-inf"] {
        assert_refused(&["run", "--erlangs", bad], "--erlangs");
    }
    for sub in ["farm", "policy", "scale"] {
        assert_refused(&[sub, "--erlangs", "0"], "--erlangs");
    }
}

#[test]
fn other_numeric_flags_exit_2_on_bad_values() {
    assert_refused(&["run", "--channels", "ten"], "--channels");
    assert_refused(&["run", "--window", "nan"], "--window");
    assert_refused(&["fig6", "--reps", "five"], "--reps");
}
