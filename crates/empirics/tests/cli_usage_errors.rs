//! Typed CLI errors: a sweep command line that cannot run exits with
//! status 2 and one usage line on stderr — no panic message, no
//! backtrace — before any sweep work starts.

use std::process::Command;

/// Runs `bin` with `args` and returns its stderr after asserting the
/// usage-error contract.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("BNF_MAX_N")
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    assert_eq!(stderr.lines().count(), 1, "one usage line, got:\n{stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(!stderr.contains("backtrace"), "{stderr}");
    stderr
}

const SWEEP_BINS: [&str; 4] = [
    env!("CARGO_BIN_EXE_fig2_avg_poa"),
    env!("CARGO_BIN_EXE_fig3_avg_links"),
    env!("CARGO_BIN_EXE_poa_bounds"),
    env!("CARGO_BIN_EXE_efficiency_scan"),
];

#[test]
fn order_beyond_the_max_n_opt_in_is_a_usage_error() {
    for bin in SWEEP_BINS {
        let stderr = usage_error(bin, &["--n", "9"]);
        assert!(stderr.contains("set BNF_MAX_N"), "{stderr}");
    }
}

#[test]
fn shard_with_shards_is_a_usage_error() {
    let atlas = std::env::temp_dir().join(format!("bnf-usage-{}.bnfatlas", std::process::id()));
    let atlas = atlas.to_str().unwrap();
    for bin in SWEEP_BINS {
        let stderr = usage_error(
            bin,
            &[
                "--n", "5", "--shard", "0/2", "--shards", "4", "--atlas", atlas,
            ],
        );
        assert!(stderr.contains("mutually exclusive"), "{stderr}");
    }
    assert!(
        !std::path::Path::new(atlas).exists(),
        "the check must run before the store is opened"
    );
}

#[test]
fn resume_without_atlas_is_a_usage_error() {
    for bin in SWEEP_BINS {
        let stderr = usage_error(bin, &["--n", "5", "--resume"]);
        assert!(stderr.contains("pass --atlas"), "{stderr}");
    }
}

#[test]
fn oversized_partition_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_fig2_avg_poa");
    let stderr = usage_error(bin, &["--n", "5", "--shards", "2000000"]);
    assert!(stderr.contains("at most"), "{stderr}");
    let stderr = usage_error(
        bin,
        &["--n", "5", "--shard", "0/100000", "--atlas", "unused"],
    );
    assert!(stderr.contains("at most"), "{stderr}");
}

#[test]
fn non_numeric_order_is_a_usage_error() {
    for bin in SWEEP_BINS {
        let stderr = usage_error(bin, &["--n", "seven"]);
        assert!(stderr.contains("--n wants a number"), "{stderr}");
    }
}

#[test]
fn non_numeric_threads_is_a_usage_error() {
    for bin in SWEEP_BINS {
        let stderr = usage_error(bin, &["--n", "5", "--threads", "-1"]);
        assert!(stderr.contains("--threads wants a number"), "{stderr}");
    }
}

#[test]
fn malformed_grid_is_a_usage_error() {
    for bin in SWEEP_BINS {
        let stderr = usage_error(bin, &["--n", "5", "--grid", "linear:1:2"]);
        assert!(stderr.contains("bad --grid"), "{stderr}");
    }
}
