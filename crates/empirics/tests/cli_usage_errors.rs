//! Typed CLI errors: a sweep command line that cannot run exits with
//! status 2 and one usage line on stderr — no panic message, no
//! backtrace — before any sweep work starts. A store that cannot be
//! opened or written exits with status 1 and one
//! `<tool>: cannot <action> atlas <path>: <reason>` line.

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

/// Runs `bin` with `args` and returns its stderr after asserting the
/// atlas-error contract: status 1, one line, no panic.
fn atlas_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("BNF_MAX_N")
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    assert_eq!(stderr.lines().count(), 1, "one error line, got:\n{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(!stderr.contains("backtrace"), "{stderr}");
    stderr
}

/// Runs `bin` with `args`, asserting success; returns stdout.
fn run_ok(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .env_remove("BNF_MAX_N")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn scratch_store(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("bnf-cli-{tag}-{}.bnfatlas", std::process::id()));
    std::fs::remove_file(&path).ok();
    path.to_str().unwrap().to_owned()
}

#[test]
fn torn_atlas_is_an_atlas_error_naming_resume() {
    let bin = env!("CARGO_BIN_EXE_fig2_avg_poa");
    let store = scratch_store("torn");
    run_ok(bin, &["--n", "5", "--atlas", &store]);
    // Two bytes of a next frame's length field: a torn tail.
    let clean = std::fs::metadata(&store).unwrap().len();
    let mut bytes = std::fs::read(&store).unwrap();
    bytes.extend_from_slice(&[1, 2]);
    std::fs::write(&store, &bytes).unwrap();

    let stderr = atlas_error(bin, &["--n", "5", "--csv", "--atlas", &store]);
    assert!(
        stderr.starts_with(&format!("fig2_avg_poa: cannot open atlas {store}: ")),
        "{stderr}"
    );
    assert!(
        stderr.contains(&format!("torn atlas tail at byte {clean}")),
        "{stderr}"
    );
    assert!(stderr.contains("re-run with --resume"), "{stderr}");

    // --resume recovers: the tail is dropped and the warm replay runs.
    let resumed = run_ok(bin, &["--n", "5", "--csv", "--atlas", &store, "--resume"]);
    assert_eq!(std::fs::metadata(&store).unwrap().len(), clean);
    assert_eq!(resumed, run_ok(bin, &["--n", "5", "--csv"]));
    std::fs::remove_file(&store).ok();
}

#[test]
fn v3_atlas_replays_but_refuses_appends_naming_atlas_compact() {
    let bin = env!("CARGO_BIN_EXE_fig2_avg_poa");
    let store = scratch_store("v3");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../atlas/tests/fixtures/v3-n6.bnfatlas"
        ),
        &store,
    )
    .unwrap();
    let before = std::fs::read(&store).unwrap();
    // The v3 store covers n = 6: a warm replay reads it as is.
    let replayed = run_ok(bin, &["--n", "6", "--csv", "--atlas", &store]);
    assert_eq!(replayed, run_ok(bin, &["--n", "6", "--csv"]));
    // n = 5 would append to it: refused before any work runs.
    let stderr = atlas_error(bin, &["--n", "5", "--atlas", &store]);
    assert!(
        stderr.starts_with(&format!("fig2_avg_poa: cannot append to atlas {store}: ")),
        "{stderr}"
    );
    assert!(stderr.contains("read-only"), "{stderr}");
    assert!(stderr.contains("atlas_compact"), "{stderr}");
    assert_eq!(
        std::fs::read(&store).unwrap(),
        before,
        "the v3 store changed"
    );
    std::fs::remove_file(&store).ok();
}
