//! Golden outputs: the four sweep binaries at n = 7 must print exactly
//! the bytes checked in under `tests/golden/` (generated before the
//! sweep paths were collapsed onto the orchestrator, and kept as the
//! byte-identity contract of every later change).

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .env_remove("BNF_MAX_N")
        .env_remove("BNF_FAULT")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn sweep_binaries_reproduce_the_n7_fixtures_byte_for_byte() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_fig2_avg_poa"),
            &["--n", "7", "--csv"][..],
            "fig2_avg_poa_n7.csv",
        ),
        (
            env!("CARGO_BIN_EXE_fig3_avg_links"),
            &["--n", "7", "--csv"][..],
            "fig3_avg_links_n7.csv",
        ),
        (
            env!("CARGO_BIN_EXE_poa_bounds"),
            &["--n", "7"][..],
            "poa_bounds_n7.txt",
        ),
        (
            env!("CARGO_BIN_EXE_efficiency_scan"),
            &["--n", "7"][..],
            "efficiency_scan_n7.txt",
        ),
    ];
    for (bin, args, fixture) in cases {
        let got = stdout_of(bin, args);
        assert!(
            got == golden(fixture),
            "{bin} {args:?} differs from tests/golden/{fixture}:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
}
