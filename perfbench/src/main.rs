//! Helper binary of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench check --store S --n N --grid SPEC --csv FILE
//! perfbench digest --store S --n N
//! perfbench loadgen --addr HOST:PORT --store S --seed K --server-pid PID --seconds S
//! perfbench layers --workload W --seed K --grid SPEC --out DIR
//! perfbench atlas-open --store S --order N
//! ```
//!
//! `check` verifies a sweep's store and CSV, `loadgen` drives a running
//! `bnf_serve` open-loop and checks every body, `layers` is the traced
//! per-layer run. Each prints one JSON line; exit code 1 means a wrong
//! output, 2 a usage or I/O error.

mod check;
mod layers;
mod loadgen;
mod trace;
mod util;

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;

use util::JsonObj;

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name} wants a number, got {raw:?}"))
}

/// Order of the store `serve_mixed` serves.
const SERVE_ORDER: usize = 8;
/// Offered rate of the reference rung, well below saturation, and the
/// share of `--seconds` it runs; each climbing rung runs `RUNG_SHARE`.
const REFERENCE_RATE: f64 = 150.0;
const REFERENCE_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.1;
/// The climbing rungs start here and grow geometrically with no fixed
/// top, so a faster server reads as faster instead of as the top rung.
const LADDER_START: f64 = 600.0;
const LADDER_STEP: f64 = 1.2;
/// A safety stop near 600 × 1.2^29 ≈ 120 000/s, far above what two
/// blocking connections can drive. A ladder that passes its last rung
/// has not found the server's limit and is reported as unresolved.
const LADDER_MAX_RUNGS: u32 = 30;
/// A rung passes when its p99 latency and the median send lag over its
/// last tenth (a growing backlog) are both within this limit. It is
/// loose enough that neither a grid request's queueing nor a stall of a
/// shared host breaches it, so the crossing tracks saturation.
const P99_LIMIT_US: f64 = 200_000.0;

/// Runs the ladder over about `--seconds`: the reference rung, then
/// climbing rungs until two in a row fail, so one transient stall of the
/// host does not end it early. Each rung goes over two fresh keep-alive
/// connections and reports the server's CPU seconds.
fn loadgen_cmd(args: &[String]) -> Result<bool, String> {
    let addr: SocketAddr = number(args, "--addr")?;
    let store = flag(args, "--store")?;
    let seed: u64 = number(args, "--seed")?;
    let server_pid: u32 = number(args, "--server-pid")?;
    let seconds: f64 = number(args, "--seconds")?;
    let server_cpu_s =
        || util::process_cpu_s(server_pid).ok_or(format!("no CPU time for pid {server_pid}"));
    let rung_s = RUNG_SHARE * seconds;
    let rungs = std::iter::once((REFERENCE_RATE, REFERENCE_SHARE * seconds)).chain(
        (0..LADDER_MAX_RUNGS)
            .map(|k| ((LADDER_START * LADDER_STEP.powi(k as i32)).round(), rung_s)),
    );
    let records = check::load_catalogue(&store, SERVE_ORDER)?;
    let mut mix = loadgen::Mix::new(SERVE_ORDER, records);
    let mut rungs_json = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut failing_in_a_row = 0;
    let mut last_passed = false;
    for (k, (rate, secs)) in rungs.enumerate() {
        let plan = mix.plan_mix(
            (rate * secs).round() as usize,
            &mut util::Rng::new(seed, 0x6c61_6464_6572 + k as u64),
        );
        let cpu_before = server_cpu_s()?;
        let started = Instant::now();
        let (samples, errs) = loadgen::run_open_loop(addr, &plan, rate);
        let wall = started.elapsed().as_secs_f64();
        let cpu = server_cpu_s()? - cpu_before;
        attempted += samples.len() as u64;
        failed += samples.iter().filter(|s| !s.ok).count() as u64;
        errors.extend(errs);
        let summary = loadgen::summarize(&samples);
        let pass = summary.failed == 0
            && summary.p99_us <= P99_LIMIT_US
            && summary.end_lag_us <= P99_LIMIT_US;
        let mut obj = summary.to_json(rate, secs, wall);
        obj.boolean("pass", pass).num("server_cpu_s", cpu);
        rungs_json.push(obj.finish());
        last_passed = pass;
        failing_in_a_row = if pass { 0 } else { failing_in_a_row + 1 };
        if k > 0 && failing_in_a_row == 2 {
            break;
        }
    }
    let mut errs = String::from("[");
    for (i, e) in errors.iter().take(8).enumerate() {
        if i > 0 {
            errs.push(',');
        }
        bnf_obs::json::push_json_string(&mut errs, e);
    }
    errs.push(']');
    println!(
        "{}",
        JsonObj::new()
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("errors", &errs)
            .raw("rungs", &format!("[{}]", rungs_json.join(",")))
            .num("p99_limit_us", P99_LIMIT_US)
            .boolean("resolved", !last_passed)
            .finish()
    );
    Ok(failed == 0)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("check") => check::run(
            &flag(rest, "--store")?,
            number(rest, "--n")?,
            &flag(rest, "--grid")?,
            &flag(rest, "--csv")?,
        ),
        Some("digest") => {
            let records = check::load_catalogue(&flag(rest, "--store")?, number(rest, "--n")?)?;
            println!("{}", util::records_digest(&records));
            Ok(true)
        }
        Some("loadgen") => loadgen_cmd(rest),
        Some("layers") => layers::run(
            &flag(rest, "--workload")?,
            number(rest, "--seed")?,
            &flag(rest, "--grid")?,
            std::path::Path::new(&flag(rest, "--out")?),
        ),
        Some("atlas-open") => {
            layers::atlas_open(&flag(rest, "--store")?, number(rest, "--order")?).map(|()| true)
        }
        _ => Err("usage: perfbench check|digest|loadgen|layers|atlas-open ...".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
