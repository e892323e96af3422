//! Small shared helpers: a seeded generator, order statistics, a flat
//! JSON object writer, `/proc` readers and the record digest.

use std::time::Duration;

use bnf_core::WindowRecord;
use bnf_obs::json::push_json_string;

/// SplitMix64: every benchmark input is drawn from one of these, so a
/// seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A flat JSON object built field by field.
#[derive(Debug, Default)]
pub struct JsonObj(String);

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        push_json_string(&mut self.0, k);
        self.0.push(':');
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.0.push_str(&format!("{v}"));
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.0.push_str(&v.to_string());
        self
    }

    pub fn boolean(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn string(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_json_string(&mut self.0, v);
        self
    }

    /// Inserts already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds of process `pid` so far, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// 64-bit FNV-1a, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a over every record as the server renders it, in the given
/// order, one record per line — pins both the record contents and the
/// engine order of a stored catalogue.
pub fn records_digest(records: &[WindowRecord]) -> String {
    let mut h = Fnv::new();
    let mut line = String::with_capacity(256);
    for rec in records {
        line.clear();
        bnf_serve::render::push_record(&mut line, rec);
        line.push('\n');
        h.update(line.as_bytes());
    }
    h.hex()
}

/// Connected graphs on `n` unlabelled vertices (OEIS A001349).
pub fn connected_count(n: usize) -> Option<usize> {
    [1, 1, 1, 2, 6, 21, 112, 853, 11_117, 261_080, 11_716_571]
        .get(n)
        .copied()
}

/// The record digests of the complete catalogues, taken from the
/// stores the sweep binaries wrote at the commit that introduced this
/// benchmark. Classification is a pure function of the topology and the
/// served record format is frozen, so any drift is a wrong answer.
pub fn reference_digest(n: usize) -> Option<&'static str> {
    match n {
        8 => Some(DIGEST_N8),
        9 => Some(DIGEST_N9),
        _ => None,
    }
}

/// FNV-1a of the `fig2_avg_poa --n 8 --csv --grid paper` output at the
/// same commit. The reference fold renders CSV with the library's own
/// formatting, so this pin is what catches a formatting change.
pub const PAPER_CSV_DIGEST_N8: &str = "9809df888a3bcfd8";

const DIGEST_N8: &str = "d367d66d3a38ec1d";
const DIGEST_N9: &str = "a0ddc53ed8bf217d";
