//! The `serve_mixed` request mix and the open-loop load generator.
//!
//! Every request is planned up front from the seed together with the
//! exact body the server must answer, derived without the server's read
//! path: stored records come from the append-order store through the
//! buffered reader (the server reads the compacted store through its
//! index), live records are classified here, and grid bodies are a local
//! `grid::evaluate` fold rendered as the server renders them.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bnf_core::WindowRecord;
use bnf_empirics::grid::{self, GridSpec};
use bnf_empirics::sweep::WindowSweep;
use bnf_games::GameKind;
use bnf_graph::Graph;
use bnf_obs::json::push_json_string;
use bnf_serve::{percent_encode, render, MiniClient};

use crate::util::{nanos, quantile, JsonObj, Rng};

/// What a planned request exercises on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    /// `/classify` of a stored canonical key: one index lookup.
    ClassifyHit,
    /// `/classify` of a stored graph under a random labelling: a miss,
    /// canonicalization, then a lookup.
    ClassifyRelabel,
    /// `/classify` of an order-7 graph, which the order-8 store lacks:
    /// canonicalization plus live classification.
    ClassifyLive,
    /// `/record/{i}`: one engine-order table read.
    Record,
    /// `/grid?spec=paper`, warmed at start-up and always cached. Only the
    /// traced run sends it, as its cached-grid route.
    GridPaper,
    /// `/grid` with a seeded spec not requested before in the run, so
    /// it always misses the 8-slot cache.
    GridUncached,
    /// `/healthz`.
    Healthz,
}

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::ClassifyHit => "classify_hit",
            Route::ClassifyRelabel => "classify_relabel",
            Route::ClassifyLive => "classify_live",
            Route::Record => "record",
            Route::GridPaper => "grid_paper",
            Route::GridUncached => "grid_uncached",
            Route::Healthz => "healthz",
        }
    }

    /// Whether the body carries one classification record.
    pub fn returns_record(self) -> bool {
        matches!(
            self,
            Route::ClassifyHit | Route::ClassifyRelabel | Route::ClassifyLive | Route::Record
        )
    }
}

/// The answer a request must get.
#[derive(Debug, Clone)]
pub enum Expect {
    Body(Arc<str>),
    /// `/healthz` carries the store path and the server's own peak
    /// RSS, so only the status and the catalogue shape are compared.
    Health(Arc<str>),
}

impl Expect {
    pub fn matches(&self, status: u16, body: &str) -> bool {
        status == 200
            && match self {
                Expect::Body(want) => body == &**want,
                Expect::Health(shape) => {
                    body.starts_with("{\"status\":\"ok\",") && body.contains(&**shape)
                }
            }
    }
}

/// One planned request: the decoded path (what `AppState::handle`
/// takes), its wire form, and the expected answer.
#[derive(Debug, Clone)]
pub struct Planned {
    pub route: Route,
    pub segments: Vec<String>,
    pub query: Vec<(String, String)>,
    pub wire: String,
    pub expect: Expect,
}

impl Planned {
    pub fn request(&self) -> bnf_serve::Request {
        bnf_serve::Request {
            segments: self.segments.clone(),
            query: self.query.clone(),
            close: false,
        }
    }
}

/// Mix weights per thousand requests: the mix of `serve_bench`
/// (80% `/classify` hits, 10% `/record`, 5% `/grid`, 3% live
/// `/classify`, 2% `/healthz`), with its grid slice moved to seeded
/// specs past the 8-slot cache and its live slice split evenly between
/// relabelled stored graphs (canonicalization, then a lookup) and
/// order-7 graphs (live classification).
const MIX: [(Route, u64); 6] = [
    (Route::ClassifyHit, 800),
    (Route::Record, 100),
    (Route::GridUncached, 50),
    (Route::ClassifyRelabel, 15),
    (Route::ClassifyLive, 15),
    (Route::Healthz, 20),
];

/// Everything needed to plan requests against one catalogue.
#[derive(Debug)]
pub struct Mix {
    catalogue: WindowSweep,
    by_key: HashMap<String, usize>,
    small: Vec<Graph>,
    live: HashMap<usize, Arc<str>>,
    grid_specs: HashSet<String>,
    paper: Arc<str>,
    health_shape: Arc<str>,
}

/// A seeded `linear` grid with a fixed point count, so every seed folds
/// the same amount of work.
pub fn seeded_grid_spec(rng: &mut Rng, steps: usize) -> String {
    let lo = 1 + rng.below(8);
    let hi = 8 + rng.below(505);
    format!("linear:{lo}/8:{hi}:{steps}")
}

pub fn classify_body(source: &str, rec: &WindowRecord) -> String {
    let mut out = String::with_capacity(288);
    out.push_str("{\"source\":");
    push_json_string(&mut out, source);
    out.push_str(",\"record\":");
    render::push_record(&mut out, rec);
    out.push('}');
    out
}

/// The `/grid` body for `spec` over an engine-order catalogue.
pub fn grid_body(sweep: &WindowSweep, spec: &str) -> String {
    let alphas = GridSpec::parse(spec).expect("planned specs parse").alphas();
    let result = grid::evaluate(sweep, &alphas);
    let mut out = String::with_capacity(4096);
    out.push_str(&format!("{{\"n\":{},\"spec\":", sweep.n));
    push_json_string(&mut out, spec);
    out.push_str(",\"alphas\":[");
    for (i, a) in alphas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render::push_ratio(&mut out, *a);
    }
    out.push_str("],");
    render::push_stats_series(&mut out, "bilateral", &result.stats(GameKind::Bilateral));
    out.push(',');
    render::push_stats_series(&mut out, "unilateral", &result.stats(GameKind::Unilateral));
    out.push(',');
    render::push_stats_series(&mut out, "transfer", &result.transfer_stats());
    out.push('}');
    out
}

impl Mix {
    /// `records` is the complete engine-order catalogue of `order`; the
    /// live path draws from all connected graphs of `order - 1`.
    pub fn new(order: usize, records: Vec<WindowRecord>) -> Mix {
        let by_key = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key.clone(), i))
            .collect();
        let mut small = Vec::new();
        bnf_stream::for_each_connected(order - 1, |g, _| small.push(g));
        let catalogue = WindowSweep { n: order, records };
        let paper = grid_body(&catalogue, "paper").into();
        let health_shape = format!(
            ",\"records\":{n},\"orders\":[{{\"order\":{order},\"count\":{n}}}],\"default_order\":{order},",
            n = catalogue.records.len()
        );
        Mix {
            catalogue,
            by_key,
            small,
            live: HashMap::new(),
            grid_specs: HashSet::new(),
            paper,
            health_shape: health_shape.into(),
        }
    }

    pub fn catalogue(&self) -> &WindowSweep {
        &self.catalogue
    }

    fn stored(&self, key: &str) -> &WindowRecord {
        &self.catalogue.records[self.by_key[key]]
    }

    /// A request of `route`, drawn from `rng`.
    pub fn plan(&mut self, route: Route, rng: &mut Rng) -> Planned {
        let classify = |key: String, expect: String| Planned {
            route,
            wire: format!("/classify/{}", percent_encode(&key)),
            segments: vec!["classify".into(), key],
            query: Vec::new(),
            expect: Expect::Body(expect.into()),
        };
        let grid = |spec: &str, body: &Arc<str>| Planned {
            route,
            wire: format!("/grid?spec={}", percent_encode(spec)),
            segments: vec!["grid".into()],
            query: vec![("spec".into(), spec.to_owned())],
            expect: Expect::Body(Arc::clone(body)),
        };
        match route {
            Route::ClassifyHit => {
                let rec = &self.catalogue.records
                    [rng.below(self.catalogue.records.len() as u64) as usize];
                classify(rec.key.clone(), classify_body("atlas", rec))
            }
            Route::ClassifyRelabel => {
                let rec = &self.catalogue.records
                    [rng.below(self.catalogue.records.len() as u64) as usize];
                let g = Graph::from_graph6(&rec.key).expect("stored keys are graph6");
                let key = g.relabel(&rng.permutation(g.order())).to_graph6();
                classify(key, classify_body("atlas", self.stored(&rec.key)))
            }
            Route::ClassifyLive => {
                let i = rng.below(self.small.len() as u64) as usize;
                let g = &self.small[i];
                let key = g.relabel(&rng.permutation(g.order())).to_graph6();
                let body = self
                    .live
                    .entry(i)
                    .or_insert_with(|| {
                        let rec = WindowRecord::classify(g, &mut bnf_graph::BfsScratch::new());
                        classify_body("live", &rec).into()
                    })
                    .to_string();
                classify(key, body)
            }
            Route::Record => {
                let idx = rng.below(self.catalogue.records.len() as u64) as usize;
                let mut body = format!(
                    "{{\"order\":{},\"index\":{idx},\"record\":",
                    self.catalogue.n
                );
                render::push_record(&mut body, &self.catalogue.records[idx]);
                body.push('}');
                Planned {
                    route,
                    wire: format!("/record/{idx}"),
                    segments: vec!["record".into(), idx.to_string()],
                    query: Vec::new(),
                    expect: Expect::Body(body.into()),
                }
            }
            Route::GridPaper => grid("paper", &self.paper),
            Route::GridUncached => {
                let spec = loop {
                    let spec = seeded_grid_spec(rng, 32);
                    if self.grid_specs.insert(spec.clone()) {
                        break spec;
                    }
                };
                grid(&spec, &grid_body(&self.catalogue, &spec).into())
            }
            Route::Healthz => Planned {
                route,
                wire: "/healthz".into(),
                segments: vec!["healthz".into()],
                query: Vec::new(),
                expect: Expect::Health(Arc::clone(&self.health_shape)),
            },
        }
    }

    /// `count` requests in the weighted mix, each route drawn
    /// independently from `rng`, as are keys, labellings and specs.
    pub fn plan_mix(&mut self, count: usize, rng: &mut Rng) -> Vec<Planned> {
        let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
        (0..count)
            .map(|_| {
                let mut pick = rng.below(total);
                let route = MIX
                    .iter()
                    .find(|&&(_, w)| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .map_or(Route::ClassifyHit, |&(r, _)| r);
                self.plan(route, rng)
            })
            .collect()
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the plan, which fixes the due time.
    pub index: usize,
    pub route: Route,
    /// How late the request was sent relative to its due time.
    pub lag_ns: u64,
    /// From due time to the last response byte.
    pub latency_ns: u64,
    pub ok: bool,
}

/// Keep-alive connections the load comes over, one thread each.
const CONNECTIONS: usize = 2;

/// Drives `plan` open-loop at `rate` requests per second: request `i` is
/// due at `i / rate` and goes out on connection `i % CONNECTIONS` as
/// soon as it is due and that connection is free, so a stall delays
/// later requests and the delay is counted from the due time.
pub fn run_open_loop(addr: SocketAddr, plan: &[Planned], rate: f64) -> (Vec<Sample>, Vec<String>) {
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(plan.len() / CONNECTIONS + 1);
                    let mut errors = Vec::new();
                    let mut client = MiniClient::connect(addr).ok();
                    for (i, req) in plan.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        if client.is_none() {
                            client = MiniClient::connect(addr).ok();
                        }
                        let ok = match client.as_mut().map(|cl| cl.get(&req.wire)) {
                            Some(Ok((status, body))) => {
                                let ok = req.expect.matches(status, &body);
                                if !ok && errors.len() < 8 {
                                    errors.push(format!(
                                        "{} {}: status {status}, unexpected body {:.160}",
                                        req.route.name(),
                                        req.wire,
                                        body
                                    ));
                                }
                                ok
                            }
                            other => {
                                if errors.len() < 8 {
                                    errors.push(format!("{}: {other:?}", req.wire));
                                }
                                client = None;
                                false
                            }
                        };
                        let done = Instant::now();
                        samples.push(Sample {
                            index: i,
                            route: req.route,
                            lag_ns: nanos(sent.saturating_duration_since(due)),
                            latency_ns: nanos(done.saturating_duration_since(due)),
                            ok,
                        });
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(plan.len());
    let mut errors = Vec::new();
    for (s, e) in per_conn {
        samples.extend(s);
        errors.extend(e);
    }
    (samples, errors)
}

/// Latency and correctness summary of one ladder rung.
#[derive(Debug, Clone, Copy)]
pub struct RungSummary {
    pub requests: u64,
    pub failed: u64,
    pub records_served: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub hits: u64,
    /// p99 latency of `/classify` hits, from their due time.
    pub hit_p99_us: f64,
    pub lag_p99_us: f64,
    /// Median send lag over the last tenth of the rung. A server that
    /// keeps up leaves it at the scheduler's own jitter; one that does
    /// not lets it grow for the whole rung.
    pub end_lag_us: f64,
}

pub fn summarize(samples: &[Sample]) -> RungSummary {
    let us = |mut v: Vec<u64>, q: f64| {
        v.sort_unstable();
        quantile(&v, q) as f64 / 1e3
    };
    let latency: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    let hits: Vec<u64> = samples
        .iter()
        .filter(|s| s.route == Route::ClassifyHit)
        .map(|s| s.latency_ns)
        .collect();
    let end = samples.iter().map(|s| s.index + 1).max().unwrap_or(0);
    let tail_from = end - samples.len() / 10;
    let end_lag: Vec<u64> = samples
        .iter()
        .filter(|s| s.index >= tail_from)
        .map(|s| s.lag_ns)
        .collect();
    RungSummary {
        requests: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        records_served: samples
            .iter()
            .filter(|s| s.ok && s.route.returns_record())
            .count() as u64,
        p50_us: us(latency.clone(), 0.50),
        p99_us: us(latency, 0.99),
        hits: hits.len() as u64,
        hit_p99_us: us(hits, 0.99),
        lag_p99_us: us(samples.iter().map(|s| s.lag_ns).collect(), 0.99),
        end_lag_us: us(end_lag, 0.50),
    }
}

impl RungSummary {
    pub fn to_json(self, rate: f64, duration_s: f64, wall_s: f64) -> JsonObj {
        let mut obj = JsonObj::new();
        obj.num("rate", rate)
            .num("duration_s", duration_s)
            .int("requests", self.requests)
            .int("failed", self.failed)
            .int("records_served", self.records_served)
            .num("wall_s", wall_s)
            .num("achieved_qps", self.requests as f64 / wall_s)
            .num("p50_us", self.p50_us)
            .num("p99_us", self.p99_us)
            .int("hits", self.hits)
            .num("hit_p99_us", self.hit_p99_us)
            .num("lag_p99_us", self.lag_p99_us)
            .num("end_lag_us", self.end_lag_us);
        obj
    }
}
