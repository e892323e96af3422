//! The one sweep path at n = 7: the windows-first sweep on the
//! in-process orchestrator (one frontier build, 16 work-stolen parent
//! ranges). Peak-RSS numbers live in CHANGES.md — high-water marks need
//! separate processes, so they are recorded from `fig2_avg_poa` runs
//! rather than measured here.
//!
//! The group also reports `candidates_per_survivor/8`, a
//! counter-derived pruning-quality metric (not a timing): constructed
//! augmentation candidates per emitted graph across the whole n = 8
//! enumeration. The perf gate holds it alongside the wall-clock means —
//! a pruning regression shows up here before it shows up in noise-prone
//! timings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bnf_empirics::WindowSweep;

fn bench_streaming_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_sweep");
    group.sample_size(10);
    // The sweep every figure binary runs: one frontier build, 16
    // work-stolen ranges.
    group.bench_function("orchestrated_16x/7", |b| {
        b.iter(|| {
            black_box(WindowSweep::run_orchestrated(
                7,
                bnf_empirics::default_threads(),
                Some(16),
                None,
                |_| {},
            ))
        })
    });
    let stats = bnf_stream::stream_connected(8, 1, &|_, _| true);
    group.report_metric(
        "candidates_per_survivor/8",
        stats.prune.candidates_per_survivor(),
    );
    group.finish();
}

criterion_group!(benches, bench_streaming_sweep);
criterion_main!(benches);
