//! Regenerates one row group of Table 1 per iteration: the baseline and the
//! three power heuristics on both the co-synthesis and the platform
//! architecture, for each of the paper's benchmarks.
//!
//! Run `cargo run --release -p tats-bench --bin reproduce -- table1` to print
//! the full table once; this bench measures how expensive regenerating each
//! benchmark's row group is. The four policies of one row group are
//! independent, so they are evaluated with a rayon `par_iter` — results come
//! back in policy order, identical to a serial evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use tats_bench::{bench_experiment_config, Fixture};
use tats_core::experiment::Table1;
use tats_core::CoSynthesis;
use tats_taskgraph::Benchmark;

fn bench_table1_row_groups(c: &mut Criterion) {
    let fixture = Fixture::new().expect("fixture");
    let config = bench_experiment_config();
    let flow = fixture.platform_flow().expect("platform flow");
    let mut group = c.benchmark_group("table1_row_group");
    group.sample_size(10);
    for (index, bm) in Benchmark::ALL.iter().enumerate() {
        let graph = fixture.benchmark(index).clone();
        group.bench_function(BenchmarkId::from_parameter(bm.name()), |b| {
            b.iter(|| {
                let cosynthesis = CoSynthesis::new(&fixture.library)
                    .with_max_pes(config.max_pes)
                    .with_floorplan_ga(config.floorplan_ga);
                let rows: Vec<(f64, f64)> = Table1::POLICIES
                    .par_iter()
                    .map(|&policy| {
                        let co = cosynthesis.run(&graph, policy).unwrap();
                        let pl = flow.run(&graph, policy).unwrap();
                        (
                            co.evaluation.max_temperature_c,
                            pl.evaluation.max_temperature_c,
                        )
                    })
                    .collect();
                rows
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1_row_groups);
criterion_main!(benches);
