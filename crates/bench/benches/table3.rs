//! Regenerates one row of Table 3 per iteration: power-aware (heuristic 3)
//! versus thermal-aware scheduling on the fixed platform architecture. The
//! two policy runs are independent, so each iteration evaluates them with a
//! rayon `par_iter`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use tats_bench::Fixture;
use tats_core::{Policy, PowerHeuristic};
use tats_taskgraph::Benchmark;

const POLICIES: [Policy; 2] = [
    Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
    Policy::ThermalAware,
];

fn bench_table3_rows(c: &mut Criterion) {
    let fixture = Fixture::new().expect("fixture");
    let flow = fixture.platform_flow().expect("platform flow");
    let mut group = c.benchmark_group("table3_row");
    group.sample_size(20);
    for (index, bm) in Benchmark::ALL.iter().enumerate() {
        let graph = fixture.benchmark(index).clone();
        group.bench_function(BenchmarkId::from_parameter(bm.name()), |b| {
            b.iter(|| {
                let temps: Vec<f64> = POLICIES
                    .par_iter()
                    .map(|&policy| {
                        flow.run(&graph, policy)
                            .unwrap()
                            .evaluation
                            .max_temperature_c
                    })
                    .collect();
                (temps[0], temps[1])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table3_rows);
criterion_main!(benches);
