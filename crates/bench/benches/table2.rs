//! Regenerates one row of Table 2 per iteration: power-aware (heuristic 3)
//! versus thermal-aware co-synthesis for each benchmark, including the
//! genetic thermal-aware floorplanning pass. The two policy runs are
//! independent, so each iteration evaluates them with a rayon `par_iter`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use tats_bench::{bench_experiment_config, Fixture};
use tats_core::{CoSynthesis, Policy, PowerHeuristic};
use tats_taskgraph::Benchmark;

const POLICIES: [Policy; 2] = [
    Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
    Policy::ThermalAware,
];

fn bench_table2_rows(c: &mut Criterion) {
    let fixture = Fixture::new().expect("fixture");
    let config = bench_experiment_config();
    let mut group = c.benchmark_group("table2_row");
    group.sample_size(10);
    for (index, bm) in Benchmark::ALL.iter().enumerate() {
        let graph = fixture.benchmark(index).clone();
        group.bench_function(BenchmarkId::from_parameter(bm.name()), |b| {
            b.iter(|| {
                let cosynthesis = CoSynthesis::new(&fixture.library)
                    .with_max_pes(config.max_pes)
                    .with_floorplan_ga(config.floorplan_ga);
                let temps: Vec<f64> = POLICIES
                    .par_iter()
                    .map(|&policy| {
                        cosynthesis
                            .run(&graph, policy)
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

criterion_group!(benches, bench_table2_rows);
criterion_main!(benches);
