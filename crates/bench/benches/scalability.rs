//! Scalability of the allocation and scheduling procedure.
//!
//! The paper's benchmarks stop at 51 tasks; this bench sweeps the extended
//! benchmark family (25–200 tasks) on the 4-PE platform and measures how the
//! scheduling time of the baseline, power-aware and thermal-aware policies
//! grows with the task count.  The thermal-aware policy pays one steady-state
//! thermal solve per (ready task, PE) decision, so its slope is the price of
//! the paper's headline idea.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use tats_bench::Fixture;
use tats_core::{Policy, PowerHeuristic};
use tats_taskgraph::extended;

const SIZES: [usize; 4] = [25, 50, 100, 200];

const POLICIES: [(&str, Policy); 3] = [
    ("baseline", Policy::Baseline),
    ("power3", Policy::PowerAware(PowerHeuristic::MinTaskEnergy)),
    ("thermal", Policy::ThermalAware),
];

fn bench_scalability(c: &mut Criterion) {
    let fixture = Fixture::new().expect("fixture");
    let flow = fixture.platform_flow().expect("platform flow");

    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for &size in &SIZES {
        let graph = extended::graph_with_size(size, 11).expect("extended graph");
        for (label, policy) in POLICIES {
            group.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| {
                    flow.run(&graph, policy)
                        .expect("schedule")
                        .schedule
                        .makespan()
                })
            });
        }
    }
    group.finish();

    // The sweep itself (one run per policy) is embarrassingly parallel, so
    // a rayon `par_iter` runs it: this group measures the batch wall time of
    // all three policies evaluated concurrently, i.e. what a parallel
    // ablation sweep pays per task-graph size.
    let mut group = c.benchmark_group("scalability_policies_parallel");
    group.sample_size(10);
    for &size in &SIZES {
        let graph = extended::graph_with_size(size, 11).expect("extended graph");
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| {
                let makespans: Vec<f64> = POLICIES
                    .par_iter()
                    .map(|&(_, policy)| {
                        flow.run(&graph, policy)
                            .expect("schedule")
                            .schedule
                            .makespan()
                    })
                    .collect();
                makespans
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
