//! `campaign-cosyn`: the co-synthesis campaign through the batch engine.
//!
//! One unit is one `Executor::run` on one executor thread over Bm1–Bm4 ×
//! all five policies × a block of fresh seeds, with Cholesky grid
//! validation at 32×32. Records stream to a JSONL file through
//! `JsonlWriter`, as `tats batch --out` writes them. Every unit starts
//! with cold caches, as every `tats batch` invocation does.
//!
//! The traced run drives the same scenarios through the layers' public
//! functions instead of the executor: task-graph generation, one
//! `CoSynthesis::run_with_cache_timed` span whose `FlowPhases` split it
//! into ASP, floorplan and thermal, the grid model build and solve, and the
//! record write. Its caches mirror the executor's per-run caches, so it
//! does the same work and must produce the same records.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tats_core::{geometry_config_bits, CacheStats, CoSynthesis, FifoCache, ThermalModelCache};
use tats_engine::{Campaign, EngineError, Executor, FlowKind};
use tats_thermal::{GridModel, GridSolver};
use tats_trace::jsonl::JsonlWriter;

use crate::records::{self, RecordKey};
use crate::trace::Tracer;
use crate::{ms, stats, timed_setup, Limit, Outcome, Scale};

/// Grid-validation resolution and backend.
const GRID: (usize, usize) = (32, 32);
const SOLVER: GridSolver = GridSolver::BandedCholesky;
/// Grid models one executor worker keeps (the engine's bound).
const GRID_CACHE_CAPACITY: usize = 16;
/// Set-ups timed per run (set-up is short, so its median needs many).
const SETUP_REPEATS: usize = 101;
/// PE budget of the allocation loop. A seeded graph the budget cannot
/// schedule by its deadline makes `CoSynthesis` refuse it and
/// `Executor::run` abandon the whole unit. Of 78,000 seeded graphs scanned
/// (Bm1–Bm4 shapes, the seed blocks this workload draws from, the held-out
/// seed's included), about 1 in 450 needs more than the fast preset's 5
/// PEs and 1 in 10,000 needs 7; none needs 8.
const MAX_PES: usize = 8;
/// How the co-synthesis refuses a graph when no architecture it can build
/// meets the graph's deadline (`CoreError::DeadlineUnreachable`). Seeded
/// graphs keep the published deadline of their benchmark, so a rare one
/// cannot meet it at any PE budget: `Bm1` at seed 201000584 misses its 790
/// by 3.3 with 8 PEs and with 16. Such a scenario is an input the flow
/// rejects, not a failure, and the workload leaves it out.
const REFUSED: &str = "no architecture met the deadline";

struct Workload {
    seed: u64,
    seeds_per_unit: u64,
}

impl Workload {
    /// Unit `unit`'s campaign: a block of seeds no other unit or workload
    /// seed uses (seed 0, the canonical benchmark graph, never appears).
    fn campaign(&self, unit: usize) -> Campaign {
        let first = 1 + self.seed * 1_000_000 + unit as u64 * self.seeds_per_unit;
        let experiment = tats_core::experiment::ExperimentConfig {
            max_pes: MAX_PES,
            ..tats_core::experiment::ExperimentConfig::fast()
        };
        Campaign::new(experiment)
            .with_flows(vec![FlowKind::CoSynthesis])
            .with_solvers(vec![Some(SOLVER)])
            .with_grid_resolution(GRID.0, GRID.1)
            .with_seeds((first..first + self.seeds_per_unit).collect())
    }
}

/// The set-up both runs share: the library, the first unit's scenario
/// list, and the JSONL output file.
fn setup(
    workload: &Workload,
    path: &Path,
) -> Result<(tats_techlib::TechLibrary, JsonlWriter<File>), String> {
    let campaign = workload.campaign(0);
    let library = campaign.experiment().library().map_err(|e| e.to_string())?;
    if campaign.scenarios().is_empty() {
        return Err("empty campaign".to_string());
    }
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((library, JsonlWriter::new(file)))
}

pub fn run(
    seed: u64,
    scale: Scale,
    limit: Limit,
    traced: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let workload = Workload {
        seed,
        seeds_per_unit: if scale == Scale::Tiny { 1 } else { 12 },
    };
    let path: PathBuf = out.join(format!("cosyn-trace{}.jsonl", u8::from(traced)));
    let ((library, writer), setup_s) = timed_setup(SETUP_REPEATS, || setup(&workload, &path))?;
    let mut outcome = if traced {
        run_traced(&workload, &library, writer, limit)?
    } else {
        run_untraced(&workload, writer, limit)?
    };
    outcome.setup_s = setup_s;
    // A latency window is one unit: every benchmark, policy and seed of it.
    outcome.window = workload.campaign(0).scenarios().len();
    // Check what was written, not what was meant to be.
    let file = File::open(&path).map_err(|e| e.to_string())?;
    outcome.lines = BufReader::new(file)
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if outcome.lines.len() != outcome.attempted - outcome.failed {
        outcome.check_failures += 1;
    }
    Ok(outcome)
}

fn run_untraced(
    workload: &Workload,
    writer: JsonlWriter<File>,
    limit: Limit,
) -> Result<Outcome, String> {
    let file = writer.into_inner();
    let mut outcome = Outcome::default();
    let executor = Executor::new(1);
    let mut cache = CacheStats::default();
    let mut refused = BTreeSet::new();
    let mut started = Instant::now();
    while limit.more(outcome.units, started) {
        let campaign = workload.campaign(outcome.units);
        let mut scenarios = campaign.scenarios();
        scenarios.retain(|scenario| refused.is_empty() || !refused.contains(&scenario.key()));
        let attempt = Instant::now();
        let (samples, length) = (outcome.latencies_ms.len(), position(&file)?);
        let mut writer = JsonlWriter::new(&file);
        let mut delivered = 0;
        let mut last = Instant::now();
        let result = executor.run(&campaign, &scenarios, &BTreeSet::new(), |record| {
            writer.write(&record.to_json())?;
            // One executor thread: records arrive one scenario apart.
            outcome.latencies_ms.push(ms(last.elapsed()));
            last = Instant::now();
            delivered += 1;
            Ok(())
        });
        match result {
            Ok(run) => cache.merge(run.report.cache),
            Err(EngineError::Scenario { key, message }) if message.contains(REFUSED) => {
                // `Executor::run` abandons the unit on the refusal: undo
                // the attempt, leave its time out of the timed wall, and
                // run the unit again without the refused scenario.
                eprintln!("unit {}: {key} refused: {message}", outcome.units);
                outcome.latencies_ms.truncate(samples);
                rewind(&file, length)?;
                started += attempt.elapsed();
                outcome.refused += 1;
                refused.insert(key);
                continue;
            }
            Err(error) => eprintln!("unit {}: {error}", outcome.units),
        }
        outcome.attempted += scenarios.len();
        outcome.failed += scenarios.len() - delivered;
        outcome.units += 1;
    }
    outcome.end_timed_region(started);
    record_cache(&mut outcome, cache);
    Ok(outcome)
}

fn position(mut file: &File) -> Result<u64, String> {
    file.stream_position().map_err(|e| e.to_string())
}

/// Cuts `file` back to `length` bytes and writes on from there.
fn rewind(mut file: &File, length: u64) -> Result<(), String> {
    file.set_len(length)
        .and_then(|()| file.seek(SeekFrom::Start(length)))
        .map(drop)
        .map_err(|e| e.to_string())
}

fn record_cache(outcome: &mut Outcome, cache: CacheStats) {
    outcome
        .layer
        .insert("engine.cache_hit_rate".into(), cache.hit_rate());
    outcome
        .layer
        .insert("engine.cache_misses".into(), cache.misses as f64);
}

type GridKey = (Vec<u64>, usize, usize);

/// Per-unit state of the traced run: the flow and the caches one executor
/// worker would own.
struct TracedUnit<'a> {
    flow: CoSynthesis<'a>,
    config: tats_thermal::ThermalConfig,
    thermal: ThermalModelCache,
    grids: FifoCache<GridKey, GridModel>,
}

/// What the traced run counts across units.
#[derive(Default)]
struct Counts {
    grid_builds: u64,
    grid_solves: u64,
    asp_by_tasks: Vec<(f64, f64)>,
    encode_us: f64,
    bytes: usize,
}

/// Runs one scenario under `scenario_span`, one span per layer call.
fn traced_scenario(
    unit: &mut TracedUnit<'_>,
    scenario: &tats_engine::Scenario,
    tracer: &mut Tracer,
    (trace, scenario_span): (u64, u64),
    counts: &mut Counts,
    writer: &mut JsonlWriter<File>,
) -> Result<(), String> {
    let start = tracer.now();
    let graph = scenario.task_graph();
    tracer.record(trace, Some(scenario_span), "taskgraph", start, tracer.now());
    let graph = graph.map_err(|e| e.to_string())?;

    let start = tracer.now();
    let result = unit
        .flow
        .run_with_cache_timed(&graph, scenario.policy, &mut unit.thermal);
    let end = tracer.now();
    let flow_span = tracer.record(trace, Some(scenario_span), "cosynthesis", start, end);
    let (result, phases) = result.map_err(|e| e.to_string())?;
    tracer.carve(
        trace,
        flow_span,
        start,
        end,
        &[
            ("asp", phases.scheduling),
            ("floorplan", phases.floorplan),
            ("thermal", phases.thermal),
        ],
    );
    counts
        .asp_by_tasks
        .push((graph.task_count() as f64, ms(phases.scheduling)));

    let start = tracer.now();
    let config = unit.config;
    let key = (
        geometry_config_bits(&result.floorplan, &config),
        GRID.0,
        GRID.1,
    );
    let misses = unit.grids.stats().misses;
    let grid_max = unit
        .grids
        .get_or_try_insert_with(key, || {
            GridModel::new(&result.floorplan, config, GRID.0, GRID.1)?.with_solver(SOLVER)
        })
        .and_then(|model| {
            let mut workspace = model.workspace();
            model.steady_state_with(&result.evaluation.per_pe_power, &mut workspace)
        })
        .map(|temps| temps.max_c());
    tracer.record(trace, Some(scenario_span), "grid", start, tracer.now());
    counts.grid_builds += unit.grids.stats().misses - misses;
    counts.grid_solves += 1;
    let grid_max = grid_max.map_err(|e| e.to_string())?;

    let start = tracer.now();
    let clock = Instant::now();
    let record = records::assemble(
        RecordKey {
            id: scenario.id,
            key: scenario.key(),
            benchmark: scenario.benchmark.name(),
            flow: scenario.flow.name(),
            policy: scenario.policy,
            seed: scenario.seed,
            solver: Some(SOLVER.name()),
        },
        &result.schedule,
        &result.evaluation,
        Some(grid_max),
    );
    let value = record.to_json();
    counts.encode_us += clock.elapsed().as_secs_f64() * 1e6;
    counts.bytes += value.to_json().len() + 1;
    let written = writer.write(&value);
    tracer.record(trace, Some(scenario_span), "record", start, tracer.now());
    written.map_err(|e| e.to_string())
}

fn run_traced(
    workload: &Workload,
    library: &tats_techlib::TechLibrary,
    mut writer: JsonlWriter<File>,
    limit: Limit,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(true);
    let mut cache = CacheStats::default();
    let mut counts = Counts::default();
    let mut thermal_builds = 0;
    let root = tracer.id();
    let root_start = tracer.now();
    let started = Instant::now();
    while limit.more(outcome.units, started) {
        let campaign = workload.campaign(outcome.units);
        let experiment = campaign.experiment();
        let mut unit = TracedUnit {
            flow: CoSynthesis::new(library)
                .with_max_pes(experiment.max_pes)
                .with_thermal_config(experiment.thermal_config)
                .with_floorplan_ga(experiment.floorplan_ga),
            config: experiment.thermal_config,
            thermal: ThermalModelCache::new(),
            grids: FifoCache::with_capacity(GRID_CACHE_CAPACITY),
        };
        for scenario in &campaign.scenarios() {
            let ids = (
                (outcome.attempted + outcome.refused + 1) as u64,
                tracer.id(),
            );
            let start = tracer.now();
            let result = traced_scenario(
                &mut unit,
                scenario,
                &mut tracer,
                ids,
                &mut counts,
                &mut writer,
            );
            let end = tracer.now();
            tracer.record_with_id(ids.0, ids.1, Some(root), "scenario", start, end);
            outcome.latencies_ms.push((end - start) as f64 / 1e3);
            match result {
                Err(error) if error.contains(REFUSED) => {
                    eprintln!("{} refused: {error}", scenario.key());
                    outcome.refused += 1;
                }
                Err(error) => {
                    eprintln!("{}: {error}", scenario.key());
                    outcome.attempted += 1;
                    outcome.failed += 1;
                }
                Ok(()) => outcome.attempted += 1,
            }
        }
        thermal_builds += unit.thermal.stats().misses;
        let mut stats = unit.thermal.stats();
        stats.merge(unit.grids.stats());
        cache.merge(stats);
        outcome.units += 1;
    }
    outcome.end_timed_region(started);
    tracer.record_with_id(1, root, None, "run", root_start, tracer.now());
    outcome.spans = tracer.into_spans();
    record_cache(&mut outcome, cache);
    let records = (outcome.attempted - outcome.failed) as f64;
    for (name, value) in [
        ("thermal.builds", thermal_builds as f64),
        ("grid.builds", counts.grid_builds as f64),
        ("grid.solves", counts.grid_solves as f64),
        (
            "asp.scaling_exponent",
            stats::log_log_slope(&counts.asp_by_tasks),
        ),
        ("record.records", records),
        ("record.encode_us_total", counts.encode_us),
        ("record.bytes", counts.bytes as f64),
    ] {
        outcome.layer.insert(name.to_string(), value);
    }
    Ok(outcome)
}
