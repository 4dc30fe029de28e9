//! Scenario records: assembly for the flows the benchmark drives itself,
//! the output checks, and the paper's quality figures.

use std::collections::BTreeMap;

use tats_core::{Policy, Schedule, ScheduleEvaluation};
use tats_engine::{policy_slug, ScenarioRecord};
use tats_thermal::ThermalConfig;
use tats_trace::JsonValue;

/// Fields of a record that the flow result does not carry.
pub struct RecordKey<'a> {
    pub id: u64,
    pub key: String,
    pub benchmark: &'a str,
    pub flow: &'a str,
    pub policy: Policy,
    pub seed: u64,
    pub solver: Option<&'a str>,
}

/// The record the batch engine would emit for this flow result.
pub fn assemble(
    key: RecordKey<'_>,
    schedule: &Schedule,
    evaluation: &ScheduleEvaluation,
    grid_max_temp_c: Option<f64>,
) -> ScenarioRecord {
    ScenarioRecord {
        id: key.id,
        key: key.key,
        benchmark: key.benchmark.to_string(),
        flow: key.flow.to_string(),
        policy: policy_slug(key.policy).to_string(),
        seed: key.seed,
        solver: key.solver.map(str::to_string),
        total_power: evaluation.total_average_power,
        max_temp_c: evaluation.max_temperature_c,
        avg_temp_c: evaluation.avg_temperature_c,
        makespan: evaluation.makespan,
        meets_deadline: evaluation.meets_deadline,
        energy: schedule.assignments().iter().map(|a| a.energy()).sum(),
        grid_max_temp_c,
    }
}

/// Checks every JSONL record line: it parses, round-trips through
/// `ScenarioRecord::from_json` back to the same bytes, and its
/// temperatures are finite and at or above ambient. Returns the decoded
/// records and the number of lines that failed.
pub fn check_lines<'l>(lines: impl IntoIterator<Item = &'l str>) -> (Vec<ScenarioRecord>, usize) {
    let ambient = ThermalConfig::default().ambient_c;
    let mut records = Vec::new();
    let mut failed = 0;
    for line in lines {
        let decoded = JsonValue::parse(line)
            .ok()
            .and_then(|value| ScenarioRecord::from_json(&value).ok());
        let Some(record) = decoded else {
            failed += 1;
            continue;
        };
        let temps = [
            Some(record.max_temp_c),
            Some(record.avg_temp_c),
            record.grid_max_temp_c,
        ];
        let sane = temps
            .into_iter()
            .flatten()
            .all(|t| t.is_finite() && t >= ambient)
            && record.avg_temp_c <= record.max_temp_c;
        if !sane || record.to_json().to_json() != line {
            failed += 1;
        }
        records.push(record);
    }
    (records, failed)
}

/// The paper's result over a record set.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Mean `max_temp_c` of the thermal-aware records.
    pub thermal_max_temp_c: f64,
    /// Mean `avg_temp_c` of the thermal-aware records.
    pub thermal_avg_temp_c: f64,
    /// Per (graph, seed): best power-aware `max_temp_c` minus the
    /// thermal-aware one, averaged.
    pub gain_max_c: f64,
    /// The same on `avg_temp_c`.
    pub gain_avg_c: f64,
    pub deadline_met_ratio: f64,
}

pub fn quality(records: &[ScenarioRecord]) -> Quality {
    #[derive(Default)]
    struct Group {
        thermal: Option<(f64, f64)>,
        power: Option<(f64, f64)>,
    }
    let mut groups: BTreeMap<(&str, &str, u64), Group> = BTreeMap::new();
    let (mut thermal_max, mut thermal_avg, mut thermal_n) = (0.0, 0.0, 0usize);
    for record in records {
        let group = groups
            .entry((&record.benchmark, &record.flow, record.seed))
            .or_default();
        let temps = (record.max_temp_c, record.avg_temp_c);
        if record.policy == policy_slug(Policy::ThermalAware) {
            group.thermal = Some(temps);
            thermal_max += temps.0;
            thermal_avg += temps.1;
            thermal_n += 1;
        } else if record.policy.starts_with("power") {
            let best = group.power.get_or_insert(temps);
            *best = (best.0.min(temps.0), best.1.min(temps.1));
        }
    }
    let gains: Vec<(f64, f64)> = groups
        .values()
        .filter_map(|group| {
            let (thermal, power) = (group.thermal?, group.power?);
            Some((power.0 - thermal.0, power.1 - thermal.1))
        })
        .collect();
    let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
    let met = records.iter().filter(|r| r.meets_deadline).count();
    Quality {
        thermal_max_temp_c: mean(thermal_max, thermal_n),
        thermal_avg_temp_c: mean(thermal_avg, thermal_n),
        gain_max_c: mean(gains.iter().map(|g| g.0).sum(), gains.len()),
        gain_avg_c: mean(gains.iter().map(|g| g.1).sum(), gains.len()),
        deadline_met_ratio: mean(met as f64, records.len()),
    }
}
