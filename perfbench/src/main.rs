//! `perfbench` — runs one benchmark workload against the tats crates and
//! prints its measurements as one JSON line.
//!
//! ```text
//! perfbench --workload <campaign-cosyn|service-platform>
//!           --seed <n> --seconds <s> --trace <0|1> --out <dir>
//!           [--units <k>] [--scale tiny]
//! ```
//!
//! Untraced (`--trace 0`) it runs units of work for `--seconds` and
//! reports the end-to-end figures. Traced (`--trace 1`) it runs exactly
//! `--units` units (the count an untraced run reported, so both see the
//! same inputs), wraps every call into a layer in a span, and reports the
//! per-layer figures. `perfbench/run.py` drives it; see the README there.

mod cosyn;
mod proxy;
mod records;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tats_trace::spans::{chrome_trace, SpanEvent};
use tats_trace::JsonValue;

use crate::trace::{LayerTable, LAYERS};

/// How much work a run does: for a time budget, or an exact unit count.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    seconds: f64,
    units: Option<usize>,
}

impl Limit {
    /// Whether unit number `done` (0-based) should run, given when the
    /// timed region started.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        match self.units {
            Some(units) => done < units,
            None => done == 0 || started.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// Run size: `full` is the benchmark, `tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median of the repeated set-ups, s.
    pub setup_s: f64,
    /// Units of work run (batches, graph rounds or jobs).
    pub units: usize,
    /// Scenarios attempted and failed.
    pub attempted: usize,
    pub failed: usize,
    /// Scenarios the flow refused as inputs it cannot schedule, left out
    /// of the workload (counted in neither of the above).
    pub refused: usize,
    /// Output checks failed (records and workload-specific checks).
    pub check_failures: usize,
    /// Timed wall, s.
    pub wall_s: f64,
    /// The process's peak resident set when the timed region ended, MB.
    pub peak_rss_mb: f64,
    /// One latency per operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations per window of the latency figures (0: the whole run).
    pub window: usize,
    /// Every record produced, as JSONL lines.
    pub lines: Vec<String>,
    /// Per-layer counts and times the workload measured itself.
    pub layer: BTreeMap<String, f64>,
    /// The traced run's spans (empty untraced).
    pub spans: Vec<SpanEvent>,
}

impl Outcome {
    /// Closes the timed region: its wall, and the peak RSS so far, so the
    /// output checks that follow do not count towards it.
    pub fn end_timed_region(&mut self, started: Instant) {
        self.wall_s = started.elapsed().as_secs_f64();
        self.peak_rss_mb = peak_rss_mb();
    }
}

/// The process's peak resident set so far, MB.
pub fn peak_rss_mb() -> f64 {
    peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// `VmHWM` of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// How long the repeated set-ups are spread over. A shared host's speed
/// swings by up to 1.7x from one second to the next, so the repeats sample
/// it over a stretch of time, as the timed work does. Each repeat follows
/// a pause and so runs with cold caches, as a fresh process's set-up does.
const SETUP_SPAN: Duration = Duration::from_secs(1);

/// Times `repeats` set-ups, evenly spread over [`SETUP_SPAN`], and keeps
/// the last one's result.
pub fn timed_setup<T, E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let repeats = repeats.max(1);
    let spacing = SETUP_SPAN / repeats as u32;
    let mut times = Vec::new();
    let mut last = None;
    for repeat in 0..repeats {
        drop(last.take());
        let clock = Instant::now();
        last = Some(setup()?);
        let took = clock.elapsed();
        times.push(took.as_secs_f64());
        if repeat + 1 < repeats {
            std::thread::sleep(spacing.saturating_sub(took));
        }
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    units: Option<usize>,
    out: PathBuf,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        map.get(name)
            .cloned()
            .ok_or(format!("--{name} is required"))
    };
    let number = |name: &str, text: String| {
        text.parse::<f64>()
            .map_err(|_| format!("--{name} must be a number, got '{text}'"))
    };
    let units = match map.get("units") {
        Some(text) => Some(number("units", text.clone())? as usize),
        None => None,
    };
    let scale = match map.get("scale").map(String::as_str) {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Tiny,
        Some(other) => return Err(format!("--scale must be full or tiny, got '{other}'")),
    };
    Ok(Args {
        workload: take("workload")?,
        seed: number("seed", take("seed")?)? as u64,
        seconds: number("seconds", take("seconds")?)?,
        trace: take("trace")? == "1",
        units,
        out: PathBuf::from(take("out")?),
        scale,
    })
}

fn run(args: &Args) -> Result<JsonValue, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let limit = Limit {
        seconds: args.seconds,
        units: args.units,
    };
    let mut outcome = match args.workload.as_str() {
        "campaign-cosyn" => cosyn::run(args.seed, args.scale, limit, args.trace, &args.out),
        "service-platform" => service::run(args.seed, args.scale, limit, args.trace, &args.out),
        other => Err(format!(
            "unknown workload '{other}' (expected campaign-cosyn or service-platform)"
        )),
    }?;

    // Output checks, outside every timed region.
    let (records, bad_lines) = records::check_lines(outcome.lines.iter().map(String::as_str));
    outcome.check_failures += bad_lines;
    let quality = records::quality(&records);
    let mut sorted = outcome.lines.clone();
    sorted.sort_unstable();
    let records_file = args
        .out
        .join(format!("records-trace{}.jsonl", u8::from(args.trace)));
    write_lines(&records_file, &sorted)?;

    let completed = outcome.attempted - outcome.failed;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    if args.trace {
        let (layer_metrics, layer_fields) = traced_metrics(&mut outcome, completed, &args.out)?;
        metrics.extend(layer_metrics);
        fields.extend(layer_fields);
        metrics.push(("thermal_gain_max_c".into(), quality.gain_max_c));
        metrics.push(("thermal_gain_avg_c".into(), quality.gain_avg_c));
    } else {
        let samples = &outcome.latencies_ms;
        let window = match outcome.window {
            0 => samples.len(),
            window => window.min(samples.len()),
        }
        .max(1);
        let percentile = stats::tail_percentile(window);
        let (p50, windows) = stats::windowed(samples, window, stats::median);
        let (tail, _) = stats::windowed(samples, window, |w| stats::tail(w).1);
        metrics.push(("setup_s".into(), outcome.setup_s));
        metrics.push(("scenarios_per_s".into(), completed as f64 / outcome.wall_s));
        metrics.push(("latency_p50_ms".into(), p50));
        metrics.push(("latency_tail_ms".into(), tail));
        metrics.push(("peak_rss_mb".into(), outcome.peak_rss_mb));
        metrics.push(("thermal_max_temp_c".into(), quality.thermal_max_temp_c));
        metrics.push(("thermal_avg_temp_c".into(), quality.thermal_avg_temp_c));
        metrics.push(("deadline_met_ratio".into(), quality.deadline_met_ratio));
        // The paper's comparison is printed on every run, but it is not an
        // end-to-end metric: see the README.
        metrics.push(("thermal_gain_max_c".into(), quality.gain_max_c));
        metrics.push(("thermal_gain_avg_c".into(), quality.gain_avg_c));
        fields.push(("tail_percentile".into(), JsonValue::from(percentile)));
        fields.push(("window".into(), JsonValue::from(window)));
        fields.push(("windows".into(), JsonValue::from(windows)));
        let mut sorted = outcome.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        fields.push((
            "latency_quantiles_ms".into(),
            JsonValue::object([50.0, 90.0, 95.0, 99.0].map(|p| {
                (
                    format!("p{p}"),
                    JsonValue::from(stats::quantile(&sorted, p / 100.0)),
                )
            })),
        ));
        fields.push((
            "latency_samples".into(),
            JsonValue::from(outcome.latencies_ms.len()),
        ));
    }
    for (name, value) in &outcome.layer {
        if name.starts_with("engine.") {
            metrics.push((name.clone(), *value));
        }
    }

    fields.push(("workload".into(), JsonValue::from(args.workload.as_str())));
    fields.push(("units".into(), JsonValue::from(outcome.units)));
    fields.push(("attempted".into(), JsonValue::from(outcome.attempted)));
    fields.push(("failed".into(), JsonValue::from(outcome.failed)));
    fields.push(("refused".into(), JsonValue::from(outcome.refused)));
    fields.push((
        "checks_failed".into(),
        JsonValue::from(outcome.check_failures),
    ));
    fields.push(("wall_s".into(), JsonValue::from(outcome.wall_s)));
    fields.push((
        "records_file".into(),
        JsonValue::from(records_file.display().to_string().as_str()),
    ));
    fields.push((
        "metrics".into(),
        JsonValue::object(
            metrics
                .into_iter()
                .map(|(name, value)| (name, JsonValue::from(value))),
        ),
    ));
    Ok(JsonValue::object(fields))
}

/// Builds the layer table from the traced run's spans, writes them out
/// (JSONL and Chrome trace) and derives the per-layer metrics.
#[allow(clippy::type_complexity)]
fn traced_metrics(
    outcome: &mut Outcome,
    completed: usize,
    out: &Path,
) -> Result<(Vec<(String, f64)>, Vec<(String, JsonValue)>), String> {
    let spans = std::mem::take(&mut outcome.spans);
    let lines: Vec<String> = spans.iter().map(SpanEvent::to_line).collect();
    write_lines(&out.join("spans.jsonl"), &lines)?;
    std::fs::write(
        out.join("spans.chrome.json"),
        chrome_trace(&spans).to_json(),
    )
    .map_err(|e| e.to_string())?;
    let table = LayerTable::build(spans);
    if table.accounted_us() != table.wall_us {
        eprintln!(
            "layer table does not add up: {} us accounted, {} us wall",
            table.accounted_us(),
            table.wall_us
        );
        outcome.check_failures += 1;
    }
    let layer = &outcome.layer;
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, value: f64| metrics.push((name.to_string(), value));
    for name in ["asp", "thermal", "floorplan", "grid"] {
        push(&format!("{name}.self_ms"), table.self_ms(name));
        push(&format!("{name}.share"), table.share(name));
    }
    push("asp.calls", table.spans("asp") as f64);
    push("asp.scaling_exponent", get("asp.scaling_exponent"));
    push("thermal.builds", get("thermal.builds"));
    push("grid.builds", get("grid.builds"));
    push("grid.solves", get("grid.solves"));
    let records = get("record.records").max(1.0);
    push("record.encode_us", get("record.encode_us_total") / records);
    push("record.decode_us", get("record.decode_us_total") / records);
    push("record.bytes", get("record.bytes"));
    for name in [
        "http.exchanges",
        "http.dials",
        "http.rtt_p50_us",
        "http.rtt_tail_us",
        "json.decode_ms",
        "json.encode_ms",
        "json.bytes",
        "journal.appends",
        "journal.bytes",
        "registry.calls",
        "lease.grants",
        "lease.idle_polls",
        "lease.useful_ratio",
    ] {
        push(name, get(name));
    }
    push("http.self_ms", table.self_ms("http"));
    push("journal.append_ms", table.self_ms("journal"));
    push("registry.self_ms", table.self_ms("registry"));
    push("lease.wait_ms", get("lease.wait_ms"));
    push("unattributed_ms", table.unattributed_us as f64 / 1e3);
    push(
        "unattributed_share",
        table.unattributed_us as f64 / table.wall_us.max(1) as f64,
    );
    push("traced_scenarios_per_s", completed as f64 / outcome.wall_s);

    let rows = LAYERS
        .iter()
        .map(|name| {
            JsonValue::Array(vec![
                JsonValue::from(*name),
                JsonValue::from(table.self_ms(name)),
                JsonValue::from(table.share(name)),
                JsonValue::from(table.spans(name)),
            ])
        })
        .collect();
    let fields = vec![
        ("layers".to_string(), JsonValue::Array(rows)),
        (
            "traced_wall_ms".to_string(),
            JsonValue::from(table.wall_us as f64 / 1e3),
        ),
        (
            "spans_file".to_string(),
            JsonValue::from(out.join("spans.jsonl").display().to_string().as_str()),
        ),
    ];
    Ok((metrics, fields))
}

fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(value) => {
            println!("{}", value.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
