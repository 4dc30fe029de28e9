//! `service-platform`: the journaled campaign service under one
//! closed-loop submitter.
//!
//! Set-up binds `Service` with a journal in a fresh directory and dials
//! the submitter's keep-alive `Connection`. One unit is one job: a small
//! platform-flow campaign (one benchmark × all five policies × a few fresh
//! seeds) split into shards. The submitter posts it, runs a shard worker
//! for it, waits for the worker, then fetches and decodes the job's
//! records. Latency is submit → records decoded.
//!
//! The worker is `run_worker` with `exit_when_drained`, started per job:
//! it leases every shard of the job and exits on the drained answer that
//! follows the last one. A worker kept alive between jobs would find the
//! queue empty while the submitter fetches records, and sleep
//! `WorkerConfig::poll_ms` (at least 1 ms) before polling again, which
//! would quantise every job's latency. This way no sleep or poll interval
//! is on the timed path; `lease.idle_polls` counts the drained answers.
//!
//! The traced run relays the worker through a timestamping proxy and
//! wraps the submitter's own calls in spans. Server-side time inside each
//! round trip is split off by calling the registry's public functions
//! with the run's own payloads afterwards: `Registry` for the registry,
//! `JournaledRegistry` minus `Registry` for the journal, and
//! `JsonValue::parse`/`to_json` of the bodies for JSON.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tats_core::experiment::ExperimentConfig;
use tats_core::Policy;
use tats_engine::{Campaign, CampaignSpec, Executor, FlowKind, ScenarioRecord};
use tats_service::client::{self, Connection};
use tats_service::{
    run_worker, JournaledRegistry, Registry, RetryPolicy, Service, ServiceConfig, ServiceHandle,
    Submission, WorkerConfig,
};
use tats_taskgraph::Benchmark;
use tats_trace::log::LogFilter;
use tats_trace::JsonValue;

use crate::proxy::{Exchange, Proxy};
use crate::trace::Tracer;
use crate::{ms, stats, timed_setup, Limit, Outcome, Scale};

const SHARDS: usize = 4;
const SEEDS_PER_JOB: u64 = 4;
const SETUP_REPEATS: usize = 41;
/// Jobs per latency window: ten beyond p95, every benchmark 50 times.
const WINDOW_JOBS: usize = 200;
/// Jobs after which the peak RSS is read. The registry keeps every job,
/// so the resident set grows by about 17 KB a job, and read at the end it
/// would follow the run's throughput (45 to 77 MB over ten runs) instead
/// of what a job costs.
const RSS_JOBS: usize = 1000;
const WORKER: &str = "perfbench-worker";
/// Lease TTL of the replayed registries (nothing expires during replay).
const REPLAY_TTL_MS: u64 = 15_000;

/// Job `job`'s campaign: benchmarks in turn, fresh seeds per job.
fn job_spec(seed: u64, job: usize, scale: Scale) -> CampaignSpec {
    let benchmark = Benchmark::ALL[job % Benchmark::ALL.len()];
    let seeds = if scale == Scale::Tiny {
        1
    } else {
        SEEDS_PER_JOB
    };
    let first = 1 + seed * 1_000_000 + job as u64 * seeds;
    let campaign = Campaign::new(ExperimentConfig::fast())
        .with_benchmarks(vec![benchmark])
        .with_flows(vec![FlowKind::Platform])
        .with_policies(Policy::ALL.to_vec())
        .with_seeds((first..first + seeds).collect());
    CampaignSpec::from_campaign(&campaign).expect("a standard campaign has a spec")
}

/// A bound server and the submitter's connection to it. Fields drop in
/// order: the connection closes before the server stops.
struct Server {
    connection: Connection,
    handle: ServiceHandle,
}

fn setup(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let handle = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            journal: Some(dir.join("journal.jsonl")),
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut connection = Connection::new(&handle.addr_string());
    connection
        .get("/readyz")
        .map_err(|e| format!("readyz: {e}"))?;
    Ok(Server { connection, handle })
}

fn worker_config() -> WorkerConfig {
    WorkerConfig {
        name: WORKER.to_string(),
        threads: 1,
        exit_when_drained: true,
        // A transient failure is a failure here, not a backoff sleep.
        retry: RetryPolicy::none(),
        metrics: None,
        log: None,
        ..WorkerConfig::default()
    }
}

/// One finished job, kept for the checks and the replay.
struct Job {
    id: String,
    spec: CampaignSpec,
    /// The fetched JSONL page.
    records: String,
}

/// One HTTP round trip as the trace saw it, kept until the replay can
/// split off its server-side time.
struct Trip {
    trace: u64,
    span: u64,
    exchange: Exchange,
    /// The `worker` span before a record post, where that record was
    /// encoded.
    encoded_in: Option<(u64, u64, u64)>,
}

pub fn run(
    seed: u64,
    scale: Scale,
    limit: Limit,
    traced: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let dir: PathBuf = out.join(format!("service-trace{}", u8::from(traced)));
    let (mut server, setup_s) = timed_setup(SETUP_REPEATS, || setup(&dir))?;
    let addr = server.handle.addr_string();
    let mut tracer = Tracer::new(traced);
    // The relay stamps round trips on the tracer's clock.
    let proxy = match traced {
        true => Some(Proxy::start(&addr, tracer.clock()).map_err(|e| format!("proxy: {e}"))?),
        false => None,
    };
    let worker_addr = proxy
        .as_ref()
        .map_or(addr.clone(), |p| p.addr().to_string());

    let mut outcome = Outcome {
        setup_s,
        window: WINDOW_JOBS,
        ..Outcome::default()
    };
    let mut jobs: Vec<Job> = Vec::new();
    let mut trips: Vec<Trip> = Vec::new();
    let mut counts = Counts::default();
    let mut rss_mb = None;
    let root = tracer.id();
    let root_start = tracer.now();
    let started = Instant::now();
    while limit.more(outcome.units, started) {
        let spec = job_spec(seed, outcome.units, scale);
        let expected = spec.to_campaign().len();
        outcome.attempted += expected;
        outcome.units += 1;
        let trace = outcome.units as u64;
        let job_span = tracer.id();
        let clock_start = Instant::now();
        let job_start = tracer.now();

        // Submit.
        let t = tracer.now();
        let body = JsonValue::object(vec![
            ("spec".to_string(), spec.to_json()),
            ("shards".to_string(), JsonValue::from(SHARDS)),
        ])
        .to_json();
        let t_end = tracer.now();
        counts.json(&mut tracer, trace, job_span, t, t_end, body.len(), true);
        let t = tracer.now();
        let response = server
            .connection
            .request(
                "POST",
                "/jobs",
                &[("content-type", "application/json".to_string())],
                Some(&body),
            )
            .and_then(client::expect_ok);
        let t_end = tracer.now();
        let Ok(response) = response else {
            outcome.failed += expected;
            tracer.record_with_id(trace, job_span, Some(root), "job", job_start, tracer.now());
            continue;
        };
        if traced {
            let span = tracer.record(trace, Some(job_span), "http", t, t_end);
            trips.push(Trip {
                trace,
                span,
                exchange: exchange("POST", "/jobs", &body, &response.body, t, t_end),
                encoded_in: None,
            });
        }
        let t = tracer.now();
        let job_id = JsonValue::parse(&response.body)
            .ok()
            .and_then(|v| v.get("job").and_then(JsonValue::as_str).map(str::to_string));
        let t_end = tracer.now();
        counts.json(
            &mut tracer,
            trace,
            job_span,
            t,
            t_end,
            response.body.len(),
            false,
        );
        let Some(job_id) = job_id else {
            outcome.failed += expected;
            tracer.record_with_id(trace, job_span, Some(root), "job", job_start, tracer.now());
            continue;
        };

        // One worker drains the job.
        let submitted_at = tracer.now();
        let config = worker_config();
        let target = worker_addr.clone();
        let report = std::thread::spawn(move || run_worker(&target, &config)).join();
        match report {
            Ok(Ok(report)) => counts.idle_polls += report.idle_polls,
            Ok(Err(error)) => eprintln!("worker: {error}"),
            Err(_) => eprintln!("worker panicked"),
        }
        if let Some(proxy) = &proxy {
            let exchanges = proxy.next_connection().unwrap_or_default();
            counts.worker_dials += 1;
            trace_worker(
                &mut tracer,
                (trace, job_span),
                submitted_at,
                exchanges,
                &mut trips,
                &mut counts,
            );
        }

        // Fetch and decode the records.
        let path = format!("/jobs/{job_id}/records");
        let t = tracer.now();
        let page = server.connection.get(&path);
        let t_end = tracer.now();
        let Ok(page) = page else {
            outcome.failed += expected;
            tracer.record_with_id(trace, job_span, Some(root), "job", job_start, tracer.now());
            continue;
        };
        if traced {
            let span = tracer.record(trace, Some(job_span), "http", t, t_end);
            trips.push(Trip {
                trace,
                span,
                exchange: exchange("GET", &path, "", &page.body, t, t_end),
                encoded_in: None,
            });
        }
        let t = tracer.now();
        let decode = Instant::now();
        let decoded: Vec<Option<ScenarioRecord>> = page
            .body
            .lines()
            .map(|line| {
                let value = JsonValue::parse(line).ok()?;
                ScenarioRecord::from_json(&value).ok()
            })
            .collect();
        counts.decode_us += decode.elapsed().as_secs_f64() * 1e6;
        tracer.record(trace, Some(job_span), "record", t, tracer.now());
        outcome.latencies_ms.push(ms(clock_start.elapsed()));
        tracer.record_with_id(trace, job_span, Some(root), "job", job_start, tracer.now());

        let good = decoded.iter().flatten().count();
        outcome.failed += expected.saturating_sub(good);
        if decoded.len() != expected {
            outcome.check_failures += 1;
        }
        jobs.push(Job {
            id: job_id,
            spec,
            records: page.body,
        });
        if jobs.len() == RSS_JOBS {
            rss_mb = Some(crate::peak_rss_mb());
        }
    }
    outcome.end_timed_region(started);
    outcome.peak_rss_mb = rss_mb.unwrap_or(outcome.peak_rss_mb);
    tracer.record_with_id(1, root, None, "run", root_start, tracer.now());
    let client_dials = server.connection.dials();
    drop(proxy);
    drop(server);

    // Distributed ≡ in-process: each job's records are byte-identical to
    // an in-process run of the same campaign.
    for job in &jobs {
        if !matches_in_process(job) {
            eprintln!("{}: records differ from an in-process run", job.id);
            outcome.check_failures += 1;
        }
    }
    outcome.lines = jobs
        .iter()
        .flat_map(|job| job.records.lines().map(str::to_string))
        .collect();
    // No executor runs on the submitter's side of this workload.
    outcome.layer.insert("engine.cache_hit_rate".into(), 0.0);
    outcome.layer.insert("engine.cache_misses".into(), 0.0);

    if traced {
        let replay_dir = dir.join("replay");
        let replayed = replay(&mut tracer, &trips, &replay_dir, &mut counts)?;
        outcome.spans = tracer.into_spans();
        let rtts: Vec<f64> = trips
            .iter()
            .map(|trip| (trip.exchange.end_us - trip.exchange.start_us) as f64)
            .collect();
        let (_, rtt_tail) = stats::tail(&rtts);
        let records = outcome.lines.len() as f64;
        let bytes: usize = outcome.lines.iter().map(|line| line.len() + 1).sum();
        for (name, value) in [
            ("http.exchanges", trips.len() as f64),
            ("http.dials", (client_dials + counts.worker_dials) as f64),
            ("http.rtt_p50_us", stats::median(&rtts)),
            ("http.rtt_tail_us", rtt_tail),
            ("json.decode_ms", counts.json_decode_us / 1e3),
            ("json.encode_ms", counts.json_encode_us / 1e3),
            ("json.bytes", counts.json_bytes as f64),
            ("journal.appends", replayed.journal_lines as f64),
            ("journal.bytes", replayed.journal_bytes as f64),
            ("registry.calls", trips.len() as f64),
            ("lease.grants", counts.grants as f64),
            ("lease.idle_polls", counts.idle_polls as f64),
            ("lease.wait_ms", counts.lease_wait_us / 1e3),
            (
                "lease.useful_ratio",
                counts.shards_done as f64 / counts.grants.max(1) as f64,
            ),
            ("record.records", records),
            ("record.encode_us_total", counts.encode_us),
            ("record.decode_us_total", counts.decode_us),
            ("record.bytes", bytes as f64),
        ] {
            outcome.layer.insert(name.to_string(), value);
        }
    }
    Ok(outcome)
}

fn exchange(
    method: &str,
    path: &str,
    request: &str,
    response: &str,
    start_us: u64,
    end_us: u64,
) -> Exchange {
    Exchange {
        method: method.to_string(),
        path: path.to_string(),
        request_body: request.to_string(),
        response_body: response.to_string(),
        start_us,
        end_us,
    }
}

/// What the traced run counts outside the layer table.
#[derive(Default)]
struct Counts {
    json_encode_us: f64,
    json_decode_us: f64,
    json_bytes: usize,
    encode_us: f64,
    decode_us: f64,
    grants: usize,
    idle_polls: u64,
    shards_done: usize,
    lease_wait_us: f64,
    worker_dials: u64,
}

impl Counts {
    /// Records a client-side JSON encode or decode span.
    #[allow(clippy::too_many_arguments)]
    fn json(
        &mut self,
        tracer: &mut Tracer,
        trace: u64,
        parent: u64,
        start: u64,
        end: u64,
        bytes: usize,
        encode: bool,
    ) {
        if !tracer.on() {
            return;
        }
        tracer.record(trace, Some(parent), "json", start, end);
        let us = (end - start) as f64;
        if encode {
            self.json_encode_us += us;
        } else {
            self.json_decode_us += us;
        }
        self.json_bytes += bytes;
    }
}

/// Turns the worker's relayed exchanges into spans under the job: each
/// round trip an `http` span; each lease grant inside a `lease` span that
/// starts when the worker became free (job submitted, or previous shard
/// done); the time between other round trips a `worker` span (the
/// embedded executor's compute and the record encoding).
fn trace_worker(
    tracer: &mut Tracer,
    (trace, job_span): (u64, u64),
    submitted_at: u64,
    exchanges: Vec<Exchange>,
    trips: &mut Vec<Trip>,
    counts: &mut Counts,
) {
    let mut free_since = Some(submitted_at);
    let mut previous_end = submitted_at;
    for exchange in exchanges {
        let is_lease = exchange.path == "/lease";
        let grant = is_lease && exchange.response_body.contains("\"lease\"");
        let mut encoded_in = None;
        let parent = match (grant, free_since) {
            (true, Some(since)) => {
                counts.grants += 1;
                counts.lease_wait_us += (exchange.end_us - since) as f64;
                Some(tracer.record(trace, Some(job_span), "lease", since, exchange.end_us))
            }
            _ => {
                if exchange.start_us > previous_end {
                    let span = tracer.record(
                        trace,
                        Some(job_span),
                        "worker",
                        previous_end,
                        exchange.start_us,
                    );
                    encoded_in = Some((span, previous_end, exchange.start_us));
                }
                if grant {
                    counts.grants += 1;
                }
                None
            }
        };
        if exchange.path.ends_with("/done") {
            counts.shards_done += 1;
            free_since = Some(exchange.end_us);
        } else {
            free_since = None;
        }
        let span = tracer.record(
            trace,
            Some(parent.unwrap_or(job_span)),
            "http",
            exchange.start_us,
            exchange.end_us,
        );
        previous_end = exchange.end_us;
        let encoded_in = encoded_in.filter(|_| exchange.path.ends_with("/records"));
        trips.push(Trip {
            trace,
            span,
            exchange,
            encoded_in,
        });
    }
}

fn matches_in_process(job: &Job) -> bool {
    let campaign = job.spec.to_campaign();
    let scenarios = campaign.scenarios();
    let mut expected = Vec::new();
    let run = Executor::new(2).run(&campaign, &scenarios, &BTreeSet::new(), |record| {
        expected.push(record.to_json().to_json());
        Ok(())
    });
    let mut actual: Vec<&str> = job.records.lines().collect();
    expected.sort_unstable();
    actual.sort_unstable();
    run.is_ok() && expected == actual
}

struct Replayed {
    journal_lines: usize,
    journal_bytes: u64,
}

/// A registry call the server made for one round trip.
enum Call {
    Submit(Submission),
    Lease,
    Ingest { job: String, shard: usize },
    Done { job: String, shard: usize },
    Records { job: String },
}

fn parse_call(exchange: &Exchange) -> Result<Call, String> {
    let segments: Vec<&str> = exchange.path.trim_start_matches('/').split('/').collect();
    let shard = |text: &str| text.parse::<usize>().map_err(|e| e.to_string());
    Ok(match (exchange.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => {
            let body = JsonValue::parse(&exchange.request_body).map_err(|e| e.to_string())?;
            let spec = CampaignSpec::from_json(body.field("spec")?).map_err(|e| e.to_string())?;
            let shards = body.get("shards").and_then(JsonValue::as_u64).unwrap_or(1) as usize;
            Call::Submit(Submission::new(spec, shards))
        }
        ("POST", ["lease"]) => Call::Lease,
        ("POST", ["jobs", job, "shards", index, "records"]) => Call::Ingest {
            job: job.to_string(),
            shard: shard(index)?,
        },
        ("POST", ["jobs", job, "shards", index, "done"]) => Call::Done {
            job: job.to_string(),
            shard: shard(index)?,
        },
        ("GET", ["jobs", job, "records"]) => Call::Records {
            job: job.to_string(),
        },
        _ => {
            return Err(format!(
                "unexpected round trip {} {}",
                exchange.method, exchange.path
            ))
        }
    })
}

/// Replays every round trip's registry call, in order, on a plain
/// `Registry` and on a `JournaledRegistry`, and carves the measured
/// server-side times into the round trip's `http` span: body parse, the
/// registry call, its journal append, the reply encode.
fn replay(
    tracer: &mut Tracer,
    trips: &[Trip],
    dir: &Path,
    counts: &mut Counts,
) -> Result<Replayed, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let journal_path = dir.join("journal.jsonl");
    let mut plain = Registry::new(REPLAY_TTL_MS);
    let (mut journaled, _) =
        JournaledRegistry::open(&journal_path, REPLAY_TTL_MS).map_err(|e| e.to_string())?;
    for trip in trips {
        let exchange = &trip.exchange;
        let parsed = Instant::now();
        let parses_body = matches!(exchange.path.as_str(), "/jobs" | "/lease");
        if parses_body {
            JsonValue::parse(&exchange.request_body).map_err(|e| e.to_string())?;
        }
        let parse = if parses_body {
            parsed.elapsed()
        } else {
            Duration::ZERO
        };
        let call = parse_call(exchange)?;
        let (registry, reply) = time(|| apply_plain(&mut plain, &call, &exchange.request_body))?;
        let (with_journal, _) =
            time(|| apply_journaled(&mut journaled, &call, &exchange.request_body))?;
        let encoded = Instant::now();
        let reply_bytes = reply.map_or(0, |reply| reply.to_json().len());
        let encode = encoded.elapsed();
        tracer.carve(
            trip.trace,
            trip.span,
            exchange.start_us,
            exchange.end_us,
            &[
                ("json", parse),
                ("registry", registry),
                ("journal", with_journal.saturating_sub(registry)),
                ("json", encode),
            ],
        );
        counts.json_decode_us += parse.as_secs_f64() * 1e6;
        counts.json_encode_us += encode.as_secs_f64() * 1e6;
        counts.json_bytes += if parses_body {
            exchange.request_body.len()
        } else {
            0
        } + reply_bytes;
        if let (Some((span, start, end)), Call::Ingest { .. }) = (trip.encoded_in, &call) {
            let line = exchange.request_body.lines().next().unwrap_or_default();
            let record = JsonValue::parse(line)
                .ok()
                .and_then(|value| ScenarioRecord::from_json(&value).ok());
            if let Some(record) = record {
                let clock = Instant::now();
                let encoded = record.to_json().to_json();
                let spent = clock.elapsed();
                debug_assert_eq!(encoded, line);
                counts.encode_us += spent.as_secs_f64() * 1e6;
                tracer.carve(trip.trace, span, start, end, &[("record", spent)]);
            }
        }
    }
    drop(journaled);
    let text = std::fs::read_to_string(&journal_path).map_err(|e| e.to_string())?;
    Ok(Replayed {
        journal_lines: text.lines().count(),
        journal_bytes: text.len() as u64,
    })
}

fn time<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(Duration, T), String> {
    let clock = Instant::now();
    let value = f()?;
    Ok((clock.elapsed(), value))
}

fn apply_plain(
    registry: &mut Registry,
    call: &Call,
    body: &str,
) -> Result<Option<JsonValue>, String> {
    let error = |e: tats_service::ServiceError| e.to_string();
    Ok(match call {
        Call::Submit(submission) => Some(registry.submit(submission.clone(), 0).map_err(error)?),
        Call::Lease => Some(registry.lease(WORKER, 0)),
        Call::Ingest { job, shard } => {
            registry
                .ingest(job, *shard, WORKER, body, 0)
                .map_err(error)?;
            None
        }
        Call::Done { job, shard } => {
            Some(registry.shard_done(job, *shard, WORKER, 0).map_err(error)?)
        }
        Call::Records { job } => {
            registry.records_from(job, 0).map_err(error)?;
            None
        }
    })
}

fn apply_journaled(
    registry: &mut JournaledRegistry,
    call: &Call,
    body: &str,
) -> Result<(), String> {
    let error = |e: tats_service::ServiceError| e.to_string();
    match call {
        Call::Submit(submission) => drop(registry.submit(submission.clone(), 0).map_err(error)?),
        Call::Lease => drop(registry.lease(WORKER, 0).map_err(error)?),
        Call::Ingest { job, shard } => drop(
            registry
                .ingest(job, *shard, WORKER, body, 0)
                .map_err(error)?,
        ),
        Call::Done { job, shard } => {
            drop(registry.shard_done(job, *shard, WORKER, 0).map_err(error)?)
        }
        Call::Records { job } => drop(registry.registry().records_from(job, 0).map_err(error)?),
    }
    Ok(())
}
