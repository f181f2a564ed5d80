//! `edit_stream`: editing clients on warm incremental sessions. Each timed
//! request is an `{"op":"edit"}` line chained on the previous response's
//! fingerprint for its session, so the analyzer's write path — resumed
//! crossing-off, early-stopped labeling, the dirty-ratio fallback — is
//! what the workload measures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use systolic_core::{
    request_fingerprint, Analyzer, CompiledTopology, EditOp, IncrementalConfig, IncrementalSession,
};
use systolic_model::{Program, Topology};
use systolic_service::wire::{parse_line, WireRequest, WireResponse};
use systolic_service::{AnalysisRequest, AnalysisService, EditResponse, ServiceConfig};

use crate::gen::{self, EditChain};
use crate::harness::{self, span, Options, Phase, SetupTimes, SETUP_AFTER, SETUP_BEFORE};
use crate::trace::SpanLog;
use crate::{ratio, set, Outcome};

/// One editing client: its session's base topology, its program model,
/// and the fingerprint the next edit chains on.
struct Client {
    name: String,
    topology: Topology,
    chain: EditChain,
    fingerprint: u128,
}

/// The session bases: as many as the service keeps warm.
fn bases(seed: u64) -> Vec<(Program, Topology, usize)> {
    (0..ServiceConfig::default().session_capacity as u64)
        .map(|i| gen::edit_base(seed, i))
        .collect()
}

/// An edit line for `client`.
fn edit_line(client: &Client, n: usize, ops: &str) -> String {
    format!(
        r#"{{"op":"edit","id":"{}-{n}","base":"{:#034x}","ops":{ops}}}"#,
        client.name, client.fingerprint
    )
}

/// `parse_line` → `apply_edit` → `to_json`, each a span under `root`
/// when tracing. Returns the response — `None` when the line did not
/// parse to an edit or the service refused it — and the encoded length.
fn send(
    service: &AnalysisService,
    line: &str,
    n: usize,
    log: &mut Option<&mut SpanLog>,
    root: Option<usize>,
) -> (Option<EditResponse>, usize) {
    let id = n as u64;
    let parsed = span(log, "wire.parse_line", root, id, || parse_line(line, n));
    let Ok(WireRequest::Edit(command)) = parsed else {
        return (None, 0);
    };
    let result = span(log, "service.roundtrip", root, id, || {
        service.apply_edit(command.name.clone(), command.base, &command.ops)
    });
    let encoded = span(log, "wire.encode", root, id, || match &result {
        Ok(edit) => WireResponse::Edit(edit).to_json().to_string(),
        Err(error) => WireResponse::EditRejected {
            name: &command.name,
            base: command.base,
            error,
        }
        .to_json()
        .to_string(),
    });
    (result.ok(), encoded.len())
}

/// The workload's set-up: a fresh service, each base analyzed in full
/// and then opened as a warm session by one warm-up edit. Returns the
/// service, the clients, and the count of responses that were not
/// certified.
fn setup(seed: u64, bases: &[(Program, Topology, usize)]) -> (AnalysisService, Vec<Client>, u64) {
    let service = AnalysisService::new(harness::service_config(false));
    let mut rng = StdRng::seed_from_u64(gen::item_seed(seed, gen::WARMUP, 0));
    let mut failed = 0;
    let clients = bases
        .iter()
        .enumerate()
        .map(|(i, (program, topology, queues))| {
            let mut chain = EditChain::new(program, topology, *queues);
            let mut request =
                AnalysisRequest::new(format!("s{i}"), program.clone(), topology.clone());
            request.config = chain.config();
            let response = service.submit(request).wait();
            failed += u64::from(!response.is_certified());
            let mut client = Client {
                name: format!("s{i}"),
                topology: topology.clone(),
                chain: chain.clone(),
                fingerprint: response.fingerprint,
            };
            let batch = chain.next_batch(&mut rng);
            let line = edit_line(&client, 0, &chain.ops_json(&batch));
            match send(&service, &line, 0, &mut None, None).0 {
                Some(edit) if edit.response.is_certified() => {
                    client.fingerprint = edit.response.fingerprint;
                }
                _ => failed += 1,
            }
            client.chain = chain;
            client
        })
        .collect();
    (service, clients, failed)
}

/// Responses the checker holds before checking them, so timed edits run
/// back to back rather than each after a full reanalysis.
const CHECK_BLOCK: usize = 256;

/// Replays every client's edits on a model of its own and checks each
/// response against a fresh `Analyzer::diagnose` of the edited
/// program: request fingerprint, plan fingerprint and diagnostics must
/// all agree.
struct Checker {
    /// Per client: program model, base topology, and the compilation the
    /// last check used (reused until a link edit changes the topology).
    models: Vec<(EditChain, Topology, Option<Arc<CompiledTopology>>)>,
    /// Responses not yet checked: client, batch, response.
    pending: Vec<(usize, Vec<EditOp>, EditResponse)>,
}

impl Checker {
    fn new(clients: &[Client]) -> Checker {
        Checker {
            models: clients
                .iter()
                .map(|c| (c.chain.clone(), c.topology.clone(), None))
                .collect(),
            pending: Vec::with_capacity(CHECK_BLOCK),
        }
    }

    /// Checks every pending response; returns how many failed.
    fn flush(&mut self) -> u64 {
        let mut failed = 0;
        for (slot, batch, edit) in self.pending.drain(..) {
            let (chain, base, compiled) = &mut self.models[slot];
            chain.apply(&batch);
            let program = chain.program();
            let topology = chain.topology(base);
            let config = chain.config();
            let compiled = match compiled {
                Some(compiled) if *compiled.topology() == topology => Arc::clone(compiled),
                _ => Arc::clone(
                    compiled.insert(CompiledTopology::compile(&topology, &config).into_shared()),
                ),
            };
            let fresh = Analyzer::new(compiled).diagnose(&program);
            let diagnostics: Vec<_> = fresh.diagnostics().clone().into_iter().collect();
            let ok = edit.response.fingerprint == request_fingerprint(&program, &topology, &config)
                && match (edit.response.outcome.as_ref(), fresh.result()) {
                    (Ok(served), Ok(analysis)) => {
                        served.plan.fingerprint() == analysis.plan().fingerprint()
                            && served.diagnostics == diagnostics
                    }
                    _ => false,
                };
            failed += u64::from(!ok);
        }
        failed
    }
}

/// What the service reported reusing, summed over a pass.
#[derive(Default)]
struct Reuse {
    edits: u64,
    stages: u64,
    fallbacks: u64,
    dirty: f64,
    handle_ns: u64,
}

/// Sends edits round-robin over `clients` until `count` were sent or
/// `deadline` of timed work passed. With `verify`, every response is
/// checked anew in blocks of [`CHECK_BLOCK`]; the checks' wall
/// time is left out of the phase's elapsed and CPU time (edits run on
/// this thread, so the service's workers are idle meanwhile). With a log, each request is a `request`
/// span over `wire.parse_line`, `service.roundtrip` and `wire.encode`,
/// and the edit batch is then replayed on the benchmark's own session for
/// `incremental.apply`.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &AnalysisService,
    clients: &mut [Client],
    seed: u64,
    count: usize,
    deadline: Duration,
    verify: bool,
    mut log: Option<&mut SpanLog>,
    reuse: &mut Reuse,
) -> Phase {
    let mut rng = StdRng::seed_from_u64(gen::item_seed(seed, gen::TIMED, 0));
    let mut probes: Vec<IncrementalSession> = match log {
        Some(_) => clients
            .iter()
            .map(|c| {
                let topology = c.chain.topology(&c.topology);
                let compiled =
                    CompiledTopology::compile(&topology, &c.chain.config()).into_shared();
                IncrementalSession::seed(
                    Analyzer::new(compiled),
                    c.chain.program(),
                    IncrementalConfig {
                        fallback_ratio: ServiceConfig::default().incremental_fallback_ratio,
                    },
                )
            })
            .collect(),
        None => Vec::new(),
    };
    let mut checker = verify.then(|| Checker::new(clients));
    let mut phase = Phase::default();
    let mut paused = Duration::ZERO;
    let cpu_start = harness::process_cpu();
    let started = Instant::now();
    for n in 0..count {
        if started.elapsed().saturating_sub(paused) >= deadline {
            break;
        }
        let slot = n % clients.len();
        let client = &mut clients[slot];
        let batch = client.chain.next_batch(&mut rng);
        let line = edit_line(client, n + 1, &client.chain.ops_json(&batch));
        let id = n as u64;
        phase.attempted += 1;
        phase.bytes_in += line.len() as u64;
        let t0 = Instant::now();
        let root = log.as_deref_mut().map(|log| log.open("request", None, id));
        let (edit, encoded) = send(service, &line, n, &mut log, root);
        if let (Some(log), Some(root)) = (log.as_deref_mut(), root) {
            log.close(root);
        }
        phase.latencies.push(t0.elapsed().as_nanos() as u64);
        phase.bytes_out += encoded as u64;
        let Some(edit) = edit else {
            phase.failed += 1;
            continue;
        };
        client.fingerprint = edit.response.fingerprint;
        reuse.edits += 1;
        reuse.stages += u64::from(edit.reuse.reused_routes)
            + u64::from(edit.reuse.reused_competing)
            + u64::from(edit.reuse.seeded_classification);
        reuse.fallbacks += u64::from(edit.reuse.fallback.is_some());
        reuse.dirty += edit.reuse.dirty_ratio();
        reuse.handle_ns += edit.response.handle_micros * 1000;
        let mut ok = edit.response.is_certified();
        if let Some(log) = log.as_deref_mut() {
            crate::probe_wire(log, id, &line);
            let session = &mut probes[slot];
            let applied = log.time("incremental.apply", None, id, || session.apply(&batch));
            ok &= applied.is_ok() && session.fingerprint() == edit.response.fingerprint;
        }
        phase.failed += u64::from(!ok);
        if let Some(checker) = checker.as_mut() {
            checker.pending.push((slot, batch, edit));
            if checker.pending.len() >= CHECK_BLOCK {
                let check = Instant::now();
                phase.failed += checker.flush();
                paused += check.elapsed();
            }
        }
    }
    phase.elapsed = started.elapsed().saturating_sub(paused);
    phase.cpu = harness::process_cpu()
        .saturating_sub(cpu_start)
        .saturating_sub(paused);
    if let Some(checker) = checker.as_mut() {
        phase.failed += checker.flush();
    }
    phase
}

/// The untraced run: end-to-end metrics.
pub fn run(options: &Options) -> Outcome {
    let bases = bases(options.seed);
    let mut setup_times = SetupTimes::default();
    let (service, mut clients, setup_failed) =
        setup_times.run(SETUP_BEFORE, || setup(options.seed, &bases));
    let mut phase = drive(
        &service,
        &mut clients,
        options.seed,
        usize::MAX,
        Duration::from_secs(options.seconds),
        true,
        None,
        &mut Reuse::default(),
    );
    phase.failed += setup_failed;
    drop(service);
    drop(setup_times.run(SETUP_AFTER, || setup(options.seed, &bases)));
    Outcome::from_phase(&phase, setup_times.median())
}

/// The traced run: per-layer metrics.
pub fn traced(options: &Options, log: &mut SpanLog) -> Outcome {
    let bases = bases(options.seed);
    let half = Duration::from_secs(options.seconds) / 2;
    let plain = {
        let (service, mut clients, _) = setup(options.seed, &bases);
        drive(
            &service,
            &mut clients,
            options.seed,
            usize::MAX,
            half,
            false,
            None,
            &mut Reuse::default(),
        )
    };
    let (service, mut clients, setup_failed) = setup(options.seed, &bases);
    let mut reuse = Reuse::default();
    let traced = drive(
        &service,
        &mut clients,
        options.seed,
        plain.latencies.len(),
        Duration::MAX,
        false,
        Some(log),
        &mut reuse,
    );
    let mut metrics = crate::layer_metrics(log, &plain, &traced);
    let roundtrip = metrics
        .iter()
        .find(|(name, _, _)| name == "service.roundtrip_ns")
        .map_or(0.0, |m| m.1);
    set(
        &mut metrics,
        "service.wait_ns",
        roundtrip - reuse.handle_ns as f64 / reuse.edits.max(1) as f64,
    );
    set(
        &mut metrics,
        "incremental.stage_reuse_ratio",
        ratio(reuse.stages, 3 * reuse.edits),
    );
    set(
        &mut metrics,
        "incremental.fallback_ratio",
        ratio(reuse.fallbacks, reuse.edits),
    );
    set(
        &mut metrics,
        "incremental.dirty_ratio",
        reuse.dirty / reuse.edits.max(1) as f64,
    );
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed + setup_failed,
        metrics,
    }
}
