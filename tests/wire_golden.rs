//! Golden digest over every response line the JSONL wire writes, on a
//! fixed seeded corpus.
//!
//! Every [`WireResponse`] shape is rendered through
//! `WireResponse::to_json().to_string()` and folded into one
//! [`ContentHasher`] digest:
//!
//! * analysis responses from a verifying service over seeded traffic, a
//!   deadlock, an infeasible request and a lookahead table that does not
//!   cover its program, each re-rendered under every cache provenance;
//! * hand-built certified responses: `verified` with and without a
//!   [`ReplayDeadlock`], diagnostics with and without message and cell
//!   ids, awkward message names and fractional labels;
//! * rejections of every [`ServiceError`] kind and every [`CoreError`]
//!   variant;
//! * edits under each classification mode, with and without
//!   [`FallbackReason::DirtyRatio`], and every [`EditRequestError`];
//! * a metrics dump of a fresh [`Registry`] holding fixed values,
//!   including a non-integral histogram mean;
//! * `status: "invalid"` answers for every [`WireError`] kind;
//! * generated traffic lines;
//! * snapshot save reports and snapshot rejections.
//!
//! Ids and messages carry `"`, `\`, `\n`, `\t`, `\u{1}`, `\u{7f}` and
//! non-ASCII text, and numbers reach `u64::MAX`. Serving times
//! (`micros`, `analysis_micros`) and trace ids are pinned to fixed values
//! before rendering. Any change to a field's name, order, number format
//! or string escape changes the digest, so the writer can be reworked
//! while this test holds the wire bytes identical.

use std::sync::Arc;

use systolic::core::{
    AnalysisConfig, CoreError, Diagnostic, DiagnosticCode, EditError, FallbackReason, Label,
    LabelingMethod, Lookahead, LookaheadLimits, ReuseReport, Severity,
};
use systolic::model::{parse_program, CellId, ContentHasher, Hop, MessageId, ModelError, Topology};
use systolic::obs::Registry;
use systolic::service::wire::{parse_line, WireError, WireResponse};
use systolic::service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, CacheProvenance, Certified,
    EditRequestError, EditResponse, Json, NamedEditOp, Rejection, ServiceConfig, ServiceError,
    SnapshotReport,
};
use systolic::sim::{ReplayDeadlock, VerifyReport};
use systolic::workloads::{traffic, TrafficConfig};

/// The digest of the corpus below, computed with the JSON-tree renderer
/// the direct writer replaced. Recompute it only for an intended change
/// of the wire format, never to absorb a change of rendering code.
const GOLDEN: &str = "da20e2bdab7c8d3a4eb0227c0addbb63";

/// Text that exercises every escaping rule: a quote, a backslash, a
/// newline, a tab, a carriage return, low control bytes, DEL and
/// multi-byte characters.
const AWKWARD: &str = "q\"b\\s\nn\tt\rr\u{1}\u{1f}c\u{7f}d é→𝄞";

const PROVENANCES: [CacheProvenance; 4] = [
    CacheProvenance::Miss,
    CacheProvenance::Hit,
    CacheProvenance::Warm,
    CacheProvenance::Incremental,
];

/// Numbers around the renderer's integer/float boundary (9e15) and at the
/// top of `u64`.
const WIDE: [u64; 6] = [
    0,
    8_999_999_999_999_999,
    9_000_000_000_000_000,
    (1 << 53) + 1,
    1 << 63,
    u64::MAX,
];

struct Digest {
    hasher: ContentHasher,
    lines: usize,
}

impl Digest {
    /// Renders one response, checks that it is one line of valid JSON,
    /// and folds it into the digest.
    fn add(&mut self, response: &WireResponse<'_>) {
        let line = response.to_json().to_string();
        assert!(!line.contains('\n'), "{line}");
        assert!(Json::parse(&line).is_ok(), "{line}");
        self.hasher.write_str(&line);
        self.lines += 1;
    }
}

/// The response with its run-to-run fields pinned: `micros`, `trace` and,
/// for a certified outcome, `analysis_micros`.
fn pinned(response: &AnalysisResponse, n: u64) -> AnalysisResponse {
    let outcome = match response.outcome.as_ref() {
        Ok(certified) => Ok(Certified {
            analysis_micros: 1_000 + n,
            ..certified.clone()
        }),
        Err(rejection) => Err(rejection.clone()),
    };
    AnalysisResponse {
        handle_micros: 2_000 + n,
        trace_id: 3_000 + n,
        outcome: Arc::new(outcome),
        ..response.clone()
    }
}

fn request(name: &str, program: &str, topology: Topology) -> AnalysisRequest {
    AnalysisRequest::new(name, parse_program(program).unwrap(), topology)
}

/// Seeded traffic plus the rejections a service produces on its own.
fn served_requests() -> Vec<AnalysisRequest> {
    let mut requests: Vec<AnalysisRequest> = traffic(&TrafficConfig::default(), 20_231_019, 64)
        .iter()
        .map(AnalysisRequest::from_traffic)
        .collect();
    requests.push(request(
        "deadlock",
        "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
         program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n",
        Topology::linear(2),
    ));
    // Fig. 9 shape: two same-label messages on hop c0->c1 need 2 queues.
    requests.push(request(
        "infeasible",
        "cells 3\nmessage A: c0 -> c1\nmessage B: c0 -> c2\n\
         program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
         program c1 { R(A)*4 }\nprogram c2 { R(B)*3 }\n",
        Topology::linear(3),
    ));
    let mut short_table = request(
        AWKWARD,
        "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
         program c0 { W(A) W(B) }\nprogram c1 { R(A) R(B) }\n",
        Topology::linear(2),
    );
    short_table.config = AnalysisConfig {
        lookahead: Lookahead::Explicit(LookaheadLimits::from_table(vec![Some(1)])),
        ..AnalysisConfig::default()
    };
    requests.push(short_table);
    let mut unbounded = request(
        "unbounded",
        "cells 3\nmessage A: c0 -> c2\nmessage B: c0 -> c1\n\
         program c0 { W(A)*2 W(B) }\nprogram c1 { R(B) }\nprogram c2 { R(A)*2 }\n",
        Topology::linear(3),
    );
    unbounded.config.lookahead = Lookahead::Unbounded;
    requests.push(unbounded);
    requests
}

/// Every analysis response a verifying service gave, under every
/// provenance; returns the responses for the edit and hand-built parts.
fn digest_served(digest: &mut Digest, service: &AnalysisService) -> Vec<AnalysisResponse> {
    let responses = service.run_batch(served_requests());
    for (n, response) in responses.iter().enumerate() {
        let mut response = pinned(response, n as u64);
        for provenance in PROVENANCES {
            response.provenance = provenance;
            digest.add(&WireResponse::Analysis(&response));
        }
    }
    responses
}

fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic::new(DiagnosticCode::Section6Fallback, AWKWARD),
        Diagnostic::new(DiagnosticCode::ExtensionCandidate, "extend c0-c1")
            .with_messages([MessageId::new(0), MessageId::new(41)]),
        Diagnostic::new(DiagnosticCode::Deadlock, "stuck")
            .with_cells([CellId::new(3), CellId::new(0)]),
        Diagnostic::new(DiagnosticCode::Infeasible, "short")
            .with_messages([MessageId::new(u32::MAX)])
            .with_cells([CellId::new(1), CellId::new(2)])
            .with_severity(Severity::Warning),
    ]
}

/// Certified responses built by hand around a real plan: every
/// `verified` form, diagnostics, awkward names and wide numbers.
fn digest_certified(digest: &mut Digest, base: &AnalysisResponse) {
    let Ok(real) = base.outcome.as_ref() else {
        panic!("the base response is certified");
    };
    let verified = [
        None,
        Some(VerifyReport {
            completed: true,
            cycles: 231,
            words_delivered: 17,
            deadlock: None,
        }),
        Some(VerifyReport {
            completed: false,
            cycles: u64::MAX,
            words_delivered: 0,
            deadlock: Some(ReplayDeadlock {
                cycle: 9_000_000_000_000_001,
                first_blocked: CellId::new(7),
                reason: AWKWARD.to_owned(),
                blocked_cells: 2,
            }),
        }),
    ];
    for (v, report) in verified.into_iter().enumerate() {
        for (d, diagnostics) in [Vec::new(), diagnostics()].into_iter().enumerate() {
            for method in [LabelingMethod::Section6, LabelingMethod::ConstraintSolver] {
                let certified = Certified {
                    plan: Arc::clone(&real.plan),
                    labeling_method: method,
                    message_labels: vec![
                        ("A".to_owned(), Label::integer(1)),
                        (AWKWARD.to_owned(), Label::ratio(3, 2)),
                        ("M17".to_owned(), Label::integer(10)),
                    ],
                    max_queues_per_interval: WIDE[v + d] as usize,
                    verified: report.clone(),
                    analysis_micros: WIDE[v + 2 * d],
                    diagnostics: diagnostics.clone(),
                };
                let response = AnalysisResponse {
                    seq: 0,
                    name: AWKWARD.to_owned(),
                    fingerprint: u128::MAX >> (v + d),
                    provenance: CacheProvenance::Warm,
                    outcome: Arc::new(Ok(certified)),
                    handle_micros: WIDE[5 - v],
                    trace_id: WIDE[4 - d],
                };
                digest.add(&WireResponse::Analysis(&response));
            }
        }
    }
    // An empty label table and the smallest numbers.
    let empty = AnalysisResponse {
        seq: 0,
        name: String::new(),
        fingerprint: 0,
        provenance: CacheProvenance::Hit,
        outcome: Arc::new(Ok(Certified {
            plan: Arc::clone(&real.plan),
            labeling_method: LabelingMethod::Section6,
            message_labels: Vec::new(),
            max_queues_per_interval: 0,
            verified: None,
            analysis_micros: 0,
            diagnostics: Vec::new(),
        })),
        handle_micros: 0,
        trace_id: 0,
    };
    digest.add(&WireResponse::Analysis(&empty));
}

fn service_errors() -> Vec<ServiceError> {
    let hop = Hop::new(CellId::new(0), CellId::new(1));
    vec![
        ServiceError::Analysis(CoreError::Model(ModelError::UnknownCell {
            name: AWKWARD.to_owned(),
        })),
        ServiceError::Analysis(CoreError::ProgramDeadlocked {
            crossed_words: 3,
            remaining_ops: usize::MAX,
        }),
        ServiceError::Analysis(CoreError::LabelConflict {
            message: MessageId::new(2),
            lower_bound: Label::ratio(5, 2),
            upper_bound: Label::integer(2),
        }),
        ServiceError::Analysis(CoreError::InconsistentLabeling { violations: 4 }),
        ServiceError::Analysis(CoreError::Infeasible {
            hop,
            required: 2,
            available: 1,
        }),
        ServiceError::Panicked(AWKWARD.to_owned()),
        ServiceError::InvalidConfig(AWKWARD.to_owned()),
    ]
}

/// Rejections of every error kind, with and without diagnostics.
fn digest_rejected(digest: &mut Digest) {
    for (n, error) in service_errors().into_iter().enumerate() {
        for diagnostics in [Vec::new(), diagnostics()] {
            let response = AnalysisResponse {
                seq: 0,
                name: format!("{AWKWARD}{n}"),
                fingerprint: 0x2a << n,
                provenance: PROVENANCES[n % 4],
                outcome: Arc::new(Err(Rejection {
                    error: error.clone(),
                    diagnostics,
                })),
                handle_micros: WIDE[n % 6],
                trace_id: n as u64,
            };
            digest.add(&WireResponse::Analysis(&response));
        }
    }
}

fn reuse_reports() -> Vec<ReuseReport> {
    let mut reports = Vec::new();
    // (resumed, seeded): resumed implies seeded; the third is "none".
    for (resumed, seeded) in [(true, true), (false, true), (false, false)] {
        for fallback in [None, Some(FallbackReason::DirtyRatio)] {
            for flags in 0..4u8 {
                reports.push(ReuseReport {
                    dirty_cells: usize::from(flags) + 1,
                    total_cells: 16,
                    dirty_messages: 2,
                    reused_routes: flags & 1 != 0,
                    reused_competing: flags & 2 != 0,
                    resumed_classification: resumed,
                    seeded_classification: seeded,
                    fast_labeling: flags == 3,
                    fallback,
                });
            }
        }
    }
    reports
}

/// Edits: a real one through the service, then its response and a
/// rejected one under every reuse report; then every edit error.
fn digest_edits(digest: &mut Digest, service: &AnalysisService, base: &AnalysisResponse) {
    let seeded = service
        .submit(request(
            "edit-base",
            "cells 4\nmessage A: c0 -> c1\nmessage B: c2 -> c3\n\
             program c0 { W(A) }\nprogram c1 { R(A) }\nprogram c2 { W(B) }\nprogram c3 { R(B) }\n",
            Topology::linear(4),
        ))
        .wait();
    let append = |cell: &str, write: bool, message: &str| NamedEditOp::Append {
        cell: cell.to_owned(),
        write,
        message: message.to_owned(),
    };
    let edit = service
        .apply_edit(
            AWKWARD,
            seeded.fingerprint,
            &[append("c0", true, "A"), append("c1", false, "A")],
        )
        .unwrap();
    let edit = EditResponse {
        response: pinned(&edit.response, 7),
        ..edit
    };
    digest.add(&WireResponse::Edit(&edit));

    let rejected = AnalysisResponse {
        provenance: CacheProvenance::Incremental,
        outcome: Arc::new(Err(Rejection {
            error: service_errors().swap_remove(1),
            diagnostics: diagnostics(),
        })),
        ..pinned(base, 8)
    };
    for (n, reuse) in reuse_reports().into_iter().enumerate() {
        let certified = EditResponse {
            response: pinned(&edit.response, n as u64),
            base: u128::MAX - n as u128,
            reuse,
        };
        digest.add(&WireResponse::Edit(&certified));
        let refused = EditResponse {
            response: rejected.clone(),
            base: n as u128,
            reuse,
        };
        digest.add(&WireResponse::Edit(&refused));
    }

    // Edit errors the service produces, then one of every kind.
    let mut errors: Vec<EditRequestError> = [
        (0x2a, vec![append("c0", true, "A")]),
        (seeded.fingerprint, vec![append(AWKWARD, true, "A")]),
        (seeded.fingerprint, vec![append("c0", true, AWKWARD)]),
        (
            seeded.fingerprint,
            vec![NamedEditOp::AddLink {
                a: "c0".to_owned(),
                b: "c3".to_owned(),
            }],
        ),
        (
            seeded.fingerprint,
            vec![append("c1", true, "A"), append("c0", false, "A")],
        ),
    ]
    .into_iter()
    .map(|(base, ops)| service.apply_edit("refused", base, &ops).unwrap_err())
    .collect();
    let model = ModelError::UnknownMessage {
        name: AWKWARD.to_owned(),
    };
    errors.extend([
        EditRequestError::UnknownBase { base: u128::MAX },
        EditRequestError::UnknownCellName(AWKWARD.to_owned()),
        EditRequestError::UnknownMessageName(String::new()),
        EditRequestError::Edit(EditError::InvalidProgram(model.clone())),
        EditRequestError::Edit(EditError::InvalidTopology(model)),
        EditRequestError::Edit(EditError::UnknownCell {
            cell: CellId::new(9),
            num_cells: 4,
        }),
        EditRequestError::Edit(EditError::EmptyCell {
            cell: CellId::new(2),
        }),
        EditRequestError::Edit(EditError::TopologyNotEditable),
        EditRequestError::Edit(EditError::SelfLink {
            cell: CellId::new(1),
        }),
        EditRequestError::Edit(EditError::NoSuchLink {
            a: CellId::new(0),
            b: CellId::new(3),
        }),
    ]);
    for (n, error) in errors.iter().enumerate() {
        let name = format!("{AWKWARD}{n}");
        digest.add(&WireResponse::EditRejected {
            name: &name,
            base: u128::MAX >> n,
            error,
        });
    }
}

/// A fresh registry with fixed values: label values that need escaping,
/// negative and wide gauges, and histograms with integral, fractional and
/// empty means.
fn digest_metrics(digest: &mut Digest) {
    digest.add(&WireResponse::Metrics(&Registry::new().snapshot()));
    let registry = Registry::new();
    registry.counter("requests_total").add(300);
    registry
        .counter_with("stage_total", &[("stage", AWKWARD), ("kind", "x")])
        .add(u64::MAX);
    registry
        .counter_with("stage_total", &[("stage", "label")])
        .inc();
    registry.gauge("queue_depth").set(-5);
    registry.gauge("sessions").set(i64::MAX);
    registry.gauge("zero").set(0);
    let halves = registry.histogram("halves_micros");
    halves.record(1);
    halves.record(2);
    let thirds = registry.histogram_with("thirds_micros", &[("stage", "plan")]);
    for value in [1, 1, 2] {
        thirds.record(value);
    }
    let wide = registry.histogram("wide_micros");
    wide.record(u64::MAX);
    wide.record(3);
    let _empty = registry.histogram("empty_micros");
    let steady = registry.histogram("steady_micros");
    for value in [10, 20, 30, 40, 5_000] {
        steady.record(value);
    }
    digest.add(&WireResponse::Metrics(&registry.snapshot()));
}

/// `status: "invalid"` answers: every wire error kind, from the parser
/// and built by hand.
fn digest_invalid(digest: &mut Digest) {
    let program = Json::Str("cells 2\nmessage A: c0 -> c1\n".to_owned());
    let lines = [
        "".to_owned(),
        "{".to_owned(),
        "[1,".to_owned(),
        format!("\"{AWKWARD}"),
        "\"a\u{1}b\"".to_owned(),
        "{\"id\":\"x\" 1}".to_owned(),
        "1e999".to_owned(),
        "[1]".to_owned(),
        format!(r#"{{"op":{}}}"#, Json::Str(AWKWARD.to_owned())),
        r#"{"op":"edit","base":"xyz","ops":[]}"#.to_owned(),
        format!(r#"{{"id":7,"program":{program},"topology":"linear:2"}}"#),
        format!(r#"{{"program":{program},"topology":"tree:2"}}"#),
        r#"{"program":"bogus directive","topology":"linear:2"}"#.to_owned(),
        format!(r#"{{"program":{program},"topology":"linear:2","lookahead":[1,2]}}"#),
        format!(
            r#"{{"program":{},"topology":"linear:2"}}"#,
            Json::Str(format!("cells 2\nmessage {AWKWARD}: c0 -> c1\n"))
        ),
    ];
    let mut errors: Vec<WireError> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| parse_line(line, i + 1).unwrap_err())
        .collect();
    errors.extend([
        WireError::Field(AWKWARD.to_owned()),
        WireError::Model(ModelError::DuplicateCell {
            name: AWKWARD.to_owned(),
        }),
        WireError::LineTooLong,
    ]);
    assert!(matches!(errors[0], WireError::Json(_)));
    for (n, error) in errors.iter().enumerate() {
        for line_number in [n + 1, usize::MAX] {
            digest.add(&WireResponse::Invalid { line_number, error });
        }
    }
}

/// Generated request lines, under their generated names and an awkward
/// one.
fn digest_traffic(digest: &mut Digest) {
    let config = TrafficConfig {
        hot_percent: 10,
        ..TrafficConfig::default()
    };
    for (i, item) in traffic(&config, 4_242, 40).iter().enumerate() {
        let id = format!("{}#{i}", item.name);
        digest.add(&WireResponse::Traffic { id: &id, item });
        if i % 8 == 0 {
            digest.add(&WireResponse::Traffic { id: AWKWARD, item });
        }
    }
}

fn digest_snapshots(digest: &mut Digest) {
    for (n, &wide) in WIDE.iter().enumerate() {
        let report = SnapshotReport {
            plans: wide,
            dropped: 1,
            bytes: WIDE[5 - n],
            micros: 99 + n as u64,
        };
        digest.add(&WireResponse::Snapshot { name: "s1", report });
        digest.add(&WireResponse::Snapshot {
            name: AWKWARD,
            report,
        });
    }
    for error in ["no --snapshot-save path configured", AWKWARD, ""] {
        digest.add(&WireResponse::SnapshotRejected {
            name: AWKWARD,
            error,
        });
    }
}

fn corpus_digest() -> (u128, usize) {
    let service = AnalysisService::new(ServiceConfig {
        workers: 1,
        verify: true,
        ..ServiceConfig::default()
    });
    let mut digest = Digest {
        hasher: ContentHasher::new(),
        lines: 0,
    };
    let served = digest_served(&mut digest, &service);
    let base = served
        .iter()
        .find(|response| response.is_certified())
        .expect("seeded traffic certifies");
    digest_certified(&mut digest, base);
    digest_rejected(&mut digest);
    digest_edits(&mut digest, &service, base);
    digest_metrics(&mut digest);
    digest_invalid(&mut digest);
    digest_traffic(&mut digest);
    digest_snapshots(&mut digest);
    (digest.hasher.finish(), digest.lines)
}

#[test]
fn wire_output_is_pinned() {
    let (digest, lines) = corpus_digest();
    assert!(lines > 400, "the corpus rendered only {lines} lines");
    assert_eq!(format!("{digest:032x}"), GOLDEN, "{lines} lines");
}
