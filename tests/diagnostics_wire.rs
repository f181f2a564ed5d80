//! Acceptance: an unsafe program yields ≥ 1 structured diagnostic —
//! machine-readable code plus offending cell/message ids — end to end
//! through the JSONL wire format, exactly as a `systolicd` client sees it.

use systolic::service::wire::{parse_request, WireResponse};
use systolic::service::{AnalysisService, Json, ServiceConfig};

fn serve_line(line: &str) -> Json {
    let service = AnalysisService::new(ServiceConfig::default());
    let request = parse_request(line, 1).expect("request parses");
    let response = service.submit(request).wait();
    Json::parse(&WireResponse::Analysis(&response).to_json()).unwrap()
}

fn diagnostics(json: &Json) -> &[Json] {
    match json.get("diagnostics") {
        Some(Json::Arr(items)) => items,
        other => panic!("expected a diagnostics array, got {other:?}"),
    }
}

#[test]
fn deadlocked_request_reports_structured_diagnostics() {
    let deadlock = "cells 2\nmessage A: c0 -> c1\nmessage B: c1 -> c0\n\
                    program c0 { R(B) W(A) }\nprogram c1 { R(A) W(B) }\n";
    let line = format!(
        r#"{{"id":"unsafe-1","program":{},"topology":"linear:2"}}"#,
        Json::Str(deadlock.to_owned())
    );
    let json = serve_line(&line);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("rejected"));

    let diagnostics = diagnostics(&json);
    assert!(
        !diagnostics.is_empty(),
        "unsafe programs carry >= 1 diagnostic"
    );
    let d = &diagnostics[0];
    assert_eq!(d.get("code").and_then(Json::as_str), Some("E-DEADLOCK"));
    assert_eq!(d.get("severity").and_then(Json::as_str), Some("error"));
    // Offending ids: both cells are stuck, both messages involved.
    let Some(Json::Arr(cells)) = d.get("cells") else {
        panic!("cells array")
    };
    assert_eq!(cells.len(), 2);
    let Some(Json::Arr(messages)) = d.get("messages") else {
        panic!("messages array")
    };
    assert!(!messages.is_empty());
    // The line is valid JSON all the way through.
    assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
}

#[test]
fn infeasible_request_names_the_short_interval_and_competitors() {
    // Fig. 9 shape: two same-label messages on hop c0->c1 need 2 queues,
    // but the request grants only 1.
    let program = "cells 3\nmessage A: c0 -> c1\nmessage B: c0 -> c2\n\
                   program c0 { W(A) W(B) W(A) W(A) W(B) W(B) W(A) }\n\
                   program c1 { R(A)*4 }\nprogram c2 { R(B)*3 }\n";
    let line = format!(
        r#"{{"id":"unsafe-2","program":{},"topology":"linear:3","queues":1}}"#,
        Json::Str(program.to_owned())
    );
    let json = serve_line(&line);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("rejected"));
    assert_eq!(
        json.get("error_kind").and_then(Json::as_str),
        Some("infeasible")
    );

    let diagnostics = diagnostics(&json);
    let d = diagnostics
        .iter()
        .find(|d| d.get("code").and_then(Json::as_str) == Some("E-INFEASIBLE"))
        .expect("infeasible diagnostic present");
    let Some(Json::Arr(cells)) = d.get("cells") else {
        panic!("cells array")
    };
    assert_eq!(cells.len(), 2, "the short interval's two endpoints");
    let Some(Json::Arr(messages)) = d.get("messages") else {
        panic!("messages array")
    };
    assert_eq!(messages.len(), 2, "both same-label competitors named");
}

#[test]
fn certified_requests_have_no_error_diagnostics() {
    let safe = "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*3 }\nprogram c1 { R(A)*3 }\n";
    let line = format!(
        r#"{{"id":"safe","program":{},"topology":"linear:2"}}"#,
        Json::Str(safe.to_owned())
    );
    let json = serve_line(&line);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("certified"));
    if let Some(Json::Arr(items)) = json.get("diagnostics") {
        for d in items {
            assert_ne!(
                d.get("severity").and_then(Json::as_str),
                Some("error"),
                "certified responses must not carry error diagnostics"
            );
        }
    }
}
