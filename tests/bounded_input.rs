//! One request line can no longer abort the daemon: sizes are checked
//! before anything is allocated for them, and a line is read into memory
//! only up to a bound.
//!
//! The stream below is the one `systolicd serve` reads in CI: a 10^10
//! repeat count (which once made the builder reserve 80 GB), a 10^10 cell
//! count (480 GB), a line over the read bound, and then a valid request.
//! It runs through the same reader, parser and service the daemon's loop
//! uses, and every line must be answered in order.

use systolic::model::SizeLimit;
use systolic::service::wire::{
    parse_line, BoundedLines, WireError, WireRequest, WireResponse, MAX_LINE_BYTES,
};
use systolic::service::{AnalysisService, Json, ServiceConfig};

fn request(id: &str, program: &str) -> String {
    Json::Obj(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("program".to_owned(), Json::Str(program.to_owned())),
        ("topology".to_owned(), Json::Str("linear:2".to_owned())),
    ])
    .to_string()
}

fn stream() -> String {
    [
        request(
            "repeat",
            "cells 2\nmessage A: c0 -> c1\n\
             program c0 { W(A)*10000000000 }\nprogram c1 { R(A)*10000000000 }\n",
        ),
        request("cells", "cells 10000000000\n"),
        request(&"x".repeat(MAX_LINE_BYTES), "cells 2\n"),
        request(
            "ok",
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        ),
    ]
    .join("\n")
}

#[test]
fn oversized_lines_are_answered_invalid_and_serving_goes_on() {
    let service = AnalysisService::new(ServiceConfig::default());
    let mut answers = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in BoundedLines::new(stream().as_bytes()).enumerate() {
        let line_number = i + 1;
        let line = line.expect("in-memory reads succeed");
        match line.and_then(|text| parse_line(&text, line_number)) {
            Ok(WireRequest::Analysis(request)) => {
                let response = service.submit(*request).wait();
                answers.push(WireResponse::Analysis(&response).to_json());
            }
            Ok(_) => panic!("line {line_number} is an analysis request"),
            Err(error) => {
                answers.push(
                    WireResponse::Invalid {
                        line_number,
                        error: &error,
                    }
                    .to_json(),
                );
                errors.push(error);
            }
        }
    }
    let answers: Vec<Json> = answers
        .iter()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    let summary: Vec<(&str, &str)> = answers
        .iter()
        .map(|a| {
            let field = |k| a.get(k).and_then(Json::as_str).expect("string member");
            (field("id"), field("status"))
        })
        .collect();
    assert_eq!(
        summary,
        [
            ("line-1", "invalid"),
            ("line-2", "invalid"),
            ("line-3", "invalid"),
            ("ok", "certified"),
        ]
    );
    let too_large = |limit| {
        move |e: &WireError| {
            matches!(e, WireError::Model(systolic::model::ModelError::TooLarge { limit: l, size })
                if *l == limit && *size == 10_000_000_000)
        }
    };
    assert!(too_large(SizeLimit::Repeat)(&errors[0]), "{:?}", errors[0]);
    assert!(too_large(SizeLimit::Cells)(&errors[1]), "{:?}", errors[1]);
    assert_eq!(errors[2], WireError::LineTooLong);
}
