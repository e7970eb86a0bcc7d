//! Line-delimited text protocol for the TCP front-end.
//!
//! One request per line; every response is one or more lines terminated by
//! an empty line, so plain `nc` works as a client:
//!
//! ```text
//! infer model=default k=3 head=Seattle tail=Washington text=Seattle is in Washington
//! ok located_in:0.91 NA:0.05 founded_by:0.02
//!
//! stats
//! requests: submitted=1 completed=1 errors=0 rejected_queue_full=0
//! ...
//!
//! models     → ok default
//! ping       → ok pong
//! quit       → closes the connection
//! ```
//!
//! Errors come back as `err <code> <message>` with the stable codes from
//! [`ServeError::code`].

use crate::engine::ServeHandle;
use crate::error::ServeError;
use crate::pipeline::{InferRequest, InferResponse};

/// A classified request line: either something the front end can answer
/// without touching the engine queue, or an `infer` the event loop submits
/// asynchronously ([`crate::engine::ServeHandle::submit_with`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LineAction {
    /// Answer immediately with these lines (an empty terminator line is
    /// appended on the wire).
    Respond(Vec<String>),
    /// Close the connection.
    Quit,
    /// Submit this request to the engine; its answer becomes the response
    /// line ([`format_response`] / [`format_error`]).
    Submit(InferRequest),
}

/// Parses an `infer` command's `key=value` arguments.
///
/// `text=` must come last: it consumes the rest of the line verbatim.
/// `deadline=` (milliseconds) optionally bounds how long the request may
/// wait in the engine queue before being shed with `deadline-exceeded`.
/// `knn=` and `lambda=` override the engine's kNN interpolation defaults
/// per request: `knn=K` retrieves K training-bag neighbors and `lambda=L`
/// (L ∈ [0, 1]) blends their label distribution into the scores; `knn=0`
/// or `lambda=0` forces the pure model path.
pub fn parse_infer(args: &str) -> Result<InferRequest, ServeError> {
    let mut req = InferRequest::default();
    let mut rest = args.trim_start();
    while !rest.is_empty() {
        if let Some(text) = rest.strip_prefix("text=") {
            req.text = text.to_string();
            break;
        }
        let token = rest
            .split_whitespace()
            .next()
            .expect("non-empty rest has a token");
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ServeError::BadRequest(format!("expected key=value, got {token:?}")))?;
        match key {
            "model" => req.model = value.to_string(),
            "head" => req.head = value.to_string(),
            "tail" => req.tail = value.to_string(),
            "k" => {
                req.top_k = value.parse().map_err(|_| {
                    ServeError::BadRequest(format!("k must be a number, got {value:?}"))
                })?;
            }
            "deadline" => {
                req.deadline_ms = Some(value.parse().map_err(|_| {
                    ServeError::BadRequest(format!(
                        "deadline must be a number of milliseconds, got {value:?}"
                    ))
                })?);
            }
            "knn" => {
                req.knn_k = Some(value.parse().map_err(|_| {
                    ServeError::BadRequest(format!("knn must be a neighbor count, got {value:?}"))
                })?);
            }
            "lambda" => {
                let lambda: f32 = value.parse().map_err(|_| {
                    ServeError::BadRequest(format!("lambda must be a number, got {value:?}"))
                })?;
                if !lambda.is_finite() || !(0.0..=1.0).contains(&lambda) {
                    return Err(ServeError::BadRequest(format!(
                        "lambda must be in [0, 1], got {value:?}"
                    )));
                }
                req.knn_lambda = Some(lambda);
            }
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown infer argument {other:?}"
                )))
            }
        }
        rest = rest[token.len()..].trim_start();
    }
    for (field, name) in [
        (&req.model, "model"),
        (&req.head, "head"),
        (&req.tail, "tail"),
        (&req.text, "text"),
    ] {
        if field.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "missing required argument {name}="
            )));
        }
    }
    Ok(req)
}

/// Formats a successful inference as a single `ok` line.
pub fn format_response(resp: &InferResponse) -> String {
    let mut line = String::from("ok");
    for r in &resp.ranked {
        line.push_str(&format!(" {}:{:.6}", r.relation, r.score));
    }
    line
}

/// Formats an error as an `err` line.
pub fn format_error(err: &ServeError) -> String {
    format!("err {} {err}", err.code())
}

/// Encodes reply lines to wire bytes: each line followed by `\n`, then the
/// empty terminator line every response ends with.
pub fn encode_lines(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
    for line in lines {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out.push(b'\n');
    out
}

/// Classifies one request line: commands the front end answers on the spot
/// (`ping`, `stats`, `models`, parse errors, `quit`) versus an `infer` that
/// must go through the engine.
pub fn classify_line(handle: &ServeHandle, line: &str) -> LineAction {
    let line = line.trim();
    let (command, args) = match line.split_once(char::is_whitespace) {
        Some((c, a)) => (c, a),
        None => (line, ""),
    };
    match command {
        "" => LineAction::Respond(vec![]),
        "quit" => LineAction::Quit,
        "ping" => LineAction::Respond(vec!["ok pong".to_string()]),
        "models" => {
            let mut line = String::from("ok");
            for name in handle.registry().names() {
                line.push(' ');
                line.push_str(&name);
            }
            LineAction::Respond(vec![line])
        }
        "stats" => LineAction::Respond(handle.stats_text().lines().map(str::to_string).collect()),
        "infer" => match parse_infer(args) {
            Ok(req) => LineAction::Submit(req),
            Err(e) => LineAction::Respond(vec![format_error(&e)]),
        },
        other => LineAction::Respond(vec![format_error(&ServeError::BadRequest(format!(
            "unknown command {other:?}"
        )))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_infer_full_line() {
        let req =
            parse_infer("model=m k=3 head=Seattle tail=Washington text=Seattle is in Washington")
                .unwrap();
        assert_eq!(req.model, "m");
        assert_eq!(req.top_k, 3);
        assert_eq!(req.head, "Seattle");
        assert_eq!(req.tail, "Washington");
        assert_eq!(req.text, "Seattle is in Washington");
    }

    #[test]
    fn parse_infer_text_keeps_equals_signs() {
        let req = parse_infer("model=m head=a tail=b text=a = b | a b").unwrap();
        assert_eq!(req.text, "a = b | a b");
    }

    #[test]
    fn parse_infer_deadline_is_optional() {
        let req = parse_infer("model=m head=a tail=b text=a b").unwrap();
        assert_eq!(req.deadline_ms, None);
        let req = parse_infer("model=m deadline=250 head=a tail=b text=a b").unwrap();
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn parse_infer_bad_deadline_rejected() {
        assert_eq!(
            parse_infer("model=m deadline=soon head=a tail=b text=a b")
                .unwrap_err()
                .code(),
            "bad-request"
        );
    }

    #[test]
    fn parse_infer_missing_field_rejected() {
        let err = parse_infer("model=m head=a text=a b").unwrap_err();
        assert_eq!(err.code(), "bad-request");
        assert!(err.to_string().contains("tail"));
    }

    #[test]
    fn parse_infer_bad_k_rejected() {
        assert_eq!(
            parse_infer("model=m k=lots head=a tail=b text=a b")
                .unwrap_err()
                .code(),
            "bad-request"
        );
    }

    #[test]
    fn parse_infer_knn_and_lambda() {
        let req = parse_infer("model=m head=a tail=b text=a b").unwrap();
        assert_eq!(req.knn_k, None);
        assert_eq!(req.knn_lambda, None);
        let req = parse_infer("model=m knn=4 lambda=0.3 head=a tail=b text=a b").unwrap();
        assert_eq!(req.knn_k, Some(4));
        assert_eq!(req.knn_lambda, Some(0.3));
        let req = parse_infer("model=m knn=0 head=a tail=b text=a b").unwrap();
        assert_eq!(req.knn_k, Some(0));
    }

    #[test]
    fn parse_infer_bad_knn_rejected() {
        for args in [
            "model=m knn=many head=a tail=b text=a b",
            "model=m lambda=1.5 head=a tail=b text=a b",
            "model=m lambda=-0.1 head=a tail=b text=a b",
            "model=m lambda=NaN head=a tail=b text=a b",
        ] {
            assert_eq!(
                parse_infer(args).unwrap_err().code(),
                "bad-request",
                "{args}"
            );
        }
    }

    #[test]
    fn parse_infer_unknown_key_rejected() {
        assert_eq!(
            parse_infer("model=m beam=7 head=a tail=b text=a b")
                .unwrap_err()
                .code(),
            "bad-request"
        );
    }

    #[test]
    fn format_error_carries_code() {
        let line = format_error(&ServeError::QueueFull { capacity: 8 });
        assert!(line.starts_with("err queue-full "));
    }
}
