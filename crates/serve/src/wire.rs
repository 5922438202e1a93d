//! The line-delimited JSON-RPC wire protocol.
//!
//! One frame per line, request and response alike. A request names a
//! method, optionally a session spec (which network / config / x_pre
//! the pipeline runs against), and method parameters:
//!
//! ```json
//! {"id":1,"method":"select","session":{"case":"case14"},"params":{"gamma_threshold":0.05}}
//! ```
//!
//! The response echoes the request `id` and carries either `result` or
//! a JSON-RPC-style `error` object:
//!
//! ```json
//! {"id":1,"result":{"gamma":0.052,...}}
//! {"id":1,"error":{"code":-32602,"message":"select: missing gamma_threshold"}}
//! ```
//!
//! Every session-bearing method maps 1:1 onto a
//! [`batch::Request`](gridmtd_core::session::batch::Request) variant,
//! so the server can coalesce compatible queued frames into a single
//! [`run_batch`](gridmtd_core::MtdSession::run_batch) call and the
//! responses are — by construction — bit-identical to direct
//! [`MtdSession`](gridmtd_core::MtdSession) calls (both sides render
//! through the same deterministic [`Json`] writer).

use gridmtd_core::session::batch::{Request, Response};
use gridmtd_core::{
    BaselineOutcome, HourOutcome, LearningOptions, LearningOutcome, MtdConfig, MtdError,
    MtdEvaluation, MtdSelection, TimelineOptions,
};
use gridmtd_scenario::json::Json;

use crate::session_key::SessionSpec;

/// JSON parse failure (`-32700`).
pub const PARSE_ERROR: i64 = -32700;
/// Structurally invalid request frame (`-32600`).
pub const INVALID_REQUEST: i64 = -32600;
/// Unknown method (`-32601`).
pub const METHOD_NOT_FOUND: i64 = -32601;
/// Bad or missing method / session parameters (`-32602`).
pub const INVALID_PARAMS: i64 = -32602;
/// The MTD pipeline itself failed (`-32000`).
pub const PIPELINE_ERROR: i64 = -32000;
/// Frame exceeded the server's size cap (`-32001`).
pub const FRAME_TOO_LARGE: i64 = -32001;
/// The worker queue is at capacity and the request was shed instead of
/// queued (`-32002`). Clients should retry with backoff
/// ([`crate::Client::call_raw_with_retry`] does).
pub const OVERLOADED: i64 = -32002;
/// The request's deadline elapsed before a worker picked it up
/// (`-32003`). The work was never started.
pub const DEADLINE_EXCEEDED: i64 = -32003;

/// A protocol-level failure: the JSON-RPC error code plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the `-327xx` / `-320xx` codes above.
    pub code: i64,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: i64, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// What a request frame asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// Liveness check; no session required.
    Ping,
    /// Server statistics (LRU hits/misses, coalescing); no session.
    Stats,
    /// A typed pipeline request against the frame's session.
    Run(Request),
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The request `id`, echoed verbatim in the response (`Null` when
    /// absent).
    pub id: Json,
    /// Session spec for [`Call::Run`] requests.
    pub session: Option<SessionSpec>,
    /// Per-request deadline in milliseconds from arrival (top-level
    /// `deadline_ms` field). The server answers
    /// [`DEADLINE_EXCEEDED`] instead of running work it cannot start
    /// in time; `0` means "already expired" and is the deterministic
    /// way to probe the deadline path. Tightened by the server-side
    /// default deadline when both are set.
    pub deadline_ms: Option<u64>,
    /// The decoded method + parameters.
    pub call: Call,
}

/// Parses one request line into a [`Frame`].
///
/// # Errors
///
/// [`WireError`] with the appropriate JSON-RPC code; the caller turns
/// it into an error response on the same connection (malformed input
/// never drops the connection).
pub fn parse_frame(line: &str) -> Result<Frame, WireError> {
    let doc =
        Json::parse(line).map_err(|e| WireError::new(PARSE_ERROR, format!("parse error: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(WireError::new(INVALID_REQUEST, "frame must be an object"));
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(INVALID_REQUEST, "missing method"))?;
    let params = doc.get("params").cloned().unwrap_or(Json::Obj(vec![]));

    let call = match method {
        "ping" => Call::Ping,
        "stats" => Call::Stats,
        "baseline" => Call::Run(Request::Baseline),
        "select" => Call::Run(Request::Select {
            gamma_threshold: require_f64(&params, "gamma_threshold", "select")?,
        }),
        "evaluate" => Call::Run(Request::Evaluate {
            x_post: require_floats(&params, "x_post", "evaluate")?,
        }),
        "detection_probabilities" => Call::Run(Request::DetectionProbabilities {
            x_post: require_floats(&params, "x_post", "detection_probabilities")?,
        }),
        "tradeoff" => Call::Run(Request::Tradeoff {
            gamma_thresholds: require_floats(&params, "gamma_thresholds", "tradeoff")?,
            deltas: require_floats(&params, "deltas", "tradeoff")?,
            seed: optional_u64(&params, "seed", "tradeoff")?,
            attack_ratio: optional_f64(&params, "attack_ratio", "tradeoff")?,
        }),
        "keyspace" => Call::Run(Request::Keyspace {
            fraction: require_f64(&params, "fraction", "keyspace")?,
            n_trials: require_usize(&params, "n_trials", "keyspace")?,
            deltas: require_floats(&params, "deltas", "keyspace")?,
            seed: optional_u64(&params, "seed", "keyspace")?,
        }),
        "timeline" => {
            let defaults = TimelineOptions::default();
            Call::Run(Request::Timeline {
                hours: require_floats(&params, "hours", "timeline")?,
                options: TimelineOptions {
                    target_delta: optional_f64(&params, "target_delta", "timeline")?
                        .unwrap_or(defaults.target_delta),
                    target_eta: optional_f64(&params, "target_eta", "timeline")?
                        .unwrap_or(defaults.target_eta),
                    gamma_grid: optional_floats(&params, "gamma_grid", "timeline")?
                        .unwrap_or(defaults.gamma_grid),
                },
            })
        }
        "learning" => {
            let defaults = LearningOptions::default();
            Call::Run(Request::Learning {
                gamma_threshold: optional_f64(&params, "gamma_threshold", "learning")?,
                options: LearningOptions {
                    sample_counts: optional_usizes(&params, "sample_counts", "learning")?
                        .unwrap_or(defaults.sample_counts),
                    n_probe_attacks: optional_usize(&params, "n_probe_attacks", "learning")?
                        .unwrap_or(defaults.n_probe_attacks),
                    subspace_dim: optional_usize(&params, "subspace_dim", "learning")?,
                    load_jitter: optional_f64(&params, "load_jitter", "learning")?
                        .unwrap_or(defaults.load_jitter),
                    target_delta: optional_f64(&params, "target_delta", "learning")?
                        .unwrap_or(defaults.target_delta),
                },
            })
        }
        other => {
            return Err(WireError::new(
                METHOD_NOT_FOUND,
                format!("unknown method '{other}'"),
            ))
        }
    };

    let session = match doc.get("session") {
        Some(spec) => Some(SessionSpec::from_json(spec)?),
        None => None,
    };
    if session.is_none() && matches!(call, Call::Run(_)) {
        return Err(WireError::new(
            INVALID_PARAMS,
            format!("method '{method}' requires a session"),
        ));
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            WireError::new(
                INVALID_REQUEST,
                "deadline_ms must be a non-negative integer",
            )
        })?),
    };
    Ok(Frame {
        id,
        session,
        deadline_ms,
        call,
    })
}

/// Renders a success response frame (one line, no trailing newline).
pub fn ok_frame(id: &Json, result: Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("result".to_string(), result),
    ])
    .compact()
}

/// Renders an error response frame (one line, no trailing newline).
pub fn error_frame(id: &Json, error: &WireError) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        (
            "error".to_string(),
            Json::obj(vec![
                ("code", Json::Int(error.code)),
                ("message", Json::Str(error.message.clone())),
            ]),
        ),
    ])
    .compact()
}

/// Maps a pipeline failure onto the wire.
pub fn pipeline_error(err: &MtdError) -> WireError {
    WireError::new(PIPELINE_ERROR, err.to_string())
}

/// Encodes one typed [`Response`] as its `result` document.
pub fn encode_response(response: &Response) -> Json {
    match response {
        Response::Baseline(b) => encode_baseline(b),
        Response::Select(s) => encode_selection(s),
        Response::Evaluate(e) => encode_evaluation(e),
        Response::DetectionProbabilities(p) => Json::floats(p),
        Response::Tradeoff(curve) => Json::obj(vec![
            ("gamma_ceiling", Json::Num(curve.gamma_ceiling)),
            ("baseline_cost", Json::Num(curve.baseline_cost)),
            (
                "points",
                Json::Arr(
                    curve
                        .points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("gamma_threshold", Json::Num(p.gamma_threshold)),
                                ("gamma_achieved", Json::Num(p.gamma_achieved)),
                                ("cost_increase_percent", Json::Num(p.cost_increase_percent)),
                                ("effectiveness", encode_pairs(&p.effectiveness)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Keyspace(trials) => Json::Arr(
            trials
                .iter()
                .map(|t| {
                    Json::obj(vec![
                        ("trial", Json::Int(int(t.trial))),
                        ("gamma", Json::Num(t.gamma)),
                        ("effectiveness", encode_pairs(&t.effectiveness)),
                    ])
                })
                .collect(),
        ),
        Response::Timeline(outcomes) => {
            Json::Arr(outcomes.iter().map(encode_hour_outcome).collect())
        }
        Response::Learning(outcome) => encode_learning(outcome),
    }
}

fn encode_baseline(b: &BaselineOutcome) -> Json {
    Json::obj(vec![("x", Json::floats(&b.x)), ("opf", encode_opf(&b.opf))])
}

fn encode_selection(s: &MtdSelection) -> Json {
    Json::obj(vec![
        ("x_post", Json::floats(&s.x_post)),
        ("gamma", Json::Num(s.gamma)),
        ("gamma_threshold", Json::Num(s.gamma_threshold)),
        ("opf", encode_opf(&s.opf)),
    ])
}

fn encode_evaluation(e: &MtdEvaluation) -> Json {
    Json::obj(vec![
        ("gamma", Json::Num(e.gamma)),
        ("smallest_angle", Json::Num(e.smallest_angle)),
        ("detection_probs", Json::floats(&e.detection_probs)),
    ])
}

fn encode_opf(opf: &gridmtd_opf::OpfSolution) -> Json {
    Json::obj(vec![
        ("cost", Json::Num(opf.cost)),
        ("dispatch", Json::floats(&opf.dispatch)),
        ("theta", Json::floats(&opf.theta)),
        ("flows", Json::floats(&opf.flows)),
    ])
}

fn encode_hour_outcome(o: &HourOutcome) -> Json {
    Json::obj(vec![
        ("hour", Json::Int(int(o.hour))),
        ("total_load_mw", Json::Num(o.total_load_mw)),
        ("cost_no_mtd", Json::Num(o.cost_no_mtd)),
        ("cost_with_mtd", Json::Num(o.cost_with_mtd)),
        ("cost_increase_percent", Json::Num(o.cost_increase_percent)),
        ("gamma_drift", Json::Num(o.gamma_drift)),
        ("gamma_defense", Json::Num(o.gamma_defense)),
        ("gamma_current", Json::Num(o.gamma_current)),
        ("gamma_threshold", Json::Num(o.gamma_threshold)),
        ("effectiveness", Json::Num(o.effectiveness)),
        ("target_met", Json::Bool(o.target_met)),
    ])
}

fn encode_learning(outcome: &LearningOutcome) -> Json {
    Json::obj(vec![
        (
            "gamma_threshold",
            outcome.gamma_threshold.map_or(Json::Null, Json::Num),
        ),
        ("gamma_achieved", Json::Num(outcome.gamma_achieved)),
        (
            "cost_increase_percent",
            Json::Num(outcome.cost_increase_percent),
        ),
        (
            "points",
            Json::Arr(
                outcome
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("n_samples", Json::Int(int(p.n_samples))),
                            ("mean_detection", Json::Num(p.mean_detection)),
                            ("stealthy_fraction", Json::Num(p.stealthy_fraction)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn encode_pairs(pairs: &[(f64, f64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(delta, eta)| Json::Arr(vec![Json::Num(delta), Json::Num(eta)]))
            .collect(),
    )
}

#[allow(clippy::cast_possible_wrap)]
fn int(v: usize) -> i64 {
    v as i64
}

// ---- parameter extraction helpers -----------------------------------

fn missing(method: &str, key: &str) -> WireError {
    WireError::new(INVALID_PARAMS, format!("{method}: missing {key}"))
}

fn bad_type(method: &str, key: &str, expected: &str) -> WireError {
    WireError::new(
        INVALID_PARAMS,
        format!("{method}: {key} must be {expected}"),
    )
}

fn require_f64(params: &Json, key: &str, method: &str) -> Result<f64, WireError> {
    params
        .get(key)
        .ok_or_else(|| missing(method, key))?
        .as_f64()
        .ok_or_else(|| bad_type(method, key, "a number"))
}

fn optional_f64(params: &Json, key: &str, method: &str) -> Result<Option<f64>, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_type(method, key, "a number")),
    }
}

fn optional_u64(params: &Json, key: &str, method: &str) -> Result<Option<u64>, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad_type(method, key, "a non-negative integer")),
    }
}

#[allow(clippy::cast_possible_truncation)]
fn optional_usize(params: &Json, key: &str, method: &str) -> Result<Option<usize>, WireError> {
    Ok(optional_u64(params, key, method)?.map(|v| v as usize))
}

fn require_usize(params: &Json, key: &str, method: &str) -> Result<usize, WireError> {
    optional_usize(params, key, method)?.ok_or_else(|| missing(method, key))
}

fn require_floats(params: &Json, key: &str, method: &str) -> Result<Vec<f64>, WireError> {
    optional_floats(params, key, method)?.ok_or_else(|| missing(method, key))
}

fn optional_floats(params: &Json, key: &str, method: &str) -> Result<Option<Vec<f64>>, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| bad_type(method, key, "an array of numbers"))?;
            items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| bad_type(method, key, "an array of numbers"))
                })
                .collect::<Result<Vec<f64>, WireError>>()
                .map(Some)
        }
    }
}

fn optional_usizes(
    params: &Json,
    key: &str,
    method: &str,
) -> Result<Option<Vec<usize>>, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| bad_type(method, key, "an array of integers"))?;
            items
                .iter()
                .map(|x| {
                    #[allow(clippy::cast_possible_truncation)]
                    x.as_u64()
                        .map(|v| v as usize)
                        .ok_or_else(|| bad_type(method, key, "an array of integers"))
                })
                .collect::<Result<Vec<usize>, WireError>>()
                .map(Some)
        }
    }
}

/// Applies the `config` object of a session spec as overrides on a
/// default [`MtdConfig`]. Unknown keys are rejected so typos fail loud.
pub fn config_from_overrides(overrides: &Json) -> Result<MtdConfig, WireError> {
    let fields = match overrides {
        Json::Obj(fields) => fields,
        _ => {
            return Err(WireError::new(
                INVALID_PARAMS,
                "session.config must be an object",
            ))
        }
    };
    let mut cfg = MtdConfig::default();
    for (key, value) in fields {
        let bad = || bad_type("session.config", key, "a number");
        match key.as_str() {
            "alpha" => cfg.alpha = value.as_f64().ok_or_else(bad)?,
            "noise_sigma_mw" => cfg.noise_sigma_mw = value.as_f64().ok_or_else(bad)?,
            "attack_ratio" => cfg.attack_ratio = value.as_f64().ok_or_else(bad)?,
            "eta_max" => cfg.eta_max = value.as_f64().ok_or_else(bad)?,
            "seed" => cfg.seed = value.as_u64().ok_or_else(bad)?,
            #[allow(clippy::cast_possible_truncation)]
            "n_attacks" => cfg.n_attacks = value.as_u64().ok_or_else(bad)? as usize,
            #[allow(clippy::cast_possible_truncation)]
            "n_starts" => cfg.n_starts = value.as_u64().ok_or_else(bad)? as usize,
            #[allow(clippy::cast_possible_truncation)]
            "max_evals_per_start" => {
                cfg.max_evals_per_start = value.as_u64().ok_or_else(bad)? as usize;
            }
            #[allow(clippy::cast_possible_truncation)]
            "pwl_segments" => cfg.opf.pwl_segments = value.as_u64().ok_or_else(bad)? as usize,
            other => {
                return Err(WireError::new(
                    INVALID_PARAMS,
                    format!("session.config: unknown field '{other}'"),
                ))
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_select_frame() {
        let frame = parse_frame(
            r#"{"id":7,"method":"select","session":{"case":"case4"},"params":{"gamma_threshold":0.05}}"#,
        )
        .unwrap();
        assert_eq!(frame.id, Json::Int(7));
        assert_eq!(
            frame.call,
            Call::Run(Request::Select {
                gamma_threshold: 0.05
            })
        );
        assert!(frame.session.is_some());
    }

    #[test]
    fn ping_needs_no_session() {
        let frame = parse_frame(r#"{"id":1,"method":"ping"}"#).unwrap();
        assert_eq!(frame.call, Call::Ping);
        assert!(frame.session.is_none());
    }

    #[test]
    fn run_methods_require_a_session() {
        let err = parse_frame(r#"{"id":1,"method":"baseline"}"#).unwrap_err();
        assert_eq!(err.code, INVALID_PARAMS);
    }

    #[test]
    fn error_codes_map_to_failure_classes() {
        assert_eq!(parse_frame("not json").unwrap_err().code, PARSE_ERROR);
        assert_eq!(parse_frame("[1,2]").unwrap_err().code, INVALID_REQUEST);
        assert_eq!(
            parse_frame(r#"{"method":"frobnicate"}"#).unwrap_err().code,
            METHOD_NOT_FOUND
        );
        assert_eq!(
            parse_frame(r#"{"method":"select","session":{"case":"case4"},"params":{}}"#)
                .unwrap_err()
                .code,
            INVALID_PARAMS
        );
    }

    #[test]
    fn config_overrides_reject_unknown_fields() {
        let ok = Json::parse(r#"{"seed":9,"n_attacks":40}"#).unwrap();
        let cfg = config_from_overrides(&ok).unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.n_attacks, 40);
        let bad = Json::parse(r#"{"n_atacks":40}"#).unwrap();
        assert!(config_from_overrides(&bad).is_err());
    }

    #[test]
    fn removed_selection_method_key_is_an_unknown_field() {
        let frame = r#"{"id":1,"method":"select","session":{"case":"case4","config":{"selection_method":"gradient"}},"params":{"gamma_threshold":0.05}}"#;
        let err = parse_frame(frame).unwrap_err();
        assert_eq!(err.code, INVALID_PARAMS);
        assert_eq!(
            err.message,
            "session.config: unknown field 'selection_method'"
        );
    }

    #[test]
    fn response_frames_are_single_lines() {
        let ok = ok_frame(&Json::Int(3), Json::obj(vec![("x", Json::floats(&[1.0]))]));
        assert_eq!(ok, r#"{"id":3,"result":{"x":[1]}}"#);
        let err = error_frame(&Json::Null, &WireError::new(PARSE_ERROR, "boom"));
        assert_eq!(
            err,
            r#"{"id":null,"error":{"code":-32700,"message":"boom"}}"#
        );
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }

    #[test]
    fn timeline_and_learning_defaults_fill_in() {
        let frame = parse_frame(
            r#"{"method":"timeline","session":{"case":"case4"},"params":{"hours":[100,110]}}"#,
        )
        .unwrap();
        match frame.call {
            Call::Run(Request::Timeline { hours, options }) => {
                assert_eq!(hours, vec![100.0, 110.0]);
                assert_eq!(options, TimelineOptions::default());
            }
            other => panic!("expected Timeline, got {other:?}"),
        }
        let frame =
            parse_frame(r#"{"method":"learning","session":{"case":"case4"},"params":{}}"#).unwrap();
        match frame.call {
            Call::Run(Request::Learning {
                gamma_threshold,
                options,
            }) => {
                assert_eq!(gamma_threshold, None);
                assert_eq!(options, LearningOptions::default());
            }
            other => panic!("expected Learning, got {other:?}"),
        }
    }
}
