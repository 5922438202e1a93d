//! Session specs: which warm [`MtdSession`] a request runs against.
//!
//! A request's `session` object names a case, config overrides, an
//! optional explicit `x_pre` vector (or the spread-x_pre policy), and
//! an optional per-session thread budget. Two requests whose resolved
//! specs are identical share one warm session — and therefore one set
//! of symbolic factorizations, QR bases, and attack ensembles — so the
//! spec also defines the LRU cache key: the compact JSON rendering of
//! the *fully resolved* spec (every config field spelled out in fixed
//! order), which makes `{"seed":1}` and an exhaustive config listing
//! the same defaults hash to the same entry.

use gridmtd_core::{MtdConfig, MtdSession};
use gridmtd_powergrid::cases;
use gridmtd_scenario::json::Json;

use crate::wire::{config_from_overrides, WireError, INVALID_PARAMS};

/// A resolved session spec: everything needed to build (or look up)
/// a warm [`MtdSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Case name (`case4` … `case300`, or `synthetic:<buses>:<seed>`).
    pub case: String,
    /// Fully resolved config (defaults + overrides).
    pub config: MtdConfig,
    /// Explicit pre-perturbation reactances (`None` = the case's own).
    pub x_pre: Option<Vec<f64>>,
    /// Apply the paper's spread pre-perturbation policy.
    pub spread_x_pre: bool,
    /// Per-session worker budget (scoped, never process-global).
    pub threads: Option<usize>,
}

impl SessionSpec {
    /// Decodes the `session` object of a request frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] with [`INVALID_PARAMS`] on unknown cases, unknown
    /// config fields, or malformed values.
    pub fn from_json(spec: &Json) -> Result<SessionSpec, WireError> {
        if !matches!(spec, Json::Obj(_)) {
            return Err(WireError::new(INVALID_PARAMS, "session must be an object"));
        }
        let case = spec
            .get("case")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::new(INVALID_PARAMS, "session: missing case"))?
            .to_string();
        // Validate the case name at parse time so the error carries the
        // right code instead of surfacing later as a build failure.
        build_case(&case)?;
        let config = match spec.get("config") {
            Some(overrides) => config_from_overrides(overrides)?,
            None => MtdConfig::default(),
        };
        let x_pre = match spec.get("x_pre") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| {
                    WireError::new(INVALID_PARAMS, "session: x_pre must be an array of numbers")
                })?;
                Some(
                    items
                        .iter()
                        .map(|x| {
                            x.as_f64().ok_or_else(|| {
                                WireError::new(
                                    INVALID_PARAMS,
                                    "session: x_pre must be an array of numbers",
                                )
                            })
                        })
                        .collect::<Result<Vec<f64>, WireError>>()?,
                )
            }
        };
        let spread_x_pre = match spec.get("spread_x_pre") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => {
                return Err(WireError::new(
                    INVALID_PARAMS,
                    "session: spread_x_pre must be a boolean",
                ))
            }
        };
        if spread_x_pre && x_pre.is_some() {
            return Err(WireError::new(
                INVALID_PARAMS,
                "session: x_pre and spread_x_pre are mutually exclusive",
            ));
        }
        let threads = match spec.get("threads") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| {
                        WireError::new(
                            INVALID_PARAMS,
                            "session: threads must be a positive integer",
                        )
                    })?,
            ),
        };
        Ok(SessionSpec {
            case,
            config,
            x_pre,
            spread_x_pre,
            threads,
        })
    }

    /// The canonical cache key: compact JSON of the fully resolved
    /// spec. Specs that resolve identically — regardless of how the
    /// request spelled them — produce byte-identical keys.
    pub fn key(&self) -> String {
        let cfg = &self.config;
        Json::obj(vec![
            ("case", Json::Str(self.case.clone())),
            (
                "config",
                Json::obj(vec![
                    ("alpha", Json::Num(cfg.alpha)),
                    ("noise_sigma_mw", Json::Num(cfg.noise_sigma_mw)),
                    ("attack_ratio", Json::Num(cfg.attack_ratio)),
                    ("n_attacks", Json::Int(int(cfg.n_attacks))),
                    ("eta_max", Json::Num(cfg.eta_max)),
                    ("seed", Json::Str(cfg.seed.to_string())),
                    ("n_starts", Json::Int(int(cfg.n_starts))),
                    (
                        "max_evals_per_start",
                        Json::Int(int(cfg.max_evals_per_start)),
                    ),
                    ("pwl_segments", Json::Int(int(cfg.opf.pwl_segments))),
                ]),
            ),
            (
                "x_pre",
                self.x_pre.as_deref().map_or(Json::Null, Json::floats),
            ),
            ("spread_x_pre", Json::Bool(self.spread_x_pre)),
            (
                "threads",
                self.threads.map_or(Json::Null, |n| Json::Int(int(n))),
            ),
        ])
        .compact()
    }

    /// Builds the warm session this spec describes.
    ///
    /// # Errors
    ///
    /// [`WireError`]: [`INVALID_PARAMS`] if the case name no longer
    /// resolves (specs normally re-validate what `from_json` already
    /// checked, but `SessionSpec` has public fields), pipeline errors
    /// for config validation / build failures.
    pub fn build(&self) -> Result<MtdSession, WireError> {
        let net = build_case(&self.case)?;
        let mut builder = MtdSession::builder(net).config(self.config.clone());
        if let Some(x_pre) = &self.x_pre {
            builder = builder.x_pre(x_pre.clone());
        }
        if self.spread_x_pre {
            builder = builder.spread_x_pre();
        }
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        builder
            .build()
            .map_err(|err| crate::wire::pipeline_error(&err))
    }
}

#[allow(clippy::cast_possible_wrap)]
fn int(v: usize) -> i64 {
    v as i64
}

/// Largest grid a `synthetic:<buses>:<seed>` session may name. The
/// dense measurement matrix has `(2·branches + buses) × (buses − 1)`
/// entries and the γ kernel is `O(buses³)`, so without a cap one frame
/// could make a worker allocate without limit. The size is refused
/// before any network is built.
pub const MAX_SYNTHETIC_BUSES: usize = 1000;

/// Maps a wire case name onto a network constructor.
fn build_case(name: &str) -> Result<gridmtd_powergrid::Network, WireError> {
    if let Some(rest) = name.strip_prefix("synthetic:") {
        let mut parts = rest.splitn(2, ':');
        let buses = parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&b| b >= 2);
        let seed = parts.next().and_then(|s| s.parse::<u64>().ok());
        return match (buses, seed) {
            (Some(buses), Some(_)) if buses > MAX_SYNTHETIC_BUSES => Err(WireError::new(
                INVALID_PARAMS,
                format!(
                    "session: synthetic case '{name}' has {buses} buses, above the limit of \
                     {MAX_SYNTHETIC_BUSES}"
                ),
            )),
            (Some(buses), Some(seed)) => {
                let config = cases::SyntheticConfig {
                    n_buses: buses,
                    ..cases::SyntheticConfig::default()
                };
                Ok(cases::synthetic(&config, seed))
            }
            _ => Err(WireError::new(
                INVALID_PARAMS,
                format!(
                    "session: malformed synthetic case '{name}' (want synthetic:<buses>:<seed>)"
                ),
            )),
        };
    }
    match name {
        "case4" => Ok(cases::case4()),
        "case14" => Ok(cases::case14()),
        "case30" => Ok(cases::case30()),
        "case57" => Ok(cases::case57()),
        "case118" => Ok(cases::case118()),
        "case300" => Ok(cases::case300()),
        other => Err(WireError::new(
            INVALID_PARAMS,
            format!("session: unknown case '{other}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_specs_share_a_key() {
        let sparse = SessionSpec::from_json(
            &Json::parse(r#"{"case":"case4","config":{"seed":1}}"#).unwrap(),
        )
        .unwrap();
        let verbose = SessionSpec::from_json(
            &Json::parse(r#"{"case":"case4","config":{"seed":1},"x_pre":null,"threads":null}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(sparse.key(), verbose.key());
        let other = SessionSpec::from_json(
            &Json::parse(r#"{"case":"case4","config":{"seed":2}}"#).unwrap(),
        )
        .unwrap();
        assert_ne!(sparse.key(), other.key());
    }

    #[test]
    fn unknown_cases_fail_at_parse_time() {
        let err =
            SessionSpec::from_json(&Json::parse(r#"{"case":"case9000"}"#).unwrap()).unwrap_err();
        assert_eq!(err.code, INVALID_PARAMS);
    }

    #[test]
    fn synthetic_case_names_parse() {
        let spec =
            SessionSpec::from_json(&Json::parse(r#"{"case":"synthetic:12:7"}"#).unwrap()).unwrap();
        assert_eq!(spec.case, "synthetic:12:7");
        assert!(spec.build().is_ok());
        assert!(
            SessionSpec::from_json(&Json::parse(r#"{"case":"synthetic:12"}"#).unwrap()).is_err()
        );
    }

    #[test]
    fn spec_builds_a_session_with_its_knobs() {
        let spec = SessionSpec::from_json(
            &Json::parse(r#"{"case":"case4","config":{"n_attacks":10},"threads":2}"#).unwrap(),
        )
        .unwrap();
        let session = spec.build().unwrap();
        assert_eq!(session.config().n_attacks, 10);
        assert_eq!(session.threads(), Some(2));
    }
}
