//! `serve-mixed-case57`: a self-hosted in-process `Server` (2 workers)
//! and 2 closed-loop client connections sending a seeded 4:1 mix of
//! `evaluate` and `select` frames over two case57 session keys.

use std::collections::BTreeMap;
use std::time::Duration;

use gridmtd_core::session::batch::{Request, Response};
use gridmtd_core::MtdSession;
use gridmtd_estimation::EstimatorContext;
use gridmtd_powergrid::{cases, Network};
use gridmtd_scenario::json::Json;
use gridmtd_serve::wire::{self, Call};
use gridmtd_serve::{Client, ServeOptions, Server, ServerStats, SessionSpec};

use super::{
    common_layer_metrics, err, replay_angles, replay_basis, replay_detection, replay_h_builds,
    replay_opf, Args, Phase, Quality, Run, GAMMA_TH, GAMMA_TOL, TARGET_DELTA, TARGET_ETA,
};
use crate::gen::{serve_input, ServeInput, SERVE_KEY_SEEDS};
use crate::stats::{mean, median, ms, now};
use crate::trace::{Counters, Spans};

/// Latency limit of one request, from send to answer.
pub const LIMIT: Duration = Duration::from_millis(600);

/// Client connections (closed loop: one request in flight each).
const CLIENTS: usize = 2;

/// The first `SAMPLE` requests of each client are replayed directly and
/// compared byte for byte; the accuracy metrics are taken over them.
const SAMPLE: u64 = 24;

/// A running server with its connected clients. Clients come first so
/// their sockets close before the server shuts down.
struct Rig {
    clients: Vec<Client>,
    server: Server,
}

/// One answered request.
struct Served {
    client: usize,
    index: u64,
    lat_ms: f64,
    ok: bool,
    /// The answer line, kept for sampled requests only.
    line: Option<String>,
}

fn session_json(key: usize) -> Json {
    Json::obj(vec![
        ("case", Json::Str("case57".into())),
        (
            "config",
            Json::obj(vec![("seed", Json::Int(SERVE_KEY_SEEDS[key] as i64))]),
        ),
        ("threads", Json::Int(1)),
    ])
}

fn frame(id: i64, input: &ServeInput) -> String {
    let (method, params) = match input {
        ServeInput::Select { .. } => (
            "select",
            Json::obj(vec![("gamma_threshold", Json::Num(GAMMA_TH))]),
        ),
        ServeInput::Evaluate { x_post, .. } => (
            "evaluate",
            Json::obj(vec![("x_post", Json::floats(x_post))]),
        ),
    };
    Json::obj(vec![
        ("id", Json::Int(id)),
        ("method", Json::Str(method.into())),
        ("session", session_json(input.key())),
        ("params", params),
    ])
    .compact()
}

fn is_result(line: &str) -> bool {
    Json::parse(line).is_ok_and(|d| d.get("result").is_some())
}

/// Starts a server, connects the clients and makes every session
/// resident with all caches filled: one `evaluate` and one `select` per
/// key.
fn start(net: &Network) -> Result<Rig, String> {
    let server = Server::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    })
    .map_err(err)?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    for key in 0..SERVE_KEY_SEEDS.len() {
        let warm = [
            ServeInput::Evaluate {
                key,
                x_post: net.nominal_reactances(),
            },
            ServeInput::Select { key },
        ];
        for input in &warm {
            let line = clients[key % CLIENTS]
                .call_raw(&frame(0, input))
                .map_err(err)?;
            if !is_result(&line) {
                return Err(format!("warm-up request failed: {line}"));
            }
        }
    }
    Ok(Rig { clients, server })
}

/// Both clients in a closed loop until `window` has passed.
fn phase(rig: &mut Rig, seed: u64, net: &Network, window: Duration) -> (Phase, Vec<Served>) {
    let before = Counters::now();
    let start = now();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut index = 0;
                    while start.elapsed() < window {
                        let text = frame(index as i64, &serve_input(seed, c, index, net));
                        let sent = now();
                        let reply = client.call_raw(&text);
                        let lat_ms = ms(sent.elapsed());
                        let line = reply.unwrap_or_default();
                        out.push(Served {
                            client: c,
                            index,
                            lat_ms,
                            ok: is_result(&line),
                            line: (index < SAMPLE).then_some(line),
                        });
                        index += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let phase = Phase {
        lat_ms: served.iter().map(|s| s.lat_ms).collect(),
        ok: served.iter().map(|s| s.ok).collect(),
        elapsed_s: start.elapsed().as_secs_f64(),
        work: Counters::now().since(before),
    };
    (phase, served)
}

/// A direct session per key, warm, for the byte-for-byte comparison.
fn direct_sessions(net: &Network) -> Result<Vec<MtdSession>, String> {
    (0..SERVE_KEY_SEEDS.len())
        .map(|key| {
            let s = SessionSpec::from_json(&session_json(key))
                .and_then(|spec| spec.build())
                .map_err(|e| e.message)?;
            s.evaluate(&net.nominal_reactances()).map_err(err)?;
            s.select(GAMMA_TH).map_err(err)?;
            Ok(s)
        })
        .collect()
}

/// A sampled request replayed directly.
struct Direct {
    input: ServeInput,
    response: Response,
    /// Served latency minus the direct call's time.
    overhead_ms: f64,
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Run, String> {
    let seed = args.seed;
    let net = cases::case57();
    // Each set-up starts a server; the timed phase uses the last one.
    let (setup_s, mut rigs, _) =
        super::cold_setups(args.setups(super::SETUPS), |_| Ok((start(&net)?, ())))?;
    let mut rig = rigs.pop().ok_or("no set-up ran")?;
    drop(rigs);

    let stats_before = rig.server.stats();
    let (phase, served) = phase(&mut rig, seed, &net, args.window);
    let stats = rig.server.stats();
    let mut run = Run::new(setup_s, phase, LIMIT);

    // Direct replay of the sampled requests: byte-for-byte check,
    // accuracy metrics, and the per-request serve overhead.
    let sessions = direct_sessions(&net)?;
    let mut select_cache: BTreeMap<usize, (Response, f64)> = BTreeMap::new();
    let mut directs = Vec::new();
    for s in served.iter().filter(|s| s.line.is_some()) {
        let input = serve_input(seed, s.client, s.index, &net);
        let text = frame(s.index as i64, &input);
        let parsed = wire::parse_frame(&text).map_err(|e| e.message)?;
        let Call::Run(request) = &parsed.call else {
            return Err("sampled frame is not a pipeline call".into());
        };
        let session = &sessions[input.key()];
        let (response, direct_ms) = match (&input, select_cache.get(&input.key())) {
            (ServeInput::Select { .. }, Some(hit)) => hit.clone(),
            _ => {
                let t = now();
                let r = session.run_request(request).map_err(err)?;
                let out = (r, ms(t.elapsed()));
                if matches!(request, Request::Select { .. }) {
                    select_cache.insert(input.key(), out.clone());
                }
                out
            }
        };
        let expected = wire::ok_frame(&parsed.id, wire::encode_response(&response));
        let line = s.line.as_deref().unwrap_or_default();
        let identical = line.trim_end_matches(['\n', '\r']) == expected;
        let gamma_met = match &response {
            Response::Select(sel) => sel.gamma >= GAMMA_TH - GAMMA_TOL,
            _ => true,
        };
        // An error answer already counted as failed in the timed phase.
        if s.ok && !(identical && gamma_met) {
            run.tally.fail_late(s.lat_ms <= ms(LIMIT));
        }
        directs.push(Direct {
            input,
            response,
            overhead_ms: s.lat_ms - direct_ms,
        });
    }
    run.quality = quality(&sessions, &directs)?;

    if args.trace {
        trace(&mut run, &sessions, &directs, &stats_before, &stats)?;
    }
    Ok(run)
}

/// Accuracy over the sampled requests: γ audit, cost ratio and target
/// of the selections, mean detection of the evaluations.
fn quality(sessions: &[MtdSession], directs: &[Direct]) -> Result<Quality, String> {
    let mut q = Quality::default();
    let (mut ratios, mut detect) = (Vec::new(), Vec::new());
    let mut target: BTreeMap<usize, bool> = BTreeMap::new();
    for d in directs {
        match &d.response {
            Response::Select(sel) => {
                let s = &sessions[d.input.key()];
                q.gamma_met.1 += 1;
                q.gamma_met.0 += u64::from(sel.gamma >= GAMMA_TH - GAMMA_TOL);
                ratios.push(sel.opf.cost / s.opf_pre().map_err(err)?.cost);
                let met = match target.get(&d.input.key()) {
                    Some(&m) => m,
                    None => {
                        let e = s.evaluate(&sel.x_post).map_err(err)?;
                        let m = e.effectiveness(TARGET_DELTA) >= TARGET_ETA;
                        target.insert(d.input.key(), m);
                        m
                    }
                };
                q.target_met.1 += 1;
                q.target_met.0 += u64::from(met);
            }
            Response::Evaluate(e) => detect.push(e.mean_detection()),
            _ => return Err("unexpected response kind".into()),
        }
    }
    q.cost_ratio = mean(&ratios);
    q.detect_mean = mean(&detect);
    Ok(q)
}

/// Serve-layer metrics from the server's counters and the direct
/// replays, plus the pipeline layers replayed on a direct session.
fn trace(
    run: &mut Run,
    sessions: &[MtdSession],
    directs: &[Direct],
    before: &ServerStats,
    after: &ServerStats,
) -> Result<(), String> {
    let mut tr = Spans::default();
    let s = &sessions[0];
    let net = s.network();
    let cfg = s.config();
    let h_pre = s.h_pre().map_err(err)?;
    let basis = s.gamma_basis().map_err(err)?;
    let attacks = s.attacks().map_err(err)?;
    for d in directs {
        let text = frame(1, &d.input);
        tr.span("serve.codec", || {
            let parsed = wire::parse_frame(&text).map(|f| f.id);
            parsed.map(|id| wire::ok_frame(&id, wire::encode_response(&d.response)))
        })
        .map_err(|e| e.message)?;
    }
    let evals: Vec<Vec<f64>> = directs
        .iter()
        .filter_map(|d| match &d.input {
            ServeInput::Evaluate { x_post, .. } => Some(x_post.clone()),
            ServeInput::Select { .. } => None,
        })
        .take(4)
        .collect();
    let mut est = EstimatorContext::new();
    for h in replay_h_builds(&mut tr, net, &evals)? {
        replay_angles(
            &mut tr,
            h_pre,
            basis,
            &h,
            &["spa.gamma_exact", "spa.smallest_angle"],
        )
        .map_err(err)?;
        replay_detection(&mut tr, cfg, &mut est, &h, attacks, 1)?;
    }
    let sel = s.select(GAMMA_TH).map_err(err)?;
    let h_sel = s.network().measurement_matrix(&sel.x_post).map_err(err)?;
    replay_angles(
        &mut tr,
        h_pre,
        basis,
        &h_sel,
        &["spa.sin_sq", "spa.gamma_exact"],
    )
    .map_err(err)?;
    let warm_frac = replay_opf(&mut tr, net, cfg, s.x_pre(), &sel.x_post, 8)?;
    replay_basis(&mut tr, h_pre, 2)?;
    let dispatch = &s.opf_pre().map_err(err)?.dispatch;
    tr.span("attack.ensemble_build", || {
        gridmtd_core::effectiveness::build_attack_set_with_h(net, h_pre, s.x_pre(), dispatch, cfg)
    })
    .map_err(err)?;
    common_layer_metrics(run, &tr);

    let overhead: Vec<f64> = directs.iter().map(|d| d.overhead_ms).collect();
    let hits = after.lru.hits - before.lru.hits;
    let lookups = hits + after.lru.misses - before.lru.misses;
    let requests = after.requests - before.requests;
    #[allow(clippy::cast_precision_loss)]
    let serve = [
        ("opf.warm_frac", warm_frac),
        ("serve.overhead_ms", median(&overhead)),
        ("serve.lru_hit_frac", crate::stats::ratio(hits, lookups)),
        (
            "serve.coalesced_frac",
            crate::stats::ratio(after.coalesced - before.coalesced, requests),
        ),
        (
            "serve.shed_expired",
            (after.shed + after.expired - before.shed - before.expired) as f64,
        ),
    ];
    run.layer.extend(serve);
    Ok(())
}
