//! Hardened-daemon regression suite: idle reaping, per-request
//! deadlines, bounded-queue shedding, drain-on-shutdown, and the
//! client's capped retry. Runs in tier-1 (no feature gate) — these are
//! contracts of the normal build, not of fault injection.

use std::time::Duration;

use gridmtd_scenario::json::Json;
use gridmtd_serve::{wire, Client, RetryOptions, ServeOptions, Server};

fn session_json(case: &str, seed: u64) -> String {
    format!(
        r#"{{"case":"{case}","config":{{"seed":{seed},"n_attacks":20,"n_starts":1,"max_evals_per_start":30}}}}"#
    )
}

fn select_frame(id: u64, case: &str, seed: u64, threshold: f64, extra: &str) -> String {
    format!(
        r#"{{"id":{id},"method":"select","session":{},"params":{{"gamma_threshold":{threshold}}}{extra}}}"#,
        session_json(case, seed)
    )
}

fn error_code(line: &str) -> Option<i64> {
    match Json::parse(line).ok()?.get("error")?.get("code")? {
        Json::Int(code) => Some(*code),
        _ => None,
    }
}

#[test]
fn idle_connections_are_reaped_and_the_listener_keeps_serving() {
    let mut server = Server::start(&ServeOptions {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let line = client.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));

    // Go quiet past the idle budget: the server must reclaim both
    // connection threads instead of parking them forever.
    let mut reaped = 0;
    for _ in 0..200 {
        reaped = server.stats().reaped;
        if reaped > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(reaped >= 1, "idle connection was never reaped");

    // The reaped socket is dead to the client (bounded observation —
    // no response will ever arrive), but a fresh connection serves.
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    assert!(client.call_raw(r#"{"id":2,"method":"ping"}"#).is_err());
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    let line = fresh.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn expired_deadlines_get_typed_errors_generous_ones_still_run() {
    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // `deadline_ms: 0` expires before any worker can dequeue it — the
    // deterministic probe for the deadline path.
    let line = client
        .call_raw(&select_frame(1, "case4", 1, 0.01, r#","deadline_ms":0"#))
        .unwrap();
    assert_eq!(error_code(&line), Some(wire::DEADLINE_EXCEEDED));
    assert!(server.stats().expired >= 1);

    // A generous budget on the same connection runs to completion.
    let line = client
        .call_raw(&select_frame(
            2,
            "case4",
            1,
            0.01,
            r#","deadline_ms":60000"#,
        ))
        .unwrap();
    assert!(Json::parse(&line).unwrap().get("result").is_some());
    server.shutdown();
}

#[test]
fn server_default_deadline_applies_to_frames_without_one() {
    let mut server = Server::start(&ServeOptions {
        request_deadline: Some(Duration::ZERO),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Inline methods never consult the deadline…
    let line = client.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));
    // …but every queued pipeline request inherits the server budget.
    let line = client
        .call_raw(&select_frame(1, "case4", 1, 0.01, ""))
        .unwrap();
    assert_eq!(error_code(&line), Some(wire::DEADLINE_EXCEEDED));
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_instead_of_buffering_unboundedly() {
    let mut server = Server::start(&ServeOptions {
        workers: 1,
        queue_max: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Occupy the single worker with a heavyweight selection, and wait
    // until it has actually been dequeued so the flood below contends
    // with a busy worker, not an empty queue.
    client
        .send_raw(&select_frame(1, "case57", 3, 0.01, ""))
        .unwrap();
    for _ in 0..400 {
        if server.stats().requests >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.stats().requests >= 1, "occupier never dispatched");

    let flood = 6;
    for i in 0..flood {
        client
            .send_raw(&select_frame(2 + i, "case4", 1, 0.01, ""))
            .unwrap();
    }
    let mut ok = 0;
    let mut shed = 0;
    for _ in 0..=flood {
        let line = client.read_line().unwrap();
        match error_code(&line) {
            Some(code) if code == wire::OVERLOADED => shed += 1,
            Some(other) => panic!("unexpected error {other}: {line}"),
            None => ok += 1,
        }
    }
    // The occupier and at most one queued request complete; everything
    // past the bounded queue is shed at the door with a typed error.
    assert!((1..=2).contains(&ok), "expected 1-2 completions, got {ok}");
    assert!(shed >= 4, "expected >=4 shed requests, got {shed}");
    assert!(server.stats().shed >= 4);
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_work_before_closing() {
    let mut server = Server::start(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let jobs = 5;
    for i in 0..jobs {
        client
            .send_raw(&select_frame(1 + i, "case4", 1, 0.01, ""))
            .unwrap();
    }
    // The inline ping is the barrier: its (immediate) answer proves the
    // reader consumed and enqueued every preceding frame.
    client
        .send_raw(&format!(r#"{{"id":{},"method":"ping"}}"#, jobs + 1))
        .unwrap();

    let barrier = client.read_line().unwrap();
    assert!(barrier.contains(r#""ok":true"#), "barrier ping: {barrier}");
    server.shutdown();

    let mut results = 0;
    for _ in 0..jobs {
        let line = client.read_line().unwrap();
        assert!(
            Json::parse(&line).unwrap().get("result").is_some(),
            "queued request dropped during shutdown: {line}"
        );
        results += 1;
    }
    assert_eq!(results, jobs);
}

#[test]
fn client_retry_is_single_shot_against_a_healthy_server() {
    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let opts = RetryOptions {
        attempts: 4,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        seed: 9,
    };
    let (line, attempts) =
        Client::call_raw_with_retry(server.local_addr(), r#"{"id":1,"method":"ping"}"#, &opts)
            .unwrap();
    assert!(line.contains(r#""ok":true"#));
    assert_eq!(attempts, 1, "healthy server must not trigger backoff");
    server.shutdown();
}

#[test]
fn client_retry_surrenders_the_last_overloaded_answer_at_budget_end() {
    let mut server = Server::start(&ServeOptions {
        workers: 1,
        queue_max: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut occupier = Client::connect(server.local_addr()).unwrap();
    occupier
        .send_raw(&select_frame(1, "case118", 3, 0.01, ""))
        .unwrap();
    for _ in 0..400 {
        if server.stats().requests >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Fill the one queue slot so every retry attempt below sheds. The
    // frame races the probe below to the slot; whichever loses is shed,
    // and only then is the slot known to be taken (the worker is still
    // busy with the case118 select).
    occupier
        .send_raw(&select_frame(2, "case118", 3, 0.012, ""))
        .unwrap();
    let mut probe = Client::connect(server.local_addr()).unwrap();
    probe
        .send_raw(&select_frame(3, "case118", 3, 0.014, ""))
        .unwrap();
    for _ in 0..400 {
        if server.stats().shed >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().shed, 1, "the queue slot must be taken");

    let opts = RetryOptions {
        attempts: 3,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(8),
        seed: 5,
    };
    let (line, attempts) = Client::call_raw_with_retry(
        server.local_addr(),
        &select_frame(9, "case4", 1, 0.01, ""),
        &opts,
    )
    .unwrap();
    assert_eq!(
        error_code(&line),
        Some(wire::OVERLOADED),
        "budget end must surrender the typed shed answer, got: {line}"
    );
    assert_eq!(attempts, opts.attempts);
    assert!(server.stats().shed > u64::from(opts.attempts));
    server.shutdown();
}

#[test]
fn oversized_synthetic_cases_are_refused_before_any_network_is_built() {
    use gridmtd_serve::session_key::MAX_SYNTHETIC_BUSES;
    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // usize::MAX buses would abort on allocation if anything tried to
    // build the grid, so a typed answer proves the refusal comes first.
    let too_big = format!("synthetic:{}:1", MAX_SYNTHETIC_BUSES + 1);
    for (id, case) in [
        (1, too_big.as_str()),
        (2, "synthetic:18446744073709551615:1"),
    ] {
        let line = client
            .call_raw(&select_frame(id, case, 1, 0.1, ""))
            .unwrap();
        assert_eq!(
            error_code(&line),
            Some(wire::INVALID_PARAMS),
            "{case} must be refused with -32602, got: {line}"
        );
        assert!(line.contains("above the limit"), "{line}");
    }
    let stats = server.stats();
    assert_eq!(stats.lru.misses, 0, "no session was built");
    assert_eq!(stats.resident, 0);
    server.shutdown();

    // Sizes at the cap's scale still resolve to a session spec.
    let spec = gridmtd_serve::SessionSpec::from_json(
        &Json::parse(r#"{"case":"synthetic:300:1"}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(spec.case, "synthetic:300:1");
    assert_eq!(spec.build().unwrap().network().n_buses(), 300);
}

#[test]
fn zero_budgets_in_the_session_config_get_a_typed_error_naming_the_field() {
    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (id, field) in [
        "n_attacks",
        "n_starts",
        "max_evals_per_start",
        "pwl_segments",
    ]
    .into_iter()
    .enumerate()
    {
        let frame = format!(
            r#"{{"id":{id},"method":"evaluate","session":{{"case":"case4","config":{{"{field}":0}}}},"params":{{"x_post":[0.1,0.1,0.1,0.1]}}}}"#
        );
        let line = client.call_raw(&frame).unwrap();
        assert_eq!(
            error_code(&line),
            Some(wire::PIPELINE_ERROR),
            "{field} = 0 must be refused, got: {line}"
        );
        assert!(
            line.contains(&format!("invalid MtdConfig: {field} = 0")),
            "{line}"
        );
    }
    assert_eq!(server.stats().resident, 0, "no session was kept");
    server.shutdown();
}
