//! Chaos suite for the daemon's four injection points (`serve.conn.read`,
//! `serve.conn.write`, `serve.frame.parse`, `serve.worker.dispatch`) plus
//! the sweep driver itself.
//!
//! Gated behind `fault-injection` via this crate's `[[test]]` entry.
//! Every test arms its plan *before* touching the server and keeps all
//! traffic inside the activation window: activation holds the
//! process-wide serialization lock, so no other chaos test's faults can
//! bleed into this one's connections (this binary holds only chaos
//! tests — `hardening.rs` is a separate process).
//!
//! The audited contract per point: a fired fault costs at most the one
//! connection or request it hit — a typed error frame or a clean
//! disconnect — and the server keeps accepting, with a fresh connection
//! serving bit-identical answers.

use std::time::Duration;

use gridmtd_core::session::batch::Response;
use gridmtd_core::{MtdConfig, MtdSession};
use gridmtd_faults::{FaultPlan, Trigger};
use gridmtd_powergrid::cases;
use gridmtd_scenario::json::Json;
use gridmtd_serve::{wire, ChaosOptions, Client, ServeOptions, Server};

fn session_json(seed: u64) -> Json {
    Json::parse(&format!(
        r#"{{"case":"case4","config":{{"seed":{seed},"n_attacks":20,"n_starts":1,"max_evals_per_start":30}}}}"#
    ))
    .unwrap()
}

fn error_code(line: &str) -> Option<i64> {
    match Json::parse(line).ok()?.get("error")?.get("code")? {
        Json::Int(code) => Some(*code),
        _ => None,
    }
}

#[test]
fn conn_read_fault_drops_one_connection_not_the_server() {
    let active = FaultPlan::new(21)
        .fail("serve.conn.read", Trigger::Once)
        .activate();
    let mut server = Server::start(&ServeOptions::default()).unwrap();

    // The first connection's reader hits the injected I/O failure and
    // closes; the client observes a dead socket, nothing worse. The
    // socket must really close: a client without a read timeout would
    // otherwise wait on it forever, so running into the timeout here is
    // a failure too.
    let mut doomed = Client::connect(server.local_addr()).unwrap();
    doomed
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let err = doomed
        .call_raw(r#"{"id":1,"method":"ping"}"#)
        .expect_err("the faulted connection must fail, not answer");
    assert!(
        !matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the faulted connection must be closed, not left open: {err:?}"
    );
    assert_eq!(active.fired("serve.conn.read"), 1);

    // The accept loop never saw the fault: a fresh connection serves.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let line = client.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn conn_write_fault_disconnects_then_reconnects() {
    let active = FaultPlan::new(22)
        .fail("serve.conn.write", Trigger::Once)
        .activate();
    let mut server = Server::start(&ServeOptions::default()).unwrap();

    // The response line is dropped by the faulted writer, which closes
    // the connection: the client sees a disconnect at once. Running
    // into its own read timeout would mean the dead connection stayed
    // open, and a client without a timeout would hang on it.
    let mut doomed = Client::connect(server.local_addr()).unwrap();
    doomed
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let err = doomed.call_raw(r#"{"id":1,"method":"ping"}"#).unwrap_err();
    assert!(
        !matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a disconnect, not a stall, got {err:?}"
    );
    assert_eq!(active.fired("serve.conn.write"), 1);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let line = client.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn frame_parse_fault_degrades_to_typed_parse_error_connection_survives() {
    let active = FaultPlan::new(23)
        .fail("serve.frame.parse", Trigger::Once)
        .activate();
    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A perfectly valid frame hits the injected parser failure: the
    // answer is the same typed error a garbage frame earns, on the same
    // still-open connection.
    let line = client.call_raw(r#"{"id":7,"method":"ping"}"#).unwrap();
    assert_eq!(error_code(&line), Some(wire::PARSE_ERROR));
    assert!(line.contains("fault-injection"));
    assert_eq!(active.fired("serve.frame.parse"), 1);

    let line = client.call("ping", &Json::Null, &Json::Null).unwrap();
    assert!(line.contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn worker_dispatch_fault_answers_typed_then_recovers_bit_identically() {
    let active = FaultPlan::new(24)
        .fail("serve.worker.dispatch", Trigger::Once)
        .activate();

    // The injection point lives only in the server's worker, so the
    // in-process reference pipeline is unaffected by the armed plan.
    let reference = MtdSession::builder(cases::case4())
        .config(MtdConfig {
            seed: 1,
            n_attacks: 20,
            n_starts: 1,
            max_evals_per_start: 30,
            ..MtdConfig::default()
        })
        .build()
        .unwrap();
    let expect_select =
        wire::encode_response(&Response::Select(reference.select(0.01).unwrap())).compact();

    let mut server = Server::start(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let params = Json::obj(vec![("gamma_threshold", Json::Num(0.01))]);

    let line = client.call("select", &session_json(1), &params).unwrap();
    assert_eq!(error_code(&line), Some(wire::PIPELINE_ERROR));
    assert!(line.contains("dispatch"));
    assert_eq!(active.fired("serve.worker.dispatch"), 1);

    // Same connection, fault spent: the retry is answered and matches
    // the direct in-process call bit for bit.
    let line = client.call("select", &session_json(1), &params).unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("result").unwrap().compact(), expect_select);
    server.shutdown();
}

#[test]
fn sweep_driver_audits_every_registered_point() {
    let opts = ChaosOptions {
        requests: 4,
        read_timeout: Duration::from_secs(1),
        ..ChaosOptions::default()
    };
    let report = gridmtd_serve::run_chaos(&opts).unwrap();

    assert_eq!(report.outcomes.len(), gridmtd_faults::registry::ALL.len());
    for o in &report.outcomes {
        assert_eq!(
            o.ok + o.typed_errors + o.disconnects + o.stalls,
            opts.requests,
            "{}: every request must end in an audited outcome",
            o.point
        );
        assert!(o.fired <= o.consultations);
    }
    // Any wire workload flows through all four serve-layer points.
    for o in report
        .outcomes
        .iter()
        .filter(|o| o.point.starts_with("serve."))
    {
        assert!(o.consultations > 0, "{} never consulted", o.point);
    }
    let rendered = report.render();
    assert!(rendered.starts_with("chaos sweep"));
    assert!(rendered.contains("serve.worker.dispatch"));
}
