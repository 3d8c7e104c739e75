//! End-to-end daemon tests over a real loopback socket: submit, poll,
//! fetch, metrics, and the HTTP edge cases the codec must survive.
//!
//! Every daemon here starts its local `nfi worker` children from the
//! `nfi` binary built for this test, so each store miss runs where
//! `nfi serve` runs it: on a worker process, never in the daemon.

use nfi_serve::auth::AuthTokens;
use nfi_serve::client::{request_once, request_once_as, Client, Session};
use nfi_serve::jobs::RETAINED_FINISHED_JOBS;
use nfi_serve::queue::Priority;
use nfi_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const NFI: &str = env!("CARGO_BIN_EXE_nfi");

const SOURCE: &str = "\
def double(x):
    return x * 2
def test_double():
    assert double(2) == 4
";

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfi-daemon-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str) -> (nfi_serve::ServeHandle, PathBuf) {
    let dir = state_dir(tag);
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::new(&dir, NFI)
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    (server.spawn().expect("spawn"), dir)
}

/// Polls a job until done/failed, returning its final status body.
fn await_job(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = request_once(addr, "GET", &format!("/v1/campaigns/{id}"), None).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        let text = reply.text();
        if text.contains("\"status\":\"done\"") || text.contains("\"status\":\"failed\"") {
            return text;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let reply = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let text = reply.text();
    let id = text
        .split("\"id\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no id in {text}"));
    assert!(text.contains("\"status\":\"queued\""));
    id
}

/// One number of a `/v1/metrics` document, by key.
fn metric(text: &str, key: &str) -> u64 {
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {text}"))
}

#[test]
fn submitted_source_serves_a_document_identical_to_an_offline_run() {
    let (handle, dir) = start("parity");
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );
    let id = submit(addr, &body);
    let status = await_job(addr, id);
    assert!(status.contains("\"status\":\"done\""), "{status}");
    assert!(status.contains("\"error\":null"));
    let doc = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();
    assert_eq!(doc.status, 200);
    assert_eq!(doc.header("content-type"), Some("application/x-ndjson"));

    // Byte-identical to an offline orchestrated run on a fresh state
    // dir (the daemon's dir already has the segment; a fresh one proves
    // from-scratch equality, not just replay equality).
    let offline_dir = state_dir("parity-offline");
    let orch = nfi_core::Orchestrator::new(&offline_dir).unwrap();
    let offline = orch.run_program("demo", SOURCE).unwrap();
    assert_eq!(doc.text(), offline.run.encode());

    // A resubmission is warm: everything replays from the store.
    let id2 = submit(addr, &body);
    let status2 = await_job(addr, id2);
    assert!(status2.contains("\"executed\":0"), "{status2}");
    let doc2 = request_once(addr, "GET", &format!("/v1/campaigns/{id2}/document"), None).unwrap();
    assert_eq!(doc2.body, doc.body, "warm document must be byte-identical");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}

#[test]
fn daemon_seed_applies_to_submissions_that_name_none() {
    let dir = state_dir("seed");
    let config = ServeConfig {
        workers: 1,
        seed: 99,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    let escaped = nfi_sfi::jsontext::escape(SOURCE);
    let id = submit(
        addr,
        &format!("{{\"program\":\"demo\",\"source\":\"{escaped}\"}}"),
    );
    await_job(addr, id);
    let served = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();

    // Byte-identical to an offline run under the same --seed...
    let offline_dir = state_dir("seed-offline");
    let orch = nfi_core::Orchestrator {
        seed: 99,
        ..nfi_core::Orchestrator::new(&offline_dir).unwrap()
    };
    let offline = orch.run_program("demo", SOURCE).unwrap();
    assert_eq!(served.text(), offline.run.encode());

    // ...and an explicit per-submission seed still wins.
    let id2 = submit(
        addr,
        &format!("{{\"program\":\"demo\",\"source\":\"{escaped}\",\"seed\":7}}"),
    );
    await_job(addr, id2);
    let served7 =
        request_once(addr, "GET", &format!("/v1/campaigns/{id2}/document"), None).unwrap();
    let offline7_dir = state_dir("seed7-offline");
    let orch7 = nfi_core::Orchestrator {
        seed: 7,
        ..nfi_core::Orchestrator::new(&offline7_dir).unwrap()
    };
    let offline7 = orch7.run_program("demo", SOURCE).unwrap();
    assert_eq!(served7.text(), offline7.run.encode());

    handle.stop();
    for d in [&dir, &offline_dir, &offline7_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn planned_spec_documents_submit_as_is() {
    let (handle, dir) = start("spec");
    let addr = handle.addr;
    let spec = nfi_core::plan_campaign("demo", SOURCE, 7).unwrap();
    let id = submit(addr, &spec.encode());
    let status = await_job(addr, id);
    assert!(status.contains("\"status\":\"done\""), "{status}");

    // A tampered fingerprint is rejected at submit time with a
    // diagnostic, not accepted and failed later.
    let mut tampered = spec.clone();
    tampered.module_fp ^= 1;
    let bad = tampered.encode();
    let reply = request_once(addr, "POST", "/v1/campaigns", Some(bad.as_bytes())).unwrap();
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert!(
        reply.text().contains("fingerprint mismatch"),
        "{}",
        reply.text()
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_submissions_are_400_with_a_diagnostic() {
    let (handle, dir) = start("badsubmit");
    let addr = handle.addr;
    for (body, needle) in [
        ("", "empty body"),
        ("not json", "submit object"),
        ("{\"source\":\"x = 1\"}", "missing field `program`"),
        (
            "{\"program\":\"no-such-program\"}",
            "unknown corpus program",
        ),
        (
            "{\"program\":\"demo\",\"source\":\"def broken(\"}",
            "cannot parse",
        ),
        (
            "{\"program\":\"demo\",\"source\":\"x = 1\",\"seed\":\"x\"}",
            "unsigned integer",
        ),
        ("{\"kind\":\"campaign_spec\"}", "campaign_spec document"),
    ] {
        let reply = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
        assert_eq!(reply.status, 400, "body `{body}` → {}", reply.text());
        assert!(
            reply.text().contains(needle),
            "body `{body}` → `{}` missing `{needle}`",
            reply.text()
        );
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_routes_ids_and_methods_map_to_404_405_409() {
    let (handle, dir) = start("routes");
    let addr = handle.addr;
    let case = |method: &str, path: &str| {
        let reply = request_once(addr, method, path, None).unwrap();
        (reply.status, reply.text())
    };
    assert_eq!(case("GET", "/nope").0, 404);
    assert_eq!(case("GET", "/v1/campaigns/999").0, 404);
    assert_eq!(case("GET", "/v1/campaigns/999/document").0, 404);
    assert_eq!(case("GET", "/v1/campaigns/abc").0, 400);
    assert_eq!(case("GET", "/v1/campaigns/1/nope").0, 404);
    let (status, text) = case("DELETE", "/v1/metrics");
    assert_eq!(status, 405, "{text}");
    let reply = request_once(addr, "GET", "/v1/campaigns", None).unwrap();
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("POST"));
    // A finished-later document is 409 while queued/running: submit and
    // race the scheduler — either it is still pending (409) or already
    // done (200); both are correct, anything else is a bug.
    let id = submit(
        addr,
        &format!(
            "{{\"program\":\"demo\",\"source\":\"{}\"}}",
            nfi_sfi::jsontext::escape(SOURCE)
        ),
    );
    let doc = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();
    assert!(
        doc.status == 409 || doc.status == 200,
        "{} {}",
        doc.status,
        doc.text()
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_pipelining_and_close_semantics() {
    let (handle, dir) = start("pipeline");
    let addr = handle.addr;
    let mut client = Client::connect(addr).unwrap();
    // Two pipelined requests on one connection, answered in order.
    client.write_request("GET", "/healthz", None).unwrap();
    client.write_request("GET", "/v1/metrics", None).unwrap();
    let first = client.read_reply().unwrap();
    let second = client.read_reply().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.text().contains("\"status\":\"ok\""));
    assert_eq!(second.status, 200);
    assert!(second.text().contains("\"queue\""));
    assert_eq!(first.header("connection"), Some("keep-alive"));
    // A third request on the same connection still works.
    let third = client.send("GET", "/healthz", None).unwrap();
    assert_eq!(third.status, 200);
    // Connection: close is honored.
    let mut closing = Client::connect(addr).unwrap();
    closing
        .write_raw(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let reply = closing.read_reply().unwrap();
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(closing.read_reply().is_err(), "server closed the stream");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn codec_violations_get_protocol_error_statuses_over_the_wire() {
    let (handle, dir) = start("codec");
    let addr = handle.addr;

    // Truncated request line: bytes then EOF.
    let client = Client::connect(addr).unwrap();
    let mut client = client;
    client.write_raw(b"GET /v1/met").unwrap();
    client.shutdown_write();
    let reply = client.read_reply().unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.text().contains("truncated"), "{}", reply.text());

    // Unsupported method token.
    let reply = request_once(addr, "BREW", "/v1/metrics", None).unwrap();
    assert_eq!(reply.status, 405, "{}", reply.text());

    // Body over the daemon's cap → 413 with the limit named.
    let mut big = Client::connect(addr).unwrap();
    big.write_raw(
        format!(
            "POST /v1/campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            nfi_serve::http::DEFAULT_MAX_BODY + 1
        )
        .as_bytes(),
    )
    .unwrap();
    let reply = big.read_reply().unwrap();
    assert_eq!(reply.status, 413);
    assert!(reply.text().contains("exceeds"), "{}", reply.text());
    assert_eq!(reply.header("connection"), Some("close"));

    // Oversized header line → 413.
    let mut wide = Client::connect(addr).unwrap();
    wide.write_raw(
        format!(
            "GET /healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "v".repeat(nfi_serve::http::MAX_LINE)
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(wide.read_reply().unwrap().status, 413);

    // Chunked transfer → 501.
    let mut chunked = Client::connect(addr).unwrap();
    chunked
        .write_raw(b"POST /v1/campaigns HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    assert_eq!(chunked.read_reply().unwrap().status, 501);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_track_queue_and_store_counters() {
    let (handle, dir) = start("metrics");
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );
    let id = submit(addr, &body);
    await_job(addr, id);
    let id2 = submit(addr, &body);
    await_job(addr, id2);
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("\"submitted\":2"), "{text}");
    assert!(text.contains("\"completed\":2"), "{text}");
    assert!(text.contains("\"failed\":0"), "{text}");
    assert!(metric(&text, "assignments_completed") >= 1, "{text}");
    // The second job replayed everything: executed < units over the
    // two runs, and replayed > 0.
    assert!(!text.contains("\"replayed\":0,"), "{text}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_lanes_serve_documents_byte_identical_to_offline_runs() {
    // Three lanes, a burst of distinct programs plus a duplicate
    // same-program pair: independent jobs run in parallel, the
    // duplicate pair serializes on the segment lock, and every served
    // document must still match a fresh offline orchestrated run.
    let dir = state_dir("lanes");
    let config = ServeConfig {
        workers: 1,
        lanes: 3,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;

    let sources: Vec<(String, String)> = (0..3)
        .map(|i| {
            (
                format!("prog{i}"),
                format!("def f():\n    return {i}\ndef test_f():\n    assert f() == {i}\n"),
            )
        })
        .collect();
    let mut ids = Vec::new();
    for (name, source) in &sources {
        let body = format!(
            "{{\"program\":\"{name}\",\"source\":\"{}\"}}",
            nfi_sfi::jsontext::escape(source)
        );
        ids.push((name.clone(), source.clone(), submit(addr, &body)));
    }
    // The duplicate: prog0 again, racing the first submission.
    let (dup_name, dup_source) = sources[0].clone();
    let dup_body = format!(
        "{{\"program\":\"{dup_name}\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(&dup_source)
    );
    let dup_id = submit(addr, &dup_body);

    for (_, _, id) in &ids {
        let status = await_job(addr, *id);
        assert!(status.contains("\"status\":\"done\""), "{status}");
    }
    let dup_status = await_job(addr, dup_id);
    assert!(dup_status.contains("\"status\":\"done\""), "{dup_status}");

    // The same-program pair executed its units exactly once between
    // them — the segment lock made the loser replay the winner's save.
    let count = |text: &str, field: &str| -> usize {
        text.split(&format!("\"{field}\":"))
            .nth(1)
            .and_then(|t| t.split([',', '}']).next())
            .and_then(|t| t.parse().ok())
            .unwrap()
    };
    let first_status = {
        let reply =
            request_once(addr, "GET", &format!("/v1/campaigns/{}", ids[0].2), None).unwrap();
        reply.text()
    };
    let units = count(&first_status, "units");
    assert_eq!(
        count(&first_status, "executed") + count(&dup_status, "executed"),
        units,
        "duplicate submissions double-executed or corrupted the segment: {first_status} vs {dup_status}"
    );

    // Byte-parity of every document against a fresh offline run.
    for (name, source, id) in &ids {
        let doc = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();
        assert_eq!(doc.status, 200);
        let offline_dir = state_dir(&format!("lanes-offline-{name}"));
        let offline = nfi_core::Orchestrator::new(&offline_dir)
            .unwrap()
            .run_program(name, source)
            .unwrap();
        assert_eq!(
            doc.text(),
            offline.run.encode(),
            "lane-served {name} differs from offline"
        );
        let _ = std::fs::remove_dir_all(&offline_dir);
    }
    let dup_doc = request_once(
        addr,
        "GET",
        &format!("/v1/campaigns/{dup_id}/document"),
        None,
    )
    .unwrap();
    let first_doc = request_once(
        addr,
        "GET",
        &format!("/v1/campaigns/{}/document", ids[0].2),
        None,
    )
    .unwrap();
    assert_eq!(dup_doc.body, first_doc.body);

    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(metrics.text().contains("\"lanes\":3"), "{}", metrics.text());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_recovers_finished_documents_and_requeues_pending_jobs() {
    let dir = state_dir("recovery");
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );

    // Round one: finish a job, remember its document, stop cleanly.
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config.clone())
        .unwrap()
        .spawn()
        .unwrap();
    let id = submit(handle.addr, &body);
    await_job(handle.addr, id);
    let doc = request_once(
        handle.addr,
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(doc.status, 200);
    handle.stop();

    // Simulate a crash with work in flight: append an accepted-only
    // record for a second job straight into the journal, exactly as a
    // killed daemon would have left it.
    let spec2 = nfi_core::plan_campaign(
        "recovered",
        "def g():\n    return 5\ndef test_g():\n    assert g() == 5\n",
        nfi_pylite::MachineConfig::default().seed,
    )
    .unwrap();
    {
        use nfi_serve::journal::Journal;
        let (mut journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.max_id, id);
        journal
            .record_accepted(77, &spec2, "", nfi_serve::queue::Priority::Normal, None)
            .unwrap();
    }

    // Round two: the restarted daemon restores job 1 as done (same
    // counters, same bytes, straight from the store) and runs job 77
    // to completion.
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    let restored = request_once(addr, "GET", &format!("/v1/campaigns/{id}"), None).unwrap();
    assert_eq!(restored.status, 200, "{}", restored.text());
    assert!(
        restored.text().contains("\"status\":\"done\""),
        "finished job must be restored, not re-queued: {}",
        restored.text()
    );
    let redoc = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();
    assert_eq!(redoc.status, 200);
    assert_eq!(
        redoc.body, doc.body,
        "restored document differs from the pre-restart bytes"
    );

    let recovered = await_job(addr, 77);
    assert!(recovered.contains("\"status\":\"done\""), "{recovered}");
    let rec_doc = request_once(addr, "GET", "/v1/campaigns/77/document", None).unwrap();
    let offline_dir = state_dir("recovery-offline");
    let offline = nfi_core::Orchestrator::new(&offline_dir)
        .unwrap()
        .run_spec(&spec2)
        .unwrap();
    assert_eq!(rec_doc.text(), offline.run.encode());

    // Ids keep counting above everything the journal ever saw.
    let next = submit(addr, &body);
    assert!(next > 77, "id {next} reused journal space");
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.text().contains("\"recovered_finished\":1"),
        "{}",
        metrics.text()
    );
    assert!(
        metrics.text().contains("\"recovered_queued\":1"),
        "{}",
        metrics.text()
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}

#[test]
fn corrupt_trailing_journal_line_replans_without_changing_the_document() {
    let dir = state_dir("journal-corrupt");
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config.clone())
        .unwrap()
        .spawn()
        .unwrap();
    let id = submit(handle.addr, &body);
    await_job(handle.addr, id);
    let doc = request_once(
        handle.addr,
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    handle.stop();

    // Truncate the journal mid-way through its trailing `finished`
    // record, as a crash mid-append would.
    let journal_path = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    std::fs::write(&journal_path, &text[..text.len() - 30]).unwrap();

    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    // The job lost its finish record, so it re-queues, re-runs (warm
    // from the store: zero units execute), and serves the same bytes.
    let rerun = await_job(addr, id);
    assert!(rerun.contains("\"status\":\"done\""), "{rerun}");
    assert!(
        rerun.contains("\"executed\":0"),
        "re-planned job must replay from the store: {rerun}"
    );
    let redoc = request_once(addr, "GET", &format!("/v1/campaigns/{id}/document"), None).unwrap();
    assert_eq!(
        redoc.body, doc.body,
        "journal corruption changed a served document"
    );
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.text().contains("\"corrupt_lines\":1"),
        "{}",
        metrics.text()
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_daemon_on_the_same_state_dir_is_refused_at_bind() {
    let (handle, dir) = start("exclusive");
    let second = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            ..ServeConfig::new(&dir, NFI)
        },
    );
    let err = second.err().expect("second daemon must be refused");
    assert!(
        err.contains("already being served"),
        "unexpected diagnostic: {err}"
    );
    handle.stop();
    // Once the first daemon is gone its lock is released.
    let third = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            ..ServeConfig::new(&dir, NFI)
        },
    );
    assert!(third.is_ok(), "{:?}", third.err());
    drop(third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_without_a_lane_or_a_worker_is_refused_at_bind() {
    // Every miss waits for a worker, so such a daemon would hang its
    // first job forever.
    let dir = state_dir("zero");
    for (lanes, workers) in [(0, 1), (1, 0)] {
        let config = ServeConfig {
            lanes,
            workers,
            ..ServeConfig::new(&dir, NFI)
        };
        let err = Server::bind("127.0.0.1:0", config).err().expect("refused");
        assert!(
            err.contains("at least one lane and one local worker"),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_releases_the_state_dir_while_a_keep_alive_connection_is_open() {
    let (handle, dir) = start("stop-keepalive");
    // An idle keep-alive connection: its handler thread waits on the
    // next request, holding the daemon's state.
    let mut client = Client::connect(handle.addr).unwrap();
    let reply = client.send("GET", "/healthz", None).unwrap();
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    handle.stop();
    let again = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            ..ServeConfig::new(&dir, NFI)
        },
    );
    assert!(again.is_ok(), "{:?}", again.err());
    assert!(
        client.send("GET", "/healthz", None).is_err(),
        "stop closed it"
    );
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls a job as a tenant until done/failed.
fn await_job_as(addr: SocketAddr, token: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply =
            request_once_as(addr, token, "GET", &format!("/v1/campaigns/{id}"), None).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        let text = reply.text();
        if text.contains("\"status\":\"done\"") || text.contains("\"status\":\"failed\"") {
            return text;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn two_tenant_auth() -> AuthTokens {
    AuthTokens::parse("alice:secret-a\nbob:secret-b\n").unwrap()
}

#[test]
fn auth_gates_every_route_but_healthz_and_namespaces_tenants() {
    let dir = state_dir("auth");
    let config = ServeConfig {
        workers: 1,
        auth: Some(two_tenant_auth()),
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );

    // No token (and a wrong token) → 401 everywhere but the liveness
    // probe.
    let denied = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(denied.status, 401, "{}", denied.text());
    assert!(denied.text().contains("bearer token"), "{}", denied.text());
    let wrong = request_once_as(
        addr,
        "not-a-token",
        "POST",
        "/v1/campaigns",
        Some(body.as_bytes()),
    )
    .unwrap();
    assert_eq!(wrong.status, 401, "{}", wrong.text());
    let probe = request_once(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(probe.status, 200, "{}", probe.text());

    // Alice's submission is namespaced: the daemon plans and stores it
    // as `alice:demo`.
    let accepted = request_once_as(
        addr,
        "secret-a",
        "POST",
        "/v1/campaigns",
        Some(body.as_bytes()),
    )
    .unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    assert!(
        accepted.text().contains("\"program\":\"alice:demo\""),
        "{}",
        accepted.text()
    );
    let id: u64 = accepted
        .text()
        .split("\"id\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.parse().ok())
        .unwrap();
    let status = await_job_as(addr, "secret-a", id);
    assert!(status.contains("\"status\":\"done\""), "{status}");

    // Bob cannot see Alice's job — 404, indistinguishable from a job
    // that never existed.
    let cross = request_once_as(
        addr,
        "secret-b",
        "GET",
        &format!("/v1/campaigns/{id}"),
        None,
    )
    .unwrap();
    assert_eq!(cross.status, 404, "{}", cross.text());
    let cross_doc = request_once_as(
        addr,
        "secret-b",
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(cross_doc.status, 404);

    // Alice's document is byte-identical to an offline run planned
    // under the same namespaced name (`campaign run --as alice:demo`).
    let doc = request_once_as(
        addr,
        "secret-a",
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(doc.status, 200);
    let offline_dir = state_dir("auth-offline");
    let offline = nfi_core::Orchestrator::new(&offline_dir)
        .unwrap()
        .run_program("alice:demo", SOURCE)
        .unwrap();
    assert_eq!(doc.text(), offline.run.encode());

    // The rejections surfaced in the metrics.
    let metrics = handle.state().metrics_json();
    assert!(metrics.contains("\"unauthorized\":2"), "{metrics}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&offline_dir);
}

#[test]
fn rate_limited_clients_get_429_with_retry_after_and_recover() {
    let dir = state_dir("ratelimit");
    let config = ServeConfig {
        workers: 1,
        rate_limit: 5,
        rate_burst: 3,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;

    // Burn the burst, then the next request sheds with Retry-After.
    let mut shed = None;
    for _ in 0..10 {
        let reply = request_once(addr, "GET", "/healthz", None).unwrap();
        if reply.status == 429 {
            shed = Some(reply);
            break;
        }
        assert_eq!(reply.status, 200);
    }
    let shed = shed.expect("a burst past the bucket must shed");
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .unwrap();
    assert!(retry_after >= 1, "Retry-After must be at least 1s");
    assert_eq!(shed.header("connection"), Some("keep-alive"));

    // The cooperating client helper honors the advice and gets through.
    let recovered = Session::new(addr, None)
        .send("GET", "/healthz", None, 3)
        .unwrap();
    assert_eq!(recovered.status, 200, "{}", recovered.text());

    let metrics = handle.state().metrics_json();
    assert!(metrics.contains("\"rate_limited\":"), "{metrics}");
    assert!(!metrics.contains("\"rate_limited\":0"), "{metrics}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_bound_and_tenant_quota_shed_submissions_before_the_journal() {
    // Bind without serving: no scheduler lane ever pops, so queue
    // depth and tenant accounting are exact — no races.
    let dir = state_dir("shed");
    let config = ServeConfig {
        max_queue: 2,
        tenant_max_queued: 1,
        ..ServeConfig::new(&dir, NFI)
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let state = server.state();
    let spec = || nfi_core::plan_campaign("demo", SOURCE, 7).unwrap();

    // Tenant quota first: alice's second job sheds 429 while her first
    // is still queued.
    state
        .accept(spec(), "alice", Priority::Normal, None)
        .expect("first job is admitted");
    let quota = state
        .accept(spec(), "alice", Priority::Normal, None)
        .expect_err("tenant quota must shed");
    assert_eq!(
        quota.status,
        429,
        "{}",
        String::from_utf8_lossy(&quota.body)
    );
    assert!(
        quota
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "Retry-After" && !v.is_empty()),
        "429 must advise Retry-After"
    );

    // Queue bound next: with 2 jobs queued (alice + bob), carol sheds
    // 503 regardless of her own quota headroom.
    state
        .accept(spec(), "bob", Priority::Normal, None)
        .expect("bob has quota and the queue has room");
    let full = state
        .accept(spec(), "carol", Priority::Normal, None)
        .expect_err("queue bound must shed");
    assert_eq!(full.status, 503, "{}", String::from_utf8_lossy(&full.body));

    let metrics = state.metrics_json();
    assert!(metrics.contains("\"queue_shed\":2"), "{metrics}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_program_quota_sheds_new_program_names_only() {
    let dir = state_dir("progquota");
    let config = ServeConfig {
        tenant_max_programs: 1,
        ..ServeConfig::new(&dir, NFI)
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let state = server.state();
    let spec = |name: &str| nfi_core::plan_campaign(name, SOURCE, 7).unwrap();
    state
        .accept(spec("alice:one"), "alice", Priority::Normal, None)
        .expect("first program is admitted");
    // A resubmission of the same program passes; a second distinct
    // program sheds; another tenant is unaffected.
    state
        .accept(spec("alice:one"), "alice", Priority::Normal, None)
        .expect("known program names stay admitted");
    let denied = state
        .accept(spec("alice:two"), "alice", Priority::Normal, None)
        .expect_err("a second distinct program must shed");
    assert_eq!(denied.status, 429);
    assert!(
        String::from_utf8_lossy(&denied.body).contains("distinct programs"),
        "{}",
        String::from_utf8_lossy(&denied.body)
    );
    state
        .accept(spec("bob:one"), "bob", Priority::Normal, None)
        .expect("quotas are per tenant");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_that_outwait_their_deadline_fail_with_an_expiry() {
    let dir = state_dir("deadline");
    let config = ServeConfig {
        workers: 1,
        lanes: 1,
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;

    // Keep the single lane busy with a real corpus campaign, then queue
    // a 1ms-deadline job behind it: by the time the lane frees up the
    // budget is long gone.
    let blocker = submit(addr, "{\"program\":\"ecommerce\"}");
    let doomed = submit(
        addr,
        &format!(
            "{{\"program\":\"demo\",\"source\":\"{}\",\"deadline_ms\":1}}",
            nfi_sfi::jsontext::escape(SOURCE)
        ),
    );
    let doomed_status = await_job(addr, doomed);
    assert!(
        doomed_status.contains("\"status\":\"failed\""),
        "{doomed_status}"
    );
    assert!(
        doomed_status.contains("deadline expired"),
        "{doomed_status}"
    );
    let blocker_status = await_job(addr, blocker);
    assert!(
        blocker_status.contains("\"status\":\"done\""),
        "the blocking job itself must finish: {blocker_status}"
    );
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.text().contains("\"deadline_expiries\":1"),
        "{}",
        metrics.text()
    );

    // The expiry survives a restart as a journaled failure.
    handle.stop();
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            ..ServeConfig::new(&dir, NFI)
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let restored =
        request_once(handle.addr, "GET", &format!("/v1/campaigns/{doomed}"), None).unwrap();
    assert!(
        restored.text().contains("deadline expired"),
        "{}",
        restored.text()
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_expiry_is_journaled_before_it_shows_even_when_its_flip_evicts_it() {
    // One lane, all jobs accepted before it starts: the low job drains
    // last, long past its 1 ms budget, behind a full retention cap of
    // finished high jobs — so failing it evicts it from the table.
    let dir = state_dir("expiry-evicted");
    let server = Server::bind("127.0.0.1:0", ServeConfig::new(&dir, NFI)).unwrap();
    let state = server.state();
    let spec = || nfi_core::plan_campaign("demo", SOURCE, 7).unwrap();
    let low = state.accept(spec(), "", Priority::Low, Some(1)).unwrap();
    for _ in 0..RETAINED_FINISHED_JOBS {
        state.accept(spec(), "", Priority::High, None).unwrap();
    }
    // Stop drains every accepted job before it returns.
    server.spawn().unwrap().stop();
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    let record = format!("{{\"kind\":\"finished\",\"id\":{low},\"status\":\"failed\"");
    assert!(
        journal.lines().any(|line| line.starts_with(&record)),
        "the expiry of job {low} was never journaled"
    );
    let metrics = state.metrics_json();
    assert_eq!(metric(&metrics, "deadline_expiries"), 1, "{metrics}");
    assert_eq!(metric(&metrics, "failed"), 1, "{metrics}");
    assert_eq!(
        metric(&metrics, "completed"),
        RETAINED_FINISHED_JOBS as u64,
        "{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_priority_is_400_and_priority_echoes_in_the_accept_reply() {
    let (handle, dir) = start("priority");
    let addr = handle.addr;
    let escaped = nfi_sfi::jsontext::escape(SOURCE);
    let bad = request_once(
        addr,
        "POST",
        "/v1/campaigns",
        Some(
            format!("{{\"program\":\"demo\",\"source\":\"{escaped}\",\"priority\":\"urgent\"}}")
                .as_bytes(),
        ),
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("unknown priority"), "{}", bad.text());
    let high = request_once(
        addr,
        "POST",
        "/v1/campaigns",
        Some(
            format!("{{\"program\":\"demo\",\"source\":\"{escaped}\",\"priority\":\"high\"}}")
                .as_bytes(),
        ),
    )
    .unwrap();
    assert_eq!(high.status, 202, "{}", high.text());
    assert!(
        high.text().contains("\"priority\":\"high\""),
        "{}",
        high.text()
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slowloris_mid_request_gets_408_and_idle_keepalive_closes_silently() {
    let dir = state_dir("slowloris");
    let config = ServeConfig {
        request_timeout: Duration::from_millis(250),
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;

    // A client that starts a request and stalls gets 408.
    let mut slow = Client::connect(addr).unwrap();
    slow.write_raw(b"GET /healthz HTT").unwrap();
    let reply = slow
        .read_reply()
        .expect("the daemon answers before closing");
    assert_eq!(reply.status, 408, "{}", reply.text());

    // Dripping bytes slower than the deadline does not reset it.
    let mut drip = Client::connect(addr).unwrap();
    let started = Instant::now();
    for chunk in [b"GET ".as_slice(), b"/heal", b"thz H"] {
        let _ = drip.write_raw(chunk);
        std::thread::sleep(Duration::from_millis(120));
    }
    let dripped = drip
        .read_reply()
        .expect("drip-fed request must be answered");
    assert_eq!(dripped.status, 408, "{}", dripped.text());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline bounded the drip"
    );

    // An idle keep-alive connection is closed with no bytes at all.
    let mut idle = Client::connect(addr).unwrap();
    let reply = idle.send("GET", "/healthz", None).unwrap();
    assert_eq!(reply.status, 200);
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        idle.read_reply().is_err(),
        "idle connection must be closed, not answered"
    );

    let metrics = handle.state().metrics_json();
    assert!(metrics.contains("\"timeouts\":2"), "{metrics}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hardened_daemon_with_four_lanes_preserves_offline_byte_parity() {
    // The acceptance gauntlet in miniature: auth + rate limiting +
    // deadlines + four lanes all on, two tenants interleaved — every
    // served document still byte-identical to an offline run under the
    // namespaced program name.
    let dir = state_dir("hardened");
    let config = ServeConfig {
        workers: 2,
        lanes: 4,
        auth: Some(two_tenant_auth()),
        rate_limit: 500,
        rate_burst: 500,
        max_queue: 64,
        tenant_max_queued: 32,
        default_deadline_ms: Some(60_000),
        ..ServeConfig::new(&dir, NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;

    let sources: Vec<(String, String)> = (0..3)
        .map(|i| {
            (
                format!("prog{i}"),
                format!("def f():\n    return {i}\ndef test_f():\n    assert f() == {i}\n"),
            )
        })
        .collect();
    let mut submitted = Vec::new();
    for (i, (name, source)) in sources.iter().enumerate() {
        let token = if i % 2 == 0 { "secret-a" } else { "secret-b" };
        let tenant = if i % 2 == 0 { "alice" } else { "bob" };
        let body = format!(
            "{{\"program\":\"{name}\",\"source\":\"{}\"}}",
            nfi_sfi::jsontext::escape(source)
        );
        let reply =
            request_once_as(addr, token, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
        assert_eq!(reply.status, 202, "{}", reply.text());
        let id: u64 = reply
            .text()
            .split("\"id\":")
            .nth(1)
            .and_then(|t| t.split([',', '}']).next())
            .and_then(|t| t.parse().ok())
            .unwrap();
        submitted.push((id, token, format!("{tenant}:{name}"), source.clone()));
    }
    for (id, token, scoped, source) in &submitted {
        let status = await_job_as(addr, token, *id);
        assert!(status.contains("\"status\":\"done\""), "{status}");
        let doc = request_once_as(
            addr,
            token,
            "GET",
            &format!("/v1/campaigns/{id}/document"),
            None,
        )
        .unwrap();
        assert_eq!(doc.status, 200);
        let offline_dir = state_dir(&format!("hardened-offline-{id}"));
        let offline = nfi_core::Orchestrator::new(&offline_dir)
            .unwrap()
            .run_program(scoped, source)
            .unwrap();
        assert_eq!(
            doc.text(),
            offline.run.encode(),
            "hardened daemon diverged from offline for {scoped}"
        );
        let _ = std::fs::remove_dir_all(&offline_dir);
    }
    // A normal run under every limit sheds nothing and leaves no unit
    // uncovered, and with telemetry on every request is timed.
    let metrics = request_once_as(addr, "secret-a", "GET", "/v1/metrics", None)
        .unwrap()
        .text();
    for counter in ["\"queue_shed\":0", "\"failed_units\":0"] {
        assert!(metrics.contains(counter), "{metrics}");
    }
    assert!(!metrics.contains("\"http\":{\"count\":0,"), "{metrics}");
    // Every miss ran on the 4 × 2 local workers, all of them live.
    assert!(metric(&metrics, "assignments_completed") >= 1, "{metrics}");
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.state().fleet.live_workers() < 8 {
        assert!(Instant::now() < deadline, "local workers never all joined");
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = handle.state().metrics_json();
    assert_eq!(metric(&metrics, "workers_live"), 4 * 2, "{metrics}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_accepted_before_shutdown_finish_before_stop_returns() {
    let (handle, dir) = start("drain");
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        nfi_sfi::jsontext::escape(SOURCE)
    );
    let id = submit(addr, &body);
    let state = std::sync::Arc::clone(handle.state());
    handle.stop();
    let job = state.jobs.get(id).expect("job survives shutdown");
    assert_eq!(
        job.status.key(),
        "done",
        "accepted work drains before stop returns"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
