//! The daemon with telemetry switched off: both metrics endpoints still
//! answer, `/metrics` is still conformant Prometheus text, no request
//! is timed, and a served document stays byte-identical to an offline
//! run.
//!
//! A test binary of its own, because `nfi_telemetry::set_enabled` is
//! process-wide: switched off here, it cannot hide samples from the
//! daemon tests, and they cannot record into this binary's registry.
//! The misses run on the daemon's local `nfi worker` children.

use nfi_core::{exec_spec, plan_campaign, ExecConfig};
use nfi_pylite::MachineConfig;
use nfi_serve::client::request_once;
use nfi_serve::{ServeConfig, Server};
use nfi_telemetry::{families, prom};
use std::time::{Duration, Instant};

const NFI: &str = env!("CARGO_BIN_EXE_nfi");

const SOURCE: &str = "\
def double(x):
    return x * 2
def test_double():
    assert double(2) == 4
";

#[test]
fn telemetry_off_daemon_serves_metrics_records_nothing_and_keeps_byte_parity() {
    nfi_telemetry::set_enabled(false);
    let dir = std::env::temp_dir().join(format!("nfi-telemetry-off-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        workers: 2,
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
    let accepted = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = request_once(addr, "GET", "/v1/campaigns/1", None).unwrap();
        let text = status.text();
        if text.contains("\"status\":\"done\"") {
            break;
        }
        assert!(!text.contains("\"status\":\"failed\""), "{text}");
        assert!(Instant::now() < deadline, "job never finished: {text}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let doc = request_once(addr, "GET", "/v1/campaigns/1/document", None).unwrap();
    assert_eq!(doc.status, 200);
    let machine = MachineConfig::default();
    let spec = plan_campaign("demo", SOURCE, machine.seed).unwrap();
    let offline = exec_spec(&spec, &machine, ExecConfig::sequential()).unwrap();
    assert_eq!(doc.text(), offline.encode());

    let json = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(json.status, 200, "{}", json.text());
    assert!(json.text().contains("\"completed\":1"), "{}", json.text());
    let page = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(page.status, 200, "{}", page.text());
    prom::check_conformance(&page.text()).unwrap();
    assert_eq!(
        nfi_telemetry::registry().merged(families::HTTP).count,
        0,
        "a request was timed with telemetry off"
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
