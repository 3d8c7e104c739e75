//! End-to-end daemon test through the real `nfi` binary: `nfi serve`
//! runs with its default **spawned `nfi campaign exec` process
//! workers** (the serve crate's own tests can only exercise in-process
//! mode — this is the one place the full process tree exists), and the
//! served document is byte-diffed against an offline `nfi campaign
//! run` of the same binary. Also covers the strict CLI flag
//! validation, which lives in the binary.

use neural_fault_injection::serve::client::{request_once, request_once_as, Client};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NFI: &str = env!("CARGO_BIN_EXE_nfi");

const SOURCE: &str = "\
m = lock()
total = 0
def add(v):
    global total
    m.acquire()
    total = total + v
    m.release()
    return total
def test_add():
    assert add(1) == 1
";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfi-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon child that is killed on drop (test panics must not
/// leak listeners).
struct Daemon {
    child: Child,
    addr: String,
    // Keeps the stdout pipe open for the daemon's lifetime — dropping
    // it would EPIPE the daemon's own startup prints.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start(state_dir: &std::path::Path, workers: usize) -> Daemon {
        Daemon::start_with_lanes(state_dir, workers, 1)
    }

    fn start_with_lanes(state_dir: &std::path::Path, workers: usize, lanes: usize) -> Daemon {
        Daemon::start_with_args(state_dir, workers, lanes, &[])
    }

    fn start_with_args(
        state_dir: &std::path::Path,
        workers: usize,
        lanes: usize,
        extra: &[&str],
    ) -> Daemon {
        let mut child = Command::new(NFI)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--lanes")
            .arg(lanes.to_string())
            .arg("--state-dir")
            .arg(state_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nfi serve");
        // The daemon prints its resolved ephemeral address at startup.
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("daemon banner line");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
            .to_string();
        Daemon {
            child,
            addr,
            _stdout: reader,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn await_done(addr: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let reply = request_once(addr, "GET", &format!("/v1/campaigns/{id}"), None).unwrap();
        let text = reply.text();
        if text.contains("\"status\":\"done\"") {
            return text;
        }
        assert!(
            !text.contains("\"status\":\"failed\""),
            "job {id} failed: {text}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn served_documents_from_process_workers_match_offline_campaign_run() {
    let dir = scratch("parity");
    let daemon = Daemon::start(&dir.join("served"), 2);

    // Submit the demo source twice: cold, then store-warm.
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        neural_fault_injection::sfi::jsontext::escape(SOURCE)
    );
    let reply = request_once(&daemon.addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let cold_status = await_done(&daemon.addr, 1);
    assert!(cold_status.contains("\"replayed\":0"), "{cold_status}");

    let reply = request_once(&daemon.addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let warm_status = await_done(&daemon.addr, 2);
    assert!(
        warm_status.contains("\"executed\":0"),
        "warm job must replay everything: {warm_status}"
    );

    let mut client = Client::connect(&daemon.addr).unwrap();
    let cold = client
        .send("GET", "/v1/campaigns/1/document", None)
        .unwrap();
    let warm = client
        .send("GET", "/v1/campaigns/2/document", None)
        .unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(
        cold.body, warm.body,
        "warm and cold served documents differ"
    );

    // Offline run of the same binary over a fresh state dir.
    let demo_py = dir.join("demo.py");
    std::fs::write(&demo_py, SOURCE).unwrap();
    let offline_state = dir.join("offline");
    let status = Command::new(NFI)
        .args(["campaign", "run", "--workers", "2", "--state-dir"])
        .arg(&offline_state)
        .arg(&demo_py)
        .stdout(Stdio::null())
        .status()
        .expect("offline campaign run");
    assert!(status.success());
    let offline_doc = std::fs::read(offline_state.join("runs/demo.jsonl")).unwrap();
    assert_eq!(
        cold.body, offline_doc,
        "served document differs from offline `nfi campaign run`"
    );

    // The daemon's workers left no exchange files behind.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("served/tmp"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "leftover worker files: {leftovers:?}");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_recovers_accepted_jobs_and_finished_documents_on_restart() {
    let dir = scratch("restart");
    let state = dir.join("state");
    let submit = |addr: &str, name: &str, source: &str| -> u64 {
        let body = format!(
            "{{\"program\":\"{name}\",\"source\":\"{}\"}}",
            neural_fault_injection::sfi::jsontext::escape(source)
        );
        let reply = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
        assert_eq!(reply.status, 202, "{}", reply.text());
        reply
            .text()
            .split("\"id\":")
            .nth(1)
            .and_then(|t| t.split([',', '}']).next())
            .and_then(|t| t.parse().ok())
            .unwrap()
    };
    let sources: Vec<(String, String)> = (0..3)
        .map(|i| {
            (
                format!("burst{i}"),
                format!("def f():\n    return {i}\ndef test_f():\n    assert f() == {i}\n"),
            )
        })
        .collect();

    // Warm-up job: finished, journaled, its document fetched.
    let daemon = Daemon::start_with_lanes(&state, 1, 2);
    let warm_id = submit(&daemon.addr, "demo", SOURCE);
    await_done(&daemon.addr, warm_id);
    let warm_doc = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{warm_id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(warm_doc.status, 200);

    // Burst-submit, then kill the daemon immediately — the burst is
    // accepted (journaled before each 202) but mostly still queued.
    let burst_ids: Vec<u64> = sources
        .iter()
        .map(|(name, source)| submit(&daemon.addr, name, source))
        .collect();
    drop(daemon); // SIGKILL, no drain

    // Restart on the same state dir: nothing accepted may be lost.
    let daemon = Daemon::start_with_lanes(&state, 1, 2);
    let restored = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{warm_id}"),
        None,
    )
    .unwrap();
    assert!(
        restored.text().contains("\"status\":\"done\""),
        "warm-up job must restore as done: {}",
        restored.text()
    );
    let redoc = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{warm_id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(
        redoc.body, warm_doc.body,
        "restored document differs from the pre-kill bytes"
    );
    for (id, (name, source)) in burst_ids.iter().zip(&sources) {
        await_done(&daemon.addr, *id);
        let doc = request_once(
            &daemon.addr,
            "GET",
            &format!("/v1/campaigns/{id}/document"),
            None,
        )
        .unwrap();
        assert_eq!(doc.status, 200);
        // Byte-parity against an offline run of the same binary.
        let src_path = dir.join(format!("{name}.py"));
        std::fs::write(&src_path, source).unwrap();
        let offline_state = dir.join(format!("offline-{name}"));
        let status = Command::new(NFI)
            .args(["campaign", "run", "--state-dir"])
            .arg(&offline_state)
            .arg(&src_path)
            .stdout(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
        let offline_doc = std::fs::read(offline_state.join(format!("runs/{name}.jsonl"))).unwrap();
        assert_eq!(
            doc.body, offline_doc,
            "recovered {name} differs from offline `nfi campaign run`"
        );
    }
    // New ids continue above everything the journal saw.
    let next = submit(&daemon.addr, "demo", SOURCE);
    assert!(next > *burst_ids.iter().max().unwrap());
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes an executable wrapper around the real `nfi` binary whose
/// first `count` invocations run `misbehave` instead (a shared counter
/// file sequences the attempts — use one worker so attempts are
/// ordered).
#[cfg(unix)]
fn flaky_nfi(dir: &std::path::Path, count: usize, misbehave: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let counter = dir.join("attempts");
    let path = dir.join("flaky-nfi.sh");
    std::fs::write(
        &path,
        format!(
            "#!/bin/sh\nc=$(cat {counter} 2>/dev/null || echo 0)\n\
             echo $((c+1)) > {counter}\n\
             if [ \"$c\" -lt {count} ]; then\n  {misbehave}\nfi\n\
             exec {NFI} \"$@\"\n",
            counter = counter.display(),
        ),
    )
    .unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

#[test]
#[cfg(unix)]
fn crashing_worker_children_retry_with_backoff_and_the_job_completes() {
    use neural_fault_injection::serve::{worker::WorkerMode, ServeConfig, Server};
    let dir = scratch("flaky");
    let state = dir.join("state");
    // The first two child spawns exit 3; the retries then reach the
    // real binary. max_retries 2 → attempt 3 succeeds.
    let wrapper = flaky_nfi(&dir, 2, "exit 3");
    let config = ServeConfig {
        workers: 1,
        mode: WorkerMode::Spawn { nfi: wrapper },
        worker_retries: 2,
        ..ServeConfig::new(&state)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        neural_fault_injection::sfi::jsontext::escape(SOURCE)
    );
    let reply = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let status = await_done(&addr.to_string(), 1);
    assert!(
        status.contains("\"failed_units\":0"),
        "retries must recover full coverage: {status}"
    );

    // The retries surfaced in the metrics, and the served document is
    // byte-identical to an offline run — a retried job is
    // indistinguishable from a clean one.
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    let text = metrics.text();
    assert!(text.contains("\"retries\":2"), "{text}");
    assert!(text.contains("\"failed_units\":0"), "{text}");
    let doc = request_once(addr, "GET", "/v1/campaigns/1/document", None).unwrap();
    let offline_dir = dir.join("offline");
    let offline = neural_fault_injection::core::Orchestrator::new(&offline_dir)
        .unwrap()
        .run_program("demo", SOURCE)
        .unwrap();
    assert_eq!(doc.text(), offline.run.encode());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn a_hung_worker_child_is_watchdog_killed_retried_and_the_job_completes() {
    use neural_fault_injection::serve::{worker::WorkerMode, ServeConfig, Server};
    let dir = scratch("hung");
    let state = dir.join("state");
    // The first child hangs (the wrapper sleeps without exec'ing); the
    // watchdog kills it at its budget and the retry reaches the real
    // binary. The hang must not require a daemon restart to clear.
    let wrapper = flaky_nfi(&dir, 1, "sleep 600");
    let config = ServeConfig {
        workers: 1,
        mode: WorkerMode::Spawn { nfi: wrapper },
        worker_retries: 2,
        child_timeout: Some(Duration::from_millis(500)),
        ..ServeConfig::new(&state)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr;
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        neural_fault_injection::sfi::jsontext::escape(SOURCE)
    );
    let reply = request_once(addr, "POST", "/v1/campaigns", Some(body.as_bytes())).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    let status = await_done(&addr.to_string(), 1);
    assert!(status.contains("\"failed_units\":0"), "{status}");
    let metrics = request_once(addr, "GET", "/v1/metrics", None).unwrap();
    let text = metrics.text();
    assert!(text.contains("\"watchdog_kills\":1"), "{text}");
    assert!(text.contains("\"retries\":1"), "{text}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auth_and_the_as_flag_close_the_tenant_parity_loop_over_the_cli() {
    let dir = scratch("cli-auth");
    let tokens = dir.join("tokens");
    std::fs::write(&tokens, "alice:tok-a\n").unwrap();
    let daemon = Daemon::start_with_args(
        &dir.join("served"),
        1,
        2,
        &[
            "--auth-token-file",
            tokens.to_str().unwrap(),
            "--rate-limit",
            "200",
            "--deadline-ms",
            "120000",
            "--max-queue",
            "64",
        ],
    );

    // No token → 401; the probe stays open.
    let denied = request_once(&daemon.addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(denied.status, 401, "{}", denied.text());
    let probe = request_once(&daemon.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(probe.status, 200);

    // Alice submits; her program is served under `alice:demo`.
    let body = format!(
        "{{\"program\":\"demo\",\"source\":\"{}\"}}",
        neural_fault_injection::sfi::jsontext::escape(SOURCE)
    );
    let reply = request_once_as(
        &daemon.addr,
        "tok-a",
        "POST",
        "/v1/campaigns",
        Some(body.as_bytes()),
    )
    .unwrap();
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(
        reply.text().contains("\"program\":\"alice:demo\""),
        "{}",
        reply.text()
    );
    let deadline = Instant::now() + Duration::from_secs(180);
    let status = loop {
        let reply = request_once_as(&daemon.addr, "tok-a", "GET", "/v1/campaigns/1", None).unwrap();
        let text = reply.text();
        if text.contains("\"status\":\"done\"") {
            break text;
        }
        assert!(
            !text.contains("\"status\":\"failed\""),
            "job failed: {text}"
        );
        assert!(Instant::now() < deadline, "job never finished: {text}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(status.contains("\"program\":\"alice:demo\""), "{status}");
    let doc = request_once_as(
        &daemon.addr,
        "tok-a",
        "GET",
        "/v1/campaigns/1/document",
        None,
    )
    .unwrap();
    assert_eq!(doc.status, 200);

    // `campaign run --as alice:demo` reproduces the tenant's document
    // offline, byte for byte — the namespaced store key is the same.
    let demo_py = dir.join("demo.py");
    std::fs::write(&demo_py, SOURCE).unwrap();
    let offline_state = dir.join("offline");
    let out = Command::new(NFI)
        .args(["campaign", "run", "--as", "alice:demo", "--state-dir"])
        .arg(&offline_state)
        .arg(&demo_py)
        .stdout(Stdio::null())
        .status()
        .expect("offline campaign run --as");
    assert!(out.success());
    let offline_doc = std::fs::read(offline_state.join("runs/alice:demo.jsonl")).unwrap();
    assert_eq!(
        doc.body, offline_doc,
        "served tenant document differs from offline `campaign run --as`"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_flag_validation_rejects_nonsense_up_front() {
    let run = |args: &[&str]| -> (bool, String) {
        let output = Command::new(NFI).args(args).output().expect("run nfi");
        (
            output.status.success(),
            String::from_utf8_lossy(&output.stderr).to_string(),
        )
    };
    for (args, needle) in [
        (
            &["serve", "--state-dir", "/tmp/x", "--workers", "0"][..],
            "--workers expects a positive integer, got `0`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--workers", "two"],
            "--workers expects a positive integer, got `two`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--lanes", "0"],
            "--lanes expects a positive integer, got `0`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--lanes", "many"],
            "--lanes expects a positive integer, got `many`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--port", "0"],
            "--port expects a port number 1-65535, got `0`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--port", "99999"],
            "--port expects a port number 1-65535, got `99999`",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--addr", "localhost"],
            "--addr expects ip:port",
        ),
        (
            &[
                "serve",
                "--state-dir",
                "/tmp/x",
                "--addr",
                "127.0.0.1:1",
                "--port",
                "2",
            ],
            "--addr already carries a port",
        ),
        (&["serve"], "need --state-dir"),
        (
            &["serve", "--state-dir", "/tmp/x", "--rate-limit", "fast"],
            "--rate-limit expects an unsigned integer",
        ),
        (
            &["serve", "--state-dir", "/tmp/x", "--worker-retries", "-1"],
            "--worker-retries expects an unsigned integer",
        ),
        (
            &[
                "serve",
                "--state-dir",
                "/tmp/x",
                "--auth-token-file",
                "/no/such/file",
            ],
            "cannot read token file",
        ),
        (
            &[
                "campaign",
                "plan",
                "--program",
                "banking",
                "--as",
                "bad name",
            ],
            "contains whitespace",
        ),
        (
            &[
                "campaign",
                "run",
                "--state-dir",
                "/tmp/x",
                "--as",
                "everything",
            ],
            "needs exactly one target",
        ),
        (
            &["campaign", "run", "--state-dir", "/tmp/x", "--workers", "0"],
            "--workers expects a positive integer, got `0`",
        ),
        (&["store", "gc"], "need --state-dir"),
        (
            &["store", "gc", "--state-dir", "/tmp/x"],
            "store gc needs the live set named explicitly",
        ),
        (&["store"], "usage: nfi store gc"),
        (
            &["experiments", "e9"],
            "unknown experiment `e9` (expected one of e1, e2, e3, e4, e5, e6, e7, e8 or all)",
        ),
        (&["bench"], "unknown command `bench`"),
    ] {
        let (ok, stderr) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(
            stderr.contains(needle),
            "{args:?} → `{stderr}` missing `{needle}`"
        );
    }
}

#[test]
fn store_gc_over_the_binary_prunes_only_dead_programs() {
    let dir = scratch("gc");
    let write_program = |name: &str, extra: &str| {
        let path = dir.join(format!("{name}.py"));
        std::fs::write(&path, format!("{SOURCE}{extra}")).unwrap();
        path
    };
    let keep = write_program("keep", "");
    let drop_py = write_program("dropme", "marker = 1\n");
    let state = dir.join("state");
    for path in [&keep, &drop_py] {
        let status = Command::new(NFI)
            .args(["campaign", "run", "--state-dir"])
            .arg(&state)
            .arg(path)
            .stdout(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
    }
    let segments = || std::fs::read_dir(state.join("store")).unwrap().count();
    assert_eq!(segments(), 2);

    // Dry run touches nothing.
    let output = Command::new(NFI)
        .args(["store", "gc", "--dry-run", "--state-dir"])
        .arg(&state)
        .arg(&keep)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("would remove"), "{stdout}");
    assert!(stdout.contains("dropme"), "{stdout}");
    assert_eq!(segments(), 2);

    // The sweep removes exactly the dead program's segment.
    let output = Command::new(NFI)
        .args(["store", "gc", "--state-dir"])
        .arg(&state)
        .arg(&keep)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert_eq!(segments(), 1);
    // The survivor still replays warm through the binary.
    let output = Command::new(NFI)
        .args(["campaign", "run", "--state-dir"])
        .arg(&state)
        .arg(&keep)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("executed=0"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
