//! End-to-end daemon test through the real `nfi` binary: `nfi serve`
//! runs as its own process with its **local `nfi worker` children**,
//! and the served document is byte-diffed against an offline
//! `nfi campaign run` of the same binary. Also covers the supervision
//! of those children (signals, `pgrep`) and the strict CLI flag
//! validation, which lives in the binary.

use neural_fault_injection::serve::client::{request_once, request_once_as, Client};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
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

/// Pids of the live `nfi worker` processes working for the daemon at
/// `addr` (an exited child's zombie has no command line to match).
fn local_workers(addr: &str) -> Vec<u32> {
    let pattern = format!("worker --addr {addr} --threads");
    let out = Command::new("pgrep")
        .args(["-f", &pattern])
        .output()
        .expect("run pgrep");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect()
}

/// Waits until `local_workers(addr)` has `count` entries, returning
/// them.
fn await_local_workers(addr: &str, count: usize) -> Vec<u32> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let pids = local_workers(addr);
        if pids.len() == count && metric(addr, "workers_live") == count as u64 {
            return pids;
        }
        assert!(
            Instant::now() < deadline,
            "expected {count} local workers, saw {pids:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn signal(pid: u32, name: &str) {
    let status = Command::new("kill")
        .args([&format!("-{name}"), &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{name} {pid}");
}

/// One number of `/v1/metrics`, by key.
fn metric(addr: &str, key: &str) -> u64 {
    let text = request_once(addr, "GET", "/v1/metrics", None)
        .unwrap()
        .text();
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {text}"))
}

fn submit_source(addr: &str, program: &str, source: &str) -> u64 {
    let body = format!(
        "{{\"program\":\"{program}\",\"source\":\"{}\"}}",
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
}

/// The document an offline `nfi campaign run` of `source` writes.
fn offline_document(dir: &Path, program: &str, source: &str) -> Vec<u8> {
    let path = dir.join(format!("{program}.py"));
    std::fs::write(&path, source).unwrap();
    let state = dir.join(format!("offline-{program}"));
    let _ = std::fs::remove_dir_all(&state);
    let status = Command::new(NFI)
        .args(["campaign", "run", "--state-dir"])
        .arg(&state)
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("offline campaign run");
    assert!(status.success());
    std::fs::read(state.join(format!("runs/{program}.jsonl"))).unwrap()
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
    let cold_id = submit_source(&daemon.addr, "demo", SOURCE);
    let cold_status = await_done(&daemon.addr, cold_id);
    assert!(cold_status.contains("\"replayed\":0"), "{cold_status}");

    let warm_id = submit_source(&daemon.addr, "demo", SOURCE);
    let warm_status = await_done(&daemon.addr, warm_id);
    assert!(
        warm_status.contains("\"executed\":0"),
        "warm job must replay everything: {warm_status}"
    );

    let mut client = Client::connect(&daemon.addr).unwrap();
    let cold = client
        .send("GET", &format!("/v1/campaigns/{cold_id}/document"), None)
        .unwrap();
    let warm = client
        .send("GET", &format!("/v1/campaigns/{warm_id}/document"), None)
        .unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(
        cold.body, warm.body,
        "warm and cold served documents differ"
    );

    // Offline run of the same binary over a fresh state dir.
    assert_eq!(
        cold.body,
        offline_document(&dir, "demo", SOURCE),
        "served document differs from offline `nfi campaign run`"
    );

    // The misses went to the local workers, and the workers exchange
    // nothing through the state dir.
    assert!(metric(&daemon.addr, "assignments_completed") >= 1);
    assert!(!dir.join("served/tmp").exists());

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_recovers_accepted_jobs_and_finished_documents_on_restart() {
    let dir = scratch("restart");
    let state = dir.join("state");
    let submit = submit_source;
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
        assert_eq!(
            doc.body,
            offline_document(&dir, name, source),
            "recovered {name} differs from offline `nfi campaign run`"
        );
    }
    // New ids continue above everything the journal saw.
    let next = submit(&daemon.addr, "demo", SOURCE);
    assert!(next > *burst_ids.iter().max().unwrap());
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn a_sigkilled_local_worker_requeues_its_lease_before_the_heartbeat_timeout() {
    let dir = scratch("sigkill");
    let daemon = Daemon::start_with_args(
        &dir.join("served"),
        1,
        1,
        &["--heartbeat-timeout-ms", "60000"],
    );
    let [worker] = await_local_workers(&daemon.addr, 1)[..] else {
        unreachable!()
    };
    // Frozen while it waits in a long poll, the one local worker still
    // takes the job's lease, and holds it until it dies.
    signal(worker, "STOP");
    let started = Instant::now();
    let id = submit_source(&daemon.addr, "demo", SOURCE);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !request_once(&daemon.addr, "GET", &format!("/v1/campaigns/{id}"), None)
        .unwrap()
        .text()
        .contains("\"status\":\"running\"")
    {
        assert!(Instant::now() < deadline, "job {id} never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Margin for the lane to replay the (empty) store and queue the
    // assignment the frozen worker's pending poll then takes.
    std::thread::sleep(Duration::from_millis(500));
    signal(worker, "KILL");
    let status = await_done(&daemon.addr, id);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the exit, not the 60s heartbeat timeout, requeued the lease"
    );
    assert!(status.contains("\"failed_units\":0"), "{status}");
    assert!(metric(&daemon.addr, "assignments_requeued") >= 1);
    assert!(metric(&daemon.addr, "workers_lost") >= 1);
    assert!(metric(&daemon.addr, "assignments_completed") >= 1);
    let replacement = await_local_workers(&daemon.addr, 1);
    assert_ne!(replacement, [worker], "the killed worker was replaced");
    let doc = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(doc.body, offline_document(&dir, "demo", SOURCE));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn a_hung_local_worker_is_killed_at_the_assignment_timeout_and_replaced() {
    let dir = scratch("hung");
    let daemon = Daemon::start_with_args(
        &dir.join("served"),
        1,
        1,
        &[
            "--assignment-timeout-ms",
            "1000",
            "--heartbeat-timeout-ms",
            "60000",
        ],
    );
    let [worker] = await_local_workers(&daemon.addr, 1)[..] else {
        unreachable!()
    };
    // The frozen worker takes the lease and never answers; only the
    // assignment timeout can free it.
    signal(worker, "STOP");
    let started = Instant::now();
    let id = submit_source(&daemon.addr, "demo", SOURCE);
    let status = await_done(&daemon.addr, id);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the assignment timeout, not the 60s heartbeat timeout, freed the lease"
    );
    assert!(status.contains("\"failed_units\":0"), "{status}");
    assert!(metric(&daemon.addr, "workers_lost") >= 1);
    assert!(metric(&daemon.addr, "assignments_requeued") >= 1);
    assert!(metric(&daemon.addr, "assignments_completed") >= 1);
    assert!(
        !Path::new(&format!("/proc/{worker}")).exists(),
        "the hung worker was killed and reaped"
    );
    let doc = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{id}/document"),
        None,
    )
    .unwrap();
    assert_eq!(doc.body, offline_document(&dir, "demo", SOURCE));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn neither_a_stopped_nor_a_killed_daemon_leaves_a_local_worker_running() {
    use neural_fault_injection::serve::{ServeConfig, Server};
    let dir = scratch("orphans");
    let config = ServeConfig {
        lanes: 2,
        ..ServeConfig::new(dir.join("handle"), NFI)
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr.to_string();
    await_local_workers(&addr, 2);
    handle.stop();
    assert_eq!(
        local_workers(&addr),
        Vec::<u32>::new(),
        "stop reaps its workers"
    );

    let daemon = Daemon::start_with_lanes(&dir.join("served"), 2, 2);
    await_local_workers(&daemon.addr, 4);
    let addr = daemon.addr.clone();
    drop(daemon); // SIGKILL: the workers see their stdin pipe close
    let deadline = Instant::now() + Duration::from_secs(10);
    while !local_workers(&addr).is_empty() {
        assert!(
            Instant::now() < deadline,
            "orphaned workers: {:?}",
            local_workers(&addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pruned_document_rebuilds_on_the_workers_byte_identical_to_offline() {
    let dir = scratch("rebuild");
    let daemon = Daemon::start(&dir.join("served"), 1);
    let first = submit_source(&daemon.addr, "demo", SOURCE);
    await_done(&daemon.addr, first);
    // A second source under the same program name prunes the first
    // job's segment, so its document must be re-executed.
    let edited = format!("{SOURCE}def extra():\n    return 1\n");
    let second = submit_source(&daemon.addr, "demo", &edited);
    await_done(&daemon.addr, second);
    let dispatched = metric(&daemon.addr, "assignments_dispatched");
    let doc = request_once(
        &daemon.addr,
        "GET",
        &format!("/v1/campaigns/{first}/document"),
        None,
    )
    .unwrap();
    assert_eq!(doc.status, 200);
    assert_eq!(doc.body, offline_document(&dir, "demo", SOURCE));
    assert!(
        metric(&daemon.addr, "assignments_dispatched") > dispatched,
        "the rebuild went to the workers"
    );
    drop(daemon);
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
        // The bad `--addr` after each retired flag makes a regression
        // fail fast instead of starting a daemon or worker.
        (
            &[
                "serve",
                "--state-dir",
                "/tmp/x",
                "--worker-retries",
                "3",
                "--addr",
                "nowhere",
            ],
            "unknown flag `--worker-retries` for `nfi serve`",
        ),
        (
            &["worker", "--poll-ms", "50", "--addr", "nowhere"],
            "unknown flag `--poll-ms` for `nfi worker`",
        ),
        (
            &["campaign", "plan", "--program", "banking", "--seeed", "7"],
            "unknown flag `--seeed` for `nfi campaign plan`",
        ),
        (
            &["campaign", "exec", "--plan", "nowhere", "--no-cache"],
            "unknown flag `--no-cache` for `nfi campaign exec`",
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
            &[
                "campaign",
                "run",
                "--state-dir",
                "/tmp/x",
                "--workers",
                "2",
                "--program",
                "nowhere",
            ],
            "unknown flag `--workers` for `nfi campaign run`",
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

/// Writes two small programs, `alpha.py` and `beta.py`, into `dir`.
fn two_programs(dir: &Path) -> Vec<PathBuf> {
    [
        (
            "alpha",
            "def add(a, b):\n    return a + b\ndef test_add():\n    assert add(1, 2) == 3\n",
        ),
        (
            "beta",
            "def scale(x):\n    if x > 2:\n        return x * 3\n    return x\n\
             def test_scale():\n    assert scale(3) == 9\n",
        ),
    ]
    .into_iter()
    .map(|(name, source)| {
        let path = dir.join(format!("{name}.py"));
        std::fs::write(&path, source).unwrap();
        path
    })
    .collect()
}

/// Runs the binary, returning (success, stdout, stderr).
fn nfi(args: &[&str], paths: &[&Path]) -> (bool, String, String) {
    let output = Command::new(NFI).args(args).args(paths).output().unwrap();
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

#[test]
fn a_switch_never_swallows_the_next_positional_argument() {
    let dir = scratch("switches");
    let files = two_programs(&dir);
    let files: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
    let state = dir.join("state");
    for switch in ["--trace", "--no-anchor-reuse"] {
        let args = [
            "campaign",
            "run",
            "--state-dir",
            state.to_str().unwrap(),
            switch,
        ];
        let (ok, stdout, stderr) = nfi(&args, &files);
        assert!(ok, "{switch}: {stderr}");
        assert!(
            stdout.contains("campaign run: 2 program(s)"),
            "{switch} took a file as its value: {stdout}"
        );
    }
    let (ok, stdout, stderr) = nfi(&["experiments", "--quick", "e4"], &[]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("E4: representativeness"), "{stdout}");
    assert!(!stdout.contains("E1:"), "`--quick e4` ran every experiment");

    // `--dry-run` keeps its file a target; `--corpus` with a file is
    // refused rather than read as either live set.
    let gc = ["store", "gc", "--state-dir", state.to_str().unwrap()];
    let (ok, stdout, stderr) = nfi(&[&gc[..], &["--dry-run"]].concat(), &files[..1]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("1 live program(s)"), "{stdout}");
    let (ok, _, stderr) = nfi(&[&gc[..], &["--corpus"]].concat(), &files[..1]);
    assert!(!ok);
    assert!(stderr.contains("not both"), "{stderr}");
    assert_eq!(std::fs::read_dir(state.join("store")).unwrap().count(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_inspect_lists_segments_and_orphans_as_text_and_json() {
    const TEXT: &str = "\
segment <state>/store/7627619b954620a7-4e8dddab89001d33-aca85cc93906fc1c.jsonl (1840 bytes)
  program=beta module_fp=4e8dddab89001d33 machine_fp=aca85cc93906fc1c format=2 lines=7 anchors=1
    anchor 37819358461446d6: 7 line(s)
segment <state>/store/8ac625bb85ed202b-35d327b93052133d-aca85cc93906fc1c.jsonl (864 bytes)
  program=alpha module_fp=35d327b93052133d machine_fp=aca85cc93906fc1c format=2 lines=3 anchors=1
    anchor 11ee5ccdacd2ad8f: 3 line(s)
orphan <state>/store/stray.jsonl (14 bytes): unreadable store header
store inspect: 3 segment(s)
";
    const JSON: &str = concat!(
        r#"{"state_dir":"<state>","segments":["#,
        r#"{"path":"<state>/store/7627619b954620a7-4e8dddab89001d33-aca85cc93906fc1c.jsonl","#,
        r#""bytes":1840,"program":"beta","module_fp":"4e8dddab89001d33","#,
        r#""machine_fp":"aca85cc93906fc1c","format":"2","lines":7,"#,
        r#""anchors":[{"anchor":"37819358461446d6","lines":7}]},"#,
        r#"{"path":"<state>/store/8ac625bb85ed202b-35d327b93052133d-aca85cc93906fc1c.jsonl","#,
        r#""bytes":864,"program":"alpha","module_fp":"35d327b93052133d","#,
        r#""machine_fp":"aca85cc93906fc1c","format":"2","lines":3,"#,
        r#""anchors":[{"anchor":"11ee5ccdacd2ad8f","lines":3}]},"#,
        r#"{"path":"<state>/store/stray.jsonl","bytes":14,"orphan":true,"#,
        r#""note":"unreadable store header"}],"shown":3}"#,
        "\n"
    );
    let dir = scratch("inspect");
    let files = two_programs(&dir);
    let files: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
    let state = dir.join("state");
    let state_arg = state.to_str().unwrap();
    let (ok, _, stderr) = nfi(&["campaign", "run", "--state-dir", state_arg], &files);
    assert!(ok, "{stderr}");
    std::fs::write(state.join("store").join("stray.jsonl"), "not a segment\n").unwrap();
    let inspect = |extra: &[&str]| {
        let (ok, stdout, stderr) = nfi(
            &[&["store", "inspect", "--state-dir", state_arg], extra].concat(),
            &[],
        );
        assert!(ok, "{stderr}");
        stdout.replace(state_arg, "<state>")
    };
    assert_eq!(inspect(&[]), TEXT);
    assert_eq!(inspect(&["--json"]), JSON);
    let beta: String = TEXT.lines().take(3).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        inspect(&["--program", "beta"]),
        format!("{beta}store inspect: 1 segment(s) for program beta\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
