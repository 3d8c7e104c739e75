//! `serve_mixed`: the release `nfi serve --lanes 2` daemon as a separate
//! process with its default process workers, driven by two closed-loop
//! keep-alive clients (no more than the two cores of the reference
//! machine). Each client submits, polls at a fixed interval until the
//! job is done, fetches the document, and submits again.
//!
//! Each client plays a seeded sequence of testers, each following the
//! loop the repository's README describes under "Incremental campaign
//! runs": a tester submits one of the ten light programs under a fresh
//! name (a cold job: every unit executes in a spawned
//! `nfi campaign exec` child), then runs [`EDIT_CYCLES`] edit/re-run
//! cycles on it: an edited source (anchor fallback plus a few executed
//! units, or a pure replay for a comment-only edit), then the same
//! source again (a store-warm re-run). The loop's shape comes from the
//! README; the cycle count is an assumption, not measured traffic, so
//! the detail reports latency and throughput per job kind for
//! re-weighting.
//!
//! Server-side time comes only from the daemon's own `/metrics`
//! counters and per-job `/trace` span trees; client-side call times are
//! reported as such.

use crate::edits::{edit_pool, light_programs, pick_edit, Rng, Variant};
use crate::gate::Gate;
use crate::report::{
    digest, jobj, jstr, median, num, ratio, secs, JobStats, Memory, Report, Waterfall, Window,
};
use crate::{Config, Layers};
use nfi_serve::client::Client;
use nfi_sfi::jsontext::{escape, get_str, get_u64, parse_flat_object};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop clients: one per core of the two-core reference box.
pub const CLIENTS: u64 = 2;

/// Scheduler lanes the daemon runs.
pub const LANES: &str = "2";

/// Edit/re-run cycles each simulated tester runs after its cold submit
/// (an assumption; see the module docs).
pub const EDIT_CYCLES: usize = 3;

/// Jobs one tester submits: the cold one plus an edit and a re-run per
/// cycle.
const JOBS_PER_TESTER: usize = 1 + 2 * EDIT_CYCLES;

/// Jobs each client runs per measured second at the reference rate.
/// Every job leaves state behind (a tester's store segment, journal
/// records), and the daemon slows as that state grows, so a run sizes
/// its work from `--seconds` rather than stopping at a deadline: every
/// run then ends on the same amount of accumulated state, after whole
/// testers, with the same count of each job kind.
pub const JOBS_PER_CLIENT_SECOND: f64 = 60.0;

/// Fixed status-poll interval — well below the ~8 ms a store-warm re-run
/// takes end to end, so polling quantizes latency by at most this much.
pub const POLL: Duration = Duration::from_micros(250);

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// `ip:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `nfi serve` on an ephemeral port over a fresh state dir
    /// and waits for its listening line.
    ///
    /// # Errors
    ///
    /// Reports spawn failures and a daemon that never comes up.
    pub fn start(nfi: &Path, state_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(state_dir);
        let out = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(nfi)
            .arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--addr", "127.0.0.1:0", "--lanes", LANES])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nfi.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("http://").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    daemon.addr = addr.to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("nfi serve exited at start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.stop();
        Err("nfi serve did not report its address".to_string())
    }

    /// The daemon process's memory.
    pub fn memory(&self) -> Memory {
        Memory::of(Some(self.child.id()))
    }

    /// Stops the daemon (SIGTERM, then SIGKILL after a grace period)
    /// and waits for it to exit.
    pub fn stop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = Command::new("kill")
                .args(["-TERM", &self.child.id().to_string()])
                .stderr(Stdio::null())
                .status();
            let t = Instant::now();
            while t.elapsed() < Duration::from_secs(5) {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The kinds of served job, in a tester's loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A program's first submission under a fresh name.
    Cold,
    /// An edited source under the tester's name.
    Edit,
    /// The same source again: a store-warm re-run.
    Rerun,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Cold, Kind::Edit, Kind::Rerun];

    fn key(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Edit => "edit",
            Kind::Rerun => "rerun",
        }
    }
}

/// One served job: a light program's pristine source or one of its edit
/// variants, submitted with `source` under a tester's program name.
#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    name: String,
    program: usize,
    /// Edit variant; `None` for the pristine source.
    variant: Option<usize>,
}

/// The fixed inputs every client draws from.
struct Inputs {
    names: Vec<&'static str>,
    pristine: Vec<&'static str>,
    pool: Vec<Vec<Variant>>,
}

impl Inputs {
    fn new() -> Inputs {
        let light = light_programs();
        Inputs {
            names: light.iter().map(|p| p.name).collect(),
            pristine: light.iter().map(|p| p.source).collect(),
            pool: edit_pool(),
        }
    }

    /// The source the job submits.
    fn source(&self, job: &Job) -> &str {
        match job.variant {
            Some(v) => &self.pool[job.program][v].source,
            None => self.pristine[job.program],
        }
    }

    fn body(&self, job: &Job) -> String {
        format!(
            "{{\"program\":\"{}\",\"source\":\"{}\"}}",
            escape(&job.name),
            escape(self.source(job))
        )
    }

    /// The seeded jobs of `testers` testers of one client: each a cold
    /// submit, then [`EDIT_CYCLES`] edit/re-run pairs.
    fn tester_jobs(&self, seed: u64, client: u64, testers: usize, traced: bool) -> Vec<Job> {
        let mut rng = Rng::new(seed, 0x5e7e + client);
        let mut jobs = Vec::with_capacity(testers * JOBS_PER_TESTER);
        for t in 0..testers {
            let program = rng.below(self.names.len());
            let name = format!(
                "{}-t{seed}-{client}-{t}-{}",
                self.names[program],
                u8::from(traced)
            );
            let job = |kind, variant| Job {
                kind,
                name: name.clone(),
                program,
                variant,
            };
            jobs.push(job(Kind::Cold, None));
            for _ in 0..EDIT_CYCLES {
                let v = pick_edit(&mut rng, &self.pool[program]);
                jobs.push(job(Kind::Edit, Some(v)));
                jobs.push(job(Kind::Rerun, Some(v)));
            }
        }
        jobs
    }
}

/// Client-side call times of one client, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Calls {
    submit: f64,
    status: f64,
    sleep: f64,
    document: f64,
    trace: f64,
    polls: f64,
    dispatch_overhead: f64,
}

impl Calls {
    fn add(&mut self, o: &Calls) {
        self.submit += o.submit;
        self.status += o.status;
        self.sleep += o.sleep;
        self.document += o.document;
        self.trace += o.trace;
        self.polls += o.polls;
        self.dispatch_overhead += o.dispatch_overhead;
    }
}

/// One finished job.
struct Done {
    job: Job,
    digest: u64,
    latency: f64,
    units: u64,
    /// Seconds from the phase start to the document in hand.
    finished_at: f64,
}

/// What one client did in a phase.
#[derive(Default)]
struct ClientRun {
    done: Vec<Done>,
    calls: Calls,
    attempted: u64,
    failed: u64,
    wall: f64,
}

fn call(
    client: &mut Client,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), String> {
    let reply = client.send(method, path, body)?;
    Ok((reply.status, reply.body))
}

/// Sum of `dur_us` over spans named `name` in a `/trace` body.
fn span_us(trace: &str, name: &str) -> f64 {
    let needle = format!("\"name\":\"{name}\"");
    trace
        .match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = &trace[at..];
            let d = rest.find("\"dur_us\":")? + "\"dur_us\":".len();
            let digits: String = rest[d..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<f64>().ok()
        })
        .sum()
}

/// Polls `status_path` every [`POLL`] until the job is done.
fn wait_done(client: &mut Client, status_path: &str, calls: &mut Calls) -> Result<(), String> {
    loop {
        let t = Instant::now();
        let (code, reply) = call(client, "GET", status_path, None)?;
        calls.status += secs(t);
        calls.polls += 1.0;
        let text = String::from_utf8_lossy(&reply).to_string();
        if code != 200 {
            return Err(format!("status answered {code}: {text}"));
        }
        match get_str(&parse_flat_object(&text)?, "status")?.as_str() {
            "done" => return Ok(()),
            "failed" => return Err(format!("job failed: {text}")),
            _ => {
                let t = Instant::now();
                std::thread::sleep(POLL);
                calls.sleep += secs(t);
            }
        }
    }
}

/// Runs one job to its document; `Err` on any refusal or failure.
fn one_job(
    client: &mut Client,
    inputs: &Inputs,
    job: &Job,
    traced: bool,
    calls: &mut Calls,
) -> Result<(u64, u64), String> {
    let body = inputs.body(job);
    let t = Instant::now();
    let (status, reply) = call(client, "POST", "/v1/campaigns", Some(body.as_bytes()))?;
    calls.submit += secs(t);
    let text = String::from_utf8_lossy(&reply).to_string();
    if status != 202 {
        return Err(format!("submit answered {status}: {text}"));
    }
    let fields = parse_flat_object(&text)?;
    let id = get_u64(&fields, "id")?;
    let units = get_u64(&fields, "units")?;
    let status_path = format!("/v1/campaigns/{id}");
    wait_done(client, &status_path, calls)?;
    let t = Instant::now();
    let (code, doc) = call(client, "GET", &format!("{status_path}/document"), None)?;
    calls.document += secs(t);
    if code != 200 {
        return Err(format!("document answered {code}"));
    }
    let d = digest(&String::from_utf8_lossy(&doc));
    if traced {
        let t = Instant::now();
        let (code, trace) = call(client, "GET", &format!("{status_path}/trace"), None)?;
        calls.trace += secs(t);
        if code == 200 {
            let trace = String::from_utf8_lossy(&trace);
            calls.dispatch_overhead +=
                (span_us(&trace, "worker_child") - span_us(&trace, "exec")) / 1e6;
        }
    }
    Ok((d, units))
}

/// One closed-loop client running `jobs` in order.
fn client_loop(
    addr: &str,
    inputs: &Inputs,
    client: u64,
    jobs: Vec<Job>,
    traced: bool,
    start: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = Client::connect(addr).ok();
    start.wait();
    let t0 = Instant::now();
    for job in jobs {
        run.attempted += 1;
        let t = Instant::now();
        let mut calls = Calls::default();
        let result = match conn.as_mut() {
            Some(c) => one_job(c, inputs, &job, traced, &mut calls),
            None => Err("not connected".to_string()),
        };
        let latency = secs(t);
        run.calls.add(&calls);
        match result {
            Ok((digest, units)) => run.done.push(Done {
                job,
                digest,
                latency,
                units,
                finished_at: secs(t0),
            }),
            Err(e) => {
                eprintln!("serve_mixed client {client}: {e}");
                run.failed += 1;
                conn = Client::connect(addr).ok();
            }
        }
    }
    run.wall = secs(t0);
    run
}

/// Runs the clients concurrently, each for the whole testers `seconds`
/// are worth at the reference rate.
fn drive(
    addr: &str,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Vec<ClientRun>, f64) {
    let testers = (seconds * JOBS_PER_CLIENT_SECOND / JOBS_PER_TESTER as f64).ceil() as usize;
    let barrier = Barrier::new(CLIENTS as usize + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                let jobs = inputs.tester_jobs(seed, c, testers, traced);
                s.spawn(move || client_loop(addr, inputs, c, jobs, traced, barrier))
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (runs, secs(t))
    })
}

/// Submits every light program once under its corpus name and waits for
/// each, so the measured jobs meet a daemon that has spawned workers
/// and written segments before.
fn warm(addr: &str, inputs: &Inputs) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    for p in 0..inputs.names.len() {
        let body = format!("{{\"program\":\"{}\"}}", escape(inputs.names[p]));
        let (status, reply) = call(&mut client, "POST", "/v1/campaigns", Some(body.as_bytes()))?;
        if status != 202 {
            return Err(format!("warm-up submit answered {status}"));
        }
        let id = get_u64(&parse_flat_object(&String::from_utf8_lossy(&reply))?, "id")?;
        wait_done(
            &mut client,
            &format!("/v1/campaigns/{id}"),
            &mut Calls::default(),
        )?;
    }
    Ok(())
}

/// Latency and throughput of each job kind over a phase of `wall`
/// seconds, so the figures can be re-weighted for another traffic mix.
fn kinds_detail(runs: &[ClientRun], wall: f64) -> String {
    let members: Vec<(&str, String)> = Kind::ALL
        .iter()
        .map(|kind| {
            let lat: Vec<f64> = runs
                .iter()
                .flat_map(|r| &r.done)
                .filter(|d| d.job.kind == *kind)
                .map(|d| d.latency)
                .collect();
            let member = jobj(&[
                ("jobs", lat.len().to_string()),
                ("jobs_per_s", num(ratio(lat.len() as f64, wall))),
                ("p50_ms", num(median(&lat) * 1e3)),
                (
                    "mean_ms",
                    num(ratio(lat.iter().sum(), lat.len() as f64) * 1e3),
                ),
            ]);
            (kind.key(), member)
        })
        .collect();
    jobj(&members)
}

/// Prometheus samples (`name{labels}` to value) from `/metrics`.
fn scrape(addr: &str) -> Result<HashMap<String, f64>, String> {
    let mut client = Client::connect(addr)?;
    let (_, body) = call(&mut client, "GET", "/metrics", None)?;
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// `serve_mixed`.
///
/// # Errors
///
/// Reports a daemon that cannot start or warm up.
pub fn serve_mixed(cfg: &Config) -> Result<Report, String> {
    let nfi = cfg
        .nfi
        .as_deref()
        .ok_or("serve_mixed needs --nfi <path to the nfi binary>")?;
    let inputs = Inputs::new();
    let state = cfg.work_dir.join("serve-state");
    let log = cfg.work_dir.join("serve.log");
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..cfg.setups {
        // Dropping the previous set-up's daemon stops it.
        drop(daemon.take());
        let t = Instant::now();
        let d = Daemon::start(nfi, &state, &log)?;
        warm(&d.addr, &inputs)?;
        setups.push(secs(t));
        daemon = Some(d);
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let setup_s = median(&setups);
    let budget = cfg.phase_seconds();
    let (untraced, wall) = drive(&daemon.addr, &inputs, cfg.seed, budget, false);
    let mem = daemon.memory();
    let mut report = Report::default();
    let mut runs = untraced;
    let stats = job_stats(&runs, wall);
    report.detail("jobs_by_kind", kinds_detail(&runs, wall));
    if cfg.trace {
        // The traced phase replays the same job stream on a fresh,
        // warmed daemon, so it starts from the state the untraced one did.
        drop(daemon);
        daemon = Daemon::start(nfi, &state, &log)?;
        warm(&daemon.addr, &inputs)?;
        let before = scrape(&daemon.addr)?;
        let (traced, traced_wall) = drive(&daemon.addr, &inputs, cfg.seed, budget, true);
        let after = scrape(&daemon.addr)?;
        let traced_stats = job_stats(&traced, traced_wall);
        let mut calls = Calls::default();
        for r in &traced {
            calls.add(&r.calls);
        }
        let jobs = traced.iter().map(|r| r.done.len()).sum::<usize>() as f64;
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let finished = delta("nfi_jobs_completed_total").max(1.0);
        let mut layers = Layers::new();
        layers.insert("serve.submit_ms", ratio(calls.submit, jobs) * 1e3);
        layers.insert("serve.status_ms", ratio(calls.status, calls.polls) * 1e3);
        layers.insert("serve.document_ms", ratio(calls.document, jobs) * 1e3);
        layers.insert("serve.poll_sleep_ms", ratio(calls.sleep, jobs) * 1e3);
        layers.insert("serve.polls_per_job", ratio(calls.polls, jobs));
        layers.insert(
            "serve.queue_wait_s",
            delta("nfi_queue_wait_seconds_sum") / finished,
        );
        for (phase, name) in [
            ("plan", "serve.phase.plan_s"),
            ("store_replay", "serve.phase.store_replay_s"),
            ("anchor_fallback", "serve.phase.anchor_fallback_s"),
            ("execute", "serve.phase.execute_s"),
            ("merge", "serve.phase.merge_s"),
            ("persist", "serve.phase.persist_s"),
        ] {
            let key = format!("nfi_phase_duration_seconds_sum{{phase=\"{phase}\"}}");
            layers.insert(name, delta(&key) / finished);
        }
        layers.insert(
            "serve.dispatch_overhead_s",
            ratio(calls.dispatch_overhead, jobs),
        );
        layers.insert(
            "serve.retries",
            delta("nfi_worker_events_total{kind=\"retry\"}"),
        );
        let shed: f64 = ["rate_limited", "queue_shed", "connections_shed"]
            .iter()
            .map(|r| delta(&format!("nfi_edge_rejections_total{{reason=\"{r}\"}}")))
            .sum();
        layers.insert("serve.shed", shed);
        layers.insert(
            "trace.overhead_share",
            ratio(
                median(&traced_stats.latencies()),
                median(&stats.latencies()),
            ) - 1.0,
        );
        // The waterfall of one client's job cycle, averaged over jobs:
        // each client's calls and sleeps plus a residual fill its wall.
        let per_job = |v: f64| ratio(v, jobs);
        let waterfall = Waterfall {
            parts: vec![
                ("serve.submit".to_string(), per_job(calls.submit)),
                ("serve.status".to_string(), per_job(calls.status)),
                ("serve.poll_sleep".to_string(), per_job(calls.sleep)),
                ("serve.document".to_string(), per_job(calls.document)),
                ("serve.trace_fetch".to_string(), per_job(calls.trace)),
            ],
            wall: per_job(traced.iter().map(|r| r.wall).sum()),
        };
        report.detail(
            "server_side_per_job_s",
            jobj(&[
                ("finished_jobs", num(finished)),
                ("http_submit", num(delta("nfi_http_request_duration_seconds_sum{route=\"/v1/campaigns\",status=\"2xx\"}") / finished)),
                ("http_document", num(delta("nfi_http_request_duration_seconds_sum{route=\"/v1/campaigns/:id/document\",status=\"2xx\"}") / finished)),
            ]),
        );
        report.detail("traced_jobs", traced_stats.detail_json());
        crate::push_layers(&mut report, &layers, &waterfall, setup_s, mem);
        runs.extend(traced);
    } else {
        stats.push_end_to_end(&mut report, setup_s, mem);
    }
    daemon.stop();

    let mut gate = Gate::new();
    let mut failed = 0;
    let mut attempted = 0;
    for r in &runs {
        attempted += r.attempted;
        failed += r.failed;
        for d in &r.done {
            if !gate.check(&d.job.name, inputs.source(&d.job), d.digest)? {
                failed += 1;
            }
        }
    }
    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0;
    report.detail("poll_interval_us", POLL.as_micros().to_string());
    report.detail("clients", CLIENTS.to_string());
    report.detail("lanes", LANES.to_string());
    report.detail("edit_cycles_per_tester", EDIT_CYCLES.to_string());
    report.detail("jobs", stats.detail_json());
    let out = runs
        .iter()
        .flat_map(|r| &r.done)
        .fold(crate::report::FNV_START, |h, d| {
            crate::report::fnv(h, &d.digest.to_le_bytes())
        });
    report.detail("output_digest", jstr(&format!("{out:016x}")));
    Ok(report)
}

/// Seconds per stats window: long enough that a window's p99 has a few
/// samples beyond it.
const WINDOW_S: f64 = 2.0;

/// Job stats over [`WINDOW_S`] slices of the phase, each job counted in
/// the slice its document arrived in (the whole phase when shorter).
fn job_stats(runs: &[ClientRun], wall: f64) -> JobStats {
    let slices = ((wall / WINDOW_S).floor() as usize).max(1);
    let slice_s = wall.min(WINDOW_S);
    let mut windows = vec![
        Window {
            wall: slice_s,
            ..Window::default()
        };
        slices
    ];
    for d in runs.iter().flat_map(|r| &r.done) {
        let k = (d.finished_at / slice_s) as usize;
        if let Some(w) = windows.get_mut(k) {
            w.latencies.push(d.latency);
            w.units += d.units;
        }
    }
    JobStats::from_windows(windows)
}
