//! Routing and handlers of the campaign job API.
//!
//! ```text
//! POST /v1/campaigns               submit a job (source or CampaignSpec)
//! GET  /v1/campaigns/:id           job status + counters
//! GET  /v1/campaigns/:id/document  merged outcome JSONL (when done)
//! GET  /v1/metrics                 cache / store / queue / edge snapshot
//! GET  /healthz                    liveness probe
//! POST /v1/workers                 register a remote worker
//! POST /v1/workers/:id/heartbeat   keep a registration live
//! POST /v1/workers/:id/poll        pull the next assignment
//! POST /v1/workers/:id/result      stream an assignment's shard doc back
//! ```
//!
//! Handlers never block on campaign work: submit plans the campaign
//! (cheap — parse + operator enumeration), enqueues, and returns `202`;
//! execution happens on the scheduler thread, and the document endpoint
//! answers `409` until it lands.
//!
//! Every handler runs *as a tenant* (the edge pipeline in `lib.rs`
//! resolved the bearer token; `""` is the anonymous tenant of an open
//! daemon). Submitted program names are namespaced to
//! `tenant:program` before planning, which scopes store segments and
//! job visibility per tenant end to end; a job owned by another tenant
//! answers `404`, indistinguishable from a job that never existed.
//!
//! The `/v1/workers` surface is for `nfi worker` processes, not
//! tenants: on an authenticated daemon it requires a token under the
//! dedicated `worker` tenant (the daemon's own local workers carry a
//! per-daemon secret; provision `worker:<token>` lines in the token
//! file for remote ones), and any other tenant gets the same `404` an
//! unknown route would — campaign tenants cannot probe or join the
//! fleet.

use crate::fleet::{Completion, FleetError};
use crate::http::{Request, Response};
use crate::jobs::JobStatus;
use crate::queue::Priority;
use crate::ServerState;
use nfi_sfi::jsontext::{
    escape, get_hex_u64, get_opt_str, get_opt_u64, get_str, get_u64, parse_flat_object,
};
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{json::JsonBuf, prom, trace::SPAN_LINE_PREFIX, Span};

/// The reserved tenant name worker tokens must resolve to.
pub const WORKER_TENANT: &str = "worker";

/// Dispatches one request to its handler on behalf of `tenant`.
pub fn handle(state: &ServerState, req: &Request, tenant: &str) -> Response {
    let path = req.path.as_str();
    match path {
        "/healthz" => match req.method.as_str() {
            "GET" => Response::json(200, "{\"status\":\"ok\"}".to_string()),
            _ => Response::method_not_allowed("GET", &req.method, path),
        },
        "/v1/metrics" => match req.method.as_str() {
            "GET" => Response::json(200, state.metrics_json()),
            _ => Response::method_not_allowed("GET", &req.method, path),
        },
        "/metrics" => match req.method.as_str() {
            "GET" => Response::text(200, prom::CONTENT_TYPE, state.metrics_prometheus()),
            _ => Response::method_not_allowed("GET", &req.method, path),
        },
        "/v1/campaigns" => match req.method.as_str() {
            "POST" => submit(state, &req.body, tenant),
            _ => Response::method_not_allowed("POST", &req.method, path),
        },
        "/v1/workers" => match worker_access(state, req, tenant) {
            Some(refusal) => refusal,
            None => worker_register(state, &req.body),
        },
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/campaigns/") {
                return campaign_route(state, req, rest, tenant);
            }
            if let Some(rest) = path.strip_prefix("/v1/workers/") {
                return match worker_access(state, req, tenant) {
                    Some(refusal) => refusal,
                    None => worker_route(state, req, rest),
                };
            }
            Response::error(404, &format!("no route for {path}"))
        }
    }
}

/// Routes `/v1/campaigns/:id[/document]`.
fn campaign_route(state: &ServerState, req: &Request, rest: &str, tenant: &str) -> Response {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("campaign id `{id_text}` is not a number"));
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => status(state, id, tenant),
        ("GET", Some("document")) => document(state, id, tenant),
        ("GET", Some("trace")) => job_trace(state, id, tenant),
        (_, None) => Response::method_not_allowed("GET", &req.method, &req.path),
        (_, Some("document" | "trace")) => {
            Response::method_not_allowed("GET", &req.method, &req.path)
        }
        (_, Some(other)) => Response::error(
            404,
            &format!("no route for campaign sub-resource `{other}`"),
        ),
    }
}

/// `POST /v1/campaigns`: plan, journal, and enqueue. The `202` goes
/// out only after the journal holds the accepted record, so every
/// acknowledged job survives a daemon crash.
fn submit(state: &ServerState, body: &[u8], tenant: &str) -> Response {
    // The whole handler is the "accept" span of the job's trace (the
    // edge pushed the request trace before routing here): planning
    // opens its own "plan" span nested under this one, and the
    // accepted job adopts the same trace.
    let _span = Span::enter("accept");
    let (mut spec, priority, deadline_ms) = match parse_submission(body, state.config.seed) {
        Ok(parts) => parts,
        Err(msg) => return Response::error(400, &msg),
    };
    // Namespace the program per tenant *after* planning/validation —
    // the spec's module fingerprint covers only the source, so the
    // rename cannot invalidate it, and the scoped name then keys the
    // job table, the journal, and the store segment alike.
    spec.program = crate::auth::scoped_program(tenant, &spec.program);
    let program = spec.program.clone();
    let units = spec.units.len();
    match state.accept(spec, tenant, priority, deadline_ms) {
        Ok(id) => Response::json(
            202,
            format!(
                "{{\"id\":{id},\"program\":\"{}\",\"status\":\"queued\",\"units\":{units},\"priority\":\"{}\"}}",
                escape(&program),
                priority.key(),
            ),
        ),
        Err(response) => response,
    }
}

/// Decodes a submission body into a planned spec plus its scheduling
/// knobs. Two accepted shapes:
///
/// * a full `campaign_spec` JSONL document (what `nfi campaign plan`
///   emits) — used verbatim after validating that its source still
///   parses to the recorded fingerprint; a spec document has no place
///   for scheduling knobs, so it runs at normal priority under the
///   daemon's default deadline;
/// * a flat submit object `{"program": name}` (a corpus program) or
///   `{"program": name, "source": "..."}` with optional `"seed"`,
///   `"priority"` (`high`/`normal`/`low`), and `"deadline_ms"` fields —
///   planned here under `default_seed` (the daemon's `--seed`) when the
///   body names none, so serve and `nfi campaign run --seed` stay
///   byte-identical on the same state dir.
///
/// # Errors
///
/// Returns the parse diagnostic the 400 response carries.
fn parse_submission(
    body: &[u8],
    default_seed: u64,
) -> Result<(CampaignSpec, Priority, Option<u64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(
            "empty body: send {\"program\":...} or a campaign_spec JSONL document".to_string(),
        );
    }
    if trimmed
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"kind\":\"campaign_spec\""))
    {
        let spec =
            CampaignSpec::decode(trimmed).map_err(|e| format!("campaign_spec document: {e}"))?;
        let module = nfi_pylite::parse(&spec.source)
            .map_err(|e| format!("campaign_spec source does not parse: {e}"))?;
        if nfi_pylite::fingerprint(&module) != spec.module_fp {
            return Err(format!(
                "campaign_spec fingerprint mismatch for {}: the spec was planned from \
                 different source",
                spec.program
            ));
        }
        return Ok((spec, Priority::Normal, None));
    }
    let fields = parse_flat_object(trimmed).map_err(|e| {
        format!(
            "submit object: {e} (send {{\"program\":name[,\"source\":...,\"seed\":n,\
             \"priority\":\"high|normal|low\",\"deadline_ms\":n]}} \
             or a campaign_spec JSONL document)"
        )
    })?;
    let program = get_str(&fields, "program")?;
    let source = match get_opt_str(&fields, "source")? {
        Some(source) => source,
        None => nfi_corpus::by_name(&program)
            .ok_or_else(|| format!("unknown corpus program `{program}` and no \"source\" given"))?
            .source
            .to_string(),
    };
    let seed = get_opt_u64(&fields, "seed")?.unwrap_or(default_seed);
    let priority = match get_opt_str(&fields, "priority")? {
        None => Priority::Normal,
        Some(text) => Priority::parse(&text)
            .ok_or_else(|| format!("unknown priority `{text}` (use high, normal, or low)"))?,
    };
    let deadline_ms = get_opt_u64(&fields, "deadline_ms")?;
    let spec = nfi_core::plan_campaign(&program, &source, seed)?;
    Ok((spec, priority, deadline_ms))
}

/// `GET /v1/campaigns/:id`. Another tenant's job is a `404`, not a
/// `403` — job ids are global, and a distinguishable refusal would let
/// tenants probe each other's job volume.
fn status(state: &ServerState, id: u64, tenant: &str) -> Response {
    match state.jobs.get(id) {
        Some(job) if job.tenant == tenant => Response::json(200, job.render_status()),
        _ => Response::error(404, &format!("no campaign job {id}")),
    }
}

/// `GET /v1/campaigns/:id/document`: the job table buffers no
/// documents — a finished job's bytes rebuild from the on-disk store
/// segment on every fetch. The fast path is a pure replay (read the
/// segment, re-emit the stored lines verbatim, merge); a segment that
/// can no longer replay fully — pruned by a later run of the same
/// program, left partial by `failed_units`, corrupted on disk —
/// degrades to a **read-only** re-execution on the workers
/// ([`crate::ServerState::rebuild_document`]), never on this
/// connection thread. Either way the response is byte-identical to the
/// document the original run produced, which is also what makes
/// finished jobs restored from the journal indistinguishable from jobs
/// finished in this process.
fn document(state: &ServerState, id: u64, tenant: &str) -> Response {
    let Some(job) = state.jobs.get(id) else {
        return Response::error(404, &format!("no campaign job {id}"));
    };
    if job.tenant != tenant {
        return Response::error(404, &format!("no campaign job {id}"));
    }
    match &job.status {
        JobStatus::Done => match state.orch.replay_full(&job.spec) {
            Some(doc) => Response::jsonl(200, doc),
            None => match state.rebuild_document(id, &job.spec) {
                Ok(doc) => Response::jsonl(200, doc),
                Err(e) => Response::error(
                    500,
                    &format!("cannot rebuild the document of job {id}: {e}"),
                ),
            },
        },
        JobStatus::Failed(msg) => Response::error(409, &format!("job {id} failed: {msg}")),
        other => Response::error(
            409,
            &format!(
                "job {id} is {}; poll /v1/campaigns/{id} until done",
                other.key()
            ),
        ),
    }
}

/// `GET /v1/campaigns/:id/trace`: the job's span tree (accept → queue
/// wait → plan → replay/execute with nested worker spans → merge →
/// persist) plus the run counters, rendered through the shared JSON
/// builder. Tenant-scoped like every other job resource: another
/// tenant's job is a `404`.
fn job_trace(state: &ServerState, id: u64, tenant: &str) -> Response {
    let Some(job) = state.jobs.get(id) else {
        return Response::error(404, &format!("no campaign job {id}"));
    };
    if job.tenant != tenant {
        return Response::error(404, &format!("no campaign job {id}"));
    }
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.field_u64("id", job.id)
        .field_str("program", &job.program)
        .field_str("status", job.status.key())
        .field_u64("units", job.units as u64)
        .field_u64("replayed", job.replayed as u64)
        .field_u64("executed", job.executed as u64);
    job.trace.render_into(&mut j);
    j.end_obj();
    Response::json(200, j.finish())
}

/// Gates the `/v1/workers` surface: POST-only, and on an authenticated
/// daemon only the [`WORKER_TENANT`] may use it. The refusal is the
/// generic route `404` — campaign tenants cannot tell the fleet
/// surface exists.
fn worker_access(state: &ServerState, req: &Request, tenant: &str) -> Option<Response> {
    if state.config.auth.is_some() && tenant != WORKER_TENANT {
        return Some(Response::error(404, &format!("no route for {}", req.path)));
    }
    if req.method != "POST" {
        return Some(Response::method_not_allowed("POST", &req.method, &req.path));
    }
    None
}

/// Routes `/v1/workers/:id/{heartbeat,poll,result}`.
fn worker_route(state: &ServerState, req: &Request, rest: &str) -> Response {
    let Some((id_text, action)) = rest.split_once('/') else {
        return Response::error(404, &format!("no route for {}", req.path));
    };
    let Ok(worker) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("worker id `{id_text}` is not a number"));
    };
    match action {
        "heartbeat" => worker_heartbeat(state, worker, &req.body),
        "poll" => worker_poll(state, worker, &req.body),
        "result" => worker_result(state, worker, &req.body),
        other => Response::error(404, &format!("no route for worker sub-resource `{other}`")),
    }
}

/// Maps a fleet refusal to its response: unknown ids are `404` (the
/// worker should re-register — a restarted daemon has an empty
/// registry), staleness and capability mismatches are `409`.
fn fleet_refusal(error: &FleetError) -> Response {
    match error {
        FleetError::Unknown => Response::error(404, &error.to_string()),
        FleetError::Stale | FleetError::Mismatch(_) => Response::error(409, &error.to_string()),
    }
}

/// `POST /v1/workers`: body
/// `{"kind":"worker_register","name":...,"fingerprint":"<16 hex>"}`.
/// The fingerprint must match the scheduler's machine configuration —
/// the precondition for remote shard documents merging byte-identically
/// — or the registration is refused with `409`.
fn worker_register(state: &ServerState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not valid UTF-8");
    };
    let parsed = parse_flat_object(text.trim()).and_then(|fields| {
        let name = get_str(&fields, "name")?;
        let fingerprint = get_hex_u64(&fields, "fingerprint")?;
        Ok((name, fingerprint))
    });
    let (name, fingerprint) = match parsed {
        Ok(parts) => parts,
        Err(e) => return Response::error(400, &format!("worker_register body: {e}")),
    };
    match state.fleet.register(&name, fingerprint) {
        Ok(reg) => Response::json(
            200,
            format!(
                "{{\"worker\":{},\"generation\":{},\"heartbeat_ms\":{}}}",
                reg.worker, reg.generation, reg.heartbeat_ms
            ),
        ),
        Err(e) => fleet_refusal(&e),
    }
}

/// Decodes the `{"generation":n}` body every per-worker endpoint
/// carries.
fn parse_generation(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let fields = parse_flat_object(text.trim())?;
    get_u64(&fields, "generation")
}

/// `POST /v1/workers/:id/heartbeat`: body `{"generation":n}`.
fn worker_heartbeat(state: &ServerState, worker: u64, body: &[u8]) -> Response {
    let generation = match parse_generation(body) {
        Ok(g) => g,
        Err(e) => return Response::error(400, &format!("heartbeat body: {e}")),
    };
    match state.fleet.heartbeat(worker, generation) {
        Ok(()) => Response::json(200, "{\"status\":\"ok\"}".to_string()),
        Err(e) => fleet_refusal(&e),
    }
}

/// `POST /v1/workers/:id/poll`: body `{"generation":n}`. Long-polls
/// ([`crate::fleet::Fleet::poll`]): answers `{"assignment":null}` when
/// the pool stays empty for the wait, else the assignment id, its
/// encoded subset plan, and the job trace context the worker's spans
/// should re-anchor under.
fn worker_poll(state: &ServerState, worker: u64, body: &[u8]) -> Response {
    let generation = match parse_generation(body) {
        Ok(g) => g,
        Err(e) => return Response::error(400, &format!("poll body: {e}")),
    };
    match state.fleet.poll(worker, generation) {
        Ok(None) => Response::json(200, "{\"assignment\":null}".to_string()),
        Ok(Some(lease)) => Response::json(
            200,
            format!(
                "{{\"assignment\":{},\"job\":{},\"plan\":\"{}\",\"context\":{}}}",
                lease.assignment,
                lease.job,
                escape(&lease.plan),
                match &lease.context {
                    Some(ctx) => format!("\"{}\"", escape(ctx)),
                    None => "null".to_string(),
                },
            ),
        ),
        Err(e) => fleet_refusal(&e),
    }
}

/// `POST /v1/workers/:id/result`: a JSONL body — header line
/// `{"kind":"worker_result","assignment":n,"generation":n[,"error":...]}`,
/// then the worker's `NFI-SPAN ` trace lines, then the shard document.
/// Answers `{"status":"accepted"}` or, for a late duplicate after a
/// requeue, `{"status":"duplicate"}` (the first result's bytes win).
fn worker_result(state: &ServerState, worker: u64, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not valid UTF-8");
    };
    let mut lines = text.lines();
    let header = match lines.next().map(parse_flat_object) {
        Some(Ok(fields)) => fields,
        Some(Err(e)) => return Response::error(400, &format!("worker_result header: {e}")),
        None => return Response::error(400, "empty worker_result body"),
    };
    let parsed = (|| {
        let assignment = get_u64(&header, "assignment")?;
        let generation = get_u64(&header, "generation")?;
        let error = get_opt_str(&header, "error")?;
        Ok::<_, String>((assignment, generation, error))
    })();
    let (assignment, generation, error) = match parsed {
        Ok(parts) => parts,
        Err(e) => return Response::error(400, &format!("worker_result header: {e}")),
    };
    let outcome = match error {
        Some(message) => Err(message),
        None => {
            let mut spans = Vec::new();
            let mut doc = String::new();
            for line in lines {
                if line.starts_with(SPAN_LINE_PREFIX) {
                    spans.push(line.to_string());
                } else {
                    doc.push_str(line);
                    doc.push('\n');
                }
            }
            Ok((doc, spans))
        }
    };
    match state
        .fleet
        .complete(worker, generation, assignment, outcome)
    {
        Ok(Completion::Accepted) => Response::json(200, "{\"status\":\"accepted\"}".to_string()),
        Ok(Completion::Duplicate) => Response::json(200, "{\"status\":\"duplicate\"}".to_string()),
        Err(e) => fleet_refusal(&e),
    }
}
