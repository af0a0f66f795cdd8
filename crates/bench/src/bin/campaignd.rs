//! `campaignd`: a minimal campaign daemon over the scenario executor.
//!
//! Serves hand-rolled HTTP/1.1 on `std::net::TcpListener` — no web
//! framework, matching the workspace's zero-dependency stance. Three
//! endpoints:
//!
//! | Method + path            | Meaning                                  |
//! |--------------------------|------------------------------------------|
//! | `POST /campaigns`        | Body = TOML campaign spec; queues it and  |
//! |                          | returns `{"id", "status": "queued", …}`.  |
//! | `GET /campaigns/<id>`    | Job status with per-cell progress counts. |
//! | `GET /campaigns/<id>/report` | The schema-versioned JSON report once |
//! |                          | done (409 while queued/running).          |
//!
//! ```sh
//! cargo run --release -p beep-bench --bin campaignd -- --addr 127.0.0.1:7077
//! curl -sS --data-binary @scenarios/smoke.toml http://127.0.0.1:7077/campaigns
//! curl -sS http://127.0.0.1:7077/campaigns/c1
//! curl -sS http://127.0.0.1:7077/campaigns/c1/report > report.json
//! ```
//!
//! One worker thread drains the queue (campaigns already parallelize
//! internally across cells, so queued campaigns run one at a time), and
//! a process-wide [`InstanceCache`] carries built topology instances
//! across campaigns: two specs touching the same
//! `family × size × sweep-seed` group share one graph build, exactly as
//! cells within a campaign do. Responses close the connection
//! (`Connection: close`) — every exchange is one request, one response.

use beep_scenarios::json::Json;
use beep_scenarios::{
    run_campaign_with_sink, CampaignSpec, CellResult, FnSink, InstanceCache, MemorySink,
    RunOptions, TeeSink,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Largest request body the daemon accepts (1 MiB — the checked-in specs
/// are a few KiB). A larger `Content-Length` is answered with 413 before
/// any buffer is allocated, so one request cannot exhaust the process.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest request line plus headers the daemon reads (16 KiB). Longer
/// ones are answered with 431 after reading at most this much, so an
/// endless header line cannot grow a buffer without bound.
const MAX_HEADER_BYTES: u64 = 16 << 10;

/// Read and write timeout of every accepted connection: a client that
/// stalls mid-request (or never reads its response) frees its thread
/// after this long.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// Most bytes of a refused request drained before the connection closes.
/// Closing a socket with unread input makes the kernel send a reset,
/// which can destroy the error response before the client reads it.
const MAX_DRAIN_BYTES: u64 = 4 << 20;

/// Where a submitted campaign is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobStatus {
    fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One submitted campaign.
struct Job {
    name: String,
    status: JobStatus,
    total: usize,
    /// Completed-cell counter, bumped by the executor's progress sink —
    /// readable without the jobs lock while the campaign runs.
    completed: Arc<AtomicUsize>,
    /// The pretty-printed schema-v3 report, once done.
    report: Option<String>,
    error: Option<String>,
}

/// Daemon state shared by the HTTP handlers and the worker thread.
struct Daemon {
    jobs: Mutex<HashMap<String, Job>>,
    queue: Mutex<VecDeque<(String, CampaignSpec)>>,
    ready: Condvar,
    /// Topology instances shared across every campaign this daemon runs.
    cache: InstanceCache,
    next_id: AtomicUsize,
    options: RunOptions,
}

impl Daemon {
    fn new(options: RunOptions) -> Daemon {
        Daemon {
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cache: InstanceCache::new(),
            next_id: AtomicUsize::new(1),
            options,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7077".to_string();
    let mut threads = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = take("--addr"),
            "--threads" => {
                threads = take("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads: cannot parse"));
            }
            other => die(&format!("unknown flag {other:?} (see the module docs)")),
        }
    }
    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    let daemon = Arc::new(Daemon::new(RunOptions {
        threads,
        max_cells: None,
    }));
    {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || worker(&daemon));
    }
    println!(
        "campaignd listening on {}",
        listener.local_addr().map_or(addr, |a| a.to_string())
    );
    serve(&listener, &daemon);
}

fn die(msg: &str) -> ! {
    eprintln!("campaignd: {msg}");
    std::process::exit(2);
}

/// The accept loop: one thread per connection (each exchange is a
/// single request/response, so connections are short-lived).
fn serve(listener: &TcpListener, daemon: &Arc<Daemon>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &daemon);
        });
    }
}

/// The queue drain: campaigns run one at a time (each already
/// parallelizes across cells), sharing the daemon's instance cache.
fn worker(daemon: &Arc<Daemon>) {
    loop {
        let (id, spec) = {
            let mut queue = daemon.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = daemon.ready.wait(queue).expect("queue lock");
            }
        };
        let (total, completed) = {
            let mut jobs = daemon.jobs.lock().expect("jobs lock");
            let job = jobs.get_mut(&id).expect("queued job exists");
            job.status = JobStatus::Running;
            (job.total, Arc::clone(&job.completed))
        };
        let start = Instant::now();
        let mut memory = MemorySink::new(spec.name.clone(), total);
        let counter = Arc::clone(&completed);
        let outcome = {
            let mut tee = TeeSink(
                &mut memory,
                FnSink(move |_, _: &CellResult| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
            );
            run_campaign_with_sink(&spec, &daemon.options, &daemon.cache, &mut tee)
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut jobs = daemon.jobs.lock().expect("jobs lock");
        let job = jobs.get_mut(&id).expect("running job exists");
        match outcome {
            Ok(_) => match memory.try_into_report(wall_ms) {
                Some(report) => {
                    job.status = JobStatus::Done;
                    job.report = Some(report.to_json(true).to_pretty());
                }
                None => {
                    job.status = JobStatus::Failed;
                    job.error = Some("executor finished with missing cells".into());
                }
            },
            Err(e) => {
                job.status = JobStatus::Failed;
                job.error = Some(e.to_string());
            }
        }
    }
}

/// A parsed HTTP request: just enough of HTTP/1.1 for the three routes.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

struct Response {
    status: u16,
    reason: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: &Json) -> Response {
        Response {
            status,
            reason,
            body: body.to_pretty(),
        }
    }

    fn error(status: u16, reason: &'static str, detail: &str) -> Response {
        Response::json(
            status,
            reason,
            &Json::Obj(vec![("error".into(), Json::Str(detail.into()))]),
        )
    }
}

fn handle_connection(mut stream: TcpStream, daemon: &Arc<Daemon>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(STREAM_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_TIMEOUT))?;
    let (response, refused) = match read_request(&mut stream) {
        Ok(request) => (route(daemon, &request), false),
        Err(response) => (response, true),
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.reason,
        response.body.len(),
        response.body
    )?;
    stream.flush()?;
    if refused {
        // A refused request may still be arriving: signal the end of the
        // response, then discard a bounded amount of input so the close
        // does not reset the connection under the client.
        stream.shutdown(Shutdown::Write)?;
        std::io::copy(&mut (&stream).take(MAX_DRAIN_BYTES), &mut std::io::sink())?;
    }
    Ok(())
}

/// Reads request line + headers + `Content-Length` body. Anything
/// malformed is a 400 with the detail; request line and headers over
/// [`MAX_HEADER_BYTES`] are a 431; a body over [`MAX_BODY_BYTES`] is a
/// 413, decided from the header alone.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let bad = |detail: String| Response::error(400, "Bad Request", &detail);
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEADER_BYTES);
    let mut read_line = |what: &str| {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|e| bad(format!("{what}: {e}")))?;
        // A line the cap cut off ends without its newline at the limit.
        if !line.ends_with('\n') && head.limit() == 0 {
            return Err(Response::error(
                431,
                "Request Header Fields Too Large",
                &format!("request line and headers exceed the {MAX_HEADER_BYTES}-byte limit"),
            ));
        }
        Ok(line)
    };
    let line = read_line("request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| bad("request line missing a path".into()))?
        .to_string();
    let mut content_length = 0usize;
    loop {
        let header = read_line("headers")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(
            413,
            "Payload Too Large",
            &format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| bad(format!("body: {e}")))?;
    Ok(Request { method, path, body })
}

fn route(daemon: &Arc<Daemon>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaigns") => post_campaign(daemon, &request.body),
        ("GET", path) => match path.strip_prefix("/campaigns/") {
            Some(rest) => match rest.strip_suffix("/report") {
                Some(id) if !id.is_empty() && !id.contains('/') => get_report(daemon, id),
                None if !rest.is_empty() && !rest.contains('/') => get_status(daemon, rest),
                _ => Response::error(404, "Not Found", "no such route"),
            },
            None => Response::error(404, "Not Found", "no such route"),
        },
        (method, _) => Response::error(
            405,
            "Method Not Allowed",
            &format!("unsupported method {method:?}"),
        ),
    }
}

/// `POST /campaigns`: parse the TOML spec, validate it expands, queue
/// it. 202 with the assigned id.
fn post_campaign(daemon: &Arc<Daemon>, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "Bad Request", "spec is not UTF-8"),
    };
    let spec = match CampaignSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, "Bad Request", &e.to_string()),
    };
    let total = match spec.expand() {
        Ok(cells) => cells.len(),
        Err(e) => return Response::error(400, "Bad Request", &e.to_string()),
    };
    let id = format!("c{}", daemon.next_id.fetch_add(1, Ordering::Relaxed));
    daemon.jobs.lock().expect("jobs lock").insert(
        id.clone(),
        Job {
            name: spec.name.clone(),
            status: JobStatus::Queued,
            total,
            completed: Arc::new(AtomicUsize::new(0)),
            report: None,
            error: None,
        },
    );
    daemon
        .queue
        .lock()
        .expect("queue lock")
        .push_back((id.clone(), spec));
    daemon.ready.notify_one();
    let body = Json::Obj(vec![
        ("id".into(), Json::Str(id)),
        ("status".into(), Json::Str("queued".into())),
        ("cells".into(), Json::Int(int(total))),
    ]);
    Response::json(202, "Accepted", &body)
}

/// `GET /campaigns/<id>`: queued/running/done/failed with progress.
fn get_status(daemon: &Arc<Daemon>, id: &str) -> Response {
    let jobs = daemon.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get(id) else {
        return Response::error(404, "Not Found", &format!("no campaign {id:?}"));
    };
    let mut fields = vec![
        ("id".into(), Json::Str(id.into())),
        ("name".into(), Json::Str(job.name.clone())),
        ("status".into(), Json::Str(job.status.label().into())),
        (
            "completed".into(),
            Json::Int(int(job.completed.load(Ordering::Relaxed))),
        ),
        ("total".into(), Json::Int(int(job.total))),
    ];
    if let Some(error) = &job.error {
        fields.push(("error".into(), Json::Str(error.clone())));
    }
    Response::json(200, "OK", &Json::Obj(fields))
}

/// `GET /campaigns/<id>/report`: the schema-v3 report once done.
fn get_report(daemon: &Arc<Daemon>, id: &str) -> Response {
    let jobs = daemon.jobs.lock().expect("jobs lock");
    let Some(job) = jobs.get(id) else {
        return Response::error(404, "Not Found", &format!("no campaign {id:?}"));
    };
    match (job.status, &job.report) {
        (JobStatus::Done, Some(report)) => Response {
            status: 200,
            reason: "OK",
            body: report.clone(),
        },
        (JobStatus::Failed, _) => Response::error(
            500,
            "Internal Server Error",
            job.error.as_deref().unwrap_or("campaign failed"),
        ),
        _ => Response::error(
            409,
            "Conflict",
            &format!(
                "campaign {id:?} is {} ({}/{} cells)",
                job.status.label(),
                job.completed.load(Ordering::Relaxed),
                job.total
            ),
        ),
    }
}

#[allow(clippy::cast_possible_wrap)]
fn int(v: usize) -> i64 {
    v as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_scenarios::{validate_report, SCHEMA_VERSION};
    use std::time::Duration;

    /// Boots a daemon on an ephemeral port; returns its address and
    /// state (threads are detached — they die with the test process).
    fn start() -> (std::net::SocketAddr, Arc<Daemon>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let daemon = Arc::new(Daemon::new(RunOptions {
            threads: 2,
            max_cells: None,
        }));
        {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || worker(&daemon));
        }
        {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || serve(&listener, &daemon));
        }
        (addr, daemon)
    }

    /// One raw HTTP exchange; returns (status, body).
    fn exchange(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        exchange(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    const SPEC: &str = r#"
        name = "daemon-smoke"
        epsilons = [0.0]
        protocols = ["wave", "round_sim"]
        seeds = [1]
        [[topology]]
        family = "cycle"
        sizes = [8]
    "#;

    fn submit(addr: std::net::SocketAddr) -> String {
        let (status, body) = post(addr, "/campaigns", SPEC);
        assert_eq!(status, 202, "{body}");
        let json = Json::parse(&body).expect("valid JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("queued"));
        assert_eq!(json.get("cells").and_then(Json::as_i64), Some(2));
        json.get("id").and_then(Json::as_str).expect("id").into()
    }

    fn poll_done(addr: std::net::SocketAddr, id: &str) {
        for _ in 0..200 {
            let (status, body) = get(addr, &format!("/campaigns/{id}"));
            assert_eq!(status, 200, "{body}");
            let json = Json::parse(&body).expect("valid JSON");
            match json.get("status").and_then(Json::as_str) {
                Some("done") => {
                    assert_eq!(json.get("completed").and_then(Json::as_i64), Some(2));
                    assert_eq!(json.get("total").and_then(Json::as_i64), Some(2));
                    return;
                }
                Some("failed") => panic!("campaign failed: {body}"),
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        panic!("campaign {id} never finished");
    }

    #[test]
    fn post_poll_report_round_trip() {
        let (addr, _daemon) = start();
        let id = submit(addr);
        poll_done(addr, &id);
        let (status, body) = get(addr, &format!("/campaigns/{id}/report"));
        assert_eq!(status, 200, "{body}");
        let report = Json::parse(&body).expect("valid report JSON");
        validate_report(&report).expect("schema-valid report");
        assert_eq!(
            report.get("version").and_then(Json::as_i64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            report.get("campaign").and_then(Json::as_str),
            Some("daemon-smoke")
        );
    }

    #[test]
    fn instance_cache_is_shared_across_campaigns() {
        let (addr, daemon) = start();
        let first = submit(addr);
        poll_done(addr, &first);
        let groups = daemon.cache.len();
        assert_eq!(groups, 1, "one cycle/n8 instance group");
        // A second identical campaign reuses the cached instance.
        let second = submit(addr);
        poll_done(addr, &second);
        assert_eq!(daemon.cache.len(), groups);
        let (_, a) = get(addr, &format!("/campaigns/{first}/report"));
        let (_, b) = get(addr, &format!("/campaigns/{second}/report"));
        // Same spec ⇒ same cells (wall_ms is the one nondeterministic
        // field, so compare ids + statuses).
        let cells = |text: &str| -> Vec<(String, String)> {
            Json::parse(text)
                .expect("valid report")
                .get("cells")
                .and_then(Json::as_array)
                .expect("cells")
                .iter()
                .map(|c| {
                    (
                        c.get("id").and_then(Json::as_str).expect("id").to_string(),
                        c.get("status")
                            .and_then(Json::as_str)
                            .expect("status")
                            .to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(cells(&a), cells(&b));
    }

    #[test]
    fn malformed_specs_and_unknown_routes_are_client_errors() {
        let (addr, _daemon) = start();
        let (status, body) = post(addr, "/campaigns", "not = valid = toml");
        assert_eq!(status, 400, "{body}");
        let (status, _) = get(addr, "/campaigns/nope");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/campaigns/nope/report");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/elsewhere");
        assert_eq!(status, 404);
        let (status, _) = exchange(addr, "DELETE /campaigns HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
    }
}
