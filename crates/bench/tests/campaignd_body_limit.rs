//! The `campaignd` binary end to end: a request whose `Content-Length`
//! header claims an absurd body is refused with 413 before anything is
//! allocated, a 2 MiB header is refused with 431 after a bounded read,
//! and the same daemon process then still runs the checked-in smoke
//! campaign to a schema-valid report.

use beep_scenarios::json::Json;
use beep_scenarios::validate_report;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the daemon when the test ends, passing or not.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `campaignd` on an ephemeral port and reads the bound address
/// from its startup line.
fn start() -> (Daemon, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn campaignd");
    let stdout = child.stdout.take().expect("piped stdout");
    let daemon = Daemon(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("campaignd listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .parse()
        .expect("socket address");
    (daemon, addr)
}

/// One raw HTTP exchange; returns (status, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

#[test]
fn oversized_body_is_refused_and_the_daemon_keeps_serving() {
    let (_daemon, addr) = start();

    let (status, body) = exchange(
        addr,
        "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999999999\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");

    let pad = "a".repeat(2 << 20);
    let (status, body) = exchange(
        addr,
        &format!("GET /campaigns/x HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n\r\n"),
    );
    assert_eq!(status, 431, "{body}");
    assert!(body.contains("exceed"), "{body}");

    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/smoke.toml"
    ))
    .expect("read scenarios/smoke.toml");
    let (status, body) = exchange(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        ),
    );
    assert_eq!(status, 202, "{body}");
    let id = Json::parse(&body)
        .expect("valid JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string();

    let mut done = false;
    for _ in 0..600 {
        let (status, body) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(status, 200, "{body}");
        match Json::parse(&body)
            .expect("valid JSON")
            .get("status")
            .and_then(Json::as_str)
        {
            Some("done") => {
                done = true;
                break;
            }
            Some("failed") => panic!("smoke campaign failed: {body}"),
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    assert!(done, "smoke campaign never finished");

    let (status, body) = get(addr, &format!("/campaigns/{id}/report"));
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).expect("valid report JSON");
    validate_report(&report).expect("schema-valid report");
    assert_eq!(report.get("campaign").and_then(Json::as_str), Some("smoke"));
}
