//! After start-up, a served request starts no thread: the TCP server's one
//! worker pool runs every request and every fan-out inside one.
//!
//! Thread ids are handed out by one process-wide counter, in spawn order,
//! so two probe threads spawned before and after the traffic get
//! consecutive ids exactly when nothing else spawned a thread in between.
//! This file holds a single test so that no other test's threads can
//! interleave.

use cqdet::engine::Json;
use cqdet::service::{serve_tcp, Engine, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The id a freshly spawned thread gets (the `ThreadId` counter value).
fn next_thread_id() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("probe thread");
    format!("{id:?}")
        .trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .expect("ThreadId debug format is ThreadId(n)")
}

/// A 64-view program: path views of length 1–4 over 16 relations, plus a
/// query of two disjoint `R0` edges.  Large enough that every per-view
/// stage of the pipeline would fan out.
fn wide_program() -> String {
    let mut lines: Vec<String> = (0..64)
        .map(|i| {
            let len = i % 4 + 1;
            let atoms: Vec<String> = (0..len)
                .map(|k| format!("R{}(x{k}, x{})", i % 16, k + 1))
                .collect();
            format!("v{i}() :- {}", atoms.join(", "))
        })
        .collect();
    lines.push("q() :- R0(x, y), R0(u, w)".to_string());
    lines.join("\n")
}

fn batch_tasks() -> String {
    let mut text = String::from(
        "v1() :- R(x,y)\nv2() :- R(x,y), R(y,z)\nq1() :- R(x,y), R(u,v)\nq2() :- R(x,y), R(y,z), R(a,b)\n",
    );
    for t in 0..16 {
        let (q, views) = if t % 2 == 0 {
            ("q1", "v1")
        } else {
            ("q2", "*")
        };
        text.push_str(&format!("task t{t}: {q} <- {views}\n"));
    }
    text
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn ask(&mut self, request: String) -> Json {
        self.writer.write_all(request.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response");
        let response = Json::parse(line.trim()).expect("JSON response");
        assert_ne!(
            response.get("type").and_then(Json::as_str),
            Some("error"),
            "{line}"
        );
        response
    }
}

#[test]
fn served_requests_start_no_threads() {
    let engine = Arc::new(Engine::new());
    let server_engine = Arc::clone(&engine);
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let options = ServeOptions {
            // Two workers even on one core, so fan-outs have a worker to
            // offer to.
            worker_threads: 2,
            ..ServeOptions::default()
        };
        serve_tcp(&server_engine, "127.0.0.1:0", &options, move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server ready within 10s");
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().expect("clone stream")),
        writer: stream,
    };
    let program = Json::str(wide_program()).render();
    let tasks = Json::str(batch_tasks()).render();
    let mut traffic = |round: usize| {
        client.ask(format!(
            r#"{{"id":"d{round}","type":"decide","program":{program}}}"#
        ));
        client.ask(format!(
            r#"{{"id":"b{round}","type":"batch","tasks":{tasks}}}"#
        ));
        let open = client.ask(format!(
            r#"{{"id":"o{round}","type":"session_open","program":{program}}}"#
        ));
        let session = open.get("session").and_then(Json::as_u64).expect("id");
        client.ask(format!(
            r#"{{"id":"a{round}","type":"view_add","session":{session},"view":"w() :- R0(x,y), R1(y,z)"}}"#
        ));
        client.ask(format!(
            r#"{{"id":"r{round}","type":"redecide","session":{session},"witness":true}}"#
        ));
        client.ask(format!(
            r#"{{"id":"x{round}","type":"view_remove","session":{session},"view":"v0"}}"#
        ));
        client.ask(format!(
            r#"{{"id":"c{round}","type":"session_close","session":{session}}}"#
        ));
    };

    // Round 0 warms every path; round 1 is the measured traffic.
    traffic(0);
    let before = next_thread_id();
    traffic(1);
    let after = next_thread_id();
    assert_eq!(
        after,
        before + 1,
        "{} thread(s) were started while serving requests",
        after - before - 1
    );

    client.ask(r#"{"id":"bye","type":"shutdown"}"#.to_string());
    server
        .join()
        .expect("server thread")
        .expect("serve_tcp result");
}
