//! Multi-process smoke test: one `dgs-cli serve` process plus two
//! `dgs-cli work` processes training a tiny MLP over real TCP on
//! localhost. Asserts the run completes, the final loss is finite, and
//! the server's transport frame counters equal the training logic's
//! `wire_bytes()` accounting — the codec and the traffic model describe
//! the same bytes.
//!
//! The cluster smokes spin up the full two-level topology as separate OS
//! processes — three `serve --span K/3` span servers, one `edge`
//! aggregator merging a two-worker group, and two plain `work` members —
//! plus a direct `work --connect-cluster` variant without the edge tier.
//! Port discovery is the bind-time `--out` JSON each server/edge writes
//! (satellite of the `--listen 127.0.0.1:0` flow), polled with a
//! deadline.
//!
//! CI runs this with a hard timeout; the test also enforces its own
//! deadline so a wedged handshake can never hang the suite.

use dgs::tensor::json;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(120);

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dgs-cli"))
}

fn tiny_config() -> &'static str {
    r#"{
  "workload": { "kind": "blobs", "samples": 96, "val_samples": 48,
                "classes": 3, "dim": 6, "noise": 0.4 },
  "model": { "kind": "mlp", "hidden": [12] },
  "train": { "method": "dgs", "workers": 2, "batch_per_worker": 8,
              "epochs": 2, "lr": 0.05, "momentum": 0.4,
              "sparsity_ratio": 0.25, "seed": 7 },
  "engine": { "kind": "threads" }
}"#
}

/// Waits for a child with a deadline; kills it (and fails) on expiry.
fn wait_with_deadline(child: &mut Child, who: &str, deadline: Instant) {
    loop {
        match child.try_wait().expect("poll child") {
            Some(status) => {
                assert!(status.success(), "{who} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                child.kill().ok();
                child.wait().ok();
                panic!("{who} still running at deadline");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn serve_plus_two_workers_trains_over_tcp() {
    serve_smoke("dgs_process_mode_test", &[]);
}

#[test]
fn sharded_serve_plus_two_workers_trains_over_tcp() {
    // Same run hosted by the lock-striped server: `--shards 2` swaps in
    // `ShardedMdtServer` behind the identical wire protocol, so every
    // assertion (including the frame-counter == wire_bytes() equality)
    // must hold unchanged.
    serve_smoke("dgs_process_mode_sharded_test", &["--shards", "2"]);
}

#[test]
fn evented_serve_plus_two_workers_trains_over_tcp() {
    // Same run again on the readiness event loop: `--io evented` serves
    // both worker connections from one poller thread. Protocol and bytes
    // are backend-independent, so the identical assertions must hold.
    serve_smoke("dgs_process_mode_evented_test", &["--io", "evented", "--max-conns", "64"]);
}

#[test]
fn evented_sharded_serve_plus_two_workers_trains_over_tcp() {
    // Deepest process-mode stack: lock-striped server logic behind the
    // event loop, across real processes.
    serve_smoke("dgs_process_mode_evented_sharded_test", &["--shards", "2", "--io", "evented"]);
}

fn serve_smoke(dir_name: &str, extra_serve_args: &[&str]) {
    let deadline = Instant::now() + DEADLINE;
    let dir = std::env::temp_dir().join(dir_name);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    let out_path = dir.join("out.json");
    std::fs::write(&cfg_path, tiny_config()).unwrap();

    // Port 0: the OS picks a free port; serve prints the bound address on
    // its first line, which is how the workers learn where to connect.
    let mut server = cli()
        .arg("serve")
        .arg(&cfg_path)
        .args(["--listen", "127.0.0.1:0", "--deadline-secs", "90"])
        .args(extra_serve_args)
        .arg("--out")
        .arg(&out_path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut server_out = BufReader::new(server.stdout.take().expect("serve stdout"));
    let mut first_line = String::new();
    server_out.read_line(&mut first_line).expect("read serve banner");
    // "serving DGS on 127.0.0.1:PORT: waiting for 2 workers x N iterations"
    let addr = first_line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(": waiting").next())
        .unwrap_or_else(|| panic!("unparseable serve banner: {first_line:?}"))
        .to_string();

    let mut workers: Vec<Child> = (0..2)
        .map(|k| {
            cli()
                .arg("work")
                .arg(&cfg_path)
                .args(["--connect", &addr, "--worker", &k.to_string()])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn work")
        })
        .collect();

    // Drain the rest of serve's stdout concurrently so a full pipe buffer
    // can never deadlock the summary print.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut server_out, &mut rest).ok();
        rest
    });

    for (k, w) in workers.iter_mut().enumerate() {
        wait_with_deadline(w, &format!("worker {k}"), deadline);
    }
    wait_with_deadline(&mut server, "server", deadline);
    let summary = drain.join().expect("drain serve stdout");
    assert!(summary.contains("final top-1"), "serve summary missing:\n{summary}");

    let doc = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let result = &doc["result"];
    let wire = &doc["wire"];

    let final_loss = result["final_loss"].to::<f64>().unwrap();
    assert!(final_loss.is_finite(), "final loss not finite: {final_loss}");
    assert!(result["final_acc"].to::<f64>().unwrap() >= 0.0);

    // Frame counters vs wire_bytes() accounting: a clean run (no resyncs)
    // must agree exactly in both directions.
    assert_eq!(
        wire["data_up"].to::<u64>().unwrap(),
        result["bytes_up"].to::<u64>().unwrap(),
        "uplink frame bytes != logic accounting"
    );
    assert_eq!(
        wire["data_down"].to::<u64>().unwrap(),
        result["bytes_down"].to::<u64>().unwrap(),
        "downlink frame bytes != logic accounting"
    );
    assert!(wire["frames_up"].to::<u64>().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls a bind-time `--out` JSON until it parses and contains `key`
/// (file writes aren't atomic, so tolerate partial content), returning
/// the document. Panics at the deadline.
fn poll_json(path: &std::path::Path, key: &str, deadline: Instant) -> json::Value {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(doc) = json::parse(&text) {
                if doc.get(key).is_some() {
                    return doc;
                }
            }
        }
        assert!(Instant::now() < deadline, "no {key:?} in {} by deadline", path.display());
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn cluster_with_edge_trains_over_tcp() {
    cluster_smoke("dgs_process_mode_cluster_test", &[]);
}

#[test]
fn evented_cluster_with_edge_trains_over_tcp() {
    // Same topology with the span servers on the readiness event loop
    // (the edge's member listener is always thread-per-connection — its
    // members block on the round barrier).
    cluster_smoke(
        "dgs_process_mode_cluster_evented_test",
        &["--io", "evented", "--max-conns", "8"],
    );
}

/// Three `serve --span K/3` span processes + one `edge --group 2` + two
/// member workers, all separate OS processes wired up through bind-time
/// `--out` discovery. Asserts every process exits cleanly, the partition
/// map hash agrees across the tier, and bytes moved on every span.
fn cluster_smoke(dir_name: &str, extra_span_args: &[&str]) {
    let deadline = Instant::now() + DEADLINE;
    let dir = std::env::temp_dir().join(dir_name);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(&cfg_path, tiny_config()).unwrap();

    // Span tier: each process owns one shard span and waits for ONE
    // direct client (the edge aggregator).
    let mut spans: Vec<Child> = Vec::new();
    let mut span_outs = Vec::new();
    for k in 0..3 {
        let out = dir.join(format!("span{k}.json"));
        spans.push(
            cli()
                .arg("serve")
                .arg(&cfg_path)
                .args(["--listen", "127.0.0.1:0", "--deadline-secs", "90"])
                .args(["--span", &format!("{k}/3"), "--clients", "1"])
                .args(extra_span_args)
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn span serve"),
        );
        span_outs.push(out);
    }
    let span_docs: Vec<json::Value> =
        span_outs.iter().map(|p| poll_json(p, "listen", deadline)).collect();
    let span_addrs: Vec<String> =
        span_docs.iter().map(|d| d["listen"].to::<String>().unwrap()).collect();
    for (k, doc) in span_docs.iter().enumerate() {
        assert_eq!(doc["span"].to::<u64>().ok(), Some(k as u64), "span index in bind-time doc");
        assert_eq!(doc["spans"].to::<u64>().ok(), Some(3));
        assert_eq!(
            doc["layout_hash"].to::<u64>().ok(),
            span_docs[0]["layout_hash"].to::<u64>().ok(),
            "partition-map hash must agree across the tier"
        );
    }

    // Edge tier: merges the two-worker group toward the three spans.
    let edge_out = dir.join("edge.json");
    let mut edge = cli()
        .arg("edge")
        .arg(&cfg_path)
        .args(["--connect", &span_addrs.join(","), "--listen", "127.0.0.1:0"])
        .args(["--group", "2", "--base", "0", "--deadline-secs", "90"])
        .arg("--out")
        .arg(&edge_out)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn edge");
    let edge_addr = poll_json(&edge_out, "listen", deadline)["listen"].to::<String>().unwrap();

    // Members speak the plain single-server protocol to the edge.
    let mut workers: Vec<Child> = (0..2)
        .map(|k| {
            cli()
                .arg("work")
                .arg(&cfg_path)
                .args(["--connect", &edge_addr, "--worker", &k.to_string()])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn work")
        })
        .collect();

    for (k, w) in workers.iter_mut().enumerate() {
        wait_with_deadline(w, &format!("member {k}"), deadline);
    }
    wait_with_deadline(&mut edge, "edge", deadline);
    for (k, s) in spans.iter_mut().enumerate() {
        wait_with_deadline(s, &format!("span server {k}"), deadline);
    }

    // Final rewrites carry the wire stats: bytes moved on every span,
    // and the edge recorded both its member side and its upstream side.
    for (k, out) in span_outs.iter().enumerate() {
        let doc = poll_json(out, "wire", deadline);
        assert!(doc["wire"]["frames_up"].to::<u64>().unwrap() > 0, "span {k} saw no uplink frames");
    }
    let edge_doc = poll_json(&edge_out, "member_wire", deadline);
    assert!(edge_doc["member_wire"]["data_up"].to::<u64>().unwrap() > 0);
    assert!(edge_doc["upstream_wire"]["data_up"].to::<u64>().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The no-edge cluster path: two `work --connect-cluster` workers fan
/// out straight to the three span servers (each span expects 2 clients).
#[test]
fn workers_connect_cluster_directly() {
    let deadline = Instant::now() + DEADLINE;
    let dir = std::env::temp_dir().join("dgs_process_mode_cluster_direct_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(&cfg_path, tiny_config()).unwrap();

    let mut spans: Vec<Child> = Vec::new();
    let mut span_outs = Vec::new();
    for k in 0..3 {
        let out = dir.join(format!("span{k}.json"));
        spans.push(
            cli()
                .arg("serve")
                .arg(&cfg_path)
                .args(["--listen", "127.0.0.1:0", "--deadline-secs", "90"])
                .args(["--span", &format!("{k}/3"), "--clients", "2"])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn span serve"),
        );
        span_outs.push(out);
    }
    let span_addrs: Vec<String> = span_outs
        .iter()
        .map(|p| poll_json(p, "listen", deadline)["listen"].to::<String>().unwrap())
        .collect();

    let mut workers: Vec<Child> = (0..2)
        .map(|k| {
            cli()
                .arg("work")
                .arg(&cfg_path)
                .args(["--connect-cluster", &span_addrs.join(","), "--worker", &k.to_string()])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn cluster work")
        })
        .collect();

    for (k, w) in workers.iter_mut().enumerate() {
        wait_with_deadline(w, &format!("worker {k}"), deadline);
    }
    for (k, s) in spans.iter_mut().enumerate() {
        wait_with_deadline(s, &format!("span server {k}"), deadline);
    }
    for (k, out) in span_outs.iter().enumerate() {
        let doc = poll_json(out, "wire", deadline);
        assert!(doc["wire"]["frames_up"].to::<u64>().unwrap() > 0, "span {k} saw no uplink frames");
    }
    std::fs::remove_dir_all(&dir).ok();
}
