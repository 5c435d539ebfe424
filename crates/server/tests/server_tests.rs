//! Integration tests for the resident mining service.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphsig_core::{render_subgraphs, GraphSig, GraphSigConfig};
use graphsig_server::protocol::parse_response_stream;
use graphsig_server::{ResponseHeader, Server, ServerConfig, SharedWriter, Status};

#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn writer(sink: &Sink) -> SharedWriter {
    Arc::new(Mutex::new(Box::new(sink.clone())))
}

/// Wait until the sink holds a response for every id in `ids`.
fn wait_all(sink: &Sink, ids: &[String]) -> Vec<(graphsig_server::ResponseHeader, Vec<u8>)> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let buf = sink.0.lock().unwrap().clone();
        if let Ok(responses) = parse_response_stream(&buf) {
            if ids
                .iter()
                .all(|id| responses.iter().any(|(h, _)| &h.id == id))
            {
                return responses;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for responses; stream so far:\n{}",
            String::from_utf8_lossy(&buf)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait for `id`'s response and return it.
fn answer(sink: &Sink, id: &str) -> (ResponseHeader, String) {
    let responses = wait_all(sink, &[id.to_string()]);
    let (h, body) = responses.into_iter().find(|(h, _)| h.id == id).unwrap();
    (h, String::from_utf8(body).expect("utf-8 payload"))
}

#[test]
fn concurrent_mixed_budget_load_is_byte_identical_to_one_shot() {
    let server = Server::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=100 seed=3", &out);
    wait_all(&sink, &["L".to_string()]);

    // 12 concurrent submissions from 4 client threads: identical
    // unbudgeted requests interleaved with step-budgeted and
    // deadline-budgeted ones.
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3";
    let mut ids = Vec::new();
    std::thread::scope(|s| {
        for t in 0..4 {
            let out = Arc::clone(&out);
            let server = &server;
            ids.extend((0..3).map(|i| format!("t{t}r{i}")));
            s.spawn(move || {
                for (i, extra) in ["", " max_steps=100", " timeout_ms=1"].iter().enumerate() {
                    server.dispatch_line(&format!("{mine} id=t{t}r{i}{extra}"), &out);
                }
            });
        }
    });
    let responses = wait_all(&sink, &ids);

    let db = graphsig_datagen::aids_like(100, 3).db;
    let cfg = GraphSigConfig {
        min_freq: 0.05,
        max_pvalue: 0.05,
        radius: 3,
        ..GraphSigConfig::default()
    };
    let unbudgeted = render_subgraphs(&db, &GraphSig::new(cfg.clone()).mine(&db), usize::MAX);
    let budgeted =
        GraphSig::new(cfg.with_budget(graphsig_core::Budget::unlimited().with_max_steps(100)))
            .mine_outcome(&db);
    let budgeted_payload = render_subgraphs(&db, &budgeted.result, usize::MAX);

    for t in 0..4 {
        // Unbudgeted requests: byte-identical to the one-shot pipeline,
        // even though they raced budgeted requests for workers + cache.
        let (h, body) = responses
            .iter()
            .find(|(h, _)| h.id == format!("t{t}r0"))
            .expect("unbudgeted response");
        assert_eq!(h.status, Status::Ok);
        assert_eq!(h.field("completion"), Some("complete"));
        assert_eq!(
            std::str::from_utf8(body).unwrap(),
            unbudgeted,
            "client {t}: unbudgeted payload differs from one-shot"
        );
        // Step-budgeted requests: deterministic truncation, identical to
        // the one-shot budgeted run, mined from the shared prepared pass.
        let (h, body) = responses
            .iter()
            .find(|(h, _)| h.id == format!("t{t}r1"))
            .expect("step-budgeted response");
        assert!(matches!(h.field("cached"), Some("hit" | "miss")), "{h:?}");
        assert_eq!(
            h.field("completion"),
            Some(budgeted.completion.to_string().as_str())
        );
        assert_eq!(std::str::from_utf8(body).unwrap(), budgeted_payload);
        // Deadline requests: structured ok, complete or truncated.
        let (h, _) = responses
            .iter()
            .find(|(h, _)| h.id == format!("t{t}r2"))
            .expect("deadline response");
        assert_eq!(h.status, Status::Ok);
    }
    // One window pass was prepared across all 12 requests.
    server.dispatch_line("stats id=S dataset=d", &out);
    let responses = wait_all(&sink, &["S".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "S").unwrap();
    assert_eq!(h.field("prepared_misses"), Some("1"));
    server.join();
}

#[test]
fn sweep_payload_segments_match_individual_freq_calls() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=60 seed=5", &out);
    wait_all(&sink, &["L".to_string()]);
    server.dispatch_line("freq id=f12 dataset=d min_support=12 max_edges=5", &out);
    server.dispatch_line("freq id=f6 dataset=d min_support=6 max_edges=5", &out);
    server.dispatch_line("sweep id=s dataset=d supports=12,6 max_edges=5", &out);
    let ids: Vec<String> = ["f12", "f6", "s"].iter().map(|s| s.to_string()).collect();
    let responses = wait_all(&sink, &ids);
    let body = |id: &str| -> String {
        let (h, b) = responses.iter().find(|(h, _)| h.id == id).expect(id);
        assert_eq!(h.status, Status::Ok, "{id}");
        String::from_utf8(b.clone()).expect("utf-8 payload")
    };
    // Each sweep segment (after its marker line) is byte-identical to the
    // corresponding individual freq payload.
    let sweep = body("s");
    let (h, _) = responses.iter().find(|(h, _)| h.id == "s").unwrap();
    assert_eq!(h.field("supports"), Some("2"));
    assert_eq!(h.field("completion"), Some("complete"));
    let markers: Vec<usize> = sweep
        .match_indices("# sweep support ")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(markers.len(), 2, "expected two sweep segments:\n{sweep}");
    let segment = |k: usize| -> &str {
        let start = markers[k] + sweep[markers[k]..].find('\n').unwrap() + 1;
        let end = if k + 1 < markers.len() {
            markers[k + 1]
        } else {
            sweep.len()
        };
        &sweep[start..end]
    };
    assert_eq!(segment(0), body("f12"), "support=12 segment differs");
    assert_eq!(segment(1), body("f6"), "support=6 segment differs");
    // Empty and zero support lists are structured errors.
    server.dispatch_line("sweep id=z dataset=d supports=0,3", &out);
    let responses = wait_all(&sink, &["z".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "z").unwrap();
    assert_eq!(h.status, Status::Error);
    server.join();
}

/// Poll the server snapshot until `pred` holds (or panic after 30s).
fn wait_snapshot(
    server: &Server,
    what: &str,
    pred: impl Fn(&graphsig_server::ServerSnapshot) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred(&server.snapshot()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn identical_concurrent_mines_coalesce_to_one_run() {
    let server = Server::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=80 seed=7", &out);
    wait_all(&sink, &["L".to_string()]);

    // A slow leader holds the flight open; two byte-identical requests
    // arrive while it sleeps and must attach as riders rather than
    // running (or even preparing) anything themselves.
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=1500";
    server.dispatch_line(&format!("{mine} id=lead"), &out);
    wait_snapshot(&server, "leader to start", |s| s.active >= 1);
    server.dispatch_line(&format!("{mine} id=ride1"), &out);
    server.dispatch_line(&format!("{mine} id=ride2"), &out);
    // The coalesce counter proves both attached to the in-flight run
    // *before* it completed — not that they merely ran the same job.
    wait_snapshot(&server, "riders to attach", |s| s.coalesce_riders == 2);

    let ids: Vec<String> = ["lead", "ride1", "ride2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let responses = wait_all(&sink, &ids);
    let body = |id: &str| -> &[u8] {
        let (h, b) = responses.iter().find(|(h, _)| h.id == id).expect(id);
        assert_eq!(h.status, Status::Ok, "{id}");
        assert_eq!(h.field("completion"), Some("complete"), "{id}");
        b
    };
    assert_eq!(body("lead"), body("ride1"), "rider payload differs");
    assert_eq!(body("lead"), body("ride2"), "rider payload differs");

    let snap = server.snapshot();
    assert_eq!(snap.coalesce_leads, 1, "exactly one flight led");
    assert_eq!(snap.coalesce_riders, 2, "both followers attached");
    // One prepare across three requests: the window pass ran once.
    server.dispatch_line("stats id=S dataset=d", &out);
    let responses = wait_all(&sink, &["S".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "S").unwrap();
    assert_eq!(h.field("prepared_misses"), Some("1"));
    assert_eq!(h.field("prepared_hits"), Some("0"));
    server.join();
}

#[test]
fn rider_cancel_detaches_without_cancelling_the_shared_run() {
    let server = Server::new(ServerConfig {
        workers: 4,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=40 seed=2", &out);
    wait_all(&sink, &["L".to_string()]);

    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=60000";
    server.dispatch_line(&format!("{mine} id=lead"), &out);
    wait_snapshot(&server, "leader to start", |s| s.active >= 1);
    server.dispatch_line(&format!("{mine} id=ride"), &out);
    wait_snapshot(&server, "rider to attach", |s| s.coalesce_riders == 1);

    // Cancelling the rider detaches it immediately: it answers
    // `truncated (cancelled)` with full dataset identity while the
    // shared run keeps going for the leader.
    server.dispatch_line("cancel id=c1 target=ride", &out);
    let responses = wait_all(&sink, &["c1".to_string(), "ride".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "c1").unwrap();
    assert_eq!(h.field("found"), Some("true"));
    let (h, _) = responses.iter().find(|(h, _)| h.id == "ride").unwrap();
    assert_eq!(h.status, Status::Ok);
    assert_eq!(h.field("completion"), Some("truncated (cancelled)"));
    assert_eq!(h.field("dataset"), Some("d"));
    assert_eq!(h.field("version"), Some("1"));
    let snap = server.snapshot();
    assert_eq!(snap.active, 1, "shared run must survive a rider cancel");

    // Cancelling the last participant cancels the group token: the
    // 60s sleep wakes immediately instead of running out the clock.
    server.dispatch_line("cancel id=c2 target=lead", &out);
    let responses = wait_all(&sink, &["c2".to_string(), "lead".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "lead").unwrap();
    assert_eq!(h.field("completion"), Some("truncated (cancelled)"));
    wait_snapshot(&server, "workers to idle", |s| s.active == 0);
    server.join();
}

#[test]
fn leader_panic_fails_every_rider() {
    let server = Server::new(ServerConfig {
        workers: 4,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=40 seed=2", &out);
    wait_all(&sink, &["L".to_string()]);

    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=1500 inject=panic";
    server.dispatch_line(&format!("{mine} id=lead"), &out);
    wait_snapshot(&server, "leader to start", |s| s.active >= 1);
    server.dispatch_line(&format!("{mine} id=ride"), &out);
    wait_snapshot(&server, "rider to attach", |s| s.coalesce_riders == 1);

    let responses = wait_all(&sink, &["lead".to_string(), "ride".to_string()]);
    for id in ["lead", "ride"] {
        let (h, _) = responses.iter().find(|(h, _)| h.id == id).expect(id);
        assert_eq!(h.status, Status::Error, "{id}");
        assert!(h.field("error").unwrap().contains("panicked"), "{id}");
    }
    // One panic isolated — the rider's failure is the same panic, not a
    // second one — and the server keeps serving.
    assert_eq!(server.snapshot().panics, 1);
    server.dispatch_line("ping id=alive", &out);
    wait_all(&sink, &["alive".to_string()]);
    server.join();
}

#[test]
fn sweep_segments_do_not_starve_other_requests() {
    // A sweep runs its thresholds in order on one worker, so with two
    // workers a freq sent while a long sweep runs takes the other worker
    // and answers first.
    let server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=200 seed=9", &out);
    wait_all(&sink, &["L".to_string()]);
    server.dispatch_line(
        "sweep id=s dataset=d supports=80,60,40,30,20,10 max_edges=5",
        &out,
    );
    wait_snapshot(&server, "sweep to start", |s| s.active == 1);
    server.dispatch_line("freq id=m dataset=d min_support=100 max_edges=3", &out);
    let responses = wait_all(&sink, &["m".to_string(), "s".to_string()]);
    let pos = |id: &str| responses.iter().position(|(h, _)| h.id == id).expect(id);
    assert!(
        pos("m") < pos("s"),
        "freq response must precede the sweep's: the sweep held both workers"
    );
    let (h, _) = &responses[pos("s")];
    assert_eq!(h.status, Status::Ok);
    assert_eq!(h.field("completion"), Some("complete"));
    server.join();
}

#[test]
fn saturated_server_sheds_stays_probeable_and_drains_by_force() {
    // The fixed sequence a seeded soak cannot script: both workers pinned
    // and a full queue shedding `busy` with its depth, `ping` answered
    // while saturated, an expired deadline and a panic answered
    // structured, a reload emptying the prepared cache, a forced drain
    // cutting a hung request that still answers, and a refusal after
    // shutdown.
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 2,
        drain_ms: 10_000,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    let mut ids = Vec::new();
    let mut send = |line: String| {
        let id = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("id="));
        ids.push(id.expect("request id").to_string());
        server.dispatch_line(&line, &out);
    };
    let mine = "dataset=d min_freq=0.05 max_pvalue=0.05 radius=3";
    send("load id=L dataset=d gen=aids count=30 seed=7".into());
    assert_eq!(answer(&sink, "L").0.field("version"), Some("1"));

    // Distinct sleeps: identical injected mines would coalesce, and a
    // rider holds no worker.
    send(format!("mine id=pinA sleep_ms=60000 {mine}"));
    send(format!("mine id=pinB sleep_ms=59000 {mine}"));
    wait_snapshot(&server, "both workers pinned", |s| s.active == 2);
    send(format!("mine id=q1 {mine}"));
    send(format!("mine id=q2 {mine}"));
    wait_snapshot(&server, "queue full", |s| s.queued == 2);
    for i in 0..3 {
        send(format!("mine id=shed{i} {mine}"));
        let (h, _) = answer(&sink, &format!("shed{i}"));
        assert_eq!(h.status, Status::Busy, "{h:?}");
        assert_eq!(h.field("queue"), Some("2"), "busy reports its depth");
    }
    assert_eq!(server.snapshot().busy_rejected, 3);
    send("ping id=p".into());
    assert_eq!(answer(&sink, "p").0.status, Status::Ok);
    let snap = server.snapshot();
    assert_eq!((snap.active, snap.queued), (2, 2), "still saturated");

    // Cancelling a pinned mine frees its worker for the queued ones.
    send("cancel id=c target=pinA".into());
    assert_eq!(answer(&sink, "c").0.field("found"), Some("true"));
    let (h, _) = answer(&sink, "pinA");
    assert_eq!(h.field("completion"), Some("truncated (cancelled)"));
    assert_eq!(
        (h.field("dataset"), h.field("version")),
        (Some("d"), Some("1"))
    );
    let (h, q1) = answer(&sink, "q1");
    assert_eq!(h.status, Status::Ok);
    assert_eq!(answer(&sink, "q2").1, q1);

    send(format!("mine id=deadline timeout_ms=1 {mine}"));
    let (h, _) = answer(&sink, "deadline");
    assert_eq!(h.status, Status::Ok);
    assert_ne!(h.field("completion"), Some("complete"), "{h:?}");
    send(format!("mine id=poison inject=panic {mine}"));
    let (h, _) = answer(&sink, "poison");
    assert!(h.field("error").is_some_and(|e| e.contains("panicked")));
    send(format!("mine id=after {mine}"));
    assert_eq!(
        answer(&sink, "after").1,
        q1,
        "serves unchanged after a panic"
    );

    // A reload starts a version with an empty prepared cache.
    send("stats id=S1 dataset=d".into());
    assert_ne!(answer(&sink, "S1").0.field("prepared_entries"), Some("0"));
    send("load id=L2 dataset=d gen=aids count=30 seed=7".into());
    assert_eq!(answer(&sink, "L2").0.field("version"), Some("2"));
    send("stats id=S2 dataset=d".into());
    let (h, _) = answer(&sink, "S2");
    assert_eq!(h.field("prepared_hits"), Some("0"));
    assert_eq!(h.field("prepared_entries"), Some("0"));

    // pinB still sleeps: the drain deadline cancels it, it answers, and
    // only then does shutdown confirm.
    send("shutdown id=bye drain_ms=300".into());
    assert_eq!(answer(&sink, "bye").0.field("forced"), Some("true"));
    let (h, _) = answer(&sink, "pinB");
    assert_eq!(h.field("completion"), Some("truncated (cancelled)"));
    send(format!("mine id=late {mine}"));
    let (h, _) = answer(&sink, "late");
    assert_eq!(h.status, Status::Error);
    assert!(h
        .field("error")
        .is_some_and(|e| e.contains("shutting down")));

    let responses = wait_all(&sink, &ids);
    for id in &ids {
        let n = responses.iter().filter(|(h, _)| &h.id == id).count();
        assert_eq!(n, 1, "request '{id}' got {n} responses");
    }
    server.join();
}

#[test]
fn first_freq_grows_resident_bytes_by_exactly_one_index() {
    // A dataset version holds one label-pair index, so the first freq adds
    // exactly its bytes (with its compiled db) to `resident_bytes`, for a
    // generator load and for a packed load of 16-graph shards alike.
    use graphsig_store::Io;
    let db = graphsig_datagen::aids_like(60, 1).db;
    let index = graphsig_graph::LabelPairIndex::build(&db);
    index.compiled_db(&db);
    let dir = std::env::temp_dir().join(format!("graphsig-srv-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    graphsig_store::pack_with(&dir, &db, 16, &Io::real()).expect("pack");

    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    let packed = format!("path={} format=packed", dir.display());
    for (name, source) in [("g", "gen=aids count=60 seed=1"), ("p", packed.as_str())] {
        for line in [
            format!("load id=L{name} dataset={name} {source}"),
            format!("stats id=before{name} dataset={name}"),
            format!("freq id=F{name} dataset={name} min_support=20 max_edges=2"),
            format!("stats id=after{name} dataset={name}"),
        ] {
            server.dispatch_line(&line, &out);
        }
        let resident = |id: String| -> (u64, Option<String>) {
            let (h, _) = answer(&sink, &id);
            let bytes = h.field("resident_bytes").expect("resident_bytes");
            (
                bytes.parse().unwrap(),
                h.field("index_types").map(str::to_string),
            )
        };
        let (before, unbuilt) = resident(format!("before{name}"));
        let (after, built) = resident(format!("after{name}"));
        assert_eq!(after - before, index.approx_resident_bytes(), "{name}");
        assert_eq!(unbuilt, None, "{name}: no index before the first freq");
        let types = Some(index.len().to_string());
        assert_eq!(built, types, "{name}: stats shows the built index");
        let (f, _) = answer(&sink, &format!("F{name}"));
        assert_eq!(f.field("index_types"), types.as_deref(), "{name}");
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_rejected_request_is_never_cancellable() {
    // Regression: `submit` used to register the request id in the
    // inflight table *before* the capacity check, so a cancel racing a
    // busy rejection could observe (and report found=true for) a request
    // the server never accepted.
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=L dataset=d gen=aids count=30 seed=1", &out);
    wait_all(&sink, &["L".to_string()]);
    // Pin the only worker, then fill the only queue slot.
    let cheap = "min_freq=0.05 max_pvalue=0.05 radius=3";
    server.dispatch_line(
        &format!("mine id=pin dataset=d {cheap} sleep_ms=60000"),
        &out,
    );
    wait_snapshot(&server, "pin to start", |s| s.active == 1);
    server.dispatch_line(&format!("mine id=fill dataset=d {cheap}"), &out);
    wait_snapshot(&server, "queue to fill", |s| s.queued == 1);

    for i in 0..8 {
        server.dispatch_line(&format!("mine id=race{i} dataset=d {cheap}"), &out);
        server.dispatch_line(&format!("cancel id=c{i} target=race{i}"), &out);
    }
    let ids: Vec<String> = (0..8)
        .flat_map(|i| [format!("race{i}"), format!("c{i}")])
        .collect();
    let responses = wait_all(&sink, &ids);
    for i in 0..8 {
        let (h, _) = responses
            .iter()
            .find(|(h, _)| h.id == format!("race{i}"))
            .unwrap();
        assert_eq!(h.status, Status::Busy, "race{i} must be busy-rejected");
        let (h, _) = responses
            .iter()
            .find(|(h, _)| h.id == format!("c{i}"))
            .unwrap();
        assert_eq!(
            h.field("found"),
            Some("false"),
            "cancel c{i} observed a token for a request the server rejected"
        );
    }
    assert_eq!(server.snapshot().busy_rejected, 8);
    server.dispatch_line("cancel id=cp target=pin", &out);
    wait_all(&sink, &["pin".to_string(), "fill".to_string()]);
    server.join();
}

#[test]
fn duplicate_ids_and_unknown_datasets_are_structured_errors() {
    let server = Server::new(ServerConfig {
        workers: 1,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("mine id=m1 dataset=nope", &out);
    let responses = wait_all(&sink, &["m1".to_string()]);
    let (h, _) = responses.iter().find(|(h, _)| h.id == "m1").unwrap();
    assert_eq!(h.status, Status::Error);
    assert!(h.field("error").unwrap().contains("unknown dataset"));

    // A duplicate id while the first is still in flight is rejected.
    server.dispatch_line("load id=L dataset=d gen=aids count=30 seed=1", &out);
    wait_all(&sink, &["L".to_string()]);
    server.dispatch_line("mine id=dup dataset=d sleep_ms=2000", &out);
    // Wait until it is executing, then collide.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.snapshot().active == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.dispatch_line("mine id=dup dataset=d", &out);
    server.dispatch_line("cancel id=c target=dup", &out);
    let responses = wait_all(&sink, &["c".to_string()]);
    let dup_errors = responses
        .iter()
        .filter(|(h, _)| h.id == "dup" && h.status == Status::Error)
        .count();
    assert_eq!(dup_errors, 1, "second 'dup' submission must error");
    server.join();
}

#[test]
fn malformed_lines_get_error_responses_and_server_survives() {
    let server = Server::new(ServerConfig::default());
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("gibberish", &out);
    server.dispatch_line("mine id=x radius=", &out);
    server.dispatch_line("mine id=y dataset=d bogus=1", &out);
    server.dispatch_line("", &out); // ignored
    server.dispatch_line("# comment", &out); // ignored
    server.dispatch_line("ping id=alive", &out);
    let responses = wait_all(&sink, &["alive".to_string()]);
    assert_eq!(responses.len(), 4, "three errors + one pong");
    assert!(responses
        .iter()
        .filter(|(h, _)| h.id != "alive")
        .all(|(h, _)| h.status == Status::Error));
    // The scavenged id correlates the malformed mine line.
    assert!(responses.iter().any(|(h, _)| h.id == "y"));
    server.join();
}

#[test]
fn eof_shutdown_via_connection_loop_drains() {
    // serve_connection on an in-memory request script: every request is
    // answered, shutdown confirms, and the loop returns.
    let server = Server::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let script = "load id=L dataset=d gen=aids count=40 seed=2\n\
                  mine id=m dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
                  shutdown id=bye\n\
                  mine id=never dataset=d\n";
    server.serve_connection(std::io::Cursor::new(script), writer(&sink));
    let buf = sink.0.lock().unwrap().clone();
    let responses = parse_response_stream(&buf).expect("clean stream");
    let ids: Vec<&str> = responses.iter().map(|(h, _)| h.id.as_str()).collect();
    assert!(ids.contains(&"L") && ids.contains(&"m") && ids.contains(&"bye"));
    // The post-shutdown line is never read: the loop stopped at shutdown.
    assert!(!ids.contains(&"never"));
    let (bye, _) = responses.iter().find(|(h, _)| h.id == "bye").unwrap();
    assert_eq!(bye.status, Status::Ok);
    assert_eq!(bye.field("forced"), Some("false"), "drain was graceful");
    assert!(server.is_terminated());
    server.join();
}

#[test]
fn governor_rejects_oversized_loads_evicts_cold_caches_and_keeps_serving() {
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        max_resident_bytes: Some(4 * 1024 * 1024),
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);

    // A dataset that fits, mined once to warm its prepared cache.
    server.dispatch_line("load id=l1 dataset=d gen=aids count=80 seed=9", &out);
    server.dispatch_line(
        "mine id=m1 dataset=d min_freq=0.05 max_pvalue=0.05 radius=3",
        &out,
    );
    let responses = wait_all(&sink, &["l1".into(), "m1".into()]);
    let (l1, _) = responses.iter().find(|(h, _)| h.id == "l1").unwrap();
    assert_eq!(l1.status, Status::Ok);
    let (m1, body1) = responses.iter().find(|(h, _)| h.id == "m1").unwrap();
    assert_eq!(m1.status, Status::Ok);
    let body1 = body1.clone();

    // A load that cannot fit even after eviction: structured rejection
    // that discloses the accounting, with the server still up.
    server.dispatch_line("load id=big dataset=huge gen=aids count=9000 seed=1", &out);
    let responses = wait_all(&sink, &["big".into()]);
    let (big, _) = responses.iter().find(|(h, _)| h.id == "big").unwrap();
    assert_eq!(big.status, Status::Error, "{big:?}");
    assert_eq!(big.field("code"), Some("resource_exhausted"));
    for key in ["requested_bytes", "resident_bytes", "max_resident_bytes"] {
        assert!(big.field(key).is_some(), "rejection must report {key}");
    }

    // The attempt evicted the prepared pass of `d` before giving up,
    // and stats exposes both the eviction count and residency.
    server.dispatch_line("stats id=s", &out);
    let responses = wait_all(&sink, &["s".into()]);
    let (s, _) = responses.iter().find(|(h, _)| h.id == "s").unwrap();
    assert_eq!(s.status, Status::Ok);
    assert!(
        s.field("evictions").and_then(|v| v.parse::<u64>().ok()) >= Some(1),
        "eviction attempt must be counted: {s:?}"
    );
    assert!(
        s.field("resident_bytes")
            .and_then(|v| v.parse::<u64>().ok())
            > Some(0),
        "{s:?}"
    );
    assert_eq!(s.field("max_resident_bytes"), Some("4194304"));
    assert_eq!(
        s.field("datasets"),
        Some("1"),
        "rejected load must not register"
    );

    // Mining after the rejection (and the cache eviction) still serves
    // byte-identical results.
    server.dispatch_line(
        "mine id=m2 dataset=d min_freq=0.05 max_pvalue=0.05 radius=3",
        &out,
    );
    let responses = wait_all(&sink, &["m2".into()]);
    let (m2, body2) = responses.iter().find(|(h, _)| h.id == "m2").unwrap();
    assert_eq!(m2.status, Status::Ok);
    assert_eq!(
        body2, &body1,
        "mine after eviction must match the warm-cache run"
    );

    server.shutdown_now();
    server.join();
}

#[test]
fn admitted_load_within_ceiling_succeeds() {
    let server = Server::new(ServerConfig {
        workers: 1,
        max_resident_bytes: Some(64 * 1024 * 1024),
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line("load id=l dataset=d gen=aids count=200 seed=2", &out);
    let responses = wait_all(&sink, &["l".into()]);
    let (l, _) = responses.iter().find(|(h, _)| h.id == "l").unwrap();
    assert_eq!(l.status, Status::Ok, "{l:?}");
    server.shutdown_now();
    server.join();
}

#[test]
fn packed_load_retries_transient_store_faults_and_reports_the_count() {
    use graphsig_store::{FaultPlan, Io};

    // Pack a store with clean I/O, then serve it through a seeded
    // transient fault plane: the load must succeed by backoff and report
    // how many retries it spent.
    let dir = std::env::temp_dir().join(format!("graphsig-srv-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = graphsig_datagen::aids_like(60, 17).db;
    graphsig_store::pack_with(&dir, &db, 16, &Io::real()).expect("pack");

    let io = Io::with_plan(FaultPlan::new(0xFAB).transient(400).transient_burst(2));
    let server = Server::new(ServerConfig {
        workers: 1,
        io: io.clone(),
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    server.dispatch_line(
        &format!("load id=lp dataset=p path={} format=packed", dir.display()),
        &out,
    );
    let responses = wait_all(&sink, &["lp".into()]);
    let (lp, _) = responses.iter().find(|(h, _)| h.id == "lp").unwrap();
    assert_eq!(
        lp.status,
        Status::Ok,
        "transient faults must be absorbed: {lp:?}"
    );
    let reported: u64 = lp
        .field("retries")
        .expect("load reports retries")
        .parse()
        .expect("numeric retries");
    assert!(reported > 0, "seeded plan must have injected retries");
    assert_eq!(lp.field("graphs"), Some("60"));

    // stats surfaces the cumulative store retry count.
    server.dispatch_line("stats id=s", &out);
    let responses = wait_all(&sink, &["s".into()]);
    let (s, _) = responses.iter().find(|(h, _)| h.id == "s").unwrap();
    assert!(
        s.field("store_retries").and_then(|v| v.parse::<u64>().ok()) >= Some(reported),
        "{s:?}"
    );

    server.shutdown_now();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_see_every_load_admitted_before_them() {
    // Idle workers race ahead of a running load, but a request naming a
    // dataset still sees every load of it admitted earlier: an append sent
    // right behind its load extends it, and reads sent right behind both
    // answer over the appended version.
    let server = Server::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let sink = Sink::default();
    let out = writer(&sink);
    for round in 0..20 {
        let ids: Vec<String> = ["L", "A", "M", "F", "S"]
            .iter()
            .map(|op| format!("{op}{round}"))
            .collect();
        let d = format!("dataset=d{round}");
        for line in [
            format!("load id=L{round} {d} gen=aids count=30 seed={round}"),
            format!("load id=A{round} {d} gen=aids count=30 seed=7 append=true"),
            format!("mine id=M{round} {d} min_freq=0.1 max_pvalue=0.1 radius=2"),
            format!("freq id=F{round} {d} min_support=10 max_edges=3"),
            format!("sweep id=S{round} {d} supports=15,10 max_edges=3"),
        ] {
            server.dispatch_line(&line, &out);
        }
        let responses = wait_all(&sink, &ids);
        for id in &ids {
            let (h, _) = responses.iter().find(|(h, _)| &h.id == id).unwrap();
            assert_eq!(h.status, Status::Ok, "{h:?}");
            let version = if id.starts_with('L') { "1" } else { "2" };
            assert_eq!(h.field("version"), Some(version), "{h:?}");
        }
        let (append, _) = responses.iter().find(|(h, _)| h.id == ids[1]).unwrap();
        assert_eq!(append.field("graphs"), Some("60"), "{append:?}");
    }
    server.join();
}

#[test]
fn concurrent_loads_never_both_pass_a_ceiling_only_one_fits() {
    // Admission checks the ceiling, evicts and inserts under one lock, so
    // two loads racing on two workers can never both be admitted.
    let bytes = graphsig_datagen::aids_like(150, 4)
        .db
        .approx_resident_bytes();
    let max = bytes + bytes / 2;
    for round in 0..20 {
        let server = Server::new(ServerConfig {
            workers: 2,
            max_resident_bytes: Some(max),
            ..ServerConfig::default()
        });
        let sink = Sink::default();
        let out = writer(&sink);
        server.dispatch_line("load id=a dataset=a gen=aids count=150 seed=4", &out);
        server.dispatch_line("load id=b dataset=b gen=aids count=150 seed=4", &out);
        let responses = wait_all(&sink, &["a".into(), "b".into()]);
        let admitted = responses
            .iter()
            .filter(|(h, _)| h.status == Status::Ok)
            .count();
        assert_eq!(admitted, 1, "round {round}: exactly one load fits");
        let (rejected, _) = responses
            .iter()
            .find(|(h, _)| h.status == Status::Error)
            .expect("the other load is rejected");
        assert_eq!(rejected.field("code"), Some("resource_exhausted"));
        server.dispatch_line("stats id=s", &out);
        let responses = wait_all(&sink, &["s".into()]);
        let (s, _) = responses.iter().find(|(h, _)| h.id == "s").unwrap();
        let resident: u64 = s.field("resident_bytes").unwrap().parse().unwrap();
        assert!(resident <= max, "round {round}: {resident} > {max}");
        server.join();
    }
}
