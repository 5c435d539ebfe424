//! Protocol-level tests of `graphsig serve` as a real child process on
//! stdio: mine responses must be byte-identical to the one-shot CLI,
//! warm requests must hit the shared cache, and EOF must drain cleanly.

use std::io::{BufRead, Read, Write};
use std::process::{Command, Stdio};

use graphsig_server::protocol::parse_response_stream;
use graphsig_server::{ResponseHeader, Status};

fn graphsig() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graphsig"))
}

/// Write `script` to a `graphsig serve` child's stdin, close it, and
/// parse the full response stream from its stdout.
fn serve_script(extra_args: &[&str], script: &str) -> Vec<(ResponseHeader, Vec<u8>)> {
    let mut child = graphsig()
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graphsig serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("write request script");
    // stdin drops closed here: EOF after the last request.
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut stdout)
        .expect("read responses");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve must exit 0 on clean EOF");
    parse_response_stream(&stdout).expect("well-framed response stream")
}

fn response<'a>(
    responses: &'a [(ResponseHeader, Vec<u8>)],
    id: &str,
) -> &'a (ResponseHeader, Vec<u8>) {
    responses
        .iter()
        .find(|(h, _)| h.id == id)
        .unwrap_or_else(|| panic!("no response for {id}"))
}

#[test]
fn server_mine_is_byte_identical_to_one_shot_cli() {
    // One-shot CLI run: generate a dataset file, mine it, keep stdout.
    let dir = std::env::temp_dir().join(format!("graphsig-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("db.txt");
    let gen = graphsig()
        .args(["generate", "aids", "80", "--seed", "11"])
        .output()
        .expect("generate");
    assert!(gen.status.success());
    std::fs::write(&file, &gen.stdout).expect("write dataset");
    let mine = graphsig()
        .args([
            "mine",
            file.to_str().expect("utf-8 path"),
            "--min-freq",
            "0.05",
            "--max-pvalue",
            "0.05",
            "--radius",
            "3",
        ])
        .output()
        .expect("one-shot mine");
    assert!(mine.status.success());
    let one_shot = mine.stdout;
    let budgeted = graphsig()
        .args([
            "mine",
            file.to_str().expect("utf-8 path"),
            "--min-freq",
            "0.05",
            "--max-pvalue",
            "0.05",
            "--radius",
            "3",
            "--max-steps",
            "50",
        ])
        .output()
        .expect("one-shot budgeted mine");
    assert!(budgeted.status.success());

    // Same mine through the server: load the same file, ask twice (cold
    // then warm), then at another threshold and under a step budget (both
    // share the one prepared window pass).
    let script = format!(
        "load id=L dataset=d path={}\n\
         mine id=cold dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
         mine id=warm dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
         mine id=other dataset=d min_freq=0.05 max_pvalue=0.1 radius=3\n\
         mine id=steps dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 max_steps=50\n\
         stats id=S dataset=d\n",
        file.to_str().expect("utf-8 path")
    );
    // One worker, so `cold` finishes before `warm` starts: with more, `warm`
    // arrives while `cold` runs and coalesces onto it (answering the
    // leader's `cached=miss`), which is by design.
    let responses = serve_script(&["--workers", "1"], &script);
    std::fs::remove_dir_all(&dir).ok();

    let (l, _) = response(&responses, "L");
    assert_eq!(l.status, Status::Ok, "load: {l:?}");
    let (cold, cold_body) = response(&responses, "cold");
    assert_eq!(cold.status, Status::Ok);
    assert_eq!(
        cold_body, &one_shot,
        "server mine payload differs from one-shot CLI stdout"
    );
    let (warm, warm_body) = response(&responses, "warm");
    assert_eq!(warm.field("cached"), Some("hit"), "{warm:?}");
    assert_eq!(warm_body, &one_shot, "cache hit changed the bytes");
    let (other, _) = response(&responses, "other");
    assert_eq!(other.status, Status::Ok, "{other:?}");
    assert_eq!(other.field("cached"), Some("hit"), "{other:?}");
    // A step budget bounds the search, not the window pass, so the
    // budgeted run shares the pass and still matches the one-shot CLI.
    let (steps, steps_body) = response(&responses, "steps");
    assert_eq!(steps.field("cached"), Some("hit"), "{steps:?}");
    assert_eq!(
        steps_body, &budgeted.stdout,
        "step-budgeted payload differs from one-shot CLI stdout"
    );
    let (stats, _) = response(&responses, "S");
    assert_eq!(stats.field("prepared_hits"), Some("3"), "{stats:?}");
    assert_eq!(stats.field("prepared_misses"), Some("1"), "{stats:?}");
}

#[test]
fn packed_and_appended_loads_mine_byte_identical_to_text() {
    // Two disjoint generated sets: `a` seeds the store, `b` arrives later.
    // Mining and frequent mining must produce byte-identical payloads
    // whether the data came from (1) the concatenated text, (2) a packed
    // store of the concatenation, or (3) a packed store of `a` with `b`
    // appended live.
    let dir = std::env::temp_dir().join(format!("graphsig-serve-pack-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let gen_a = graphsig()
        .args(["generate", "aids", "60", "--seed", "7"])
        .output()
        .expect("generate a");
    let gen_b = graphsig()
        .args(["generate", "aids", "40", "--seed", "8"])
        .output()
        .expect("generate b");
    assert!(gen_a.status.success() && gen_b.status.success());
    let full_txt = dir.join("full.txt");
    let b_txt = dir.join("b.txt");
    let mut full = gen_a.stdout.clone();
    full.extend_from_slice(&gen_b.stdout);
    std::fs::write(&full_txt, &full).expect("write full.txt");
    std::fs::write(&b_txt, &gen_b.stdout).expect("write b.txt");

    // Pack the concatenation into one store and `a` alone into another,
    // then append `b` to the latter through the server's `load append=`.
    let store_full = dir.join("store-full");
    let store_a = dir.join("store-a");
    let a_txt = dir.join("a.txt");
    std::fs::write(&a_txt, &gen_a.stdout).expect("write a.txt");
    for (input, store) in [(&full_txt, &store_full), (&a_txt, &store_a)] {
        let pack = graphsig()
            .args([
                "pack",
                input.to_str().expect("utf-8"),
                store.to_str().expect("utf-8"),
                "--shard-size",
                "16",
            ])
            .output()
            .expect("pack");
        assert!(
            pack.status.success(),
            "pack failed: {}",
            String::from_utf8_lossy(&pack.stderr)
        );
    }

    let mine_flags = "min_freq=0.05 max_pvalue=0.05 radius=3";
    let script = format!(
        "load id=LT dataset=t path={full}\n\
         load id=LP dataset=p path={sf} format=packed\n\
         load id=LA1 dataset=a path={sa} format=packed\n\
         load id=LA2 dataset=a path={b} append=true\n\
         mine id=mt dataset=t {mf}\n\
         mine id=mp dataset=p {mf}\n\
         mine id=ma dataset=a {mf}\n\
         freq id=ft dataset=t {ff}\n\
         freq id=fp dataset=p {ff}\n\
         freq id=fa dataset=a {ff}\n\
         stats id=S dataset=p\n",
        full = full_txt.to_str().expect("utf-8"),
        sf = store_full.to_str().expect("utf-8"),
        sa = store_a.to_str().expect("utf-8"),
        b = b_txt.to_str().expect("utf-8"),
        mf = mine_flags,
        ff = "min_support=10 max_edges=4",
    );
    let responses = serve_script(&[], &script);
    std::fs::remove_dir_all(&dir).ok();

    let (lt, _) = response(&responses, "LT");
    assert_eq!(lt.status, Status::Ok, "{lt:?}");
    let (lp, _) = response(&responses, "LP");
    assert_eq!(lp.status, Status::Ok, "{lp:?}");
    assert_eq!(lp.field("graphs"), Some("100"), "{lp:?}");
    assert_eq!(lp.field("shards"), Some("7"), "100 graphs / 16 = 7 shards");
    assert_eq!(lp.field("quarantined"), Some("0"));
    assert_eq!(lp.field("store_version"), Some("1"));
    assert!(lp.field("degraded").is_none(), "clean store: {lp:?}");
    let (la2, _) = response(&responses, "LA2");
    assert_eq!(la2.status, Status::Ok, "{la2:?}");
    assert_eq!(la2.field("graphs"), Some("100"), "{la2:?}");
    assert_eq!(la2.field("loaded"), Some("40"), "{la2:?}");

    let (mt, text_body) = response(&responses, "mt");
    assert_eq!(mt.status, Status::Ok);
    let (mp, packed_body) = response(&responses, "mp");
    assert_eq!(mp.status, Status::Ok);
    assert_eq!(
        packed_body, text_body,
        "mining a packed store must be byte-identical to the text path"
    );
    let (ma, appended_body) = response(&responses, "ma");
    assert_eq!(ma.status, Status::Ok);
    assert_eq!(
        appended_body, text_body,
        "append must be byte-identical to a one-shot load of the concatenation"
    );

    let (ft, text_freq) = response(&responses, "ft");
    assert_eq!(ft.status, Status::Ok, "{ft:?}");
    assert!(!text_freq.is_empty(), "freq found no patterns");
    for id in ["fp", "fa"] {
        let (f, body) = response(&responses, id);
        assert_eq!(f.status, Status::Ok, "{f:?}");
        assert_eq!(body, text_freq, "{id}: freq payload differs from text");
    }

    let (s, _) = response(&responses, "S");
    assert_eq!(s.field("shards"), Some("7"), "{s:?}");
    assert_eq!(s.field("quarantined"), Some("0"));
    assert!(s.field("disk_bytes").is_some(), "{s:?}");
}

#[test]
fn degraded_store_still_serves_and_says_so() {
    // Corrupt one shard of a packed store: the server must quarantine it,
    // keep serving the survivors, and stamp every answer `degraded=K/N`.
    let dir = std::env::temp_dir().join(format!("graphsig-serve-degraded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let gen = graphsig()
        .args(["generate", "aids", "64", "--seed", "3"])
        .output()
        .expect("generate");
    assert!(gen.status.success());
    let file = dir.join("db.txt");
    std::fs::write(&file, &gen.stdout).expect("write dataset");
    let store = dir.join("store");
    let pack = graphsig()
        .args([
            "pack",
            file.to_str().expect("utf-8"),
            store.to_str().expect("utf-8"),
            "--shard-size",
            "16",
        ])
        .output()
        .expect("pack");
    assert!(pack.status.success());
    let victim = store.join("shard-00002.gss");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).expect("corrupt shard");

    let script = format!(
        "load id=L dataset=d path={} format=packed\n\
         mine id=m dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
         stats id=S dataset=d\n",
        store.to_str().expect("utf-8")
    );
    let responses = serve_script(&[], &script);
    std::fs::remove_dir_all(&dir).ok();

    let (l, _) = response(&responses, "L");
    assert_eq!(l.status, Status::Ok, "degraded load still succeeds: {l:?}");
    assert_eq!(l.field("graphs"), Some("48"), "one 16-graph shard lost");
    assert_eq!(l.field("shards"), Some("3"), "{l:?}");
    assert_eq!(l.field("quarantined"), Some("1"));
    assert_eq!(l.field("degraded"), Some("1/4"), "{l:?}");
    let (m, body) = response(&responses, "m");
    assert_eq!(m.status, Status::Ok, "survivors must still mine: {m:?}");
    assert_eq!(m.field("degraded"), Some("1/4"), "{m:?}");
    assert!(!body.is_empty() || m.field("count") == Some("0"));
    let (s, _) = response(&responses, "S");
    assert_eq!(s.field("degraded"), Some("1/4"), "{s:?}");
    assert_eq!(s.field("quarantined"), Some("1"));
}

/// Pack `n` aids-like graphs (seed `seed`) into `store` with 16-graph
/// shards, returning the path of the text file that fed the pack.
fn pack_store(dir: &std::path::Path, name: &str, n: u32, seed: u32) -> std::path::PathBuf {
    let gen = graphsig()
        .args([
            "generate",
            "aids",
            &n.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("generate");
    assert!(gen.status.success());
    let txt = dir.join(format!("{name}.txt"));
    std::fs::write(&txt, &gen.stdout).expect("write text");
    let store = dir.join(name);
    let pack = graphsig()
        .args([
            "pack",
            txt.to_str().expect("utf-8"),
            store.to_str().expect("utf-8"),
            "--shard-size",
            "16",
        ])
        .output()
        .expect("pack");
    assert!(
        pack.status.success(),
        "pack failed: {}",
        String::from_utf8_lossy(&pack.stderr)
    );
    store
}

#[test]
fn append_preserves_degraded_state() {
    // Regression: appending to a degraded packed dataset used to rebuild
    // the store summary from the *append* request alone, silently clearing
    // `degraded=K/N` (and quarantine counts) from every later response.
    let dir = std::env::temp_dir().join(format!("graphsig-serve-appdeg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = pack_store(&dir, "store", 64, 3);
    let victim = store.join("shard-00002.gss");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).expect("corrupt shard");
    let extra = graphsig()
        .args(["generate", "aids", "20", "--seed", "9"])
        .output()
        .expect("generate extra");
    assert!(extra.status.success());
    let extra_txt = dir.join("extra.txt");
    std::fs::write(&extra_txt, &extra.stdout).expect("write extra");

    let script = format!(
        "load id=L1 dataset=d path={} format=packed\n\
         load id=L2 dataset=d path={} append=true\n\
         mine id=m dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
         stats id=S dataset=d\n",
        store.to_str().expect("utf-8"),
        extra_txt.to_str().expect("utf-8"),
    );
    let responses = serve_script(&[], &script);
    std::fs::remove_dir_all(&dir).ok();

    let (l1, _) = response(&responses, "L1");
    assert_eq!(l1.field("degraded"), Some("1/4"), "{l1:?}");
    // The append itself, and everything after it, must still say 1/4.
    let (l2, _) = response(&responses, "L2");
    assert_eq!(l2.status, Status::Ok, "{l2:?}");
    assert_eq!(l2.field("graphs"), Some("68"), "48 survivors + 20 appended");
    assert_eq!(
        l2.field("degraded"),
        Some("1/4"),
        "append cleared the degraded flag: {l2:?}"
    );
    assert_eq!(l2.field("quarantined"), Some("1"), "{l2:?}");
    let (m, _) = response(&responses, "m");
    assert_eq!(m.field("degraded"), Some("1/4"), "{m:?}");
    let (s, _) = response(&responses, "S");
    assert_eq!(s.field("degraded"), Some("1/4"), "{s:?}");
    assert_eq!(s.field("quarantined"), Some("1"));
}

#[test]
fn packed_append_keeps_per_shard_segments() {
    // A packed append keeps the appended store's shards in the dataset's
    // provenance, and freq serves over the combined graphs.
    let dir = std::env::temp_dir().join(format!("graphsig-serve-appseg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store_a = pack_store(&dir, "store-a", 60, 7); // 60/16 -> 4 shards
    let store_b = pack_store(&dir, "store-b", 40, 8); // 40/16 -> 3 shards

    let script = format!(
        "load id=L1 dataset=d path={} format=packed\n\
         load id=L2 dataset=d path={} format=packed append=true\n\
         freq id=f dataset=d min_support=10 max_edges=4\n\
         stats id=S dataset=d\n",
        store_a.to_str().expect("utf-8"),
        store_b.to_str().expect("utf-8"),
    );
    let responses = serve_script(&[], &script);
    std::fs::remove_dir_all(&dir).ok();

    let (l2, _) = response(&responses, "L2");
    assert_eq!(l2.status, Status::Ok, "{l2:?}");
    assert_eq!(l2.field("graphs"), Some("100"), "{l2:?}");
    assert_eq!(l2.field("loaded"), Some("40"), "{l2:?}");
    assert_eq!(l2.field("shards"), Some("7"), "4 + 3 manifest shards");
    let (f, _) = response(&responses, "f");
    assert_eq!(f.status, Status::Ok, "{f:?}");
    let (s, _) = response(&responses, "S");
    assert_eq!(s.field("graphs"), Some("100"), "{s:?}");
    assert_eq!(s.field("shards"), Some("7"), "{s:?}");
}

/// A line-protocol client over TCP: send request lines, collect framed
/// responses until every expected id has answered.
struct Client {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(100)))
            .expect("read timeout");
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, lines: &str) {
        self.stream.write_all(lines.as_bytes()).expect("send");
    }

    fn wait(&mut self, ids: &[&str]) -> Vec<(ResponseHeader, Vec<u8>)> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Ok(responses) = parse_response_stream(&self.buf) {
                if ids
                    .iter()
                    .all(|id| responses.iter().any(|(h, _)| &h.id == id))
                {
                    return responses;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {ids:?}; stream so far:\n{}",
                String::from_utf8_lossy(&self.buf)
            );
            match self.stream.read(&mut chunk) {
                Ok(0) => std::thread::sleep(std::time::Duration::from_millis(5)),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

/// OS threads of process `pid` (`Threads:` in `/proc/<pid>/status`), or
/// `None` where `/proc` is absent.
fn os_threads(pid: u32) -> Option<usize> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

#[test]
fn tcp_transport_serves_many_clients_with_exactly_one_response_each() {
    // End-to-end over the event-driven TCP transport: one process, many
    // concurrent client connections, mixed operations. Every request gets
    // exactly one response on its own connection; identical concurrent
    // mines (coalesced or not) are byte-identical to a solo mine; control
    // requests stay responsive while a sweep occupies the workers.
    let mut child = graphsig()
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue",
            "64",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graphsig serve --tcp");
    let mut banner = String::new();
    std::io::BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .rsplit("listening on ")
        .next()
        .expect("address in banner")
        .to_string();

    let mut c0 = Client::connect(&addr);
    c0.send("load id=L dataset=d gen=aids count=80 seed=7\n");
    let responses = c0.wait(&["L"]);
    assert_eq!(response(&responses, "L").0.status, Status::Ok);
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3";
    c0.send(&format!("{mine} id=solo\n"));
    let responses = c0.wait(&["solo"]);
    let (h, solo_body) = response(&responses, "solo");
    assert_eq!(h.status, Status::Ok);
    let solo_body = solo_body.clone();

    // Idle connections cost no thread: the event loop only polls them.
    // `ping` on a fresh connection settles every earlier accept.
    let threads_before = os_threads(child.id());
    let idle: Vec<Client> = (0..64).map(|_| Client::connect(&addr)).collect();
    let mut settle = Client::connect(&addr);
    settle.send("ping id=settle\n");
    let settled = settle.wait(&["settle"]);
    assert_eq!(response(&settled, "settle").0.status, Status::Ok);
    assert_eq!(
        os_threads(child.id()),
        threads_before,
        "idle connections must not spawn threads"
    );
    drop((idle, settle));

    // 8 concurrent clients, each on its own connection, each sending a
    // ping, an identical mine, and a freq in one burst.
    std::thread::scope(|s| {
        for i in 0..8 {
            let addr = &addr;
            let solo_body = &solo_body;
            s.spawn(move || {
                let mut c = Client::connect(addr);
                c.send(&format!(
                    "ping id=p{i}\n{mine} id=w{i}\nfreq id=f{i} dataset=d min_support=20 max_edges=4\n"
                ));
                let (p, w, f) = (format!("p{i}"), format!("w{i}"), format!("f{i}"));
                let responses = c.wait(&[&p, &w, &f]);
                for id in [&p, &w, &f] {
                    assert_eq!(
                        responses.iter().filter(|(h, _)| &h.id == id).count(),
                        1,
                        "exactly one response for {id}"
                    );
                }
                let (h, body) = response(&responses, &w);
                assert_eq!(h.status, Status::Ok, "{h:?}");
                assert_eq!(
                    body, solo_body,
                    "concurrent mine on client {i} differs from solo run"
                );
                assert_eq!(response(&responses, &f).0.status, Status::Ok);
            });
        }
    });

    // A sweep and a ping submitted back-to-back on one connection: the
    // pong must arrive first — sweeps execute on workers, control
    // requests answer inline from the transport loop.
    c0.send("sweep id=s dataset=d supports=40,30,20,10 max_edges=5\nping id=pz\n");
    let responses = c0.wait(&["s", "pz"]);
    let pos = |id: &str| responses.iter().position(|(h, _)| h.id == id).expect(id);
    assert!(pos("pz") < pos("s"), "ping starved behind a sweep");
    assert_eq!(response(&responses, "s").0.status, Status::Ok);

    c0.send("shutdown id=bye\n");
    let responses = c0.wait(&["bye"]);
    assert_eq!(response(&responses, "bye").0.status, Status::Ok);
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve must exit 0 after shutdown");
}

#[test]
fn serve_answers_control_requests_and_reports_errors() {
    let responses = serve_script(
        &["--workers", "2", "--queue", "4"],
        "ping id=p\n\
         mine id=nope dataset=missing\n\
         this is not a request\n\
         stats id=S\n\
         shutdown id=bye\n",
    );
    let (p, _) = response(&responses, "p");
    assert_eq!(p.status, Status::Ok);
    let (nope, _) = response(&responses, "nope");
    assert_eq!(nope.status, Status::Error);
    assert!(nope
        .field("error")
        .expect("error field")
        .contains("unknown dataset"));
    assert!(
        responses
            .iter()
            .any(|(h, _)| h.status == Status::Error && h.id == "-"),
        "malformed line must produce a placeholder-id error response"
    );
    let (s, _) = response(&responses, "S");
    assert_eq!(s.field("datasets"), Some("0"));
    let (bye, _) = response(&responses, "bye");
    assert_eq!(bye.status, Status::Ok);
}

/// Spawn `graphsig serve --tcp 127.0.0.1:0 <extra>` and return the child
/// plus the address it reported on stderr.
fn spawn_tcp(extra_args: &[&str]) -> (std::process::Child, String) {
    let mut child = graphsig()
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graphsig serve --tcp");
    let mut banner = String::new();
    std::io::BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .rsplit("listening on ")
        .next()
        .expect("address in banner")
        .to_string();
    (child, addr)
}

/// Read from `stream` until EOF or `deadline`; returns the bytes and
/// whether EOF was observed.
fn drain(stream: &mut std::net::TcpStream, deadline: std::time::Instant) -> (Vec<u8>, bool) {
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(100)))
        .expect("read timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while std::time::Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => return (buf, true),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return (buf, true),
        }
    }
    (buf, false)
}

#[test]
fn tcp_auth_token_gates_every_op_until_authenticated() {
    let (mut child, addr) = spawn_tcp(&["--auth-token", "s3cret", "--workers", "2"]);

    // Unauthenticated requests are rejected structured, connection open.
    let mut c = Client::connect(&addr);
    c.send("ping id=p1\nauth id=bad token=wrong\nauth id=good token=s3cret\nping id=p2\n");
    let responses = c.wait(&["p1", "bad", "good", "p2"]);
    let (p1, _) = response(&responses, "p1");
    assert_eq!(p1.status, Status::Error);
    assert_eq!(p1.field("code"), Some("unauthorized"));
    let (bad, _) = response(&responses, "bad");
    assert_eq!(bad.status, Status::Error);
    let (good, _) = response(&responses, "good");
    assert_eq!(good.status, Status::Ok, "{good:?}");
    let (p2, _) = response(&responses, "p2");
    assert_eq!(p2.status, Status::Ok, "authenticated ping must pass");

    // A second connection starts unauthenticated again.
    let mut c2 = Client::connect(&addr);
    c2.send("stats id=s\n");
    let responses = c2.wait(&["s"]);
    assert_eq!(response(&responses, "s").0.status, Status::Error);

    c.send("shutdown id=bye\n");
    c.wait(&["bye"]);
    assert!(child.wait().expect("child exits").success());
}

#[test]
fn stdio_transport_is_exempt_from_auth() {
    // Local stdin/stdout is trusted: no auth handshake required even
    // with --auth-token configured.
    let responses = serve_script(
        &["--auth-token", "s3cret", "--workers", "2"],
        "ping id=p\nshutdown id=bye\n",
    );
    assert_eq!(response(&responses, "p").0.status, Status::Ok);
}

#[test]
fn tcp_idle_timeout_reaps_silent_connections_not_active_requests() {
    let (mut child, addr) = spawn_tcp(&[
        "--workers",
        "2",
        "--idle-timeout-ms",
        "300",
        "--handshake-timeout-ms",
        "300",
    ]);

    // Never sends a byte: the handshake deadline reaps it.
    let mut dead = std::net::TcpStream::connect(&addr).expect("connect");
    // Sends one ping then goes silent: the idle deadline reaps it.
    let mut idle = std::net::TcpStream::connect(&addr).expect("connect");
    idle.write_all(b"ping id=i\n").expect("write");

    // Keeps a request in flight across the idle window: never dropped.
    let mut active = Client::connect(&addr);
    active.send("load id=L dataset=d gen=aids count=150 seed=5\n");
    let responses = active.wait(&["L"]);
    assert_eq!(response(&responses, "L").0.status, Status::Ok);
    active.send("mine id=M dataset=d min_freq=0.04 max_pvalue=0.05 radius=3\n");
    let responses = active.wait(&["M"]);
    assert_eq!(
        response(&responses, "M").0.status,
        Status::Ok,
        "in-flight work must defer the idle reaper"
    );

    let reap_deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let (_, eof) = drain(&mut dead, reap_deadline);
    assert!(
        eof,
        "silent connection must be reaped by the handshake deadline"
    );
    let (buf, eof) = drain(&mut idle, reap_deadline);
    assert!(eof, "idle connection must be reaped by the idle deadline");
    assert!(
        String::from_utf8_lossy(&buf).contains("id=i op=ping status=ok"),
        "idle client's one request was answered before the reap"
    );

    active.send("shutdown id=bye\n");
    active.wait(&["bye"]);
    assert!(child.wait().expect("child exits").success());
}

#[test]
fn client_dropped_at_write_buffer_cap_never_sees_a_lying_frame() {
    // A client that stops reading while responses stream at it is
    // disconnected once its buffered output hits --max-write-buf. The
    // byte prefix it did receive must split into complete frames plus a
    // visibly truncated tail — never a frame that parses as complete
    // with payload bytes missing.
    // --queue must admit the whole burst: busy rejections are tiny and
    // would keep the response volume under what kernel buffers absorb.
    let (mut child, addr) = spawn_tcp(&[
        "--workers",
        "2",
        "--queue",
        "1024",
        "--max-write-buf",
        "4096",
    ]);

    let mut setup = Client::connect(&addr);
    setup.send("load id=L dataset=d gen=aids count=200 seed=7\n");
    let responses = setup.wait(&["L"]);
    assert_eq!(response(&responses, "L").0.status, Status::Ok);

    // 400 coalesced mines at ~16 KiB per response: ~6 MiB of output,
    // comfortably past what loopback kernel buffers can absorb for a
    // reader that never reads, so the server's write side must block and
    // the 4 KiB userspace cap engages.
    let mut slow = std::net::TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    for i in 0..400 {
        burst.push_str(&format!(
            "mine id=s{i} dataset=d min_freq=0.02 max_pvalue=0.1 radius=4\n"
        ));
    }
    slow.write_all(burst.as_bytes()).expect("send burst");
    // Do not read until the server has mined and shed the connection;
    // then collect whatever prefix was delivered.
    std::thread::sleep(std::time::Duration::from_secs(5));
    let (buf, eof) = drain(
        &mut slow,
        std::time::Instant::now() + std::time::Duration::from_secs(60),
    );
    assert!(eof, "slow client must be dropped by backpressure");
    let (complete, truncated_tail) =
        graphsig_server::chaos::parse_prefix(&buf).expect("no lying complete frame in prefix");
    // The drop happens mid-stream: we observed *some* bytes and not all
    // 400 responses.
    assert!(
        complete < 400,
        "cap did not engage: all {complete} responses delivered (tail {truncated_tail})"
    );

    setup.send("shutdown id=bye\n");
    setup.wait(&["bye"]);
    assert!(child.wait().expect("child exits").success());
}

#[test]
fn request_log_reports_each_request_with_its_role_and_timings() {
    // `--log` writes one stderr line per answered work request (control
    // ops are not logged). Each rider logs its own queue wait and the
    // execute time of the run it shared, so a coalesced rider's exec_us
    // equals its leader's.
    let mut child = graphsig()
        .args(["serve", "--log", "--workers", "4", "--allow-inject"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graphsig serve --log");
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=2000";
    let script = format!(
        "load id=L dataset=d gen=aids count=40 seed=2\n\
         {mine} id=m1\n\
         {mine} id=m2\n\
         freq id=f dataset=d min_support=10 max_edges=3\n\
         sweep id=s dataset=d supports=20,10 max_edges=3\n\
         stats id=S dataset=d\n\
         ping id=p\n"
    );
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("write request script");
    let output = child.wait_with_output().expect("child exits");
    assert!(output.status.success(), "serve must exit 0 on clean EOF");
    let responses = parse_response_stream(&output.stdout).expect("well-framed response stream");
    assert_eq!(responses.len(), 7, "one response per request");

    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("[graphsig] op="))
        .collect();
    assert_eq!(lines.len(), 6, "one log line per work request:\n{stderr}");
    let field = |line: &str, key: &str| -> String {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key}= in {line}"))
            .to_string()
    };
    let line = |id: &str| -> &str {
        let found: Vec<&&str> = lines.iter().filter(|l| field(l, "id") == id).collect();
        assert_eq!(found.len(), 1, "one log line for {id}:\n{stderr}");
        found[0]
    };
    for (id, role) in [("L", "solo"), ("f", "solo"), ("s", "solo"), ("S", "solo")] {
        assert_eq!(field(line(id), "role"), role, "{}", line(id));
    }
    let (m1, m2) = (line("m1"), line("m2"));
    let mut roles = [field(m1, "role"), field(m2, "role")];
    roles.sort();
    assert_eq!(
        roles,
        ["lead", "rider"],
        "identical mines coalesce:\n{stderr}"
    );
    assert_eq!(
        field(m1, "exec_us"),
        field(m2, "exec_us"),
        "a rider logs its leader's execute time:\n{stderr}"
    );
    let exec_us: u64 = field(m1, "exec_us").parse().expect("numeric exec_us");
    assert!(exec_us >= 2_000_000, "the shared run slept 2 s: {m1}");
    for l in &lines {
        field(l, "queue_wait_us")
            .parse::<u64>()
            .expect("numeric queue_wait_us");
    }
}
