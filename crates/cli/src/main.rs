//! `graphsig` — command-line significant-subgraph mining.
//!
//! ```text
//! graphsig mine <transactions.txt> [--max-pvalue 0.1] [--min-freq 0.001]
//!               [--radius 8] [--fsm-freq 0.8] [--threads N] [--top N]
//!               [--timeout-ms MS] [--max-steps N]
//! graphsig stats <transactions.txt>
//! graphsig generate aids  <n> [--seed S]        # emit a synthetic dataset (n >= 20)
//! graphsig generate screen <NAME> <scale>       # one of the Table V screens
//! graphsig pack <file> <dir> [--shard-size N] [--append]
//! graphsig verify <dir> [--lenient]
//! ```
//!
//! Input files use the classic gSpan transaction format
//! (`t # id` / `v id label` / `e u v label`). `mine` prints each
//! significant subgraph as a transaction block preceded by a comment line
//! with its statistics, so the output is itself parseable.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use graphsig_classify::{GraphSigClassifier, KnnConfig};
use graphsig_core::{Budget, GraphSig, GraphSigConfig};
use graphsig_graph::{parse_transactions, parse_transactions_into, write_transactions, GraphDb};
use graphsig_server::{Server, ServerConfig, TransportConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("mine") => cmd_mine(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("graphsig: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "graphsig — mine statistically significant subgraphs (Ranu & Singh, ICDE 2009)\n\
         \n\
         USAGE:\n\
         \x20 graphsig mine <file> [--max-pvalue P] [--min-freq F] [--radius R]\n\
         \x20                      [--fsm-freq F] [--threads N] [--top N]\n\
         \x20                      [--timeout-ms MS] [--max-steps N]\n\
         \x20                      (--threads 0 = auto: one worker per core; the default)\n\
         \x20                      (--timeout-ms / --max-steps bound the run; a truncated\n\
         \x20                       run exits 0 and reports its completion on stderr;\n\
         \x20                       --max-steps bounds FVMine and FSM, not the RWR pass)\n\
         \x20 graphsig stats <file>\n\
         \x20 graphsig classify <pos.txt> <neg.txt> <query.txt> [--k K] [--min-freq F]\n\
         \x20                      [--timeout-ms MS] [--max-steps N]\n\
         \x20 graphsig generate aids <n> [--seed S]   (n >= 20)\n\
         \x20 graphsig generate screen <NAME> <scale> (names: MCF-7 MOLT-4 NCI-H23 OVCAR-8\n\
         \x20                      P388 PC-3 SF-295 SN12C SW-620 UACC-257 Yeast)\n\
         \x20 graphsig serve [--tcp ADDR] [--workers N] [--queue N] [--default-timeout-ms MS]\n\
         \x20                      [--max-timeout-ms MS] [--max-steps-ceiling N]\n\
         \x20                      [--drain-ms MS] [--max-conns N] [--max-write-buf BYTES]\n\
         \x20                      [--auth-token TOKEN] [--max-resident-bytes BYTES]\n\
         \x20                      [--idle-timeout-ms MS] [--handshake-timeout-ms MS]\n\
         \x20                      [--log] [--allow-inject]\n\
         \x20                      (keeps datasets resident; line protocol on stdio, or TCP\n\
         \x20                       with --tcp — one event loop serves every connection, so\n\
         \x20                       identical concurrent mines coalesce into one run;\n\
         \x20                       --max-conns caps accepted connections, --max-write-buf\n\
         \x20                       bounds per-client response buffering before disconnect;\n\
         \x20                       --auth-token requires `auth token=...` first on TCP;\n\
         \x20                       --max-resident-bytes rejects loads past the memory\n\
         \x20                       ceiling with code=resource_exhausted after evicting\n\
         \x20                       prepared passes; --idle/--handshake-timeout-ms reap silent\n\
         \x20                       connections while in-flight requests proceed; --log\n\
         \x20                       emits one line per completed request on stderr)\n\
         \x20 graphsig pack <file> <dir> [--shard-size N] [--append]\n\
         \x20                      (write a checksummed sharded binary store; --append adds\n\
         \x20                       the file's graphs to an existing store atomically)\n\
         \x20 graphsig verify <dir> [--lenient]\n\
         \x20                      (read-only integrity sweep; exits nonzero naming every\n\
         \x20                       damaged shard; --lenient instead quarantines damaged\n\
         \x20                       shards and reports what still serves)\n\
         \n\
         Files use the gSpan transaction format: t / v / e lines."
    );
}

/// Pull `--flag value` pairs out of an argument list; returns remaining
/// positional arguments.
fn take_flags(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut i = 0;
    'outer: while i < args.len() {
        for (name, slot) in flags.iter_mut() {
            if args[i] == *name {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{name} needs a value"))?;
                **slot = Some(v.clone());
                i += 2;
                continue 'outer;
            }
        }
        if args[i].starts_with("--") {
            return Err(format!("unknown flag {}", args[i]));
        }
        positional.push(args[i].clone());
        i += 1;
    }
    Ok(positional)
}

fn parse_or<T: std::str::FromStr>(v: &Option<String>, default: T, what: &str) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad value for {what}: {s}")),
    }
}

fn parse_opt<T: std::str::FromStr>(v: &Option<String>, what: &str) -> Result<Option<T>, String> {
    v.as_ref()
        .map(|s| s.parse().map_err(|_| format!("bad value for {what}: {s}")))
        .transpose()
}

/// Assemble the run [`Budget`] from `--timeout-ms` / `--max-steps`, if
/// either was given.
fn parse_budget(
    timeout_ms: &Option<String>,
    max_steps: &Option<String>,
) -> Result<Option<Budget>, String> {
    let timeout: Option<u64> = parse_opt(timeout_ms, "--timeout-ms")?;
    let steps: Option<u64> = parse_opt(max_steps, "--max-steps")?;
    if timeout.is_none() && steps.is_none() {
        return Ok(None);
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = timeout {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = steps {
        budget = budget.with_max_steps(n);
    }
    Ok(Some(budget))
}

fn load_db(path: &str) -> Result<GraphDb, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_transactions(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let (mut max_pvalue, mut min_freq, mut radius, mut fsm_freq) = (None, None, None, None);
    let (mut threads, mut top) = (None, None);
    let (mut timeout_ms, mut max_steps) = (None, None);
    let positional = take_flags(
        args,
        &mut [
            ("--max-pvalue", &mut max_pvalue),
            ("--min-freq", &mut min_freq),
            ("--radius", &mut radius),
            ("--fsm-freq", &mut fsm_freq),
            ("--threads", &mut threads),
            ("--top", &mut top),
            ("--timeout-ms", &mut timeout_ms),
            ("--max-steps", &mut max_steps),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err("mine needs exactly one input file".into());
    };
    // Validate every flag before touching the filesystem, so a bad flag
    // is reported as such even when the input file is also bad.
    let defaults = GraphSigConfig::default();
    let cfg = GraphSigConfig {
        max_pvalue: parse_or(&max_pvalue, defaults.max_pvalue, "--max-pvalue")?,
        min_freq: parse_or(&min_freq, defaults.min_freq, "--min-freq")?,
        radius: parse_or(&radius, defaults.radius, "--radius")?,
        fsm_freq: parse_or(&fsm_freq, defaults.fsm_freq, "--fsm-freq")?,
        // 0 = auto (one worker per available core), n = exactly n workers.
        threads: parse_or(&threads, defaults.threads, "--threads")?,
        budget: parse_budget(&timeout_ms, &max_steps)?,
        ..defaults
    };
    cfg.validate()?;
    let top: usize = parse_or(&top, usize::MAX, "--top")?;
    let db = load_db(path)?;

    let outcome = GraphSig::new(cfg).mine_outcome(&db);
    // Truncation is graceful, not an error: the partial answer below is
    // well-formed, the completion line says what cut the run short, and
    // the process still exits 0. Only hard failures exit nonzero.
    eprintln!("# completion: {}", outcome.completion);
    let result = outcome.result;
    eprintln!(
        "# {} graphs, {} vectors, {} significant vectors, {} region sets \
         over {} regions ({} pruned, {} truncated), {} significant subgraphs",
        db.len(),
        result.stats.vectors,
        result.stats.significant_vectors,
        result.stats.region_sets,
        result.stats.regions,
        result.stats.pruned_sets,
        result.stats.truncated_sets,
        result.subgraphs.len()
    );
    let (r, f, m) = result.profile.percentages();
    eprintln!("# profile: RWR {r:.0}% | feature analysis {f:.0}% | FSM {m:.0}%");

    // Shared with `graphsig serve`: server mine payloads are rendered by
    // the same function, so they stay byte-identical to this output.
    print!("{}", graphsig_core::render_subgraphs(&db, &result, top));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // Boolean flags first; take_flags only understands `--flag value`.
    let (mut allow_inject, mut log) = (false, false);
    let rest: Vec<String> = args
        .iter()
        .filter(|a| match a.as_str() {
            "--allow-inject" => {
                allow_inject = true;
                false
            }
            "--log" => {
                log = true;
                false
            }
            _ => true,
        })
        .cloned()
        .collect();
    let (mut tcp, mut workers, mut queue) = (None, None, None);
    let (mut default_timeout_ms, mut max_timeout_ms, mut max_steps_ceiling) = (None, None, None);
    let (mut drain_ms, mut max_conns, mut max_write_buf) = (None, None, None);
    let (mut auth_token, mut max_resident_bytes) = (None, None);
    let (mut idle_timeout_ms, mut handshake_timeout_ms) = (None, None);
    let positional = take_flags(
        &rest,
        &mut [
            ("--tcp", &mut tcp),
            ("--workers", &mut workers),
            ("--queue", &mut queue),
            ("--default-timeout-ms", &mut default_timeout_ms),
            ("--max-timeout-ms", &mut max_timeout_ms),
            ("--max-steps-ceiling", &mut max_steps_ceiling),
            ("--drain-ms", &mut drain_ms),
            ("--max-conns", &mut max_conns),
            ("--max-write-buf", &mut max_write_buf),
            ("--auth-token", &mut auth_token),
            ("--max-resident-bytes", &mut max_resident_bytes),
            ("--idle-timeout-ms", &mut idle_timeout_ms),
            ("--handshake-timeout-ms", &mut handshake_timeout_ms),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!(
            "serve takes no positional arguments: {positional:?}"
        ));
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        workers: parse_or(&workers, defaults.workers, "--workers")?,
        queue_capacity: parse_or(&queue, defaults.queue_capacity, "--queue")?,
        default_timeout_ms: parse_opt(&default_timeout_ms, "--default-timeout-ms")?,
        max_timeout_ms: parse_opt(&max_timeout_ms, "--max-timeout-ms")?,
        max_steps_ceiling: parse_opt(&max_steps_ceiling, "--max-steps-ceiling")?,
        drain_ms: parse_or(&drain_ms, defaults.drain_ms, "--drain-ms")?,
        allow_inject,
        max_resident_bytes: parse_opt(&max_resident_bytes, "--max-resident-bytes")?,
        auth_token,
        log,
        ..defaults
    };
    let transport_defaults = TransportConfig::default();
    let transport = TransportConfig {
        max_connections: parse_or(
            &max_conns,
            transport_defaults.max_connections,
            "--max-conns",
        )?,
        max_write_buf: parse_or(
            &max_write_buf,
            transport_defaults.max_write_buf,
            "--max-write-buf",
        )?,
        idle_timeout_ms: parse_opt(&idle_timeout_ms, "--idle-timeout-ms")?,
        handshake_timeout_ms: parse_opt(&handshake_timeout_ms, "--handshake-timeout-ms")?,
        ..transport_defaults
    };
    match tcp {
        Some(addr) => serve_tcp(&addr, cfg, transport),
        None => {
            // stdio transport: requests on stdin, responses on stdout,
            // diagnostics on stderr. EOF without a `shutdown` request
            // still drains in-flight work before exiting.
            let server = Server::new(cfg);
            let out = graphsig_server::shared_writer(std::io::stdout());
            server.serve_connection(std::io::stdin().lock(), Arc::clone(&out));
            if !server.is_terminated() {
                server.shutdown_now();
            }
            server.join();
            Ok(())
        }
    }
}

/// TCP transport: one event-driven readiness loop multiplexes every
/// connection against the shared server (no thread per connection — idle
/// clients cost a file descriptor, not a stack). See
/// `graphsig_server::transport` for the state machine and the
/// per-connection backpressure policy.
fn serve_tcp(addr: &str, cfg: ServerConfig, transport: TransportConfig) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    eprintln!("graphsig serve: listening on {local}");
    let server = Server::new(cfg);
    graphsig_server::transport::serve(listener, &server, transport)
        .map_err(|e| format!("transport on {local} failed: {e}"))?;
    server.join();
    Ok(())
}

/// `graphsig pack <file> <dir>` — ingest a transaction file into the
/// durable sharded store. Crash-safe by construction: shards land via
/// write-to-temp + fsync + rename, and the manifest commits last, so an
/// interrupted pack leaves the previous store version intact.
fn cmd_pack(args: &[String]) -> Result<(), String> {
    let mut append = false;
    let rest: Vec<String> = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--append" {
                append = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    let mut shard_size = None;
    let positional = take_flags(&rest, &mut [("--shard-size", &mut shard_size)])?;
    let [input, dir] = positional.as_slice() else {
        return Err("pack needs <input.txt> <store-dir>".into());
    };
    let shard_size: usize = parse_or(
        &shard_size,
        graphsig_store::DEFAULT_SHARD_SIZE,
        "--shard-size",
    )?;
    if shard_size == 0 {
        return Err("--shard-size must be at least 1".into());
    }
    let dir = std::path::Path::new(dir);
    let started = std::time::Instant::now();
    let summary = if append {
        // Append extends the existing store: its label table seeds the
        // parse so old graphs and label ids are untouched, and only the
        // new tail is written out as fresh shards.
        let opened = graphsig_store::open_strict(dir).map_err(|e| e.to_string())?;
        let mut db = opened.db;
        let from = db.len();
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
        parse_transactions_into(&mut db, &text).map_err(|e| format!("{input}: {e}"))?;
        graphsig_store::append(dir, &db, from, shard_size).map_err(|e| e.to_string())?
    } else {
        let db = load_db(input)?;
        graphsig_store::pack(dir, &db, shard_size).map_err(|e| e.to_string())?
    };
    eprintln!(
        "packed {} new shard(s), {} bytes written; store now holds {} graphs at version {} ({} ms)",
        summary.shards_written,
        summary.bytes_written,
        summary.total_graphs,
        summary.store_version,
        started.elapsed().as_millis()
    );
    Ok(())
}

/// `graphsig verify <dir>` — read-only integrity sweep over a packed
/// store. Exits nonzero naming every damaged shard. With `--lenient` it
/// instead opens the store the way the server would: damaged shards are
/// quarantined (moved aside) and the report says what still serves.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let mut lenient = false;
    let positional: Vec<&String> = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--lenient" {
                lenient = true;
                false
            } else {
                true
            }
        })
        .collect();
    let [dir] = positional.as_slice() else {
        return Err("verify needs exactly one store directory".into());
    };
    let dir = std::path::Path::new(dir.as_str());
    // Distinguish "no store here" from "store here, but damaged": a
    // missing or storeless directory gets one clear line instead of a
    // shard-by-shard corruption report for a store that never existed.
    if !dir.exists() {
        return Err(format!(
            "not a graphsig store: {} does not exist (no MANIFEST.gsm manifest)",
            dir.display()
        ));
    }
    if !dir.join(graphsig_store::MANIFEST_NAME).is_file() {
        return Err(format!(
            "not a graphsig store: no MANIFEST.gsm manifest in {}",
            dir.display()
        ));
    }
    let started = std::time::Instant::now();
    if lenient {
        let opened = graphsig_store::open_lenient(dir).map_err(|e| e.to_string())?;
        let total = opened.manifest.shards.len();
        let survivors = opened.shards.len();
        println!("store version:   {}", opened.manifest.store_version);
        println!("shards serving:  {survivors}/{total}");
        println!("graphs serving:  {}", opened.db.len());
        println!("disk bytes:      {}", opened.disk_bytes());
        for q in &opened.report.quarantined {
            eprintln!("quarantined {}: {}", q.name, q.error);
        }
        for orphan in &opened.report.orphans {
            eprintln!("orphan shard (unreferenced): {orphan}");
        }
        eprintln!("verified (lenient) in {} ms", started.elapsed().as_millis());
        if opened.degraded() {
            eprintln!("store is DEGRADED: serving {survivors}/{total} shards");
        }
        return Ok(());
    }
    let report = graphsig_store::verify(dir).map_err(|e| e.to_string())?;
    println!("store version:   {}", report.store_version);
    println!("shards:          {}", report.shards.len());
    println!(
        "graphs promised: {}",
        report
            .shards
            .iter()
            .map(|s| s.graph_count as u64)
            .sum::<u64>()
    );
    println!("disk bytes:      {}", report.disk_bytes);
    for orphan in &report.orphans {
        eprintln!("orphan shard (unreferenced): {orphan}");
    }
    for temp in &report.temps {
        eprintln!("torn temp file: {temp}");
    }
    eprintln!("verified in {} ms", started.elapsed().as_millis());
    let failures: Vec<String> = report
        .failures()
        .map(|(name, e)| format!("{name}: {e}"))
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        // One line per damaged shard, then a nonzero exit that names the
        // first offender so scripts get the culprit even from the summary.
        for f in &failures {
            eprintln!("FAILED {f}");
        }
        Err(format!(
            "verify failed: {} of {} shard(s) damaged (first: {})",
            failures.len(),
            report.shards.len(),
            report
                .shards
                .iter()
                .find(|s| s.error.is_some())
                .map(|s| s.name.as_str())
                .unwrap_or("?")
        ))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("stats needs exactly one input file".into());
    };
    let db = load_db(path)?;
    let s = db.stats();
    println!("graphs:               {}", s.graph_count);
    println!("total nodes:          {}", s.total_nodes);
    println!("total edges:          {}", s.total_edges);
    println!("avg nodes per graph:  {:.2}", s.avg_nodes);
    println!("avg edges per graph:  {:.2}", s.avg_edges);
    println!("distinct node labels: {}", s.distinct_node_labels);
    println!("distinct edge labels: {}", s.distinct_edge_labels);
    let rings: usize = db.graphs().iter().map(graphsig_graph::cycle_rank).sum();
    let max_diameter = db
        .graphs()
        .iter()
        .filter_map(graphsig_graph::diameter)
        .max()
        .unwrap_or(0);
    println!("total rings:          {rings}");
    println!("max graph diameter:   {max_diameter}");
    println!("\natom coverage (Fig. 4 curve):");
    for (rank, (label, count, cum)) in db.atom_coverage_curve().into_iter().enumerate() {
        println!(
            "  {:>2}. {:<4} {:>8}  {:>6.2}%",
            rank + 1,
            db.labels().node_name(label).unwrap_or("?"),
            count,
            cum * 100.0
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (mut seed, mut split) = (None, None);
    let positional = take_flags(args, &mut [("--seed", &mut seed), ("--split", &mut split)])?;
    let seed: u64 = parse_or(&seed, 42, "--seed")?;
    let data = match positional.as_slice() {
        [kind, n] if kind == "aids" => {
            let n: usize = n.parse().map_err(|_| "bad molecule count".to_string())?;
            let min = graphsig_datagen::MIN_DATASET_SIZE;
            if n < min {
                return Err(format!("molecule count must be at least {min}, got {n}"));
            }
            graphsig_datagen::aids_like(n, seed)
        }
        [kind, name, scale] if kind == "screen" => {
            let scale: f64 = scale.parse().map_err(|_| "bad scale".to_string())?;
            graphsig_datagen::cancer_screen(name, scale)
        }
        _ => return Err("generate needs: aids <n> | screen <NAME> <scale>".into()),
    };
    eprintln!("# {} molecules, {} active", data.len(), data.active_count());
    match split {
        // --split PREFIX writes PREFIX.pos.txt / PREFIX.neg.txt for the
        // classify workflow; stdout still carries the full database.
        Some(prefix) => {
            let (pos, neg) = data.to_transactions_split();
            let (pp, np) = (format!("{prefix}.pos.txt"), format!("{prefix}.neg.txt"));
            std::fs::write(&pp, pos).map_err(|e| format!("cannot write {pp}: {e}"))?;
            std::fs::write(&np, neg).map_err(|e| format!("cannot write {np}: {e}"))?;
            eprintln!("# wrote {pp} and {np}");
        }
        None => print!("{}", write_transactions(&data.db)),
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let (mut k, mut min_freq, mut max_pvalue, mut threads) = (None, None, None, None);
    let (mut timeout_ms, mut max_steps) = (None, None);
    let positional = take_flags(
        args,
        &mut [
            ("--k", &mut k),
            ("--min-freq", &mut min_freq),
            ("--max-pvalue", &mut max_pvalue),
            ("--threads", &mut threads),
            ("--timeout-ms", &mut timeout_ms),
            ("--max-steps", &mut max_steps),
        ],
    )?;
    let [pos_path, neg_path, query_path] = positional.as_slice() else {
        return Err("classify needs <positive.txt> <negative.txt> <query.txt>".into());
    };
    let defaults = GraphSigConfig::default();
    let cfg = KnnConfig {
        k: parse_or(&k, 9, "--k")?,
        mining: GraphSigConfig {
            min_freq: parse_or(&min_freq, 0.05, "--min-freq")?,
            max_pvalue: parse_or(&max_pvalue, defaults.max_pvalue, "--max-pvalue")?,
            threads: parse_or(&threads, defaults.threads, "--threads")?,
            budget: parse_budget(&timeout_ms, &max_steps)?,
            ..defaults
        },
        ..Default::default()
    };
    cfg.mining.validate()?;
    let pos = load_db(pos_path)?;
    let neg = load_db(neg_path)?;
    let query = load_db(query_path)?;
    let clf = GraphSigClassifier::train(&pos, &neg, cfg);
    let (np, nn) = clf.model_sizes();
    eprintln!(
        "# trained on {} positive / {} negative graphs; {np}/{nn} significant vectors",
        pos.len(),
        neg.len()
    );
    println!("graph_id\tscore\tclass");
    for (i, g) in query.graphs().iter().enumerate() {
        let score = clf.score(g);
        println!(
            "{i}\t{score:.6}\t{}",
            if score > 0.0 { "positive" } else { "negative" }
        );
    }
    Ok(())
}

// The tests below deliberately avoid `unwrap`/`expect`: the CLI's whole
// contract is that bad input becomes a structured `Err`, so the tests use
// the same error paths they verify (`?` on `Result<(), String>`).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flags_extracts_pairs_and_positionals() -> Result<(), String> {
        let args: Vec<String> = ["a.txt", "--k", "5", "b.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut k = None;
        let pos = take_flags(&args, &mut [("--k", &mut k)])?;
        assert_eq!(pos, vec!["a.txt".to_string(), "b.txt".to_string()]);
        assert_eq!(k.as_deref(), Some("5"));
        Ok(())
    }

    #[test]
    fn take_flags_rejects_unknown_and_dangling() {
        let args: Vec<String> = vec!["--bogus".into()];
        assert!(take_flags(&args, &mut []).is_err());
        let args: Vec<String> = vec!["--k".into()];
        let mut k = None;
        assert!(take_flags(&args, &mut [("--k", &mut k)]).is_err());
    }

    #[test]
    fn parse_or_defaults_and_errors() -> Result<(), String> {
        assert_eq!(parse_or::<usize>(&None, 7, "x")?, 7);
        assert_eq!(parse_or::<usize>(&Some("3".into()), 7, "x")?, 3);
        assert!(parse_or::<usize>(&Some("zzz".into()), 7, "x").is_err());
        Ok(())
    }

    #[test]
    fn parse_budget_builds_from_flags() -> Result<(), String> {
        assert!(parse_budget(&None, &None)?.is_none());
        let b = parse_budget(&Some("250".into()), &None)?
            .ok_or("a timeout flag must build a budget")?;
        assert!(b.deadline().is_some());
        assert_eq!(b.max_steps(), None);
        let b =
            parse_budget(&None, &Some("42".into()))?.ok_or("a step flag must build a budget")?;
        assert_eq!(b.max_steps(), Some(42));
        assert!(b.deadline().is_none());
        assert!(parse_budget(&Some("soon".into()), &None).is_err());
        assert!(parse_budget(&None, &Some("-1".into())).is_err());
        Ok(())
    }

    #[test]
    fn load_db_reports_line_numbered_parse_errors() -> Result<(), String> {
        // A malformed `e` line on line 4 must surface as a structured
        // error naming the file and the 1-based line — never a panic.
        let path = std::env::temp_dir().join("graphsig_cli_bad_input.txt");
        std::fs::write(&path, "t # 0\nv 0 C\nv 1 C\ne 0 5 s\n")
            .map_err(|e| format!("cannot stage temp file: {e}"))?;
        let shown = path.to_str().ok_or("temp path is not UTF-8")?;
        let err = match load_db(shown) {
            Ok(_) => Err("malformed input must not parse".to_string()),
            Err(e) => Ok(e),
        };
        std::fs::remove_file(&path).ok();
        let err = err?;
        assert!(err.contains("line 4"), "missing line number: {err}");
        assert!(
            err.contains("graphsig_cli_bad_input.txt"),
            "missing path: {err}"
        );
        Ok(())
    }

    #[test]
    fn load_db_reports_missing_file() -> Result<(), String> {
        let err = match load_db("/nonexistent/graphsig/input.txt") {
            Ok(_) => return Err("missing file must not load".to_string()),
            Err(e) => e,
        };
        assert!(err.contains("cannot read"), "{err}");
        Ok(())
    }

    /// Fresh per-test store directory under the system temp dir.
    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphsig_cli_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn pack_then_verify_roundtrips() -> Result<(), String> {
        let dir = store_dir("pack_ok");
        let input =
            std::env::temp_dir().join(format!("graphsig_cli_pack_{}.txt", std::process::id()));
        std::fs::write(&input, "t # 0\nv 0 C\nv 1 N\ne 0 1 s\nt # 1\nv 0 O\n")
            .map_err(|e| format!("cannot stage input: {e}"))?;
        let args: Vec<String> = vec![
            input.display().to_string(),
            dir.display().to_string(),
            "--shard-size".into(),
            "1".into(),
        ];
        cmd_pack(&args)?;
        let verify_args: Vec<String> = vec![dir.display().to_string()];
        let clean = cmd_verify(&verify_args);
        let lenient_args: Vec<String> = vec![dir.display().to_string(), "--lenient".into()];
        let lenient = cmd_verify(&lenient_args);
        std::fs::remove_file(&input).ok();
        std::fs::remove_dir_all(&dir).ok();
        clean?;
        lenient
    }

    #[test]
    fn pack_rejects_zero_shard_size_and_bad_arity() {
        let args: Vec<String> = vec![
            "a.txt".into(),
            "d".into(),
            "--shard-size".into(),
            "0".into(),
        ];
        assert!(cmd_pack(&args).is_err());
        let args: Vec<String> = vec!["only-one.txt".into()];
        assert!(cmd_pack(&args).is_err());
    }

    #[test]
    fn verify_names_the_damaged_shard_and_fails() -> Result<(), String> {
        let dir = store_dir("verify_bad");
        let input =
            std::env::temp_dir().join(format!("graphsig_cli_vbad_{}.txt", std::process::id()));
        std::fs::write(&input, "t # 0\nv 0 C\nv 1 N\ne 0 1 s\nt # 1\nv 0 O\n")
            .map_err(|e| format!("cannot stage input: {e}"))?;
        let args: Vec<String> = vec![
            input.display().to_string(),
            dir.display().to_string(),
            "--shard-size".into(),
            "1".into(),
        ];
        let packed = cmd_pack(&args);
        std::fs::remove_file(&input).ok();
        packed?;
        // Flip one payload byte in the second shard; verify must exit
        // nonzero and the error must name that shard, not the clean one.
        let shard = dir.join("shard-00001.gss");
        let mut bytes =
            std::fs::read(&shard).map_err(|e| format!("cannot read staged shard: {e}"))?;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&shard, &bytes).map_err(|e| format!("cannot corrupt shard: {e}"))?;
        let verify_args: Vec<String> = vec![dir.display().to_string()];
        let err = match cmd_verify(&verify_args) {
            Ok(()) => Err("corrupted store must not verify".to_string()),
            Err(e) => Ok(e),
        };
        std::fs::remove_dir_all(&dir).ok();
        let err = err?;
        assert!(err.contains("shard-00001.gss"), "culprit unnamed: {err}");
        assert!(err.contains("1 of 2"), "wrong tally: {err}");
        Ok(())
    }

    #[test]
    fn verify_on_missing_store_is_structured() {
        let args: Vec<String> = vec!["/nonexistent/graphsig/store".into()];
        let err = match cmd_verify(&args) {
            Ok(()) => "".to_string(),
            Err(e) => e,
        };
        assert!(
            err.contains("no manifest") || err.contains("MANIFEST"),
            "{err}"
        );
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let args: Vec<String> = vec!["--workers".into(), "lots".into()];
        assert!(cmd_serve(&args).is_err());
        let args: Vec<String> = vec!["leftover".into()];
        assert!(cmd_serve(&args).is_err());
    }
}
