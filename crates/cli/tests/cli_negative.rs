//! Negative-path tests of the `graphsig` binary: every class of bad
//! input must exit nonzero with a diagnostic that names the flag or the
//! offending line — never a panic, never a silent success.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_graphsig"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("graphsig-neg-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp input");
    path
}

#[test]
fn mine_missing_input_file() {
    let (_, err, ok) = run(&["mine", "/nonexistent/graphsig/db.txt"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
    assert!(err.contains("/nonexistent/graphsig/db.txt"), "{err}");
}

#[test]
fn mine_malformed_flag_values_name_the_flag() {
    for (flag, bad) in [
        ("--radius", "banana"),
        ("--min-freq", "not-a-number"),
        ("--max-pvalue", ""),
        ("--threads", "-2"),
        ("--timeout-ms", "soon"),
        ("--max-steps", "1.5"),
    ] {
        let (_, err, ok) = run(&["mine", "whatever.txt", flag, bad]);
        assert!(!ok, "{flag}={bad} must fail");
        assert!(err.contains(flag), "diagnostic must name {flag}: {err}");
    }
}

#[test]
fn mine_dangling_flag_and_unknown_flag() {
    let (_, err, ok) = run(&["mine", "whatever.txt", "--radius"]);
    assert!(!ok);
    assert!(err.contains("--radius needs a value"), "{err}");
    let (_, err, ok) = run(&["mine", "whatever.txt", "--frobnicate", "3"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    // There is one isomorphism engine; its old selector is just unknown.
    let (_, err, ok) = run(&["mine", "whatever.txt", "--matcher", "fast"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --matcher"), "{err}");
}

#[test]
fn truncated_database_reports_line_number() {
    // An `e` line referencing a vertex the truncated file never declared.
    let path = temp_file(
        "trunc.txt",
        "t # 0\nv 0 C\nv 1 C\ne 0 1 s\nt # 1\nv 0 C\ne 0 3 s\n",
    );
    let (_, err, ok) = run(&["mine", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(err.contains("line 7"), "must name the bad line: {err}");
}

#[test]
fn garbage_database_reports_line_number() {
    let path = temp_file("garbage.txt", "t # 0\nv 0 C\nnot a record\n");
    let (_, err, ok) = run(&["stats", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(err.contains("line 3"), "must name the bad line: {err}");
}

#[test]
fn mine_rejects_multiple_inputs_and_bad_backend() {
    let (_, err, ok) = run(&["mine", "a.txt", "b.txt"]);
    assert!(!ok);
    assert!(err.contains("exactly one input file"), "{err}");
    // FSG is GraphSig's only FSM engine; its old selector is just unknown.
    let (_, err, ok) = run(&["mine", "a.txt", "--backend", "gspan"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --backend"), "{err}");
}

#[test]
fn out_of_range_settings_name_the_field() {
    // A readable input, so only the range check stands between the
    // settings and the miner.
    let path = temp_file("range.txt", "t # 0\nv 0 C\nv 1 O\ne 0 1 s\n");
    let file = path.to_str().expect("utf-8 path");
    let mut cases: Vec<(Vec<&str>, &str)> = [
        ("--min-freq", "0", "min_freq"),
        ("--min-freq", "NaN", "min_freq"),
        ("--max-pvalue", "2", "max_pvalue"),
        ("--fsm-freq", "1.5", "fsm_freq"),
    ]
    .into_iter()
    .map(|(flag, bad, field)| (vec!["mine", file, flag, bad], field))
    .collect();
    cases.push((
        vec!["classify", file, file, file, "--min-freq", "0"],
        "min_freq",
    ));
    let runs: Vec<_> = cases.iter().map(|(args, _)| run(args)).collect();
    std::fs::remove_file(&path).ok();
    for ((args, field), (_, err, ok)) in cases.iter().zip(runs) {
        assert!(!ok, "{args:?} must fail");
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        assert!(err.contains(field), "{args:?} must name {field}: {err}");
    }
}

#[test]
fn serve_flag_errors_are_clean() {
    let (_, err, ok) = run(&["serve", "--workers", "lots"]);
    assert!(!ok);
    assert!(err.contains("--workers"), "{err}");
    let (_, err, ok) = run(&["serve", "stray-positional"]);
    assert!(!ok);
    assert!(err.contains("positional"), "{err}");
    let (_, err, ok) = run(&["serve", "--tcp", "999.999.999.999:1"]);
    assert!(!ok);
    assert!(err.contains("cannot bind"), "{err}");
}

#[test]
fn verify_on_corrupted_store_exits_nonzero_naming_the_shard() {
    // Pack a two-shard store, flip one byte in the second shard, and
    // check the process-level contract: nonzero exit, culprit named.
    let input = temp_file(
        "pack-input.txt",
        "t # 0\nv 0 C\nv 1 N\ne 0 1 s\nt # 1\nv 0 O\n",
    );
    let dir = std::env::temp_dir().join(format!("graphsig-neg-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().expect("utf-8 path").to_string();
    let (_, err, ok) = run(&[
        "pack",
        input.to_str().expect("utf-8 path"),
        &dir_s,
        "--shard-size",
        "1",
    ]);
    std::fs::remove_file(&input).ok();
    assert!(ok, "pack of a clean input must succeed: {err}");

    let shard = dir.join("shard-00001.gss");
    let mut bytes = std::fs::read(&shard).expect("read packed shard");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&shard, &bytes).expect("corrupt packed shard");

    let (_, err, ok) = run(&["verify", &dir_s]);
    assert!(!ok, "verify must fail on a corrupted store");
    assert!(err.contains("shard-00001.gss"), "culprit unnamed: {err}");
    assert!(
        !err.contains("panicked"),
        "corruption must never panic: {err}"
    );

    // The lenient open quarantines the damaged shard and still exits 0,
    // reporting degraded service over the survivor.
    let (out, err, ok) = run(&["verify", &dir_s, "--lenient"]);
    assert!(ok, "lenient verify serves survivors: {err}");
    assert!(out.contains("shards serving:  1/2"), "{out}");
    assert!(err.contains("DEGRADED"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_on_missing_store_is_a_clean_error() {
    let (_, err, ok) = run(&["verify", "/nonexistent/graphsig/store"]);
    assert!(!ok);
    assert!(err.contains("manifest"), "{err}");
    let (_, err, ok) = run(&["pack", "a.txt", "d", "--shard-size", "zero"]);
    assert!(!ok);
    assert!(err.contains("--shard-size"), "{err}");
}

#[test]
fn verify_on_empty_dir_names_the_missing_manifest() {
    // A directory with no MANIFEST.gsm is "not a store", and the
    // diagnostic must say so in one line — distinct from the
    // nonexistent-directory case and from a damaged-store report.
    let dir = std::env::temp_dir().join(format!("graphsig-neg-emptydir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let dir_s = dir.to_string_lossy().into_owned();
    let (_, err, ok) = run(&["verify", &dir_s]);
    assert!(!ok, "verify must fail on a storeless directory");
    assert!(err.contains("not a graphsig store"), "{err}");
    assert!(err.contains("no MANIFEST.gsm"), "{err}");
    assert!(!err.contains("does not exist"), "{err}");
    // Lenient mode takes the same gate.
    let (_, err, ok) = run(&["verify", &dir_s, "--lenient"]);
    assert!(!ok, "lenient verify must also fail with no manifest");
    assert!(err.contains("not a graphsig store"), "{err}");
    // The nonexistent case stays distinct.
    std::fs::remove_dir_all(&dir).ok();
    let (_, err, ok) = run(&["verify", &dir_s]);
    assert!(!ok);
    assert!(err.contains("does not exist"), "{err}");
}

#[test]
fn classify_requires_three_files() {
    let (_, err, ok) = run(&["classify", "only.txt"]);
    assert!(!ok);
    assert!(err.contains("classify needs"), "{err}");
}
