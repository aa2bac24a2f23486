//! End-to-end tests driving the actual `jsonski` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_jsonski")
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> (String, String, Option<i32>) {
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The child may exit before reading (e.g. on a bad query), closing the
    // pipe: ignore the resulting EPIPE instead of failing the test.
    let _ = child.stdin.as_mut().unwrap().write_all(stdin);
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn stdin_single_query() {
    let (stdout, _, code) = run_with_stdin(&["$.a"], b"{\"a\": 1}\n{\"a\": 2}\n{\"b\": 3}\n");
    assert_eq!(stdout, "1\n2\n");
    assert_eq!(code, Some(0));
}

#[test]
fn file_input_and_count() {
    let dir = std::env::temp_dir().join(format!("jsonski-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.json");
    std::fs::write(&path, b"{\"pd\": [{\"id\": 1}, {\"id\": 2}]}").unwrap();
    let (stdout, _, code) = run_with_stdin(&["-c", "$.pd[*].id", path.to_str().unwrap()], b"");
    assert_eq!(stdout, "2\t$.pd[*].id\n");
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_match_still_exits_zero() {
    // Finding nothing is a successful run; exit codes are reserved for the
    // failure taxonomy (1 usage/IO, 2 fatal, 3 skips, 130 cancelled).
    let (_, _, code) = run_with_stdin(&["$.zzz"], b"{\"a\": 1}\n");
    assert_eq!(code, Some(0));
}

#[test]
fn bad_query_exits_1_with_message() {
    let (_, stderr, code) = run_with_stdin(&["$.a["], b"{}");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unclosed"), "{stderr}");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let (stdout, _, code) = run_with_stdin(&["--help"], b"");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: jsonski"));
    assert!(stdout.contains("exit codes"), "{stdout}");
}

#[test]
fn missing_file_exits_1() {
    let (_, stderr, code) = run_with_stdin(&["$.a", "/definitely/not/here.json"], b"");
    assert_eq!(code, Some(1));
    assert!(stderr.contains("/definitely/not/here.json"), "{stderr}");
}

#[test]
fn fatal_record_exits_2_under_fail_fast() {
    let (_, stderr, code) = run_with_stdin(&["$.a"], b"{\"a\": 1}\n{\"a\": [1,\n{\"a\": 2}\n");
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn skipped_records_exit_3() {
    let (stdout, stderr, code) = run_with_stdin(
        &["--skip-malformed", "$.a"],
        b"{\"a\": 1}\n{\"a\": [1,\n{\"a\": 2}\n",
    );
    assert_eq!(code, Some(3), "{stderr}");
    // The broken record is skipped, the ones around it still match.
    assert_eq!(stdout, "1\n2\n");
    assert!(stderr.contains("skipped"), "{stderr}");
}

#[test]
fn multi_query_metrics_survive_a_truncated_tail() {
    // The per-query re-measurement resynchronizes past the broken tail
    // like the live pass: the run completes with skips (exit 3) and
    // prints its metrics report.
    let dir = std::env::temp_dir().join(format!("jsonski-test-mqm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.json");
    std::fs::write(&path, b"{\"a\": 1}\n{\"a\": [1,\n").unwrap();
    let file = path.to_str().unwrap();
    let (stdout, stderr, code) = run_with_stdin(
        &["--metrics", "json", "--skip-malformed", "$.a", "$.b", file],
        b"",
    );
    assert_eq!(code, Some(3), "{stderr}");
    assert_eq!(stdout, "0\t1\n");
    assert!(
        stderr.contains("{\"queries\":[{\"query\":\"$.a\""),
        "{stderr}"
    );
    assert!(stderr.contains("{\"query\":\"$.b\""), "{stderr}");
    assert!(stderr.contains("\"aggregate\":{"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn sigint_drains_and_exits_130() {
    use std::time::Duration;
    let mut child = Command::new(bin())
        .args(["$.a"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"a\": 1}\n{\"a\": 2}\n").unwrap();
    stdin.flush().unwrap();
    // Give the child time to finish exec and install its handler — a
    // SIGINT that lands before `signals::install` runs kills it raw.
    std::thread::sleep(Duration::from_millis(300));
    // First SIGINT: the self-pipe watcher trips the cancellation token.
    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-INT", &pid]).status().unwrap();
    assert!(killed.success());
    // glibc installs the handler with SA_RESTART, so a blocked stdin read
    // does not EINTR: give the watcher a moment to cancel, then close
    // stdin so the reader reaches the next record boundary and drains.
    std::thread::sleep(Duration::from_millis(300));
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(130));
    // Everything delivered before the cancel still reached stdout.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "1\n2\n");
}

#[test]
fn stats_flag_reports_fast_forward() {
    let (_, stderr, _) = run_with_stdin(&["-s", "$.a"], b"{\"a\": 1, \"big\": {\"x\": [1,2,3]}}");
    assert!(stderr.contains("fast-forward"), "{stderr}");
}

#[test]
fn multi_query_stdin() {
    let (stdout, _, code) = run_with_stdin(&["$.a", "$.b"], b"{\"a\": 1, \"b\": 2}\n");
    assert!(stdout.contains("0\t1"));
    assert!(stdout.contains("1\t2"));
    assert_eq!(code, Some(0));
}

#[test]
fn jobs_apply_to_file_input_with_identical_output() {
    let dir = std::env::temp_dir().join(format!("jsonski-test-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.ndjson");
    let mut input = String::new();
    for i in 0..2000 {
        input.push_str(&format!("{{\"a\": [{i}, {}], \"b\": {i}}}\n", i * 10));
    }
    std::fs::write(&path, &input).unwrap();
    let file = path.to_str().unwrap();
    let (serial, _, code) = run_with_stdin(&["-j", "1", "$.a[*]", file], b"");
    assert_eq!(code, Some(0));
    assert_eq!(serial.lines().count(), 4000);
    let (parallel, stderr, code) = run_with_stdin(&["-j", "2", "$.a[*]", file], b"");
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(parallel, serial, "-j 2 must print what -j 1 prints");
    // Several queries cannot share the pipeline: they run serially, and
    // say so.
    let (multi, stderr, code) = run_with_stdin(&["-j", "2", "$.a[0]", "$.b", file], b"");
    assert_eq!(code, Some(0));
    assert!(stderr.contains("running serially"), "{stderr}");
    assert_eq!(multi.lines().count(), 4000);
    std::fs::remove_dir_all(&dir).ok();
}
