//! Exit-code contract of the `campaign` binary's sharded path.
//!
//! The CLI promises: 0 on success, 1 on violations or write failures, 2
//! on usage errors, 3 on shard-state errors (corrupt manifest or
//! checkpoint, mismatched configuration).  CI's resume step leans on
//! these codes, so they are pinned here with the real binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn campaign_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

/// A fresh scratch directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("campaign-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sharded_run_succeeds_and_resume_reproduces_the_fingerprint() {
    let scratch = ScratchDir::new("resume");
    let state = scratch.path().join("state");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "--scenarios".to_string(),
            "12".to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "--shards".to_string(),
            "3".to_string(),
            "--state-dir".to_string(),
            state.display().to_string(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    let output = campaign_bin().args(args(&[])).output().expect("run");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fingerprint_line = stdout
        .lines()
        .find(|l| l.contains("fingerprint"))
        .expect("fingerprint printed")
        .to_string();

    // Forget the last shard: resume must re-run only that one and land on
    // the same fingerprint.
    let manifest_path = state.join("manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let mut value = serde_json::parse_value(&manifest).unwrap();
    let serde::Value::Object(pairs) = &mut value else {
        panic!("manifest is an object");
    };
    let completed = pairs
        .iter_mut()
        .find(|(key, _)| key == "completed")
        .map(|(_, v)| v)
        .expect("manifest records completed shards");
    let serde::Value::Array(items) = completed else {
        panic!("completed is an array");
    };
    assert_eq!(items.len(), 3);
    items.pop();
    std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&value).unwrap(),
    )
    .unwrap();
    std::fs::remove_file(state.join("shard-2.json")).unwrap();

    let resumed = campaign_bin()
        .args(args(&["--resume"]))
        .output()
        .expect("resume");
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("1 executed, 2 restored"), "{stdout}");
    // Only the forgotten shard's 4 scenarios ran; restored ones do not count.
    assert!(stdout.contains("executed 4 scenarios"), "{stdout}");
    let resumed_line = stdout
        .lines()
        .find(|l| l.contains("fingerprint"))
        .unwrap()
        .replace("1 executed, 2 restored", "3 executed, 0 restored");
    assert_eq!(resumed_line, fingerprint_line);
}

#[test]
fn corrupt_manifest_exits_3() {
    let scratch = ScratchDir::new("corrupt");
    let state = scratch.path().join("state");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(state.join("manifest.json"), "{ not json").unwrap();
    let output = campaign_bin()
        .args([
            "--scenarios",
            "4",
            "--shards",
            "2",
            "--state-dir",
            state.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(3), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("corrupt manifest"), "{stderr}");
}

#[test]
fn mismatched_manifest_config_exits_3() {
    let scratch = ScratchDir::new("mismatch");
    let state = scratch.path().join("state");
    let run = |seed: &str, resume: bool| {
        let mut args = vec![
            "--scenarios",
            "4",
            "--shards",
            "2",
            "--seed",
            seed,
            "--state-dir",
            state.to_str().unwrap(),
        ];
        if resume {
            args.push("--resume");
        }
        campaign_bin().args(args).output().expect("run")
    };
    assert_eq!(run("42", false).status.code(), Some(0));
    let output = run("7", true);
    assert_eq!(output.status.code(), Some(3), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("configuration mismatch"), "{stderr}");
}

#[test]
fn resume_without_state_dir_is_a_usage_error() {
    let output = campaign_bin()
        .args(["--scenarios", "4", "--resume"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let output = campaign_bin()
        .args(["--no-such-flag"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
}
