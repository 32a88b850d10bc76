//! End-to-end tests of the `habf` command-line tool.

use std::io::Write;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_habf")
}

fn write_file(dir: &std::path::Path, name: &str, lines: &[String]) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    for l in lines {
        writeln!(f, "{l}").expect("write");
    }
    path
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("habf-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("mkdir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn build_query_inspect_roundtrip() {
    let dir = TempDir::new("roundtrip");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..3000).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let mut neg_lines: Vec<String> = (0..3000).map(|i| format!("bot:{i}")).collect();
    neg_lines.push("bot:hot\t500".into()); // tab-separated cost
    let neg = write_file(&dir.0, "neg.txt", &neg_lines);
    let out = dir.0.join("filter.bin");

    let build = Command::new(bin())
        .args(["build", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&neg)
        .args(["--bits-per-key", "10", "--out"])
        .arg(&out)
        .output()
        .expect("run build");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    assert!(out.exists());

    // Members answer "maybe" with exit 0.
    let hit = Command::new(bin())
        .arg("query")
        .arg(&out)
        .args(["user:1", "user:2999"])
        .output()
        .expect("run query");
    assert!(hit.status.success());
    let stdout = String::from_utf8_lossy(&hit.stdout);
    assert_eq!(stdout.matches("maybe\t").count(), 2, "{stdout}");

    // The costly known negative answers "no" with exit 1.
    let miss = Command::new(bin())
        .arg("query")
        .arg(&out)
        .arg("bot:hot")
        .output()
        .expect("run query");
    assert_eq!(miss.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&miss.stdout).starts_with("no\t"));

    let inspect = Command::new(bin())
        .arg("inspect")
        .arg(&out)
        .output()
        .expect("run inspect");
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("HABF"), "{text}");
    assert!(text.contains("bits"), "{text}");
}

#[test]
fn fast_variant_builds_and_loads() {
    let dir = TempDir::new("fast");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..500).map(|i| format!("k{i}")).collect::<Vec<_>>(),
    );
    let neg = write_file(
        &dir.0,
        "neg.txt",
        &(0..500).map(|i| format!("n{i}")).collect::<Vec<_>>(),
    );
    let out = dir.0.join("fast.bin");
    let build = Command::new(bin())
        .args(["build", "--fast", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&neg)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run build");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let inspect = Command::new(bin())
        .arg("inspect")
        .arg(&out)
        .output()
        .expect("inspect");
    assert!(String::from_utf8_lossy(&inspect.stdout).contains("f-HABF"));
}

#[test]
fn sharded_build_query_inspect_roundtrip() {
    let dir = TempDir::new("sharded");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..2000).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let neg = write_file(
        &dir.0,
        "neg.txt",
        &(0..2000).map(|i| format!("bot:{i}")).collect::<Vec<_>>(),
    );
    let out = dir.0.join("sharded.bin");
    let build = Command::new(bin())
        .args(["build", "--shards", "4", "--threads", "2", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&neg)
        .args(["--bits-per-key", "10", "--out"])
        .arg(&out)
        .output()
        .expect("run build");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let build_text = String::from_utf8_lossy(&build.stdout);
    assert!(build_text.contains("sharded-habf"), "{build_text}");
    assert!(build_text.contains("shards: 4"), "{build_text}");

    // Members answer "maybe" with exit 0 through the sharded loader.
    let hit = Command::new(bin())
        .arg("query")
        .arg(&out)
        .args(["user:0", "user:999", "user:1999"])
        .output()
        .expect("run query");
    assert!(
        hit.status.success(),
        "{}",
        String::from_utf8_lossy(&hit.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&hit.stdout)
            .matches("maybe\t")
            .count(),
        3
    );

    let inspect = Command::new(bin())
        .arg("inspect")
        .arg(&out)
        .output()
        .expect("inspect");
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("Sharded-HABF"), "{text}");
    // Satellite: sharded images expose as much envelope + filter
    // metadata as single-filter ones.
    assert!(text.contains("filter id   : sharded-habf"), "{text}");
    assert!(text.contains("HABC container (v2)"), "{text}");
    assert!(text.contains("shards"), "{text}");
    assert!(text.contains("splitter seed"), "{text}");

    // --shards 0 is rejected up front.
    let zero = Command::new(bin())
        .args(["build", "--shards", "0", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&neg)
        .output()
        .expect("run build");
    assert!(!zero.status.success());
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--shards"));
}

/// Builds a filter with NO negative knowledge, replays a hot-miss query
/// log through `habf adapt`, and checks the rebuilt image prunes the
/// replayed misses while keeping every member.
#[test]
fn adapt_replay_mines_fps_and_rebuilds() {
    let dir = TempDir::new("adapt");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..3000).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    // Build without hints so the query log has something to teach.
    let empty = write_file(&dir.0, "none.txt", &["placeholder:0".into()]);
    let filter = dir.0.join("filter.bin");
    let build = Command::new(bin())
        .args(["build", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&empty)
        .args(["--bits-per-key", "8", "--out"])
        .arg(&filter)
        .output()
        .expect("run build");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );

    // A miss log heavy on a few costly keys (tab-separated costs).
    let mut lines: Vec<String> = (0..2000).map(|i| format!("miss:{i}")).collect();
    for i in 0..50 {
        lines.push(format!("hot-miss:{i}\t100"));
    }
    let queries = write_file(&dir.0, "queries.txt", &lines);
    let adapted = dir.0.join("adapted.bin");
    let adapt = Command::new(bin())
        .arg("adapt")
        .arg(&filter)
        .arg("--positives")
        .arg(&pos)
        .arg("--queries")
        .arg(&queries)
        .arg("--out")
        .arg(&adapted)
        .output()
        .expect("run adapt");
    assert!(
        adapt.status.success(),
        "{}",
        String::from_utf8_lossy(&adapt.stderr)
    );
    let text = String::from_utf8_lossy(&adapt.stdout);
    assert!(text.contains("false positives"), "{text}");
    assert!(text.contains("rebuilt with mined hints"), "{text}");
    assert!(adapted.exists(), "adapted image not written");

    // Zero FN must survive the rebuild; replayed FPs must be (mostly)
    // gone — "0 false positives remain" in practice, but the contract is
    // strictly-fewer.
    // Both counts are printed as "… N false positives …".
    let count_before_word = |line: &str| -> Option<u64> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let i = words.iter().position(|w| *w == "false")?;
        words[i.checked_sub(1)?].parse().ok()
    };
    let before = text
        .lines()
        .find(|l| l.contains("replayed"))
        .and_then(count_before_word)
        .expect("before count");
    let after = text
        .lines()
        .find(|l| l.contains("remain"))
        .and_then(count_before_word)
        .expect("after count");
    assert!(after < before, "{text}");

    let hit = Command::new(bin())
        .arg("query")
        .arg(&adapted)
        .args(["user:0", "user:2999"])
        .output()
        .expect("query adapted");
    assert!(
        hit.status.success(),
        "member dropped by adapted filter: {}",
        String::from_utf8_lossy(&hit.stdout)
    );
}

/// `query --replay FILE` reads keys from a file; with `--adapt` it runs
/// the same loop as `habf adapt`.
#[test]
fn query_replay_and_adapt_flag() {
    let dir = TempDir::new("replay");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..1500).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let neg = write_file(
        &dir.0,
        "neg.txt",
        &(0..1500).map(|i| format!("bot:{i}")).collect::<Vec<_>>(),
    );
    let filter = dir.0.join("filter.bin");
    let build = Command::new(bin())
        .args(["build", "--positives"])
        .arg(&pos)
        .arg("--negatives")
        .arg(&neg)
        .args(["--bits-per-key", "8", "--out"])
        .arg(&filter)
        .output()
        .expect("run build");
    assert!(build.status.success());

    let replay = write_file(
        &dir.0,
        "replay.txt",
        &(0..500).map(|i| format!("ghost:{i}")).collect::<Vec<_>>(),
    );
    let run = Command::new(bin())
        .arg("query")
        .arg(&filter)
        .arg("--replay")
        .arg(&replay)
        .output()
        .expect("run query --replay");
    // Replayed misses answer "no" (exit 1) line by line.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(stdout.lines().count(), 500, "{stdout}");
    assert!(stdout.lines().all(|l| l.contains("ghost:")), "{stdout}");

    let adapted = dir.0.join("replay.adapted");
    let adapt = Command::new(bin())
        .arg("query")
        .arg(&filter)
        .arg("--replay")
        .arg(&replay)
        .arg("--adapt")
        .arg("--positives")
        .arg(&pos)
        .arg("--out")
        .arg(&adapted)
        .output()
        .expect("run query --replay --adapt");
    assert!(
        adapt.status.success(),
        "{}",
        String::from_utf8_lossy(&adapt.stderr)
    );
    let text = String::from_utf8_lossy(&adapt.stdout);
    assert!(text.contains("replayed 500 queries"), "{text}");

    // --adapt without --positives fails cleanly.
    let bad = Command::new(bin())
        .arg("query")
        .arg(&filter)
        .arg("--replay")
        .arg(&replay)
        .arg("--adapt")
        .output()
        .expect("run query --adapt without positives");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--positives"));
}

/// Replaying an empty or all-comment file is a valid no-op run: exit 0,
/// "0 keys replayed" on stderr, and no NaN/inf Mops rate from dividing
/// zero keys by a ~zero probe duration.
#[test]
fn query_replay_of_empty_file_reports_zero_keys() {
    let dir = TempDir::new("replay-empty");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..1000).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let filter = dir.0.join("filter.bin");
    let build = Command::new(bin())
        .args(["build", "--positives"])
        .arg(&pos)
        .args(["--bits-per-key", "8", "--out"])
        .arg(&filter)
        .output()
        .expect("run build");
    assert!(build.status.success());

    let empty = write_file(&dir.0, "empty.txt", &[]);
    let comments = write_file(
        &dir.0,
        "comments.txt",
        &[
            "# replay log rotated 2026-08-07".to_string(),
            "#user:1".to_string(),
            String::new(),
        ],
    );
    for replay in [&empty, &comments] {
        let run = Command::new(bin())
            .arg("query")
            .arg(&filter)
            .arg("--replay")
            .arg(replay)
            .output()
            .expect("run query --replay on empty file");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{stderr}");
        assert!(run.stdout.is_empty());
        assert!(stderr.contains("0 keys replayed"), "{stderr}");
        assert!(
            !stderr.contains("NaN") && !stderr.contains("inf"),
            "{stderr}"
        );
    }

    // Comment lines never leak into a real replay as probe keys.
    let mixed = write_file(
        &dir.0,
        "mixed.txt",
        &["# header".to_string(), "user:7".to_string()],
    );
    let run = Command::new(bin())
        .arg("query")
        .arg(&filter)
        .arg("--replay")
        .arg(&mixed)
        .output()
        .expect("run query --replay with comments");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("maybe\tuser:7"), "{stdout}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("probed 1 keys"), "{stderr}");
}

/// `habf serve` + `habf client` end to end over a real socket: batched
/// query (exit codes mirror the offline `query`), feedback, stats,
/// rebuild hot-swapping a generation, and a clean `shutdown`.
#[test]
fn serve_and_client_round_trip_over_the_wire() {
    use std::io::BufRead as _;

    let dir = TempDir::new("serve");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..1200).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let filter = dir.0.join("users.bin");
    let build = Command::new(bin())
        .args(["build", "--positives"])
        .arg(&pos)
        .args(["--bits-per-key", "10", "--out"])
        .arg(&filter)
        .output()
        .expect("run build");
    assert!(build.status.success());

    let mut server = Command::new(bin())
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--allow-shutdown",
            "--tenant",
        ])
        .arg(format!("users={},{}", filter.display(), pos.display()))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // The server prints its resolved address once every tenant is open.
    let mut stdout = std::io::BufReader::new(server.stdout.take().expect("stdout"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stdout.read_line(&mut line).expect("read"),
            0,
            "server exited early"
        );
        if let Some(addr) = line.trim().strip_prefix("serving 1 tenants on ") {
            break addr.to_string();
        }
    };

    let client = |args: &[&str]| {
        Command::new(bin())
            .arg("client")
            .arg(&addr)
            .args(args)
            .output()
            .expect("run client")
    };

    let ping = client(&["ping"]);
    assert!(
        ping.status.success(),
        "{}",
        String::from_utf8_lossy(&ping.stderr)
    );

    let hit = client(&["query", "users", "user:0", "user:1199"]);
    assert!(hit.status.success());
    assert_eq!(
        String::from_utf8_lossy(&hit.stdout)
            .matches("maybe\t")
            .count(),
        2
    );

    let replay = write_file(
        &dir.0,
        "replay.txt",
        &(0..300).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let replayed = client(&["query", "users", "--replay", replay.to_str().expect("utf8")]);
    assert!(replayed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&replayed.stdout).lines().count(),
        300
    );

    let miss = client(&["query", "users", "ghost:1"]);
    assert!(
        !miss.status.success(),
        "a miss exits non-zero, like offline query"
    );

    let fed = client(&["feedback", "users", "ghost:1", "4.0"]);
    assert!(fed.status.success());
    assert!(String::from_utf8_lossy(&fed.stdout).contains("accepted 1"));

    let stats = client(&["stats", "users"]);
    let text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(text.contains("\"filter_id\":\"habf\""), "{text}");
    assert!(text.contains("\"fp_events\":1"), "{text}");

    let rebuilt = client(&["rebuild", "users", "--seed", "3"]);
    assert!(
        rebuilt.status.success(),
        "{}",
        String::from_utf8_lossy(&rebuilt.stderr)
    );
    assert!(String::from_utf8_lossy(&rebuilt.stdout).contains("generation 1"));

    // Unknown tenants are typed errors, not hangs.
    let unknown = client(&["stats", "nope"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("error"));

    let stop = client(&["shutdown"]);
    assert!(stop.status.success());
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server must exit cleanly after shutdown");
}

/// The registry is the CLI's dispatch surface: every id `habf filters`
/// lists must build, persist, query, and inspect with the same flags —
/// the CI matrix runs this same loop through the shell.
#[test]
fn every_registered_filter_id_round_trips_through_the_cli() {
    let dir = TempDir::new("registry-matrix");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..1500).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let neg = write_file(
        &dir.0,
        "neg.txt",
        &(0..1500).map(|i| format!("bot:{i}\t3")).collect::<Vec<_>>(),
    );

    let list = Command::new(bin())
        .arg("filters")
        .output()
        .expect("filters");
    assert!(list.status.success());
    let listing = String::from_utf8_lossy(&list.stdout).to_string();
    let ids: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split('\t').next())
        .collect();
    assert!(ids.len() >= 7, "registry shrank: {ids:?}");

    for id in ids {
        let out = dir.0.join(format!("{id}.bin"));
        let build = Command::new(bin())
            .args(["build", "--filter", id, "--shards", "2", "--positives"])
            .arg(&pos)
            .arg("--negatives")
            .arg(&neg)
            .args(["--bits-per-key", "10", "--out"])
            .arg(&out)
            .output()
            .expect("run build");
        assert!(
            build.status.success(),
            "{id}: {}",
            String::from_utf8_lossy(&build.stderr)
        );

        // Members answer "maybe" with exit 0 for every filter kind.
        let hit = Command::new(bin())
            .arg("query")
            .arg(&out)
            .args(["user:0", "user:749", "user:1499"])
            .output()
            .expect("run query");
        assert!(
            hit.status.success(),
            "{id}: member dropped: {}",
            String::from_utf8_lossy(&hit.stdout)
        );

        // Inspect names the container version and the filter id for
        // every supported format.
        let inspect = Command::new(bin())
            .arg("inspect")
            .arg(&out)
            .output()
            .expect("inspect");
        assert!(inspect.status.success(), "{id}");
        let text = String::from_utf8_lossy(&inspect.stdout);
        assert!(text.contains("HABC container (v2)"), "{id}: {text}");
        assert!(
            text.contains(&format!("filter id   : {id}")),
            "{id}: {text}"
        );
        assert!(text.contains("space"), "{id}: {text}");
    }
}

/// `inspect` on a v2 image reports the mmap backing and the frame table
/// — per-shard payload offsets, each 8-aligned — so operators can verify
/// the alignment contract on a shipped file.
#[test]
fn inspect_reports_backing_and_sharded_frame_table() {
    let dir = TempDir::new("inspect-frames");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..1200).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let out = dir.0.join("sharded.bin");
    let build = Command::new(bin())
        .args(["build", "--filter", "sharded-habf", "--shards", "3"])
        .arg("--positives")
        .arg(&pos)
        .args(["--bits-per-key", "10", "--out"])
        .arg(&out)
        .output()
        .expect("build");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let inspect = Command::new(bin())
        .arg("inspect")
        .arg(&out)
        .output()
        .expect("inspect");
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("backing     : mmap"), "{text}");
    // 3 shards × (bloom + cells) = 6 frames, labelled per shard.
    assert!(text.contains("frames      : 6"), "{text}");
    for shard in 0..3 {
        assert!(text.contains(&format!("shard {shard} bloom")), "{text}");
        assert!(text.contains(&format!("shard {shard} cells")), "{text}");
    }
    assert!(!text.contains("NOT 8-aligned"), "{text}");
}

/// `migrate` rewrites any loadable image as a current v2 container that
/// answers identically and serves mmap-backed.
#[test]
fn migrate_upgrades_legacy_and_v1_images_to_v2() {
    let dir = TempDir::new("migrate");
    // The checked-in legacy fixture and its golden workload (see
    // tests/golden_persist.rs) — plus the v1 container fixture.
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (fixture, id) in [
        ("habf_v1.bin", "habf"),
        ("container_habf_v1.bin", "habf"),
        ("container_sharded-fhabf_v1.bin", "sharded-fhabf"),
    ] {
        let input = dir.0.join(fixture);
        std::fs::copy(golden.join(fixture), &input).expect("copy fixture");
        let out = dir.0.join(format!("{fixture}.migrated"));
        let migrate = Command::new(bin())
            .arg("migrate")
            .arg(&input)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("migrate");
        assert!(
            migrate.status.success(),
            "{fixture}: {}",
            String::from_utf8_lossy(&migrate.stderr)
        );
        let text = String::from_utf8_lossy(&migrate.stdout);
        assert!(text.contains("HABC container (v2)"), "{fixture}: {text}");

        let inspect = Command::new(bin())
            .arg("inspect")
            .arg(&out)
            .output()
            .expect("inspect migrated");
        let text = String::from_utf8_lossy(&inspect.stdout);
        assert!(text.contains("HABC container (v2)"), "{fixture}: {text}");
        assert!(
            text.contains(&format!("filter id   : {id}")),
            "{fixture}: {text}"
        );
        assert!(text.contains("backing     : mmap"), "{fixture}: {text}");

        // The golden members still answer "maybe" through the migrated
        // image.
        let query = Command::new(bin())
            .arg("query")
            .arg(&out)
            .args(["golden:pos:0", "golden:pos:63"])
            .output()
            .expect("query migrated");
        assert!(
            query.status.success(),
            "{fixture}: member lost in migration: {}",
            String::from_utf8_lossy(&query.stdout)
        );
    }
}

/// Asserts `path` holds a v2 container that `inspect` serves mmap-backed.
fn assert_written_as_v2(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("written image");
    assert_eq!(&bytes[..4], b"HABC", "the CLI writes only containers");
    assert_eq!(bytes[4], 2, "the CLI writes only v2 containers");
    let inspect = Command::new(bin())
        .arg("inspect")
        .arg(path)
        .output()
        .expect("inspect written image");
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("HABC container (v2)"), "{text}");
    assert!(text.contains("backing     : mmap"), "{text}");
}

/// Runs `adapt` on a checked-in golden fixture (see
/// tests/golden_persist.rs for its workload) with a replay that holds
/// false positives, so the filter is rebuilt and an image written.
fn adapt_golden_fixture(dir: &TempDir, fixture: &str) -> std::path::PathBuf {
    let filter = dir.0.join(fixture);
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::copy(golden.join(fixture), &filter).expect("copy fixture");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..64)
            .map(|i| format!("golden:pos:{i}"))
            .collect::<Vec<_>>(),
    );
    let queries = write_file(
        &dir.0,
        "queries.txt",
        &(0..20_000)
            .map(|i| format!("golden:neg:{i}"))
            .collect::<Vec<_>>(),
    );
    let adapted = dir.0.join("adapted.bin");
    let adapt = Command::new(bin())
        .arg("adapt")
        .arg(&filter)
        .arg("--positives")
        .arg(&pos)
        .arg("--queries")
        .arg(&queries)
        .args(["--threshold", "0.5"])
        .arg("--out")
        .arg(&adapted)
        .output()
        .expect("adapt fixture");
    assert!(
        adapt.status.success(),
        "{fixture}: {}",
        String::from_utf8_lossy(&adapt.stderr)
    );
    let text = String::from_utf8_lossy(&adapt.stdout);
    assert!(
        text.contains("rebuilt with mined hints"),
        "{fixture}: {text}"
    );
    adapted
}

/// `adapt` on a legacy `HABF` image writes a v2 container: the CLI
/// reads every format but writes only the current one.
#[test]
fn adapt_writes_a_legacy_image_as_a_v2_container() {
    let dir = TempDir::new("adapt-legacy");
    let adapted = adapt_golden_fixture(&dir, "habf_v1.bin");
    assert_written_as_v2(&adapted);
}

/// `adapt` on a v1 container writes a v2 container.
#[test]
fn adapt_writes_a_v1_container_as_a_v2_container() {
    let dir = TempDir::new("adapt-v1");
    let adapted = adapt_golden_fixture(&dir, "container_habf_v1.bin");
    assert_written_as_v2(&adapted);
}

/// `insert` into a v1 scalable stack writes the grown stack as a v2
/// container, and old and new members both answer through it.
#[test]
fn insert_writes_a_v1_container_as_a_v2_container() {
    let dir = TempDir::new("insert-v1");
    let fixture = "container_scalable-habf_v1.bin";
    let stack = dir.0.join(fixture);
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::copy(golden.join(fixture), &stack).expect("copy fixture");
    let grown = dir.0.join("grown.bin");
    let insert = Command::new(bin())
        .arg("insert")
        .arg(&stack)
        .args(["late:0", "late:1", "late:2"])
        .arg("--out")
        .arg(&grown)
        .output()
        .expect("insert");
    assert!(
        insert.status.success(),
        "{}",
        String::from_utf8_lossy(&insert.stderr)
    );
    assert_written_as_v2(&grown);
    let query = Command::new(bin())
        .arg("query")
        .arg(&grown)
        .args(["golden:pos:0", "golden:pos:63", "late:0", "late:2"])
        .output()
        .expect("query grown");
    assert!(
        query.status.success(),
        "member lost in the write: {}",
        String::from_utf8_lossy(&query.stdout)
    );
}

/// `--fast` next to an explicit `--filter` is a contradiction, not a
/// silently dropped flag.
#[test]
fn fast_flag_conflicts_with_explicit_filter_id() {
    let dir = TempDir::new("fast-conflict");
    let pos = write_file(&dir.0, "pos.txt", &["k1".into(), "k2".into()]);
    let out = Command::new(bin())
        .args(["build", "--filter", "habf", "--fast", "--positives"])
        .arg(&pos)
        .output()
        .expect("run build");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fast conflicts with --filter"));
}

/// Filters without the rebuild capability refuse `adapt` with a typed
/// message instead of corrupting the image or panicking.
#[test]
fn adapt_refuses_filters_without_the_rebuild_capability() {
    let dir = TempDir::new("adapt-refusal");
    let pos = write_file(
        &dir.0,
        "pos.txt",
        &(0..500).map(|i| format!("user:{i}")).collect::<Vec<_>>(),
    );
    let queries = write_file(
        &dir.0,
        "queries.txt",
        &(0..200).map(|i| format!("miss:{i}")).collect::<Vec<_>>(),
    );
    let out = dir.0.join("bloom.bin");
    let build = Command::new(bin())
        .args(["build", "--filter", "bloom", "--positives"])
        .arg(&pos)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("build bloom");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let adapt = Command::new(bin())
        .arg("adapt")
        .arg(&out)
        .arg("--positives")
        .arg(&pos)
        .arg("--queries")
        .arg(&queries)
        .output()
        .expect("adapt bloom");
    assert!(!adapt.status.success());
    let err = String::from_utf8_lossy(&adapt.stderr);
    assert!(err.contains("does not support adaptation"), "{err}");
}

#[test]
fn corrupt_filter_file_fails_cleanly() {
    let dir = TempDir::new("corrupt");
    let bad = write_file(&dir.0, "bad.bin", &["this is not a filter".into()]);
    let out = Command::new(bin())
        .arg("inspect")
        .arg(&bad)
        .output()
        .expect("inspect");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("habf:"));
}

#[test]
fn missing_args_show_usage() {
    let out = Command::new(bin()).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
