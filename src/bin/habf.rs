//! `habf` — command-line front end for building, querying, inspecting,
//! and adapting filter images of any registered kind.
//!
//! ```text
//! habf filters                                 # list registered filter ids
//! habf build --filter habf --positives pos.txt --negatives neg.txt --out filter.bin
//! habf build --filter sharded-fhabf --shards 4 --threads 2 --positives pos.txt …
//! habf query filter.bin <key> [<key>…]        # exit 0 if all maybe-present
//! habf query filter.bin --replay queries.txt  # replay keys from a file
//! habf adapt filter.bin --positives pos.txt --queries queries.txt --out adapted.bin
//! habf insert stack.bin key1 key2 --out grown.bin   # growable filters only
//! habf inspect filter.bin
//! habf migrate old.bin --out new.bin          # any format -> aligned v2 container
//! habf serve --listen 127.0.0.1:7700 --tenant users=filter.bin,pos.txt
//! habf client 127.0.0.1:7700 query users key1 key2
//! ```
//!
//! Every subcommand dispatches through the filter registry
//! (`habf::core::registry`): `build` resolves `--filter <id>` to a
//! [`FilterSpec`], `query`/`adapt`/`inspect` open any image
//! **memory-mapped** — a current aligned `HABC` v2 container is served
//! zero-copy straight from the page cache (`inspect` reports
//! `backing: mmap` plus the frame table); v1 containers and legacy
//! `HABF`/`HABS` images load through the copying adapters — and work
//! against the object-safe [`DynFilter`] surface, so a newly registered
//! filter is immediately buildable, queryable, and inspectable here with
//! no CLI changes. Every command that writes an image (`build`, `adapt`,
//! `insert`, `migrate`) writes a v2 container, whatever format it read;
//! `migrate` does only that rewrite.
//!
//! The legacy flags remain as defaults: `--fast` selects `fhabf` and
//! `--shards N` (N > 1) the sharded variant when `--filter` is not given
//! explicitly.
//!
//! `adapt` closes the FP-feedback loop offline: it replays a query log
//! against the filter, records every false positive (a query key that is
//! not in `--positives` yet passes the filter) into a cost-decayed
//! [`FpLog`], and — if the waste crosses `--threshold` — mines the log
//! into negative hints and rebuilds the filter at its current geometry
//! through the [`habf::core::Rebuildable`] capability. Filters without
//! that capability (e.g. `bloom`, `xor`) are refused with a clear
//! message. The same loop runs as `query --replay FILE --adapt`,
//! mirroring how a server would adapt in place.
//!
//! `--negatives` and `--queries` lines are either `key` (cost 1) or
//! `key<TAB>cost`. Keys are one per line, newline-delimited, matched as
//! raw bytes; `#`-prefixed lines are comments.
//!
//! `serve` runs the multi-tenant filter server (`habf::serve`): each
//! `--tenant NAME=FILTER[,POSITIVES]` opens a filter image mmap'd as
//! one tenant (with `POSITIVES` attached, the tenant accepts `rebuild`
//! requests that hot-swap an adaptation-rebuilt filter in place).
//! `client` speaks the length-framed wire protocol: batched `query`
//! (one `maybe`/`no` line per key, like the offline `query`), `feedback`
//! FP events, `stats`, `rebuild`, `ping`, and `shutdown` (honored only
//! by servers started with `--allow-shutdown`).

use habf::core::registry::{self, LoadedFilter};
use habf::core::{AdaptPolicy, BuildInput, DynFilter, FilterSpec, FpLog};
use std::io::{BufRead, Write};
use std::process::ExitCode;

const USAGE: &str = "usage:\n  habf filters\n  habf build --positives FILE [--negatives FILE] \
[--filter ID] [--bits-per-key F]\n         [--fast] [--seed N] [--shards N] [--threads N] \
[--out FILE]\n  habf query FILTER [KEY…] [--replay FILE] [--adapt --positives FILE [--out FILE]]\n  \
habf adapt FILTER --positives FILE --queries FILE [--out FILE] [--threshold F] \
[--max-hints N] [--seed N]\n  habf insert FILTER [KEY…] [--keys FILE] [--out FILE]\n  \
habf inspect FILTER\n  habf migrate FILTER [--out FILE]\n  \
habf serve --listen ADDR --tenant NAME=FILTER[,POSITIVES] [--tenant …]\n         \
[--threshold F] [--max-connections N] [--workers N] [--allow-shutdown]\n  \
habf client ADDR ping\n  habf client ADDR query TENANT [KEY…] [--replay FILE]\n  \
habf client ADDR feedback TENANT (--queries FILE | KEY COST)\n  \
habf client ADDR stats TENANT\n  habf client ADDR rebuild TENANT [--seed N] [--max-hints N]\n  \
habf client ADDR insert TENANT [KEY…] [--keys FILE]\n  \
habf client ADDR shutdown";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Reads one key per line, skipping blank lines and `#` comments, so
/// replay/positive files can carry annotations without becoming keys.
fn read_lines(path: &str) -> Vec<Vec<u8>> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("habf: cannot open {path}: {e}");
        std::process::exit(1)
    });
    std::io::BufReader::new(file)
        .split(b'\n')
        .map(|l| l.expect("read line"))
        .filter(|l| !l.is_empty() && l[0] != b'#')
        .collect()
}

fn parse_negatives(path: &str) -> Vec<(Vec<u8>, f64)> {
    read_lines(path)
        .into_iter()
        .map(|line| {
            // `key\tcost` or bare `key`.
            match line.iter().rposition(|&b| b == b'\t') {
                Some(tab) => {
                    let cost = std::str::from_utf8(&line[tab + 1..])
                        .ok()
                        .and_then(|s| s.trim().parse::<f64>().ok());
                    match cost {
                        Some(c) if c.is_finite() && c > 0.0 => (line[..tab].to_vec(), c),
                        _ => (line, 1.0), // tab was part of the key
                    }
                }
                None => (line, 1.0),
            }
        })
        .collect()
}

fn cmd_filters() -> ExitCode {
    for entry in registry::entries() {
        println!("{}\t{}", entry.id, entry.summary);
    }
    ExitCode::SUCCESS
}

fn cmd_build(args: &[String]) -> ExitCode {
    let mut positives_path = None;
    let mut negatives_path = None;
    let mut filter_id: Option<String> = None;
    let mut bits_per_key = 10.0f64;
    let mut fast = false;
    let mut seed = 0x4841_4246u64;
    let mut shards = 1usize;
    let mut threads = 0usize;
    let mut out = "filter.bin".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--positives" => positives_path = Some(val()),
            "--negatives" => negatives_path = Some(val()),
            "--filter" => filter_id = Some(val()),
            "--bits-per-key" => bits_per_key = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = val().parse().unwrap_or_else(|_| usage()),
            "--out" => out = val(),
            "--fast" => fast = true,
            _ => usage(),
        }
    }
    if shards == 0 {
        eprintln!("habf: --shards must be at least 1");
        return ExitCode::FAILURE;
    }
    // `--fast` is a default-picker for when no id is named; silently
    // ignoring it next to an explicit `--filter` would build something
    // other than what the operator asked for.
    if fast && filter_id.is_some() {
        eprintln!("habf: --fast conflicts with --filter; name the id directly (e.g. fhabf)");
        return ExitCode::FAILURE;
    }
    // The legacy flags double as defaults when no id is named.
    let id = filter_id.unwrap_or_else(|| {
        let base = if fast { "fhabf" } else { "habf" };
        if shards > 1 {
            format!("sharded-{base}")
        } else {
            base.to_string()
        }
    });
    let Some(spec) = FilterSpec::by_id(&id) else {
        eprintln!(
            "habf: unknown filter id {id:?}; registered: {}",
            registry::ids().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let spec = spec
        .bits_per_key(bits_per_key)
        .seed(seed)
        .shards(shards)
        .threads(threads);
    let Some(pp) = positives_path else { usage() };
    let positives = read_lines(&pp);
    if positives.is_empty() {
        eprintln!("habf: {pp} holds no keys");
        return ExitCode::FAILURE;
    }
    let negatives = negatives_path
        .map(|np| parse_negatives(&np))
        .unwrap_or_default();
    let input = BuildInput::from_members(&positives).with_costed_negatives(&negatives);
    let filter = match spec.build(&input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("habf: cannot build {id:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(written) = write_image(filter.as_ref(), &out) else {
        return ExitCode::FAILURE;
    };
    println!(
        "{} ({}): {} positives, {} negatives, {} bits",
        filter.name(),
        filter.filter_id(),
        positives.len(),
        negatives.len(),
        filter.space_bits()
    );
    for (label, value) in filter.metadata() {
        println!("  {label}: {value}");
    }
    println!("wrote {written} bytes to {out}");
    ExitCode::SUCCESS
}

/// Writes `filter` to `out` as a v2 container, the one format the CLI
/// writes, and returns the bytes written; prints the failure and
/// returns `None` if the write fails.
fn write_image(filter: &dyn DynFilter, out: &str) -> Option<usize> {
    let image = filter.to_container_bytes();
    match std::fs::write(out, &image) {
        Ok(()) => Some(image.len()),
        Err(e) => {
            eprintln!("habf: cannot write {out}: {e}");
            None
        }
    }
}

/// Opens a filter image memory-mapped: a v2 container serves its word
/// payload straight from the page cache (zero copies); v1 and legacy
/// images decode through the copying adapters, unchanged.
fn load_filter(path: &str) -> Result<LoadedFilter, String> {
    registry::load_mmap(path).map_err(|e| format!("{path}: {e}"))
}

/// Replays the costed `queries` against `filter`, logging every false
/// positive (passes the filter, absent from `positives`); if the decayed
/// waste reaches `threshold`, mines the log and rebuilds the filter
/// through its [`habf::core::Rebuildable`] capability at its exact
/// geometry. Returns `(fps_before, fps_after, rebuilt)`, or an error for
/// filters without the capability.
fn adapt_filter(
    filter: &mut dyn DynFilter,
    positives: &[Vec<u8>],
    queries: &[(Vec<u8>, f64)],
    threshold: f64,
    max_hints: usize,
    seed: u64,
) -> Result<(u64, u64, bool), String> {
    if filter.as_rebuildable().is_none() {
        return Err(format!(
            "filter {:?} does not support adaptation (no rebuild capability)",
            filter.filter_id()
        ));
    }
    let members: std::collections::HashSet<&[u8]> = positives.iter().map(Vec::as_slice).collect();
    let mut log = FpLog::new(queries.len().max(1), 1.0);
    let mut policy = AdaptPolicy::cost_threshold(threshold);
    policy.min_fp_events = 1;
    for (key, cost) in queries {
        log.note_lookup();
        if !members.contains(key.as_slice()) && filter.contains(key) {
            log.record(key, *cost);
        }
    }
    let fps_before = log.window_fp_events();
    if !policy.should_rebuild(&log) {
        return Ok((fps_before, fps_before, false));
    }
    let mined = log.mine_hints(max_hints);
    let input = BuildInput::from_members(positives).with_hints(&mined);
    filter
        .as_rebuildable()
        .expect("capability checked above")
        .rebuild(&input, seed)
        .map_err(|e| format!("rebuild failed: {e}"))?;
    let fps_after = queries
        .iter()
        .filter(|(key, _)| !members.contains(key.as_slice()) && filter.contains(key))
        .count() as u64;
    Ok((fps_before, fps_after, true))
}

fn cmd_adapt(args: &[String]) -> ExitCode {
    let [path, flags @ ..] = args else { usage() };
    let mut positives_path = None;
    let mut queries_path = None;
    let mut out = format!("{path}.adapted");
    let mut threshold = 1.0f64;
    let mut max_hints = 65_536usize;
    let mut seed = 0x4841_4246u64;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--positives" => positives_path = Some(val()),
            "--queries" => queries_path = Some(val()),
            "--out" => out = val(),
            "--threshold" => threshold = val().parse().unwrap_or_else(|_| usage()),
            "--max-hints" => max_hints = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(pp), Some(qp)) = (positives_path, queries_path) else {
        usage()
    };
    let mut loaded = match load_filter(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("habf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let positives = read_lines(&pp);
    if positives.is_empty() {
        eprintln!("habf: {pp} holds no keys");
        return ExitCode::FAILURE;
    }
    let queries = parse_negatives(&qp);
    let (before, after, rebuilt) = match adapt_filter(
        loaded.filter.as_mut(),
        &positives,
        &queries,
        threshold,
        max_hints,
        seed,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("habf: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replayed {} queries: {before} false positives",
        queries.len()
    );
    if !rebuilt {
        println!("below threshold {threshold}: no adaptation needed");
        return ExitCode::SUCCESS;
    }
    let Some(written) = write_image(loaded.filter.as_ref(), &out) else {
        return ExitCode::FAILURE;
    };
    println!("rebuilt with mined hints: {after} false positives remain");
    println!("wrote {written} bytes to {out}");
    ExitCode::SUCCESS
}

/// Inserts keys into a growable filter image and writes the grown image
/// back as a v2 container. Filters without the grow
/// capability — everything but the tiered stacks — are refused with a
/// clear message instead of silently breaking their zero-FN contract.
fn cmd_insert(args: &[String]) -> ExitCode {
    let [path, rest @ ..] = args else { usage() };
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--keys" => keys.extend(read_lines(&val())),
            "--out" => out = Some(val()),
            s if s.starts_with("--") => usage(),
            _ => keys.push(arg.clone().into_bytes()),
        }
    }
    if keys.is_empty() {
        usage();
    }
    let out = out.unwrap_or_else(|| path.clone());
    let mut loaded = match load_filter(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("habf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(growable) = loaded.filter.as_growable() else {
        eprintln!(
            "habf: filter {:?} cannot grow past its design capacity \
             (rebuild it, or use --filter scalable-habf)",
            loaded.filter.filter_id()
        );
        return ExitCode::FAILURE;
    };
    for key in &keys {
        growable.insert(key);
    }
    let Some(written) = write_image(loaded.filter.as_ref(), &out) else {
        return ExitCode::FAILURE;
    };
    println!(
        "inserted {} keys: {} generations, saturation {:.4}",
        keys.len(),
        loaded.filter.generations(),
        loaded.filter.saturation()
    );
    println!("wrote {written} bytes to {out}");
    ExitCode::SUCCESS
}

fn cmd_query(args: &[String]) -> ExitCode {
    let [path, rest @ ..] = args else { usage() };
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut replay = None;
    let mut adapt = false;
    let mut positives_path = None;
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--replay" => replay = Some(val()),
            "--adapt" => adapt = true,
            "--positives" => positives_path = Some(val()),
            "--out" => out = Some(val()),
            // A mistyped flag must not be silently queried as a key
            // (keys that genuinely start with "--" go through --replay).
            s if s.starts_with("--") => usage(),
            _ => keys.push(arg.clone().into_bytes()),
        }
    }
    if let Some(replay) = &replay {
        keys.extend(read_lines(replay));
    }
    if keys.is_empty() {
        // An empty (or all-comment) replay file is a valid no-op run,
        // not a usage error — and a rate over zero keys and ~zero
        // elapsed time would print as NaN/inf Mops.
        if replay.is_some() {
            eprintln!("0 keys replayed");
            return ExitCode::SUCCESS;
        }
        usage();
    }
    let loaded = match load_filter(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("habf: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Filters exposing the batch capability answer the whole replay in
    // one prefetch-pipelined pass; the rest take the scalar path.
    let key_slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let probe_start = std::time::Instant::now();
    let (answers, path_name): (Vec<bool>, &str) = match loaded.filter.as_batch() {
        Some(batch) => (batch.contains_batch(&key_slices), "batch pipeline"),
        None => (
            key_slices
                .iter()
                .map(|k| loaded.filter.contains(k))
                .collect(),
            "scalar",
        ),
    };
    let probe_elapsed = probe_start.elapsed();
    // Replays are throughput runs: report the probe rate on stderr so
    // stdout stays a clean per-key answer stream for scripts.
    if replay.is_some() {
        // Clamp the divisor: sub-nanosecond replays must not print inf.
        let mops = keys.len() as f64 / probe_elapsed.as_secs_f64().max(1e-9) / 1e6;
        eprintln!(
            "probed {} keys in {:.1} ms ({mops:.1} Mops, {path_name})",
            keys.len(),
            probe_elapsed.as_secs_f64() * 1e3
        );
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let mut all_present = true;
    for (key, &hit) in keys.iter().zip(&answers) {
        all_present &= hit;
        let _ = writeln!(
            lock,
            "{}\t{}",
            if hit { "maybe" } else { "no" },
            String::from_utf8_lossy(key)
        );
    }
    drop(lock);
    if adapt {
        // `query --replay FILE --adapt` is `habf adapt` with the replayed
        // keys as the query log (unit cost each).
        let Some(pp) = positives_path else {
            eprintln!("habf: --adapt needs --positives");
            return ExitCode::FAILURE;
        };
        let out = out.unwrap_or_else(|| format!("{path}.adapted"));
        let Some(replay) = replay else {
            eprintln!("habf: --adapt needs --replay");
            return ExitCode::FAILURE;
        };
        let adapt_args = vec![
            path.clone(),
            "--positives".into(),
            pp,
            "--queries".into(),
            replay,
            "--out".into(),
            out,
        ];
        return cmd_adapt(&adapt_args);
    }
    if all_present {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let [path] = args else { usage() };
    // One mapping serves both the filter load and the frame-table print —
    // no second read of the image, and both views describe the same bytes.
    let image = match habf::util::ImageBytes::open(path) {
        Ok(image) => std::sync::Arc::new(image),
        Err(e) => {
            eprintln!("habf: cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match registry::load_shared(&image).map_err(|e| format!("{path}: {e}")) {
        Ok(loaded) => {
            use std::fmt::Write as _;
            let f = loaded.filter.as_ref();
            let mut text = String::new();
            let _ = writeln!(
                text,
                "format      : {} (v{})",
                loaded.format.describe(),
                loaded.version
            );
            let _ = writeln!(text, "filter id   : {}", f.filter_id());
            let _ = writeln!(text, "kind        : {}", f.name());
            let _ = writeln!(text, "backing     : {}", f.backing().describe());
            let _ = writeln!(
                text,
                "space       : {} bits ({} KB)",
                f.space_bits(),
                f.space_bits() / 8 / 1024
            );
            for (label, value) in f.metadata() {
                let _ = writeln!(text, "{label:<12}: {value}");
            }
            // The v2 frame table: absolute offset and size of every word
            // frame, so operators can verify 8-byte alignment. Sharded
            // images lay frames out as [bloom, cells] per shard, giving
            // the per-shard payload offsets.
            {
                match habf::core::persist::frame_table(image.as_bytes()) {
                    Ok(Some((payload_offset, frames))) => {
                        let _ = writeln!(
                            text,
                            "frames      : {} (payload at byte {payload_offset})",
                            frames.len()
                        );
                        let sharded = f.filter_id().starts_with("sharded-");
                        let tiered = f.filter_id() == "scalable-habf";
                        for (i, fr) in frames.iter().enumerate() {
                            let abs = payload_offset + fr.offset;
                            let label = if sharded {
                                format!(
                                    "shard {} {}",
                                    i / 2,
                                    if i % 2 == 0 { "bloom" } else { "cells" }
                                )
                            } else if tiered {
                                format!(
                                    "tier {} {}",
                                    i / 2,
                                    if i % 2 == 0 { "bloom" } else { "cells" }
                                )
                            } else if i == 0 {
                                "words".to_string()
                            } else {
                                format!("words[{i}]")
                            };
                            let _ = writeln!(
                                text,
                                "  frame {i:<3}: offset {abs:>10} ({}8-aligned)  {:>9} words  {label}",
                                if abs % 8 == 0 { "" } else { "NOT " },
                                fr.words
                            );
                        }
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("habf: frame table unreadable: {e}"),
                }
            }
            // One tolerant write: inspect is routinely piped into grep -q,
            // which may close the pipe before the frame table drains.
            let _ = std::io::Write::write_all(&mut std::io::stdout(), text.as_bytes());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("habf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rewrites any loadable image (legacy `HABF`/`HABS`, container v1 or v2)
/// as a current aligned v2 container, ready for zero-copy mmap serving.
fn cmd_migrate(args: &[String]) -> ExitCode {
    let [path, flags @ ..] = args else { usage() };
    let mut out = format!("{path}.v2");
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let loaded = match load_filter(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("habf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(written) = write_image(loaded.filter.as_ref(), &out) else {
        return ExitCode::FAILURE;
    };
    // Tolerant writes: migrate is piped into grep in CI smoke steps.
    let text = format!(
        "migrated {} (v{}) -> HABC container (v{})\n{} ({}): {} bits, wrote {} bytes to {out}\n",
        loaded.format.describe(),
        loaded.version,
        habf::core::persist::CONTAINER_VERSION,
        loaded.filter.name(),
        loaded.filter.filter_id(),
        loaded.filter.space_bits(),
        written
    );
    let _ = std::io::Write::write_all(&mut std::io::stdout(), text.as_bytes());
    ExitCode::SUCCESS
}

/// Starts the multi-tenant filter server: every `--tenant
/// NAME=FILTER[,POSITIVES]` opens a filter image through the zero-copy
/// mmap loader as one served tenant. Blocks until a permitted
/// `shutdown` frame (or the process is killed).
fn cmd_serve(args: &[String]) -> ExitCode {
    use habf::core::TenantStore;
    use habf::serve::{Server, ServerConfig, TenantTable};

    let mut listen = "127.0.0.1:7700".to_string();
    let mut tenant_specs: Vec<String> = Vec::new();
    let mut threshold = 100.0f64;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => listen = val(),
            "--tenant" => tenant_specs.push(val()),
            "--threshold" => threshold = val().parse().unwrap_or_else(|_| usage()),
            "--max-connections" => {
                config.max_connections = val().parse().unwrap_or_else(|_| usage());
            }
            "--workers" => config.workers = val().parse().unwrap_or_else(|_| usage()),
            "--allow-shutdown" => config.allow_shutdown = true,
            _ => usage(),
        }
    }
    if tenant_specs.is_empty() {
        usage();
    }
    let tenants = std::sync::Arc::new(TenantTable::new());
    for spec in &tenant_specs {
        // NAME=FILTER[,POSITIVES]
        let Some((name, paths)) = spec.split_once('=') else {
            eprintln!("habf: --tenant wants NAME=FILTER[,POSITIVES], got {spec:?}");
            return ExitCode::FAILURE;
        };
        let (filter_path, positives_path) = match paths.split_once(',') {
            Some((f, p)) => (f, Some(p)),
            None => (paths, None),
        };
        let policy = AdaptPolicy::cost_threshold(threshold);
        let store = match TenantStore::open(name, filter_path, policy) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("habf: tenant {name}: cannot open {filter_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let store = match positives_path {
            Some(pp) => store.with_members(read_lines(pp)),
            None => store,
        };
        let rebuilds = if store.can_rebuild() {
            "rebuildable"
        } else {
            "query-only"
        };
        println!("tenant {name}: {filter_path} ({rebuilds})");
        tenants.add(store);
    }
    let server = match Server::bind(&listen[..], tenants, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("habf: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The address stays the last token of this line: `habf` wrappers
    // (and tests/cli.rs) parse it from the `serving ... on ` prefix.
    match server.local_addr() {
        Ok(addr) => println!("serving {} tenants on {addr}", tenant_specs.len()),
        Err(_) => println!("serving {} tenants on {listen}", tenant_specs.len()),
    }
    server.run();
    println!("server stopped");
    ExitCode::SUCCESS
}

/// Speaks the wire protocol to a running `habf serve`.
fn cmd_client(args: &[String]) -> ExitCode {
    use habf::serve::Client;

    let [addr, cmd, rest @ ..] = args else {
        usage()
    };
    let mut client = match Client::connect(&addr[..], std::time::Duration::from_secs(10)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("habf: cannot connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match cmd.as_str() {
        "ping" => client.ping(b"habf").map(|()| {
            println!("pong");
            ExitCode::SUCCESS
        }),
        "query" => {
            let [tenant, key_args @ ..] = rest else {
                usage()
            };
            let mut keys: Vec<Vec<u8>> = Vec::new();
            let mut it = key_args.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--replay" => {
                        let path = it.next().cloned().unwrap_or_else(|| usage());
                        keys.extend(read_lines(&path));
                    }
                    s if s.starts_with("--") => usage(),
                    _ => keys.push(arg.clone().into_bytes()),
                }
            }
            if keys.is_empty() {
                eprintln!("0 keys queried");
                return ExitCode::SUCCESS;
            }
            client.query_pipelined(tenant, &keys, 4096).map(|answers| {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let mut all_present = true;
                for (key, &hit) in keys.iter().zip(&answers) {
                    all_present &= hit;
                    let _ = writeln!(
                        lock,
                        "{}\t{}",
                        if hit { "maybe" } else { "no" },
                        String::from_utf8_lossy(key)
                    );
                }
                if all_present {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            })
        }
        "feedback" => {
            let (tenant, events): (&String, Vec<(Vec<u8>, f64)>) = match rest {
                [tenant, flag, path] if flag == "--queries" => (tenant, parse_negatives(path)),
                [tenant, key, cost] => {
                    let cost: f64 = cost.parse().unwrap_or_else(|_| usage());
                    (tenant, vec![(key.clone().into_bytes(), cost)])
                }
                _ => usage(),
            };
            client.feedback(tenant, &events).map(|accepted| {
                println!("accepted {accepted} feedback events");
                ExitCode::SUCCESS
            })
        }
        "stats" => {
            let [tenant] = rest else { usage() };
            client.stats(tenant).map(|stats| {
                println!("{stats}");
                ExitCode::SUCCESS
            })
        }
        "rebuild" => {
            let [tenant, flags @ ..] = rest else { usage() };
            let mut seed = 0x4841_4246u64;
            let mut max_hints = 65_536u32;
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                let mut val = || it.next().cloned().unwrap_or_else(|| usage());
                match flag.as_str() {
                    "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
                    "--max-hints" => max_hints = val().parse().unwrap_or_else(|_| usage()),
                    _ => usage(),
                }
            }
            client
                .rebuild(tenant, seed, max_hints)
                .map(|(hints, generation)| {
                    println!("rebuilt with {hints} mined hints; now generation {generation}");
                    ExitCode::SUCCESS
                })
        }
        "insert" => {
            let [tenant, key_args @ ..] = rest else {
                usage()
            };
            let mut keys: Vec<Vec<u8>> = Vec::new();
            let mut it = key_args.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--keys" => {
                        let path = it.next().cloned().unwrap_or_else(|| usage());
                        keys.extend(read_lines(&path));
                    }
                    s if s.starts_with("--") => usage(),
                    _ => keys.push(arg.clone().into_bytes()),
                }
            }
            if keys.is_empty() {
                eprintln!("0 keys inserted");
                return ExitCode::SUCCESS;
            }
            client
                .insert(tenant, &keys)
                .map(|(accepted, tiers, saturation)| {
                    println!("inserted {accepted} keys: {tiers} tiers, saturation {saturation:.4}");
                    ExitCode::SUCCESS
                })
        }
        "shutdown" => client.shutdown().map(|()| {
            println!("server stopping");
            ExitCode::SUCCESS
        }),
        _ => usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("habf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere (including `habf build --help`) prints usage and
    // succeeds. Query keys are raw bytes, but a literal "--help" key is far
    // less likely than a user probing for help.
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") || args[0] == "help" {
        if args.is_empty() {
            usage();
        }
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (cmd, rest) = args.split_first().expect("non-empty args");
    match cmd.as_str() {
        "filters" => cmd_filters(),
        "build" => cmd_build(rest),
        "query" => cmd_query(rest),
        "adapt" => cmd_adapt(rest),
        "insert" => cmd_insert(rest),
        "inspect" => cmd_inspect(rest),
        "migrate" => cmd_migrate(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        _ => usage(),
    }
}
