//! `build-shalla-zipf`: the paper's construction and query path, in
//! process. TPJO builds an HABF over Shalla-like URLs with Zipf-costed
//! negatives, once per cost shuffle; between builds a shuffled member /
//! non-member mix runs through the scalar two-round `contains`. No serve
//! code runs.

use std::path::Path;
use std::time::Instant;

use habf_core::{registry, AdaptPolicy, BuildInput, DynFilter, FilterSpec, Habf, QueryOutcome};
use habf_core::{HabfConfig, TenantStore};
use habf_filters::Filter;
use habf_hashing::{HashFamily, HashId};

use crate::inputs::{self, BuildInputs};
use crate::metrics::{Measured, Ops};
use crate::serving::time_hashing;
use crate::summary::{mean, median, Latency, Sliced};
use crate::trace::Tracer;
use crate::Outcome;

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Share of `--seconds` spent probing, split evenly after each build.
const PROBE_SHARE: f64 = 0.5;
/// Keys per timed probe request (the size of a `serve-adapt-mixed` frame).
const CHUNK: usize = 512;
const WARMUP_S: f64 = 0.3;

fn spec() -> FilterSpec {
    FilterSpec::habf()
        .bits_per_key(inputs::BUILD_BITS_PER_KEY)
        .seed(inputs::FILTER_SEED)
}

/// The config `FilterSpec::habf()` resolves for these inputs, so the
/// traced run can build the concrete `Habf` whose counters it reads.
fn habf_config(members: usize) -> HabfConfig {
    spec().params().habf_config(members)
}

fn costed(inputs: &BuildInputs, shuffle: usize) -> Vec<(&[u8], f64)> {
    inputs.data.negatives_with_costs(&inputs.costs[shuffle])
}

/// One TPJO build through the registry; returns the filter and its wall
/// time in seconds.
fn build(inputs: &BuildInputs, shuffle: usize) -> Result<(Box<dyn DynFilter>, f64), String> {
    let negatives = costed(inputs, shuffle);
    let input = BuildInput::from_members(&inputs.data.positives).with_costed_negatives(&negatives);
    let spec = spec();
    let start = Instant::now();
    let filter = spec.build(&input).map_err(|e| format!("build: {e}"))?;
    Ok((filter, start.elapsed().as_secs_f64()))
}

/// Zero false negatives over every member.
fn check_members(filter: &dyn DynFilter, inputs: &BuildInputs, ops: &mut Ops) {
    let missing = inputs
        .data
        .positives
        .iter()
        .filter(|k| !filter.contains(k))
        .count() as u64;
    ops.attempted += inputs.data.positives.len() as u64;
    ops.failed += missing;
    ops.false_negatives += missing;
}

/// Weighted FPR over the full costed negative set, from answers.
fn weighted_fpr(filter: &dyn DynFilter, inputs: &BuildInputs, shuffle: usize) -> f64 {
    let mut wasted = 0.0;
    let mut total = 0.0;
    for (key, &cost) in inputs.data.negatives.iter().zip(&inputs.costs[shuffle]) {
        total += cost;
        if filter.contains(key) {
            wasted += cost;
        }
    }
    wasted / total
}

/// The probe mix as parallel key / membership lists.
fn mix_keys(inputs: &BuildInputs) -> (Vec<&[u8]>, Vec<bool>) {
    inputs
        .mix
        .iter()
        .map(|&p| (inputs.key(p), p.member))
        .unzip()
}

/// Probe requests of a run: the latency of each `CHUNK`-key request and
/// when it completed on the probe clock (which stops during builds).
#[derive(Default)]
struct ProbeLog {
    keys: u64,
    probe_s: f64,
    chunk_us: Vec<f64>,
    done_at_s: Vec<f64>,
}

/// Closed loop of scalar probes over the mix for `seconds`, one timed
/// request per `CHUNK` keys. Every full pass must answer each member
/// `true` and hit exactly as many keys as the filter did before the clock
/// started.
fn probe_window(
    filter: &dyn DynFilter,
    keys: &[&[u8]],
    members: &[bool],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    log: &mut ProbeLog,
    ops: &mut Ops,
) {
    let expected_hits = keys.iter().filter(|k| filter.contains(k)).count();
    let start = Instant::now();
    let offset = log.probe_s;
    let mut request = log.chunk_us.len() as u64;
    let mut first = true;
    while first || start.elapsed().as_secs_f64() < seconds {
        first = false;
        let mut hits = 0usize;
        let mut missing = 0u64;
        for (chunk, flags) in keys.chunks(CHUNK).zip(members.chunks(CHUNK)) {
            let t0 = Instant::now();
            for (key, &member) in chunk.iter().zip(flags) {
                let hit = filter.contains(key);
                hits += usize::from(hit);
                missing += u64::from(member && !hit);
            }
            let t1 = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                let (s, e) = (t.stamp(t0), t.stamp(t1));
                t.record("core.habf.contains", s, e, None, request);
            }
            request += 1;
            log.chunk_us.push((t1 - t0).as_secs_f64() * 1e6);
            log.done_at_s.push(offset + (t1 - start).as_secs_f64());
        }
        log.keys += keys.len() as u64;
        ops.attempted += keys.len() as u64;
        ops.false_negatives += missing;
        if missing > 0 || hits != expected_hits {
            ops.failed += missing.max(1);
        }
    }
    log.probe_s = offset + start.elapsed().as_secs_f64();
}

/// The untraced run: end-to-end metrics only. Each cost shuffle gets one
/// timed build and then an equal share of the probe time, so builds and
/// probes sample the whole run.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        let inputs = inputs::build_inputs(seed);
        setups.push(start.elapsed().as_secs_f64());
        kept = Some(inputs);
    }
    let inputs = kept.ok_or("no setup ran")?;
    let (keys, members) = mix_keys(&inputs);

    let rounds = inputs.costs.len();
    let per_round = seconds * PROBE_SHARE / rounds as f64;
    let mut builds = Vec::with_capacity(rounds);
    let mut wfprs = Vec::with_capacity(rounds);
    let mut bits_per_key = 0.0;
    let mut log = ProbeLog::default();
    for shuffle in 0..rounds {
        let (filter, s) = build(&inputs, shuffle)?;
        builds.push(s);
        check_members(filter.as_ref(), &inputs, &mut ops);
        wfprs.push(weighted_fpr(filter.as_ref(), &inputs, shuffle));
        bits_per_key = filter.space_bits() as f64 / inputs.data.positives.len() as f64;
        if shuffle == 0 {
            let mut warm = ProbeLog::default();
            probe_window(
                filter.as_ref(),
                &keys,
                &members,
                WARMUP_S,
                None,
                &mut warm,
                &mut ops,
            );
        }
        probe_window(
            filter.as_ref(),
            &keys,
            &members,
            per_round,
            None,
            &mut log,
            &mut ops,
        );
    }
    let sliced = Sliced::of(&log.done_at_s, &log.chunk_us, CHUNK as f64, log.probe_s);
    let latency = Latency::of(log.chunk_us.clone(), 0);

    let mut m = Measured::default();
    m.set("setup_s", median(&setups));
    m.set("query_keys_per_s", sliced.rate);
    m.set("query_p50_us", sliced.p50);
    m.set("query_p99_us", sliced.p99.unwrap_or(0.0));
    m.set("build_s", median(&builds));
    // The median, not the mean, over shuffles: one high-cost key left
    // unoptimized can double a single shuffle's figure.
    m.set("weighted_fpr", median(&wfprs));
    m.set("bits_per_key", bits_per_key);
    m.set("success_frac", 1.0 - ops.failed_frac());
    let notes = vec![
        ("latency_samples".into(), latency.samples.to_string()),
        ("samples_beyond_p99".into(), latency.beyond_p99.to_string()),
        ("slices".into(), sliced.slices.to_string()),
        (
            "window_keys_per_s".into(),
            format!("{:.0}", log.keys as f64 / log.probe_s),
        ),
        ("builds_s".into(), format!("{builds:?}")),
        ("weighted_fprs".into(), format!("{wfprs:?}")),
        ("weighted_fpr_mean".into(), mean(&wfprs).to_string()),
        ("setups_s".into(), format!("{setups:?}")),
        ("positives".into(), inputs.data.positives.len().to_string()),
        ("negatives".into(), inputs.data.negatives.len().to_string()),
    ];
    Ok(Outcome {
        measured: m,
        ops,
        notes,
    })
}

fn mean_ns_per_key(filter: &dyn DynFilter, keys: &[&[u8]], seconds: f64) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    let mut hits = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        hits += keys.iter().filter(|k| filter.contains(k)).count();
        passes += 1;
    }
    std::hint::black_box(hits);
    start.elapsed().as_secs_f64() * 1e9 / (passes as f64 * keys.len().max(1) as f64)
}

fn secs(tracer: &Tracer, span: crate::trace::SpanId) -> f64 {
    tracer.duration_ns(span) as f64 / 1e9
}

/// The traced run: per-layer metrics through each layer's public API,
/// on the first cost shuffle.
pub fn run_traced(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let mut m = Measured::default();

    let (inputs, span) = tracer.span("workloads.gen", None, 0, || inputs::build_inputs(seed));
    m.set("workloads.gen_s", secs(&tracer, span));

    // The registry build (the end-to-end path) and a direct `Habf::build`
    // with the config it resolves must agree; the direct one exposes the
    // optimizer's counters.
    let (built, _) = tracer.span("core.filter_api.build", None, 0, || build(&inputs, 0));
    let (filter, _) = built?;
    let negatives = costed(&inputs, 0);
    let cfg = habf_config(inputs.data.positives.len());
    let (habf, _) = tracer.span("core.tpjo.run", None, 0, || {
        Habf::build(&inputs.data.positives, &negatives, &cfg)
    });
    check_members(filter.as_ref(), &inputs, &mut ops);
    let (keys, members) = mix_keys(&inputs);
    ops.attempted += keys.len() as u64;
    if keys.iter().any(|k| habf.contains(k) != filter.contains(k)) {
        return Err("direct Habf::build disagrees with FilterSpec::habf()".into());
    }

    let stats = habf.stats();
    m.set(
        "core.tpjo.collision_keys",
        stats.initial_collision_keys as f64,
    );
    m.set("core.tpjo.optimized", stats.optimized as f64);
    m.set("core.tpjo.failed", stats.failed as f64);
    m.set("core.tpjo.requeued", stats.requeued as f64);
    m.set(
        "core.tpjo.optimized_frac",
        stats.optimized as f64 / stats.initial_collision_keys.max(1) as f64,
    );
    m.set(
        "core.hash_expressor.entries",
        habf.expressor_entries() as f64,
    );
    m.set("core.hash_expressor.fill_ratio", habf.fill_ratio());
    let round2 = keys
        .iter()
        .filter(|k| habf.query_verbose(k) != QueryOutcome::Round1Positive)
        .count();
    m.set("core.habf.round2_frac", round2 as f64 / keys.len() as f64);

    let split = |want: bool| -> Vec<&[u8]> {
        keys.iter()
            .zip(&members)
            .filter(|(_, &member)| member == want)
            .map(|(k, _)| *k)
            .collect()
    };
    let (member_keys, other_keys) = (split(true), split(false));
    let (ns, _) = tracer.span("core.habf.members", None, 0, || {
        mean_ns_per_key(filter.as_ref(), &member_keys, 0.25)
    });
    m.set("core.habf.member_ns_per_key", ns);
    let (ns, _) = tracer.span("core.habf.nonmembers", None, 0, || {
        mean_ns_per_key(filter.as_ref(), &other_keys, 0.25)
    });
    m.set("core.habf.nonmember_ns_per_key", ns);
    let (ns, _) = tracer.span("probe.scalar", None, 0, || {
        mean_ns_per_key(filter.as_ref(), &keys, 0.25)
    });
    m.set("probe.scalar_ns_per_key", ns);

    let family = HashFamily::with_size(cfg.usable_hashes());
    let h0: &[HashId] = habf.h0();
    let hashed: Vec<(&[u8], &[HashId])> = keys.iter().map(|&k| (k, h0)).collect();
    let (ns, _) = tracer.span("hashing.h0", None, 0, || time_hashing(&family, &hashed));
    m.set("hashing.hash_ns_per_key", ns);

    let (bytes, span) = tracer.span("core.registry.encode", None, 0, || {
        filter.to_container_bytes()
    });
    m.set("core.registry.encode_s", secs(&tracer, span));
    let path = work.join(format!("habf-{}.habc", std::process::id()));
    std::fs::write(&path, &bytes).map_err(|e| format!("write image: {e}"))?;
    let (mapped, span) = tracer.span("core.registry.load_mmap", None, 0, || {
        registry::load_mmap(&path)
    });
    m.set("core.registry.load_mmap_s", secs(&tracer, span));
    let (owned, span) = tracer.span("core.registry.load_owned", None, 0, || {
        registry::load(&bytes)
    });
    m.set("core.registry.load_owned_s", secs(&tracer, span));
    let mapped = mapped.map_err(|e| format!("load_mmap: {e}"))?.filter;
    let owned = owned.map_err(|e| format!("load: {e}"))?.filter;
    ops.attempted += 2;
    if keys.iter().any(|k| {
        mapped.contains(k) != filter.contains(k) || owned.contains(k) != filter.contains(k)
    }) {
        return Err("reloaded image answers differ from the built filter".into());
    }
    drop(mapped);
    let _ = std::fs::remove_file(&path);

    // The tenant layer over the same filter: snapshot + lock + probe.
    let store = TenantStore::new("bench", owned, AdaptPolicy::cost_threshold(f64::MAX));
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < 0.25 {
        for chunk in keys.chunks(CHUNK) {
            std::hint::black_box(store.contains_batch(chunk));
        }
        passes += 1;
    }
    m.set(
        "core.tenant.contains_batch_ns_per_key",
        start.elapsed().as_secs_f64() * 1e9 / (passes as f64 * keys.len() as f64),
    );

    // Tracing overhead: the same closed loop without, then with, a span
    // per request.
    let mut plain = ProbeLog::default();
    let mut traced = ProbeLog::default();
    let window = seconds / 4.0;
    probe_window(
        filter.as_ref(),
        &keys,
        &members,
        window,
        None,
        &mut plain,
        &mut ops,
    );
    probe_window(
        filter.as_ref(),
        &keys,
        &members,
        window,
        Some(&mut tracer),
        &mut traced,
        &mut ops,
    );
    let kps = |log: &ProbeLog| log.keys as f64 / log.probe_s;
    m.set("trace.overhead_frac", 1.0 - kps(&traced) / kps(&plain));

    let trace_path = work
        .parent()
        .unwrap_or(work)
        .join("traces")
        .join(format!("build-shalla-zipf-seed{seed}.jsonl"));
    tracer
        .write_jsonl(&trace_path, 50_000)
        .map_err(|e| format!("write trace: {e}"))?;
    let notes = vec![
        ("trace_file".into(), trace_path.display().to_string()),
        ("spans".into(), tracer.len().to_string()),
        ("untraced_keys_per_s".into(), format!("{:.0}", kps(&plain))),
    ];
    Ok(Outcome {
        measured: m,
        ops,
        notes,
    })
}
