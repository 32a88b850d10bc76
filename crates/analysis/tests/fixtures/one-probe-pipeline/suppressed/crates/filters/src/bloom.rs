// habf-lint: allow(one-probe-pipeline) -- sizes a test batch to straddle a chunk boundary, no loop
pub const STRADDLE: usize = crate::pipeline::PROBE_CHUNK + 1;
