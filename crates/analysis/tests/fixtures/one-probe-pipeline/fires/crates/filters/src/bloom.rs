use crate::pipeline::PROBE_CHUNK;

pub fn contains_batch(bits: &[bool], keys: &[usize]) -> Vec<bool> {
    let mut out = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(PROBE_CHUNK) {
        out.extend(chunk.iter().map(|&k| bits[k % bits.len()]));
    }
    out
}
