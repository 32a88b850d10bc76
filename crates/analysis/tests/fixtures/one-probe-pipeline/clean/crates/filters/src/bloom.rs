/// Batches run through `pipeline::drive`, which owns [`PROBE_CHUNK`].
pub fn contains_batch(bits: &[bool], keys: &[usize]) -> Vec<bool> {
    let mut out = Vec::new();
    crate::pipeline::drive(keys, |k| out.push(bits[k % bits.len()]));
    let _doc = "PROBE_CHUNK";
    out
}
