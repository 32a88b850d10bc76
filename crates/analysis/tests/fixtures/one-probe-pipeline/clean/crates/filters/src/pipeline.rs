pub const PROBE_CHUNK: usize = 64;

pub fn drive(keys: &[usize], mut emit: impl FnMut(usize)) {
    for chunk in keys.chunks(PROBE_CHUNK) {
        for &k in chunk {
            emit(k);
        }
    }
}
