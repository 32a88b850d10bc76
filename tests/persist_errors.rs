//! Persistence error paths: untrusted bytes must produce *typed* errors,
//! never panics — truncation, bad magic, wrong container version,
//! unknown filter ids, frame misalignment, and arbitrary byte mutations,
//! across every registered filter id in **both** container versions (the
//! aligned v2 and the opaque v1) and both legacy formats, through the
//! copying loader *and* the zero-copy shared-image loader.

use habf::core::registry;
use habf::core::{BuildInput, DynFilter, FilterSpec, PersistError};
use proptest::prelude::*;

/// The v1 container envelope around `filter`'s v1 payload, built with
/// the reference encoder (nothing else writes v1 any more).
fn container_v1(filter: &dyn DynFilter) -> Vec<u8> {
    let mut payload = Vec::new();
    filter.write_payload(&mut payload);
    let mut image = Vec::new();
    habf::core::persist::encode_container(filter.filter_id(), &payload, &mut image);
    image
}

/// One small container image per registered id (plus the legacy images),
/// used as the mutation corpus. Built once — the proptests below run
/// hundreds of cases, and every filter construction is a full build.
fn corpus() -> &'static [(String, Vec<u8>)] {
    static CORPUS: std::sync::OnceLock<Vec<(String, Vec<u8>)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<(String, Vec<u8>)> {
    let members: Vec<Vec<u8>> = (0..64).map(|i| format!("m:{i}").into_bytes()).collect();
    let negatives: Vec<(Vec<u8>, f64)> = (0..64)
        .map(|i| (format!("n:{i}").into_bytes(), 1.0 + (i % 5) as f64))
        .collect();
    let input = BuildInput::from_members(&members).with_costed_negatives(&negatives);
    let mut images: Vec<(String, Vec<u8>)> = registry::ids()
        .into_iter()
        .flat_map(|id| {
            let filter = FilterSpec::by_id(id)
                .expect("registered")
                .bits_per_key(12.0)
                .shards(2)
                .build(&input)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            [
                // The current aligned envelope (word frames, zero-copy
                // loadable) and the previous opaque envelope: both must
                // be equally hardened against mutation.
                (format!("container-v2:{id}"), filter.to_container_bytes()),
                (format!("container-v1:{id}"), container_v1(filter.as_ref())),
            ]
        })
        .collect();
    // Legacy formats go through the same loader and must be as hardened.
    let cfg = habf::prelude::HabfConfig::with_total_bits(64 * 12);
    let habf = habf::prelude::Habf::build(&members, &negatives, &cfg);
    images.push(("legacy:habf".into(), habf.to_bytes()));
    let scfg = habf::prelude::ShardedConfig::new(2, cfg);
    let sharded =
        habf::prelude::ShardedHabf::<habf::prelude::Habf>::build_par(&members, &negatives, &scfg);
    images.push(("legacy:sharded".into(), sharded.to_bytes()));
    // A grown multi-tier stack: one container holding a frame set per
    // tier. Inside the corpus it rides every generic test — truncation
    // at every prefix lands *between* tier frame sets too, and random
    // mutations hit the per-tier counters.
    let mut scalable = FilterSpec::scalable_habf()
        .bits_per_key(12.0)
        .build(&input)
        .expect("scalable builds");
    {
        let growable = scalable.as_growable().expect("scalable grows");
        for i in 0..256 {
            growable.insert(format!("late:{i}").as_bytes());
        }
    }
    assert!(scalable.generations() > 1, "corpus stack must be grown");
    images.push((
        "container-v2:scalable-habf-grown".into(),
        scalable.to_container_bytes(),
    ));
    images.push((
        "container-v1:scalable-habf-grown".into(),
        container_v1(scalable.as_ref()),
    ));
    images
}

#[test]
fn truncations_at_every_prefix_error_not_panic() {
    for (name, image) in corpus() {
        for cut in 0..image.len() {
            let result = registry::load(&image[..cut]);
            assert!(result.is_err(), "{name}: cut at {cut} loaded");
            // The zero-copy shared-image loader must be exactly as
            // hardened: truncated frames are typed errors, never a
            // mis-sliced view.
            let result = registry::load_bytes(image[..cut].to_vec());
            assert!(result.is_err(), "{name}: cut at {cut} loaded shared");
        }
        assert!(registry::load(image).is_ok(), "{name}: pristine image");
        assert!(
            registry::load_bytes(image.clone()).is_ok(),
            "{name}: pristine shared image"
        );
    }
}

/// Zero-length and sub-header (1..8-byte) filter files are the on-disk
/// face of truncation: a crashed writer or an empty `touch`ed path. The
/// mmap loader must hand back `PersistError::Truncated` for every such
/// image of every registered id — never a panic, never a mis-sliced
/// view over a too-short mapping.
#[test]
fn sub_header_files_are_typed_truncations_through_mmap() {
    use habf::core::registry::OpenError;

    let dir = std::env::temp_dir().join(format!("habf-persist-tiny-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, image) in corpus() {
        let path = dir.join(name.replace(':', "_"));
        for cut in 0..=8.min(image.len() - 1) {
            std::fs::write(&path, &image[..cut]).expect("write prefix");
            let err = registry::load_mmap(&path)
                .err()
                .unwrap_or_else(|| panic!("{name}: {cut}-byte file loaded"));
            assert!(
                matches!(err, OpenError::Persist(PersistError::Truncated)),
                "{name}: {cut}-byte file gave {err:?}, want Truncated"
            );
            // The in-memory loaders agree byte for byte with the file path.
            assert_eq!(
                registry::load(&image[..cut]).err(),
                Some(PersistError::Truncated),
                "{name}: cut {cut}"
            );
            assert_eq!(
                registry::load_bytes(image[..cut].to_vec()).err(),
                Some(PersistError::Truncated),
                "{name}: cut {cut} shared"
            );
        }
        // The same path with the full image mmaps clean — the errors
        // above were about the bytes, not the file plumbing.
        std::fs::write(&path, image).expect("write image");
        assert!(registry::load_mmap(&path).is_ok(), "{name}: pristine mmap");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_wrong_version_and_unknown_id_are_typed() {
    for (name, image) in corpus() {
        // Magic damage.
        let mut bad = image.clone();
        bad[0] = b'Z';
        assert_eq!(
            registry::load(&bad).err(),
            Some(PersistError::BadMagic),
            "{name}"
        );
        // Version damage (byte 4 in every format).
        let mut bad = image.clone();
        bad[4] = 250;
        assert_eq!(
            registry::load(&bad).err(),
            Some(PersistError::BadVersion(250)),
            "{name}"
        );
        // Trailing garbage.
        let mut bad = image.clone();
        bad.push(0);
        assert!(registry::load(&bad).is_err(), "{name}: trailing byte");
    }

    // A well-formed container naming an id the registry does not serve.
    let (_, image) = &corpus()[0];
    let decoded = habf::core::persist::decode_container(image).expect("container");
    let mut unknown = Vec::new();
    habf::core::persist::encode_container("future-filter", decoded.payload, &mut unknown);
    assert_eq!(
        registry::load(&unknown).err(),
        Some(PersistError::UnknownFilterId("future-filter".into()))
    );
}

/// Tier-count corruption in a grown multi-tier image: the count is
/// validated against the tier cap before any tier decodes, so a lying
/// count is a typed error through both loaders — never a panic, and
/// never a count-sized allocation.
#[test]
fn corrupt_tier_counts_in_grown_images_are_typed() {
    let mut checked = 0;
    for (name, image) in corpus() {
        if !name.contains("scalable-habf-grown") {
            continue;
        }
        let tiers = registry::load(image)
            .expect("pristine image")
            .filter
            .generations() as u32;
        assert!(tiers > 1, "{name}: corpus stack must be grown");
        // The growth-parameter block ends with `max_tiers u32 ||
        // tier_count u32`; find that pair near the head of the image
        // and lie about the count.
        let needle: Vec<u8> = 16u32
            .to_le_bytes()
            .iter()
            .chain(tiers.to_le_bytes().iter())
            .copied()
            .collect();
        let at = image
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap_or_else(|| panic!("{name}: growth params not found"));
        for lie in [0u32, u32::MAX, 65u32] {
            let mut bad = image.clone();
            bad[at + 4..at + 8].copy_from_slice(&lie.to_le_bytes());
            assert!(
                matches!(registry::load(&bad).err(), Some(PersistError::Corrupt(_))),
                "{name}: tier count {lie} loaded"
            );
            assert!(
                registry::load_bytes(bad).is_err(),
                "{name}: tier count {lie} loaded shared"
            );
        }
        // Claiming one tier fewer than the frames hold is trailing
        // garbage, not a shorter filter.
        let mut bad = image.clone();
        bad[at + 4..at + 8].copy_from_slice(&(tiers - 1).to_le_bytes());
        assert!(
            registry::load(&bad).is_err(),
            "{name}: undercounted tiers loaded"
        );
        checked += 1;
    }
    assert_eq!(checked, 2, "both container versions must be exercised");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary single-byte mutations: load must return `Ok` or a typed
    /// error, and anything that loads must answer queries without
    /// panicking (a flipped payload byte may legally produce a different
    /// but well-formed filter).
    #[test]
    fn single_byte_mutations_never_panic(
        // Wide index range + modulo: a corpus that grows with future
        // registry entries stays fully covered without edits here.
        image_idx in 0usize..4096,
        offset_frac in 0.0f64..1.0,
        xor_with in 1u8..=255,
    ) {
        let corpus = corpus();
        let (name, image) = &corpus[image_idx % corpus.len()];
        let mut mutated = image.clone();
        let offset = ((mutated.len() - 1) as f64 * offset_frac) as usize;
        mutated[offset] ^= xor_with;
        if let Ok(loaded) = registry::load(&mutated) {
            // Loadable mutants must still be servable and re-encodable.
            let _ = loaded.filter.contains(b"probe:key");
            let _ = loaded.filter.space_bits();
            let _ = loaded.filter.to_container_bytes();
            let _ = name;
        }
        // The zero-copy loader sees the same mutant: a corrupt frame
        // table must come back as a typed error (e.g. Misaligned), and a
        // loadable mutant must serve through its views without panicking.
        if let Ok(loaded) = registry::load_bytes(mutated) {
            let _ = loaded.filter.contains(b"probe:key");
            let _ = loaded.filter.to_container_bytes();
        }
    }

    /// Arbitrary byte soup — including inputs forced to start with each
    /// valid magic — errors, never panics.
    #[test]
    fn random_bytes_error_not_panic(mut bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = registry::load(&bytes);
        // Force each known magic over the same soup so the per-format
        // decoders see adversarial headers, not just BadMagic exits.
        for magic in [b"HABF", b"HABS", b"HABC"] {
            if bytes.len() >= 4 {
                bytes[..4].copy_from_slice(magic);
            }
            let _ = registry::load(&bytes);
        }
    }
}
