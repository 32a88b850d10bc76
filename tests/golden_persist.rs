//! Golden serialization tests: the persist formats (the legacy unsharded
//! `HABF` image, the legacy sharded `HABS` image, and the current `HABC`
//! container for every registered filter id) are pinned by checked-in
//! fixture blobs under `tests/golden/`, so any byte-level drift — field
//! order, a header change, hash-function renumbering — fails loudly
//! instead of silently orphaning every shipped filter image.
//!
//! To regenerate after a *deliberate, versioned* format change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_persist
//! ```

use habf::core::registry;
use habf::prelude::{
    BuildInput, DynFilter, FHabf, Filter, FilterSpec, Habf, HabfConfig, ImageFormat, ShardedConfig,
    ShardedHabf,
};
use std::path::PathBuf;

type Workload = (Vec<Vec<u8>>, Vec<(Vec<u8>, f64)>);

/// The canonical fixture workload: small enough to keep blobs a few KB,
/// rich enough to exercise the HashExpressor (costed collisions exist).
fn workload() -> Workload {
    let positives: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("golden:pos:{i}").into_bytes())
        .collect();
    let negatives: Vec<(Vec<u8>, f64)> = (0..64)
        .map(|i| (format!("golden:neg:{i}").into_bytes(), 1.0 + (i % 5) as f64))
        .collect();
    (positives, negatives)
}

fn fixture_config() -> HabfConfig {
    // The paper's defaults at 12 bits/key; the seed is the library default
    // so fixtures also pin default-seed stability.
    HabfConfig::with_total_bits(64 * 12)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `image` against the named fixture — or rewrites the fixture
/// when `GOLDEN_REGEN=1`.
fn assert_matches_fixture(name: &str, image: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, image).expect("write fixture");
        return;
    }
    let fixture = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        fixture, image,
        "{name}: serialized bytes drifted from the checked-in fixture; if the \
         format change is deliberate, bump the persist VERSION and regenerate \
         with GOLDEN_REGEN=1"
    );
}

#[test]
fn habf_image_is_byte_stable() {
    let (pos, neg) = workload();
    let filter = Habf::build(&pos, &neg, &fixture_config());
    let image = filter.to_bytes();
    assert_matches_fixture("habf_v1.bin", &image);

    // from_bytes(to_bytes(x)) is the identity on bytes and answers.
    let restored = Habf::from_bytes(&image).expect("fixture image loads");
    assert_eq!(restored.to_bytes(), image);
    for k in &pos {
        assert!(restored.contains(k));
    }
    for (k, _) in &neg {
        assert_eq!(restored.contains(k), filter.contains(k));
    }
}

#[test]
fn fhabf_image_is_byte_stable() {
    let (pos, neg) = workload();
    let filter = FHabf::build(&pos, &neg, &fixture_config());
    let image = filter.to_bytes();
    assert_matches_fixture("fhabf_v1.bin", &image);

    let restored = FHabf::from_bytes(&image).expect("fixture image loads");
    assert_eq!(restored.to_bytes(), image);
    for k in &pos {
        assert!(restored.contains(k));
    }
    for (k, _) in &neg {
        assert_eq!(restored.contains(k), filter.contains(k));
    }
}

#[test]
fn sharded_container_is_byte_stable() {
    let (pos, neg) = workload();
    let cfg = ShardedConfig::new(2, fixture_config());
    let filter = ShardedHabf::<Habf>::build_par(&pos, &neg, &cfg);
    let image = filter.to_bytes();
    assert_matches_fixture("sharded_habf_v1.bin", &image);

    let restored = ShardedHabf::<Habf>::from_bytes(&image).expect("fixture image loads");
    assert_eq!(restored.to_bytes(), image);
    assert_eq!(restored.shard_count(), 2);
    for k in &pos {
        assert!(restored.contains(k));
    }
    for (k, _) in &neg {
        assert_eq!(restored.contains(k), filter.contains(k));
    }
}

/// The v1 container envelope around `filter`'s v1 payload, built with
/// the reference encoder. Nothing in the workspace writes v1 any more,
/// but the v1 readers must keep loading byte-pinned images.
fn container_v1(filter: &dyn DynFilter) -> Vec<u8> {
    let mut payload = Vec::new();
    filter.write_payload(&mut payload);
    let mut image = Vec::new();
    habf::core::persist::encode_container(filter.filter_id(), &payload, &mut image);
    image
}

/// One container fixture **per envelope version** per registered filter
/// id: the v1 envelope (opaque payload, built by [`container_v1`] for
/// the v1 readers), the current v2 envelope
/// (aligned word frames), and every payload codec (including the
/// baselines, which gained persistence with the container) are
/// byte-pinned.
#[test]
fn container_images_are_byte_stable_for_every_registered_id() {
    let (pos, neg) = workload();
    let input = BuildInput::from_members(&pos).with_costed_negatives(&neg);
    for id in registry::ids() {
        let filter = FilterSpec::by_id(id)
            .expect("registered")
            .total_bits(64 * 12)
            .shards(2)
            .build(&input)
            .unwrap_or_else(|e| panic!("{id}: {e}"));

        // The previous envelope's bytes stay pinned, so the v1 images
        // already shipped keep loading.
        let image_v1 = container_v1(filter.as_ref());
        assert_matches_fixture(&format!("container_{id}_v1.bin"), &image_v1);

        // The current aligned envelope.
        let image = filter.to_container_bytes();
        assert_matches_fixture(&format!("container_{id}_v2.bin"), &image);

        for (version, bytes) in [(1u8, &image_v1), (2u8, &image)] {
            let loaded = registry::load(bytes).unwrap_or_else(|e| panic!("{id} v{version}: {e}"));
            assert_eq!(loaded.format, ImageFormat::Container, "{id} v{version}");
            assert_eq!(loaded.version, version, "{id}");
            assert_eq!(loaded.filter.filter_id(), id);
            // Re-encoding through the current writer is stable and lands
            // on the v2 bytes regardless of which version was loaded.
            assert_eq!(
                loaded.filter.to_container_bytes(),
                image,
                "{id} v{version}: re-encode"
            );
            for k in &pos {
                assert!(loaded.filter.contains(k), "{id} v{version}: member dropped");
            }
            for (k, _) in &neg {
                assert_eq!(
                    filter.contains(k),
                    loaded.filter.contains(k),
                    "{id} v{version}"
                );
            }
        }

        // The v2 image loads zero-copy through the shared-image path with
        // identical answers.
        let shared = registry::load_bytes(image.clone())
            .unwrap_or_else(|e| panic!("{id}: shared load: {e}"));
        assert_ne!(
            shared.filter.backing(),
            habf::util::Backing::Owned,
            "{id}: v2 shared load must be view-backed"
        );
        for k in pos.iter().take(16) {
            assert!(
                shared.filter.contains(k),
                "{id}: shared view dropped member"
            );
        }
    }
}

/// The pre-container fixtures must keep loading **byte-for-byte** through
/// the registry's legacy adapters — shipped images never re-serialize
/// differently, and the adapter reports the right id and format.
#[test]
fn legacy_fixtures_load_through_the_registry_adapters() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return; // fixtures may not exist yet during regeneration
    }
    for (fixture, id, format) in [
        ("habf_v1.bin", "habf", ImageFormat::LegacySingle),
        ("fhabf_v1.bin", "fhabf", ImageFormat::LegacySingle),
        (
            "sharded_habf_v1.bin",
            "sharded-habf",
            ImageFormat::LegacySharded,
        ),
    ] {
        let bytes = std::fs::read(golden_path(fixture)).expect("fixture");
        let loaded = registry::load(&bytes).unwrap_or_else(|e| panic!("{fixture}: {e}"));
        assert_eq!(loaded.format, format, "{fixture}");
        assert_eq!(loaded.version, 1, "{fixture}");
        assert_eq!(loaded.filter.filter_id(), id, "{fixture}");
        // The legacy image doubles as the id's container payload, so the
        // payload re-encodes to the legacy bytes exactly.
        let mut payload = Vec::new();
        loaded.filter.write_payload(&mut payload);
        assert_eq!(payload, bytes, "{fixture}: adapter altered legacy bytes");
        // And the golden workload still answers.
        let (pos, _) = workload();
        for k in &pos {
            assert!(loaded.filter.contains(k), "{fixture}: member dropped");
        }
    }
}

#[test]
fn fixtures_load_across_filter_kinds_only_where_legal() {
    // The fixtures must stay mutually exclusive: kind and magic bytes
    // prevent loading one format as another.
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return; // fixtures may not exist yet during regeneration
    }
    let habf = std::fs::read(golden_path("habf_v1.bin")).expect("fixture");
    let fhabf = std::fs::read(golden_path("fhabf_v1.bin")).expect("fixture");
    let sharded = std::fs::read(golden_path("sharded_habf_v1.bin")).expect("fixture");
    assert!(FHabf::from_bytes(&habf).is_err());
    assert!(Habf::from_bytes(&fhabf).is_err());
    assert!(Habf::from_bytes(&sharded).is_err());
    assert!(ShardedHabf::<Habf>::from_bytes(&habf).is_err());
    assert!(ShardedHabf::<FHabf>::from_bytes(&sharded).is_err());
}
