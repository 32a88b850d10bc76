//! Word stores: where a filter's `u64` payload words live.
//!
//! Every filter in this workspace stores its state in `u64` words behind
//! [`crate::BitVec`] / [`crate::PackedCells`]. Those containers are generic
//! over a *word store* `S: WordStore`, so the same probe code serves
//!
//! * **owned** words (`Box<[u64]>`, `Vec<u64>`) — what builds produce,
//! * **borrowed** words (`&[u64]`) — scratch views in tests and tools,
//! * **shared image views** ([`SharedWords`]) — zero-copy windows into an
//!   [`ImageBytes`] (an mmap'ed filter file or an 8-aligned owned buffer)
//!   held alive by an [`Arc`], and
//! * the default [`Words`] store — a copy-on-write combination of the
//!   first and third: filters loaded from an image *view* their payload in
//!   place and promote to owned words at the first mutation
//!   ([`Words::make_mut`]).
//!
//! The mmap support is a dependency-free shim ([`Mmap`]): this workspace
//! builds offline, so instead of `memmap2` the mapping is a direct
//! `mmap(2)` syscall on Linux (x86_64 / aarch64), with a read-into-aligned-
//! buffer fallback on every other platform. The fallback keeps the same
//! API and alignment guarantees; only the "no heap copy of the payload"
//! property is platform-dependent.
//!
//! Alignment contract: an [`ImageBytes`] base pointer is always 8-byte
//! aligned (pages for mmap, `Box<[u64]>` for the owned representation), so
//! a [`SharedWords`] view only needs its *byte offset* to be a multiple of
//! 8 — which the `HABC` v2 container guarantees by construction for every
//! word frame it writes.

use std::sync::Arc;

// ---------------------------------------------------------------------
// Word-store traits
// ---------------------------------------------------------------------

/// A readable store of `u64` words. The `AsRef<[u64]>` supertrait carries
/// the data; the methods describe the storage itself.
pub trait WordStore: AsRef<[u64]> {
    /// Heap bytes owned by this store (0 for borrowed or image-backed
    /// words — the space accounting of a served filter should not charge
    /// the mmap'ed image to the heap).
    fn heap_bytes(&self) -> usize {
        core::mem::size_of_val(self.as_ref())
    }

    /// Where the words physically live.
    fn backing(&self) -> Backing {
        Backing::Owned
    }
}

/// A word store that can hand out mutable access to its words. For
/// [`Words`] this is the copy-on-write promotion point: a shared view
/// becomes owned on the first `words_mut` call.
pub trait WordStoreMut: WordStore {
    /// Mutable access to the words, promoting shared storage to owned
    /// first if necessary.
    fn words_mut(&mut self) -> &mut [u64];
}

impl WordStore for Box<[u64]> {}

impl WordStoreMut for Box<[u64]> {
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl WordStore for Vec<u64> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * core::mem::size_of::<u64>()
    }
}

impl WordStoreMut for Vec<u64> {
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl WordStore for &[u64] {
    fn heap_bytes(&self) -> usize {
        0
    }

    fn backing(&self) -> Backing {
        Backing::SharedBytes
    }
}

/// What physically backs a store (or a whole filter) — surfaced by
/// `habf inspect` as `backing: mmap|owned`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backing {
    /// Heap-owned words (built, promoted, or decoded the copying way).
    Owned,
    /// A view into a shared in-memory image (`ImageBytes::from_vec`).
    SharedBytes,
    /// A view into a memory-mapped file.
    Mmap,
}

impl Backing {
    /// Short display name (`owned`, `shared`, `mmap`).
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Backing::Owned => "owned",
            Backing::SharedBytes => "shared",
            Backing::Mmap => "mmap",
        }
    }

    /// Combines the backings of two components of one filter: the most
    /// view-like wins, so a filter reports `mmap` until every part has
    /// been promoted to owned words.
    #[must_use]
    pub fn combine(self, other: Backing) -> Backing {
        self.max(other)
    }
}

// ---------------------------------------------------------------------
// The mmap shim
// ---------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw `mmap(2)` / `munmap(2)` wrappers over the crate-shared
    //! syscall shim ([`crate::sys`]) — no libc, no crates; the container
    //! this workspace builds in has no network access, so the usual
    //! `memmap2` dependency is replaced by a few lines of the same
    //! thing. Read-only, private, whole-file mappings only.

    use crate::sys::{check, syscall6};

    const PROT_READ: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;

    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Maps `len` bytes of `fd` read-only. Returns the mapping address.
    pub fn mmap_readonly(fd: i32, len: usize) -> std::io::Result<*mut u8> {
        // SAFETY: addr = NULL asks the kernel to pick a placement; the fd
        // and length come from an open file the caller owns.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        check(ret).map(|addr| addr as *mut u8)
    }

    /// Unmaps a mapping created by [`mmap_readonly`].
    pub fn munmap(ptr: *mut u8, len: usize) {
        // SAFETY: only called from Mmap::drop with the exact pointer and
        // length the kernel returned.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

/// A read-only memory mapping of a whole file (Linux x86_64/aarch64).
///
/// On other platforms [`ImageBytes::open`] falls back to reading the file
/// into an aligned owned buffer instead of constructing an `Mmap`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub struct Mmap {
    ptr: core::ptr::NonNull<u8>,
    len: usize,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Mmap {
    /// Maps `file` read-only in its entirety. A zero-length file maps to
    /// an empty (dangling, never dereferenced) mapping.
    ///
    /// # Errors
    /// Propagates metadata or `mmap(2)` failures.
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::os::fd::AsRawFd;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
        if len == 0 {
            return Ok(Self {
                ptr: core::ptr::NonNull::dangling(),
                len: 0,
            });
        }
        let raw = sys::mmap_readonly(file.as_raw_fd(), len)?;
        let ptr = core::ptr::NonNull::new(raw)
            .ok_or_else(|| std::io::Error::other("mmap returned NULL"))?;
        Ok(Self { ptr, len })
    }

    /// The mapped bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping is live (unmapped only in Drop), readable,
        // and exactly `len` bytes long.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            sys::munmap(self.ptr.as_ptr(), self.len);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: the struct owns its read-only mapping exclusively; moving it
// to another thread just moves ownership of the pages.
unsafe impl Send for Mmap {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: the mapping is read-only for its whole lifetime, so sharing
// `&Mmap` across threads only ever reads the mapped pages.
unsafe impl Sync for Mmap {}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl core::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

// ---------------------------------------------------------------------
// ImageBytes: an 8-aligned, immutable, shareable byte image
// ---------------------------------------------------------------------

#[derive(Debug)]
enum ImageRepr {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped(Mmap),
    /// `Box<[u64]>` guarantees 8-byte base alignment; `byte_len` trims the
    /// zero padding of the final word.
    Owned(Box<[u64]>, usize),
}

/// An immutable filter image whose base address is 8-byte aligned, so
/// little-endian `u64` word regions inside it can be *viewed* in place.
///
/// Obtained by memory-mapping a file ([`ImageBytes::open`]) or by copying
/// a byte buffer once into aligned storage ([`ImageBytes::from_vec`]).
/// Shared via [`Arc`]: every [`SharedWords`] view holds the image alive.
#[derive(Debug)]
pub struct ImageBytes {
    repr: ImageRepr,
}

impl ImageBytes {
    /// Opens `path` as a shared image: memory-mapped where the shim
    /// supports it (Linux x86_64/aarch64), otherwise read into an aligned
    /// owned buffer.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let file = std::fs::File::open(path)?;
            Ok(Self {
                repr: ImageRepr::Mapped(Mmap::map_file(&file)?),
            })
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            Ok(Self::from_vec(std::fs::read(path)?))
        }
    }

    /// Wraps an in-memory image, copying it once into 8-aligned storage
    /// (a `Vec<u8>` has no alignment guarantee). The copy is a single
    /// `memcpy` of the image — no per-structure decoding.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let byte_len = bytes.len();
        let mut words = vec![0u64; byte_len.div_ceil(8)];
        // SAFETY: u64 has no invalid bit patterns and the destination
        // spans at least byte_len bytes.
        unsafe {
            core::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr().cast::<u8>(),
                byte_len,
            );
        }
        Self {
            repr: ImageRepr::Owned(words.into_boxed_slice(), byte_len),
        }
    }

    /// The image bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            ImageRepr::Mapped(m) => m.as_bytes(),
            ImageRepr::Owned(words, byte_len) => {
                // SAFETY: the allocation spans words.len()*8 >= byte_len
                // initialized bytes.
                unsafe { core::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *byte_len) }
            }
        }
    }

    /// Image length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// `true` for a zero-length image.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the image is served from a memory-mapped file.
    #[must_use]
    pub fn is_mmap(&self) -> bool {
        match &self.repr {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            ImageRepr::Mapped(_) => true,
            ImageRepr::Owned(..) => false,
        }
    }

    /// Views `len` words starting `word_off` words into the image.
    ///
    /// # Panics
    /// Panics if the range exceeds the image ([`SharedWords::new`] is the
    /// checked constructor).
    fn words(&self, word_off: usize, len: usize) -> &[u64] {
        let bytes = self.as_bytes();
        let start = word_off * 8;
        let end = start + len * 8;
        assert!(end <= bytes.len(), "word view out of image range");
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "image base misaligned");
        if len == 0 {
            return &[];
        }
        // SAFETY: the base pointer is 8-aligned by construction (mmap
        // pages / Box<[u64]>), the range was bounds-checked above, and
        // u64 has no invalid bit patterns. Little-endian interpretation
        // is the v2 format's on-disk contract (checked by the caller's
        // cfg; big-endian hosts take the copying path instead).
        unsafe { core::slice::from_raw_parts(bytes.as_ptr().add(start).cast::<u64>(), len) }
    }
}

impl AsRef<[u8]> for ImageBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

// ---------------------------------------------------------------------
// SharedWords: a word view into an Arc<ImageBytes>
// ---------------------------------------------------------------------

/// A zero-copy window of `u64` words inside a shared [`ImageBytes`].
///
/// Cloning is an `Arc` bump; the underlying image stays alive for as long
/// as any view into it does.
#[derive(Clone, Debug)]
pub struct SharedWords {
    image: Arc<ImageBytes>,
    word_off: usize,
    len: usize,
}

impl SharedWords {
    /// Creates a view of `words` words starting at `byte_off` bytes into
    /// `image`.
    ///
    /// Returns `None` when `byte_off` is not a multiple of 8 or the range
    /// leaves the image — the caller maps that to its own typed error
    /// (`PersistError::Misaligned` / `Truncated` in `habf-core`).
    #[must_use]
    pub fn new(image: Arc<ImageBytes>, byte_off: usize, words: usize) -> Option<Self> {
        if byte_off % 8 != 0 {
            return None;
        }
        let end = byte_off.checked_add(words.checked_mul(8)?)?;
        if end > image.len() {
            return None;
        }
        Some(Self {
            image,
            word_off: byte_off / 8,
            len: words,
        })
    }

    /// The words of the view.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        self.image.words(self.word_off, self.len)
    }

    /// `true` when the backing image is a memory-mapped file.
    #[must_use]
    pub fn is_mmap(&self) -> bool {
        self.image.is_mmap()
    }
}

impl AsRef<[u64]> for SharedWords {
    fn as_ref(&self) -> &[u64] {
        self.as_words()
    }
}

impl WordStore for SharedWords {
    fn heap_bytes(&self) -> usize {
        0
    }

    fn backing(&self) -> Backing {
        if self.is_mmap() {
            Backing::Mmap
        } else {
            Backing::SharedBytes
        }
    }
}

// ---------------------------------------------------------------------
// Words: the default copy-on-write store
// ---------------------------------------------------------------------

/// The default word store of [`crate::BitVec`] and [`crate::PackedCells`]:
/// either heap-owned words or a zero-copy [`SharedWords`] view, promoted
/// to owned at the first mutation ([`Words::make_mut`]).
///
/// This is what makes loaded filters cheap to *serve* and still fully
/// mutable: probes read through `as_ref()` either way; `insert`/`rebuild`
/// paths transparently pay the one copy the moment they actually write.
#[derive(Clone, Debug)]
pub enum Words {
    /// Heap-owned words.
    Owned(Box<[u64]>),
    /// A view into a shared image.
    Shared(SharedWords),
}

impl Words {
    /// Mutable word access, promoting a shared view to owned words first
    /// (the copy-on-write point).
    pub fn make_mut(&mut self) -> &mut [u64] {
        if let Words::Shared(view) = self {
            *self = Words::Owned(view.as_words().into());
        }
        match self {
            Words::Owned(words) => words,
            Words::Shared(_) => unreachable!("promoted above"),
        }
    }

    /// `true` while the words are still a view into a shared image.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        matches!(self, Words::Shared(_))
    }
}

impl AsRef<[u64]> for Words {
    /// Inlined so a probe kernel instantiated in another crate resolves
    /// the store with a branch, not a call, on every key.
    #[inline]
    fn as_ref(&self) -> &[u64] {
        match self {
            Words::Owned(words) => words,
            Words::Shared(view) => view.as_words(),
        }
    }
}

impl WordStore for Words {
    fn heap_bytes(&self) -> usize {
        match self {
            Words::Owned(words) => core::mem::size_of_val(words.as_ref()),
            Words::Shared(_) => 0,
        }
    }

    fn backing(&self) -> Backing {
        match self {
            Words::Owned(_) => Backing::Owned,
            Words::Shared(view) => view.backing(),
        }
    }
}

impl WordStoreMut for Words {
    fn words_mut(&mut self) -> &mut [u64] {
        self.make_mut()
    }
}

impl From<Vec<u64>> for Words {
    fn from(words: Vec<u64>) -> Self {
        Words::Owned(words.into_boxed_slice())
    }
}

impl From<Box<[u64]>> for Words {
    fn from(words: Box<[u64]>) -> Self {
        Words::Owned(words)
    }
}

impl From<SharedWords> for Words {
    fn from(view: SharedWords) -> Self {
        Words::Shared(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_from(words: &[u64]) -> Arc<ImageBytes> {
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        Arc::new(ImageBytes::from_vec(bytes))
    }

    #[test]
    fn from_vec_roundtrips_bytes_and_words() {
        let img = ImageBytes::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(img.as_bytes(), &[1, 2, 3, 4, 5]);
        assert!(!img.is_mmap());
        assert_eq!(img.len(), 5);

        let img = image_from(&[0xDEAD_BEEF, 42]);
        assert_eq!(img.words(0, 2), &[0xDEAD_BEEF, 42]);
        assert_eq!(img.words(1, 1), &[42]);
    }

    #[test]
    fn shared_words_checks_alignment_and_range() {
        let img = image_from(&[7, 8, 9]);
        let view = SharedWords::new(Arc::clone(&img), 8, 2).expect("aligned view");
        assert_eq!(view.as_words(), &[8, 9]);
        assert!(
            SharedWords::new(Arc::clone(&img), 4, 1).is_none(),
            "odd offset"
        );
        assert!(
            SharedWords::new(Arc::clone(&img), 8, 3).is_none(),
            "past end"
        );
        assert!(
            SharedWords::new(Arc::clone(&img), 24, 0).is_some(),
            "empty at end"
        );
    }

    #[test]
    fn words_cow_promotes_on_first_mutation() {
        let img = image_from(&[1, 2, 3]);
        let mut words: Words = SharedWords::new(Arc::clone(&img), 0, 3)
            .expect("view")
            .into();
        assert!(words.is_shared());
        assert_eq!(words.backing(), Backing::SharedBytes);
        assert_eq!(words.heap_bytes(), 0);
        assert_eq!(words.as_ref(), &[1, 2, 3]);

        words.make_mut()[1] = 99;
        assert!(!words.is_shared(), "mutation must promote to owned");
        assert_eq!(words.backing(), Backing::Owned);
        assert_eq!(words.as_ref(), &[1, 99, 3]);
        // The image itself is untouched.
        assert_eq!(img.words(0, 3), &[1, 2, 3]);
    }

    #[test]
    fn clone_of_shared_words_is_a_cheap_view() {
        let img = image_from(&[5; 1024]);
        let a: Words = SharedWords::new(img, 0, 1024).expect("view").into();
        let b = a.clone();
        assert!(b.is_shared());
        assert_eq!(a.as_ref(), b.as_ref());
    }

    #[test]
    fn backing_combine_prefers_views() {
        assert_eq!(Backing::Owned.combine(Backing::Mmap), Backing::Mmap);
        assert_eq!(Backing::Owned.combine(Backing::Owned), Backing::Owned);
        assert_eq!(
            Backing::SharedBytes.combine(Backing::Owned),
            Backing::SharedBytes
        );
        assert_eq!(Backing::Mmap.describe(), "mmap");
        assert_eq!(Backing::Owned.describe(), "owned");
        assert_eq!(Backing::SharedBytes.describe(), "shared");
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn mmap_shim_maps_a_real_file() {
        let path = std::env::temp_dir().join(format!(
            "habf-util-mmap-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let payload: Vec<u8> = (0..=255u8).cycle().take(12_345).collect();
        std::fs::write(&path, &payload).expect("write temp file");
        let img = ImageBytes::open(&path).expect("mmap open");
        assert!(img.is_mmap());
        assert_eq!(img.as_bytes(), payload.as_slice());
        assert_eq!(img.as_bytes().as_ptr() as usize % 8, 0, "page alignment");

        // Views over the mapping read the same bytes, word-wise.
        let arc = Arc::new(img);
        let view = SharedWords::new(Arc::clone(&arc), 8, 4).expect("view");
        assert_eq!(view.backing(), Backing::Mmap);
        let mut expect = [0u64; 4];
        for (i, w) in expect.iter_mut().enumerate() {
            *w = u64::from_le_bytes(payload[8 + i * 8..16 + i * 8].try_into().unwrap());
        }
        assert_eq!(view.as_words(), &expect);
        drop(view);
        drop(arc); // munmap runs; nothing to assert beyond "no crash"
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn mmap_empty_file_is_an_empty_image() {
        let path =
            std::env::temp_dir().join(format!("habf-util-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").expect("write empty");
        let img = ImageBytes::open(&path).expect("open empty");
        assert!(img.is_empty());
        assert_eq!(img.as_bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_errors() {
        assert!(ImageBytes::open("/no/such/habf/file").is_err());
    }
}
