//! The index-build determinism contract (ISSUE 6 / DESIGN.md §4g): building
//! twice from the same inputs yields byte-identical serializations, the
//! seed is the only source of structural variation, and searches are pure
//! functions of `(index, query, k)`. The `--threads` half of the contract
//! (representations computed under differing compute pools feeding
//! identical bundles) lives in `imre-serve`'s `bundle_compat` suite, since
//! `imre-ann` itself never consults the thread pool.

use imre_ann::{AnnIndex, HnswConfig, SearchScratch};
use imre_tensor::simd::{self, Backend};

fn clustered_vectors(n: usize, dim: usize) -> (Vec<f32>, Vec<u32>) {
    // Three deterministic Gaussian-ish blobs via an LCG — no std RNG, so
    // the fixture itself is reproducible.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    let mut vectors = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let cluster = i % 3;
        labels.push(cluster as u32);
        for d in 0..dim {
            let center = if d == cluster { 4.0 } else { 0.0 };
            vectors.push(center + next());
        }
    }
    (vectors, labels)
}

fn build_bytes(seed: u64) -> Vec<u8> {
    let (vectors, labels) = clustered_vectors(300, 6);
    let index = AnnIndex::build(6, vectors, labels, HnswConfig::with_seed(seed)).unwrap();
    let mut bytes = Vec::new();
    index.write_to(&mut bytes).unwrap();
    bytes
}

#[test]
fn repeated_builds_are_byte_identical() {
    assert_eq!(build_bytes(42), build_bytes(42));
}

#[test]
fn seed_is_the_only_structural_knob() {
    assert_ne!(build_bytes(1), build_bytes(2));
}

#[test]
fn search_is_reproducible_across_scratches_and_roundtrips() {
    let bytes = build_bytes(7);
    let a = AnnIndex::read_from(&mut &bytes[..]).unwrap();
    let b = AnnIndex::read_from(&mut &bytes[..]).unwrap();
    let (vectors, _) = clustered_vectors(300, 6);
    let mut sa = SearchScratch::new();
    let mut sb = SearchScratch::new();
    for q in vectors.chunks_exact(6).step_by(17) {
        assert_eq!(a.search(q, 8, &mut sa), b.search(q, 8, &mut sb));
    }
}

/// Distances go through the dispatched `l2sq` kernel, whose fixed lane
/// structure hides the tier: the scalar fallback builds the same bytes and
/// answers the same neighbor slices as the detected tier. 70 dims put two
/// full 32-lane blocks and a tail in every distance.
#[test]
fn index_does_not_depend_on_the_simd_tier() {
    let dim = 70;
    let (vectors, labels) = clustered_vectors(300, dim);
    let build = || {
        let index = AnnIndex::build(
            dim,
            vectors.clone(),
            labels.clone(),
            HnswConfig::with_seed(9),
        )
        .unwrap();
        let mut bytes = Vec::new();
        index.write_to(&mut bytes).unwrap();
        (index, bytes)
    };
    let (scalar, scalar_bytes) = simd::with_backend(Backend::Scalar, build);
    let (detected, detected_bytes) = build();
    assert_eq!(scalar_bytes, detected_bytes);

    let mut scratch = SearchScratch::new();
    for row in vectors.chunks_exact(dim).step_by(7) {
        let q: Vec<f32> = row.iter().map(|x| x * 0.9 + 0.05).collect();
        let want = simd::with_backend(Backend::Scalar, || {
            scalar.search(&q, 16, &mut scratch).to_vec()
        });
        assert_eq!(detected.search(&q, 16, &mut scratch), want);
    }
}

#[test]
fn clustered_queries_retrieve_their_own_cluster() {
    // The serve-time premise: representation-space neighbors share labels.
    let (vectors, labels) = clustered_vectors(300, 6);
    let index = AnnIndex::build(6, vectors, labels, HnswConfig::with_seed(3)).unwrap();
    let mut scratch = SearchScratch::new();
    let mut votes = vec![0.0f32; 3];
    for cluster in 0..3usize {
        let mut q = vec![0.0f32; 6];
        q[cluster] = 4.0;
        let neighbors = index.search(&q, 16, &mut scratch).to_vec();
        index.label_votes_into(&neighbors, &mut votes);
        assert!(
            votes[cluster] > 0.9,
            "cluster {cluster} votes {votes:?} not dominated by its own label"
        );
    }
}
