//! Cross-crate property-based tests: invariants that must hold for *any*
//! strand, channel draw, or codeword.

use dnasim_testkit::prelude::*;

use dnasim::codec::{ReedSolomon, RotationCodec, TwoBitCodec, XorParity};
use dnasim::metrics::{gestalt_score, hamming, levenshtein, levenshtein_within};
use dnasim::prelude::*;

/// Strategy: a random strand of the given length range.
fn strand(len: std::ops::Range<usize>) -> impl Strategy<Value = Strand> {
    dnasim_testkit::collection::vec(0usize..4, len).prop_map(|idx| {
        idx.into_iter()
            .map(|i| Base::from_index(i).expect("index < 4"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- metric axioms ----------

    #[test]
    fn levenshtein_identity_and_symmetry(a in strand(0..60), b in strand(0..60)) {
        prop_assert_eq!(levenshtein(a.as_bases(), a.as_bases()), 0);
        prop_assert_eq!(
            levenshtein(a.as_bases(), b.as_bases()),
            levenshtein(b.as_bases(), a.as_bases())
        );
    }

    #[test]
    fn levenshtein_triangle_inequality(
        a in strand(0..40),
        b in strand(0..40),
        c in strand(0..40),
    ) {
        let ab = levenshtein(a.as_bases(), b.as_bases());
        let bc = levenshtein(b.as_bases(), c.as_bases());
        let ac = levenshtein(a.as_bases(), c.as_bases());
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn banded_levenshtein_agrees_with_full(a in strand(0..50), b in strand(0..50)) {
        let full = levenshtein(a.as_bases(), b.as_bases());
        let banded = levenshtein_within(a.as_bases(), b.as_bases(), 50);
        prop_assert_eq!(banded, Some(full));
    }

    #[test]
    fn gestalt_score_is_bounded_and_reflexive(a in strand(0..60), b in strand(0..60)) {
        let s = gestalt_score(a.as_bases(), b.as_bases());
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(gestalt_score(a.as_bases(), a.as_bases()), 1.0);
    }

    #[test]
    fn hamming_bounds_levenshtein(a in strand(0..60), b in strand(0..60)) {
        // Levenshtein is the minimum edit count; position-wise comparison
        // can only overcount.
        prop_assert!(levenshtein(a.as_bases(), b.as_bases()) <= hamming(&a, &b));
    }

    // ---------- edit-script soundness ----------

    #[test]
    fn edit_script_applies_and_is_minimal(a in strand(0..50), b in strand(0..50), seed in 0u64..1000) {
        let mut rng = seeded(seed);
        let script = dnasim::profile::edit_script(&a, &b, TieBreak::Random, &mut rng);
        prop_assert_eq!(script.apply(&a).unwrap(), b.clone());
        prop_assert_eq!(script.error_count(), levenshtein(a.as_bases(), b.as_bases()));
    }

    #[test]
    fn edit_script_of_mutated_read_applies_and_is_minimal(
        reference in strand(0..300),
        permille in 0u32..=300,
        seed in 0u64..1000,
    ) {
        // A read a few edits from its reference: the DP band is narrow, so
        // this exercises the banded fill rather than a whole-matrix band.
        let mut rng = seeded(seed);
        let read = NaiveModel::with_total_rate(f64::from(permille) / 1000.0)
            .corrupt(&reference, &mut rng);
        let script = dnasim::profile::edit_script(&reference, &read, TieBreak::Random, &mut rng);
        prop_assert_eq!(script.apply(&reference).unwrap(), read.clone());
        prop_assert_eq!(
            script.error_count(),
            levenshtein(reference.as_bases(), read.as_bases())
        );
    }

    // ---------- channel invariants ----------

    #[test]
    fn channel_scripts_round_trip(reference in strand(20..120), seed in 0u64..1000) {
        // Whatever the channel emits, the profiler can explain it: the
        // recovered script reproduces the read exactly.
        let model = NaiveModel::with_total_rate(0.1);
        let mut rng = seeded(seed);
        let read = model.corrupt(&reference, &mut rng);
        let script = dnasim::profile::edit_script(
            &reference, &read, TieBreak::PreferSubstitution, &mut rng,
        );
        prop_assert_eq!(script.apply(&reference).unwrap(), read);
    }

    #[test]
    fn zero_noise_channel_is_identity(reference in strand(0..120), seed in 0u64..100) {
        let model = NaiveModel::new(0.0, 0.0, 0.0);
        let mut rng = seeded(seed);
        prop_assert_eq!(model.corrupt(&reference, &mut rng), reference);
    }

    #[test]
    fn parametric_shapes_never_panic(
        reference in strand(0..80),
        seed in 0u64..100,
        p in 0.0f64..0.5,
    ) {
        for shape in [
            SpatialDistribution::Uniform,
            SpatialDistribution::AShaped,
            SpatialDistribution::VShaped,
            SpatialDistribution::nanopore_terminal(),
        ] {
            let model = ParametricModel::new(p, shape);
            let mut rng = seeded(seed);
            let read = model.corrupt(&reference, &mut rng);
            // Insertions at most double the strand.
            prop_assert!(read.len() <= reference.len() * 2 + 2);
        }
    }

    // ---------- reconstruction invariants ----------

    #[test]
    fn clean_clusters_reconstruct_exactly(reference in strand(10..80), coverage in 1usize..8) {
        let reads = vec![reference.clone(); coverage];
        for algo in [
            Box::new(BmaLookahead::default()) as Box<dyn TraceReconstructor>,
            Box::new(Iterative::default()),
            Box::new(TwoWayIterative::default()),
            Box::new(MajorityVote),
        ] {
            prop_assert_eq!(
                algo.reconstruct(&reads, reference.len()),
                reference.clone(),
                "{} failed",
                algo.name()
            );
        }
    }

    #[test]
    fn reconstruction_length_is_exact(
        reads in dnasim_testkit::collection::vec(strand(0..60), 0..6),
        len in 1usize..60,
    ) {
        for algo in [
            Box::new(BmaLookahead::default()) as Box<dyn TraceReconstructor>,
            Box::new(Iterative::default()),
            Box::new(DividerBma),
        ] {
            prop_assert_eq!(algo.reconstruct(&reads, len).len(), len);
        }
    }

    // ---------- codec invariants ----------

    #[test]
    fn two_bit_round_trip(bytes in dnasim_testkit::collection::vec(any::<u8>(), 0..64)) {
        let strand = TwoBitCodec.encode(&bytes);
        prop_assert_eq!(TwoBitCodec.decode(&strand).unwrap(), bytes);
    }

    #[test]
    fn rotation_round_trip_and_homopolymer_free(
        bytes in dnasim_testkit::collection::vec(any::<u8>(), 1..64),
    ) {
        let strand = RotationCodec.encode(&bytes);
        prop_assert!(strand.max_homopolymer() <= 1);
        prop_assert_eq!(RotationCodec.decode(&strand).unwrap(), bytes);
    }

    #[test]
    fn reed_solomon_corrects_within_capacity(
        data in dnasim_testkit::collection::vec(any::<u8>(), 16),
        positions in dnasim_testkit::collection::hash_set(0usize..24, 0..4),
        flip in 1u8..=255,
    ) {
        let rs = ReedSolomon::new(24, 16).unwrap();
        let mut cw = rs.encode(&data);
        for &p in &positions {
            cw[p] ^= flip;
        }
        prop_assert_eq!(rs.decode(&mut cw).unwrap(), &data[..]);
    }

    #[test]
    fn xor_parity_recovers_any_single_loss(
        payloads in dnasim_testkit::collection::vec(dnasim_testkit::collection::vec(any::<u8>(), 8), 1..9),
        group in 1usize..5,
        loss_seed in any::<u64>(),
    ) {
        let parity = XorParity::new(group);
        let protected = parity.protect(&payloads);
        let mut received: Vec<Option<Vec<u8>>> = protected.iter().cloned().map(Some).collect();
        let loss = (loss_seed as usize) % received.len();
        let lost = received[loss].take().unwrap();
        prop_assert_eq!(parity.recover(&mut received).unwrap(), 1);
        prop_assert_eq!(received[loss].as_ref().unwrap(), &lost);
    }
}
