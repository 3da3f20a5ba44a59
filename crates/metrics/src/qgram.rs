//! Q-gram counting lower bound on edit distance (the error-ball prefilter).
//!
//! A single edit (substitution, insertion, or deletion) changes or shifts
//! at most `q` of a strand's overlapping q-grams, so two strands within
//! edit distance `d` must share — as multisets — at least
//! `max(|a|, |b|) − d·q` grams, where `|x|` is the number of q-grams in
//! strand `x` (Ukkonen's q-gram distance bound; the same window-damage
//! argument behind the IDS error-ball ball-size bounds of Abbasian et
//! al.). Contrapositively, a shared-gram deficit forces
//!
//! ```text
//! distance(a, b) ≥ ⌈(max(|a|, |b|) − shared(a, b)) / q⌉
//! ```
//!
//! Clustering uses this as a *prefilter*: a [`QGramProfile`] is built once
//! per read or representative (one pass plus a sort of small integers),
//! and candidates whose lower bound already exceeds the distance
//! threshold are dropped before any Myers kernel runs. The bound is
//! conservative, never spurious: a pruned candidate provably cannot land
//! within the threshold, so filtering can never change cluster
//! membership (asserted by the filtered-vs-unfiltered differential in
//! `dnasim-cluster`).
//!
//! # The bitmap pre-reject
//!
//! Most candidates the clusterer proposes are hopeless: archive strands
//! all carry the same primers, so MinHash bands collide for nearly every
//! group. [`QGramScratch::exceeds`] therefore answers "is the bound above
//! `limit`?" in two steps. Each profile also carries a 1024-bit folded
//! gram-presence bitmap (bit `code mod 1024`). A bucket set in `A` but
//! not in `B` holds at least one `a`-gram that has no equal in `b` —
//! equal grams fold to the same bucket — so
//!
//! ```text
//! shared(a, b) ≤ min(|a| − popcnt(A ∧ ¬B), |b| − popcnt(B ∧ ¬A))
//! ```
//!
//! and substituting that cap for `shared` gives a weaker bound, at most
//! the exact one, from 16 word-wide `and-not`/popcount steps. Only when
//! the weaker bound does not already exceed `limit` does the query fall
//! through to the exact histogram scan. Either way the answer is exactly
//! `bound > limit`: the pruned set, and with it every counter and every
//! membership downstream, is the one the exact bound alone gives.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::Strand;
//! use dnasim_metrics::qgram::QGramProfile;
//!
//! let a = QGramProfile::new(&"ACGTACGTACGT".parse::<Strand>()?, 3);
//! let b = QGramProfile::new(&"TTTTTTTTTTTT".parse::<Strand>()?, 3);
//! assert!(a.distance_lower_bound(&b) >= 1);
//! assert_eq!(a.distance_lower_bound(&a), 0);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

use dnasim_core::Strand;

/// Words in the folded gram-presence bitmap (16 × 64 = 1024 buckets).
const PRESENCE_WORDS: usize = 16;

/// The folded gram-presence bitmap of a gram list: bit `code mod 1024`
/// is set iff some gram with that residue occurs. Exact (unfolded) for
/// `q ≤ 5`, whose codes are all below 1024.
fn presence(grams: &[u16]) -> [u64; PRESENCE_WORDS] {
    let mut bits = [0u64; PRESENCE_WORDS];
    for &g in grams {
        bits[((g as usize) >> 6) % PRESENCE_WORDS] |= 1 << (g & 63);
    }
    bits
}

/// The sorted q-gram multiset of one strand, 2-bit packed (`q ≤ 8` keeps
/// every gram in a `u16`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QGramProfile {
    q: usize,
    /// Sorted 2-bit-packed gram codes, duplicates retained (multiset).
    grams: Vec<u16>,
    /// Folded presence bitmap of `grams` (see [`QGramScratch::exceeds`]).
    present: [u64; PRESENCE_WORDS],
}

impl QGramProfile {
    /// Profiles `strand` with gram length `q` (clamped to `1..=8`).
    ///
    /// A strand shorter than `q` has no grams; its profile yields a lower
    /// bound of 0 against everything and therefore never prunes.
    pub fn new(strand: &Strand, q: usize) -> QGramProfile {
        let q = q.clamp(1, 8);
        let bases = strand.as_bases();
        let mut grams: Vec<u16> = if bases.len() < q {
            Vec::new()
        } else {
            bases
                .windows(q)
                .map(|w| {
                    let mut code: u16 = 0;
                    for &b in w {
                        code = (code << 2) | b.index() as u16;
                    }
                    code
                })
                .collect()
        };
        grams.sort_unstable();
        let present = presence(&grams);
        QGramProfile { q, grams, present }
    }

    /// The gram length this profile was built with.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of q-grams in the profiled strand (`len − q + 1`, or 0).
    #[inline]
    pub fn gram_count(&self) -> usize {
        self.grams.len()
    }

    /// Multiset intersection size with `other` (sorted-merge scan).
    pub fn shared_grams(&self, other: &QGramProfile) -> usize {
        let (a, b) = (&self.grams, &other.grams);
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Lower bound on the edit distance between the two profiled strands:
    /// `⌈(max(|a|, |b|) − shared) / q⌉`.
    ///
    /// Returns 0 (no information) when the profiles were built with
    /// different `q`, so mismatched profiles degrade to "never prune"
    /// rather than to an unsound bound.
    pub fn distance_lower_bound(&self, other: &QGramProfile) -> usize {
        if self.q != other.q {
            return 0;
        }
        let most = self.grams.len().max(other.grams.len());
        let deficit = most - self.shared_grams(other);
        deficit.div_ceil(self.q)
    }
}

/// Load-once, query-many histogram for the hot-path variant of
/// [`QGramProfile::distance_lower_bound`].
///
/// The sorted-merge scan in `distance_lower_bound` pays a data-dependent
/// branch per gram on *both* sides of every pair. The clustering prefilter
/// instead [`load`](QGramScratch::load)s one profile's grams into a dense
/// `4^q`-entry counting array once, then [`bound`](QGramScratch::bound)s
/// any number of candidate profiles against it — each query is a read-only
/// run-length scan of just the candidate's gram list, so comparing one
/// read against many representatives costs `O(|candidate|)` per pair
/// instead of `O(|read| + |candidate|)` plus a histogram rebuild. The
/// bound is identical to the merge version. The prefilter itself calls
/// [`exceeds`](QGramScratch::exceeds), which rejects most hopeless
/// candidates from the presence bitmaps alone (see the module docs).
#[derive(Debug, Default)]
pub struct QGramScratch {
    /// Dense gram counts of the loaded profile (all-zero outside it).
    counts: Vec<u16>,
    /// Gram list of the loaded profile, kept for the sparse reset on the
    /// next load.
    loaded: Vec<u16>,
    /// `q` of the loaded profile (0 = nothing loaded: every bound is 0).
    loaded_q: usize,
    /// Gram count of the loaded profile.
    loaded_count: usize,
    /// Presence bitmap of the loaded profile.
    loaded_present: [u64; PRESENCE_WORDS],
}

impl QGramScratch {
    /// An empty scratch; the first [`load`](QGramScratch::load) sizes it.
    pub fn new() -> QGramScratch {
        QGramScratch::default()
    }

    /// Loads `profile` into the histogram, replacing any previous load.
    ///
    /// Only the entries set by the previous load are re-zeroed, so a load
    /// costs one pass over each profile's gram list regardless of `4^q`.
    pub fn load(&mut self, profile: &QGramProfile) {
        for &g in &self.loaded {
            self.counts[g as usize] = 0;
        }
        // Gram codes are 2q bits by construction, so they index `space`.
        let space = 1usize << (2 * profile.q);
        if self.counts.len() < space {
            self.counts.resize(space, 0);
        }
        for &g in &profile.grams {
            self.counts[g as usize] += 1;
        }
        self.loaded.clear();
        self.loaded.extend_from_slice(&profile.grams);
        self.loaded_q = profile.q;
        self.loaded_count = profile.grams.len();
        self.loaded_present = profile.present;
    }

    /// Lower bound on the edit distance between the loaded strand and
    /// `other` — exactly [`QGramProfile::distance_lower_bound`], but
    /// read-only, so one load serves any number of candidate queries.
    ///
    /// Returns 0 (never prunes) when nothing is loaded or the `q`s differ.
    pub fn bound(&self, other: &QGramProfile) -> usize {
        if self.loaded_q != other.q {
            return 0;
        }
        // `other.grams` is sorted, so equal grams form runs; each run of
        // length r contributes min(r, loaded count) to the multiset
        // intersection.
        let grams = &other.grams;
        let mut shared = 0usize;
        let mut i = 0usize;
        while i < grams.len() {
            let g = grams[i];
            let mut run = 1usize;
            while i + run < grams.len() && grams[i + run] == g {
                run += 1;
            }
            shared += run.min(self.counts[g as usize] as usize);
            i += run;
        }
        let most = self.loaded_count.max(grams.len());
        (most - shared).div_ceil(other.q)
    }

    /// Whether [`bound`](QGramScratch::bound) against `other` exceeds
    /// `limit` — the prefilter's question, answered exactly.
    ///
    /// First caps the shared-gram count from the presence bitmaps (an
    /// occupied bucket the other side lacks holds at least one unshared
    /// gram), which gives a bound no larger than the exact one; only when
    /// that cheap bound is `≤ limit` does the exact histogram scan run.
    /// Never prunes when nothing is loaded or the `q`s differ.
    pub fn exceeds(&self, other: &QGramProfile, limit: usize) -> bool {
        self.loaded_q == other.q
            && (self.presence_bound(other) > limit || self.bound(other) > limit)
    }

    /// The bitmap bound: [`bound`](QGramScratch::bound)'s formula with the
    /// shared-gram count replaced by its presence-bitmap cap, hence never
    /// larger than `bound`. Assumes equal `q`s.
    fn presence_bound(&self, other: &QGramProfile) -> usize {
        let (mut only_loaded, mut only_other) = (0usize, 0usize);
        for (&a, &b) in self.loaded_present.iter().zip(other.present.iter()) {
            only_loaded += (a & !b).count_ones() as usize;
            only_other += (b & !a).count_ones() as usize;
        }
        // Each occupied bucket holds at least one gram, so neither
        // subtraction underflows.
        let shared_cap = (self.loaded_count - only_loaded).min(other.grams.len() - only_other);
        let most = self.loaded_count.max(other.grams.len());
        (most - shared_cap).div_ceil(other.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::{seeded, Rng};
    use dnasim_core::Base;

    fn profile(text: &str, q: usize) -> QGramProfile {
        QGramProfile::new(&text.parse::<Strand>().unwrap(), q)
    }

    #[test]
    fn identical_strands_have_zero_bound() {
        let p = profile("ACGTACGTAC", 4);
        assert_eq!(p.distance_lower_bound(&p), 0);
        assert_eq!(p.shared_grams(&p), p.gram_count());
    }

    #[test]
    fn disjoint_alphabets_give_strong_bound() {
        let a = profile(&"A".repeat(40), 4);
        let b = profile(&"T".repeat(40), 4);
        assert_eq!(a.shared_grams(&b), 0);
        // 37 grams, zero shared, q = 4 → bound ⌈37/4⌉ = 10.
        assert_eq!(a.distance_lower_bound(&b), 10);
    }

    #[test]
    fn short_strands_never_prune() {
        let a = profile("AC", 5);
        let b = profile(&"ACGT".repeat(10), 5);
        // `a` has no grams: deficit is b's full gram count.
        assert_eq!(a.gram_count(), 0);
        assert!(a.distance_lower_bound(&b) <= 40);
        let c = profile("GT", 5);
        assert_eq!(a.distance_lower_bound(&c), 0);
    }

    #[test]
    fn mismatched_q_yields_no_information() {
        let a = profile("ACGTACGT", 3);
        let b = profile("TTTTTTTT", 4);
        assert_eq!(a.distance_lower_bound(&b), 0);
    }

    #[test]
    fn bound_never_exceeds_true_distance_randomised() {
        let mut rng = seeded(11);
        for _ in 0..200 {
            let len_a = 1 + (rng.next_u64() % 120) as usize;
            let len_b = 1 + (rng.next_u64() % 120) as usize;
            let a = Strand::random(len_a, &mut rng);
            let b = Strand::random(len_b, &mut rng);
            for q in [1usize, 3, 5, 8] {
                let pa = QGramProfile::new(&a, q);
                let pb = QGramProfile::new(&b, q);
                let bound = pa.distance_lower_bound(&pb);
                let true_d = crate::levenshtein(a.as_bases(), b.as_bases());
                assert!(
                    bound <= true_d,
                    "unsound bound {bound} > distance {true_d} (q={q}, a={a}, b={b})"
                );
                assert_eq!(bound, pb.distance_lower_bound(&pa), "bound is symmetric");
            }
        }
    }

    #[test]
    fn scratch_bound_equals_merge_bound() {
        let mut rng = seeded(23);
        let mut scratch = QGramScratch::new();
        assert_eq!(scratch.bound(&profile("ACGTACGT", 3)), 0, "unloaded scratch never prunes");
        for _ in 0..300 {
            let a = Strand::random(1 + (rng.next_u64() % 150) as usize, &mut rng);
            let b = Strand::random(1 + (rng.next_u64() % 150) as usize, &mut rng);
            for q in [1usize, 2, 5, 8] {
                let pa = QGramProfile::new(&a, q);
                let pb = QGramProfile::new(&b, q);
                // The scratch is reusable in both directions and across
                // mixed q sizes (the sparse reset really restores zero).
                scratch.load(&pa);
                assert_eq!(scratch.bound(&pb), pa.distance_lower_bound(&pb));
                scratch.load(&pb);
                assert_eq!(scratch.bound(&pa), pb.distance_lower_bound(&pa));
            }
        }
        // Mismatched q still degrades to "no information".
        let p3 = QGramProfile::new(&Strand::random(40, &mut rng), 3);
        let p4 = QGramProfile::new(&Strand::random(40, &mut rng), 4);
        scratch.load(&p3);
        assert_eq!(scratch.bound(&p4), 0);
    }

    /// Applies `edits` random substitutions, insertions and deletions.
    fn mutate(strand: &Strand, edits: usize, rng: &mut impl Rng) -> Strand {
        let mut bases = strand.as_bases().to_vec();
        for _ in 0..edits {
            let pos = (rng.next_u64() as usize) % (bases.len() + 1);
            match rng.next_u64() % 3 {
                0 if pos < bases.len() => bases[pos] = Base::random(rng),
                1 => bases.insert(pos, Base::random(rng)),
                _ if pos < bases.len() => {
                    bases.remove(pos);
                }
                _ => bases.push(Base::random(rng)),
            }
        }
        Strand::from_bases(bases)
    }

    /// `exceeds` must agree with `bound > limit` for every limit, in both
    /// load directions. Returns how many of those answers the bitmap bound
    /// settled on its own.
    fn assert_exceeds_matches(
        scratch: &mut QGramScratch,
        a: &QGramProfile,
        b: &QGramProfile,
    ) -> usize {
        let mut settled = 0;
        for (loaded, other) in [(a, b), (b, a)] {
            scratch.load(loaded);
            let exact = scratch.bound(other);
            if loaded.q() == other.q() {
                let weak = scratch.presence_bound(other);
                assert!(weak <= exact, "bitmap bound {weak} > exact {exact}");
                settled += weak.min(41);
            }
            for limit in 0..=40 {
                assert_eq!(
                    scratch.exceeds(other, limit),
                    exact > limit,
                    "q={} limit={limit} exact={exact}",
                    loaded.q()
                );
            }
        }
        settled
    }

    #[test]
    fn exceeds_matches_exact_bound_differential() {
        let mut rng = seeded(31);
        let mut scratch = QGramScratch::new();
        // Primer-flanked pairs share 40 bases of flank, like archive
        // strands: most grams are shared and the payload decides.
        let left = Strand::random(20, &mut rng);
        let right = Strand::random(20, &mut rng);
        let flank = |payload: &Strand| left.concat(payload).concat(&right);
        let (mut settled, mut asked) = (0usize, 0usize);
        for round in 0..120 {
            let len = (rng.next_u64() % 140) as usize;
            let a = Strand::random(len, &mut rng);
            let strands = [
                (
                    a.clone(),
                    Strand::random((rng.next_u64() % 140) as usize, &mut rng),
                ),
                (a.clone(), mutate(&a, round % 25, &mut rng)),
                (flank(&a), flank(&Strand::random(len, &mut rng))),
                (flank(&a), flank(&mutate(&a, round % 25, &mut rng))),
            ];
            for (x, y) in &strands {
                for q in 1..=8 {
                    let (px, py) = (QGramProfile::new(x, q), QGramProfile::new(y, q));
                    settled += assert_exceeds_matches(&mut scratch, &px, &py);
                    asked += 2 * 41;
                }
            }
        }
        // Both paths ran: the bitmap settled some answers, the exact scan
        // the rest.
        assert!(
            settled > 0 && settled < asked,
            "settled {settled} of {asked}"
        );
    }

    #[test]
    fn exceeds_edge_cases_never_prune_unsoundly() {
        let mut rng = seeded(32);
        let mut scratch = QGramScratch::new();
        let long = Strand::random(120, &mut rng);
        // A scratch with nothing loaded never prunes.
        for q in 1..=8 {
            let p = QGramProfile::new(&long, q);
            for limit in 0..=40 {
                assert!(
                    !scratch.exceeds(&p, limit),
                    "unloaded scratch pruned (q={q})"
                );
            }
        }
        for q in 1..=8 {
            let empty = QGramProfile::new(&Strand::new(), q);
            let stub = QGramProfile::new(&Strand::random(q - 1, &mut rng), q);
            let exact_q = QGramProfile::new(&Strand::random(q, &mut rng), q);
            let full = QGramProfile::new(&long, q);
            for (a, b) in [
                (&empty, &empty),
                (&empty, &stub),
                (&stub, &exact_q),
                (&empty, &full),
                (&stub, &full),
                (&exact_q, &full),
            ] {
                assert_exceeds_matches(&mut scratch, a, b);
            }
        }
        // Mismatched q: no information, never prunes.
        for (qa, qb) in [(3usize, 4usize), (5, 8), (1, 2)] {
            let a = QGramProfile::new(&long, qa);
            let b = QGramProfile::new(&Strand::random(120, &mut rng), qb);
            scratch.load(&a);
            for limit in 0..=40 {
                assert!(!scratch.exceeds(&b, limit));
            }
        }
    }

    #[test]
    fn bitmap_bound_is_tight_when_one_side_is_all_unshared() {
        // `a` is one gram repeated; `b`'s grams are all distinct and none
        // is `a`'s. The cap is `min(37 − 1, 37 − 37) = 0`, so the bitmap
        // bound equals the exact ⌈37/4⌉ = 10.
        let a = profile(&"A".repeat(40), 4);
        let b = profile("ACGTTGCACCTAGGATCCGTACTTGACAGTCATGCGGCTA", 4);
        assert_eq!(b.gram_count(), 37);
        assert!(
            b.grams.windows(2).all(|w| w[0] < w[1]),
            "b's grams are distinct"
        );
        assert_eq!(a.shared_grams(&b), 0);
        let mut scratch = QGramScratch::new();
        scratch.load(&a);
        assert_eq!(scratch.bound(&b), 10);
        assert_eq!(scratch.presence_bound(&b), 10);
        scratch.load(&b);
        assert_eq!(scratch.presence_bound(&a), 10);
    }

    #[test]
    fn single_edit_bound_is_at_most_one() {
        // One substitution damages ≤ q grams, so the bound must be ≤ 1.
        let a = profile("ACGTACGTACGTACGT", 4);
        let b = profile("ACGTACTTACGTACGT", 4);
        assert!(a.distance_lower_bound(&b) <= 1);
    }
}
