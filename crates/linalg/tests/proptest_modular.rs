//! Differential property tests for the exact solvers: the single-prime
//! rank bound behind `QMat::rank` and the incremental echelon form
//! ([`IncrementalBasis`]) against the dense `Rat` elimination oracle
//! (`QMat::rref`, [`span_coefficients`]) — including the adversarial
//! regimes the rank bound must survive: a solver prime dividing a
//! denominator (bad prime) and a matrix that vanishes mod a prime (rank
//! undercount).

use cqdet_linalg::{primes, span_coefficients, IncrementalBasis, Int, Nat, QMat, QVec, Rat};
use proptest::prelude::*;

/// A small rational from a (numerator, denominator-index) pair.
fn rat(n: i64, d_index: u8) -> Rat {
    let d = [1i64, 2, 3, 5][usize::from(d_index % 4)];
    Rat::from_frac(n, d)
}

/// Chop a flat entry list into `count` vectors of dimension `k`.
fn vectors_of(entries: &[(i64, u8)], count: usize, k: usize) -> Vec<QVec> {
    (0..count)
        .map(|c| {
            QVec(
                (0..k)
                    .map(|i| rat(entries[c * k + i].0, entries[c * k + i].1))
                    .collect(),
            )
        })
        .collect()
}

/// `Σ αᵢ·vᵢ`.
fn combine(vectors: &[QVec], alpha: &QVec) -> QVec {
    let mut acc = QVec::zeros(vectors[0].dim());
    for (a, v) in alpha.iter().zip(vectors) {
        acc = &acc + &v.scale(a);
    }
    acc
}

/// A solver prime as an exact rational.
fn prime_rat(index: usize) -> Rat {
    Rat::from_int(Int::from_nat(Nat::from_u64(primes()[index])))
}

/// The rank-≤`r` matrix `2⁶⁴ · Σ_{t<r} u⃗ₜ·w⃗ₜᵀ` (`rows × cols`) over
/// small integer factors, each factor entry flagged `true` divided by
/// `divisor`: bad denominators then mix with good ones inside a row, and
/// the rank is usually deficient.  The `2⁶⁴` scale (rank-invariant) puts
/// the entries over the word-size threshold, so the rank bound, not the
/// tiny-matrix short-circuit, answers first.
fn low_rank(
    u: &[(i64, bool)],
    w: &[(i64, bool)],
    (rows, cols, r): (usize, usize, usize),
    divisor: &Rat,
) -> QMat {
    let factor = |&(n, poisoned): &(i64, bool)| {
        let x = Rat::from_i64(n);
        if poisoned {
            x.div_ref(divisor)
        } else {
            x
        }
    };
    let shift = Rat::from_int(Int::from_nat(Nat::one().shl_bits(64)));
    let mut m = QMat::zeros(rows, cols);
    for t in 0..r {
        for i in 0..rows {
            for j in 0..cols {
                let term = factor(&u[t * rows + i]).mul_ref(&factor(&w[t * cols + j]));
                m.set(i, j, m.get(i, j).add_ref(&term.mul_ref(&shift)));
            }
        }
    }
    m
}

/// Scale row `i` of `m` by `factor` wherever `mask` bit `i` is set.
fn scale_rows(m: &QMat, factor: &Rat, mask: u8) -> QMat {
    QMat::from_rows(
        &(0..m.nrows())
            .map(|i| {
                if mask >> i & 1 == 1 {
                    m.row(i).scale(factor)
                } else {
                    m.row(i)
                }
            })
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bad primes: denominators divisible by solver prime 1 (and sometimes
    /// primes 2 and 3 as well) force the rank bound to skip primes or give
    /// up — never to overcount.
    #[test]
    fn bad_primes_are_skipped_not_trusted(
        shape in (1usize..6, 1usize..6, 1usize..4),
        u in prop::collection::vec((-4i64..5, any::<bool>()), 15),
        w in prop::collection::vec((-4i64..5, any::<bool>()), 15),
        poison_second in any::<bool>(),
        poison_all in any::<bool>(),
    ) {
        let mut divisor = prime_rat(0);
        if poison_second {
            divisor = divisor.mul_ref(&prime_rat(1));
        }
        if poison_all {
            divisor = divisor.mul_ref(&prime_rat(2));
        }
        let m = low_rank(&u, &w, shape, &divisor);
        let exact = m.rref().1;
        prop_assert_eq!(m.rank(), exact);
        prop_assert_eq!(m.is_nonsingular(), shape.0 == shape.1 && exact == shape.0);
    }

    /// Rank undercount: row 0 and the rows in `mask` are multiplied by p₁²,
    /// so they vanish mod p₁ and its rank undercounts; `rank` still matches
    /// the exact oracle.
    #[test]
    fn rank_undercount_cannot_corrupt(
        shape in (1usize..6, 1usize..6, 1usize..4),
        u in prop::collection::vec((-4i64..5, any::<bool>()), 15),
        w in prop::collection::vec((-4i64..5, any::<bool>()), 15),
        mask in 0u8..32,
    ) {
        let p = prime_rat(0).mul_ref(&prime_rat(0));
        let m = scale_rows(&low_rank(&u, &w, shape, &Rat::from_i64(7)), &p, mask | 1);
        prop_assert_eq!(m.rank(), m.rref().1);
    }

    /// The incremental echelon form agrees with the dense oracle: same
    /// rank, same membership, and its coefficients reconstruct the target.
    #[test]
    fn incremental_basis_matches_rref_oracle(
        count in 1usize..6,
        k in 1usize..5,
        entries in prop::collection::vec((-8i64..9, 0u8..4), 30),
        target_entries in prop::collection::vec((-8i64..9, 0u8..4), 5),
    ) {
        let vectors = vectors_of(&entries, count, k);
        let target = QVec((0..k).map(|i| rat(target_entries[i].0, target_entries[i].1)).collect());
        let mut basis = IncrementalBasis::new(k);
        for v in &vectors {
            basis.insert(v);
        }
        prop_assert_eq!(basis.rank(), QMat::from_cols(&vectors).rank(), "rank oracle");
        let exact = span_coefficients(&vectors, &target);
        let solved = basis.solve(&target);
        prop_assert_eq!(exact.is_some(), solved.is_some(), "membership oracle");
        if let Some(alpha) = solved {
            prop_assert_eq!(combine(&vectors, &alpha), target.clone());
        }
        // The lazily fed variant agrees too, and never feeds past the
        // spanning prefix.
        let mut lazy = IncrementalBasis::new(k);
        let extended = lazy.solve_extend(&target, &vectors);
        prop_assert_eq!(extended.is_some(), exact.is_some());
        prop_assert!(lazy.len() <= vectors.len());
        if let Some(alpha) = extended {
            let mut padded = alpha.0;
            padded.resize(vectors.len(), Rat::zero());
            prop_assert_eq!(combine(&vectors, &QVec(padded)), target.clone());
            // Early exit: the prefix that was fed already spans the target.
            let prefix: Vec<QVec> = vectors[..lazy.len()].to_vec();
            prop_assert!(span_coefficients(&prefix, &target).is_some());
        }
    }

    /// `rref` with content normalization and smallest-pivot selection still
    /// produces the canonical reduced echelon form: idempotent, rank-
    /// consistent, pivot entries one.
    #[test]
    fn rref_remains_canonical(
        rows in 2usize..5,
        cols in 2usize..5,
        entries in prop::collection::vec((-9i64..10, 0u8..4), 25),
        scale_num in 1i64..500,
        scale_den in 1i64..500,
    ) {
        let m = QMat::from_rows(
            &(0..rows)
                .map(|r| QVec((0..cols).map(|c| rat(entries[r * cols + c].0, entries[r * cols + c].1)).collect()))
                .collect::<Vec<_>>(),
        );
        let (r, rank, pivots) = m.rref();
        prop_assert_eq!(rank, pivots.len());
        for (row, &col) in pivots.iter().enumerate() {
            prop_assert!(r.get(row, col).is_one(), "pivot entries must be 1");
            for other in 0..rows {
                if other != row {
                    prop_assert!(r.get(other, col).is_zero(), "pivot columns are unit");
                }
            }
        }
        let (rr, rrank, rpivots) = r.rref();
        prop_assert_eq!(&rr, &r, "rref is idempotent");
        prop_assert_eq!(rrank, rank);
        prop_assert_eq!(rpivots, pivots.clone());
        // Row scaling changes neither the RREF nor the rank (content
        // normalization at work).
        let s = Rat::from_frac(scale_num, scale_den);
        let scaled = QMat::from_rows(
            &(0..rows).map(|i| m.row(i).scale(&s)).collect::<Vec<_>>(),
        );
        let (sr, srank, spivots) = scaled.rref();
        prop_assert_eq!(sr, r);
        prop_assert_eq!(srank, rank);
        prop_assert_eq!(spivots, pivots);
    }
}
