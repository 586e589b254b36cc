//! The single-prime rank bound behind [`QMat::rank`](crate::QMat::rank).
//!
//! The counterexample construction asks whether evaluation matrices are
//! nonsingular (Definitions 37–38, Lemma 46).  Their entries are
//! homomorphism counts whose bit size grows with structure size, so dense
//! elimination over [`Rat`] pays bignum gcd/mul on every pivot step.  The
//! rank over `ℤ/p` for a word-size prime `p` is a certified *lower* bound on
//! the rank over ℚ (a non-zero minor mod p is non-zero over ℚ), so when it
//! reaches `min(rows, cols)` the exact rank is proved in machine words
//! (Montgomery arithmetic, `PrimeField`).  Anything short of that, or a
//! prime dividing a denominator, leaves the answer to exact elimination.
//! Small word-size matrices skip the bound altogether (`prescreen_pays`).

use crate::rat::Rat;
use std::sync::OnceLock;

// ---- word-size prime arithmetic --------------------------------------------

#[inline]
fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn powmod(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mulmod(acc, b, m);
        }
        b = mulmod(b, b, m);
        e >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for `u64` (the 12-base set is exact for all
/// 64-bit inputs).
fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The three fixed word-size primes of the rank bound: the largest primes
/// below `2⁶²`, verified by deterministic Miller–Rabin at first use (no
/// hand-copied constants to get wrong).  The bound uses the first one that
/// divides no denominator of the matrix.
pub fn primes() -> &'static [u64; 3] {
    static PRIMES: OnceLock<[u64; 3]> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let mut found = [0u64; 3];
        let mut candidate = (1u64 << 62) - 1;
        let mut i = 0;
        while i < 3 {
            if is_prime_u64(candidate) {
                found[i] = candidate;
                i += 1;
            }
            candidate -= 2;
        }
        found
    })
}

/// `ℤ/p` arithmetic in Montgomery form (`R = 2⁶⁴`) for an odd prime
/// `p < 2⁶³`.  All inputs and outputs of [`PrimeField::mul`] /
/// [`PrimeField::sub`] / [`PrimeField::inv`] are Montgomery residues;
/// [`PrimeField::rat`] maps an exact rational in.
#[derive(Clone, Copy, Debug)]
struct PrimeField {
    p: u64,
    /// `-p⁻¹ mod 2⁶⁴` (Newton iteration; the REDC constant).
    neg_pinv: u64,
    /// `2¹²⁸ mod p` — multiplying by it converts into Montgomery form.
    r2: u64,
    /// `2⁶⁴ mod p` — the Montgomery residue of one.
    r1: u64,
}

impl PrimeField {
    /// The field `ℤ/p` for an odd prime `p < 2⁶³`.
    fn new(p: u64) -> PrimeField {
        assert!(
            p % 2 == 1 && p > 1 && p < (1 << 63),
            "need an odd prime < 2^63"
        );
        // Newton: x ← x·(2 − p·x) doubles the number of correct low bits;
        // x = p is already correct mod 2³ for odd p.
        let mut x: u64 = p;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
        }
        debug_assert_eq!(p.wrapping_mul(x), 1);
        let r1 = ((u64::MAX as u128 + 1) % p as u128) as u64;
        let r2 = mulmod(r1, r1, p);
        PrimeField {
            p,
            neg_pinv: x.wrapping_neg(),
            r2,
            r1,
        }
    }

    /// REDC: `a·b·2⁻⁶⁴ mod p`.
    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        let t = a as u128 * b as u128;
        let m = (t as u64).wrapping_mul(self.neg_pinv);
        let u = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    /// Field subtraction.
    #[inline]
    fn sub(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Convert `x ∈ [0, p)` into Montgomery form.
    #[inline]
    fn to_mont(self, x: u64) -> u64 {
        self.mul(x % self.p, self.r2)
    }

    /// Multiplicative inverse of a non-zero Montgomery residue (Fermat).
    fn inv(&self, a: u64) -> u64 {
        debug_assert!(a != 0);
        let mut acc = self.r1;
        let mut base = a;
        let mut e = self.p - 2;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// The Montgomery residue of an exact rational, or `None` when `p`
    /// divides the (reduced) denominator — the *bad prime* case: the
    /// rational has no image in `ℤ/p` and the caller must skip this prime.
    fn rat(&self, r: &Rat) -> Option<u64> {
        let den = r.denom().mod_u64(self.p);
        if den == 0 {
            return None;
        }
        let num = r.numer().magnitude().mod_u64(self.p);
        let num = if r.numer().is_negative() && num != 0 {
            self.p - num
        } else {
            num
        };
        let num = self.to_mont(num);
        if den == 1 {
            return Some(num);
        }
        Some(self.mul(num, self.inv(self.to_mont(den))))
    }
}

/// Disjoint `(pivot, target)` row borrows.
fn row_pair(rows: &mut [Vec<u64>], src: usize, dst: usize) -> (&[u64], &mut [u64]) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (head, tail) = rows.split_at_mut(dst);
        (&head[src], &mut tail[0])
    } else {
        let (head, tail) = rows.split_at_mut(src);
        (&tail[0], &mut head[dst])
    }
}

/// Below this cell count a word-size-entry matrix skips the modular
/// prescreen: one tiny exact elimination beats field setup + reduction.
const PRESCREEN_CELL_CUTOFF: usize = 36;

/// Whether the modular prescreen amortizes its setup on a matrix of
/// `cells` entries: bignum entries always do — that is the whole point —
/// while word-size matrices must be large enough that the exact
/// elimination they avoid costs more than the reduction.
pub(crate) fn prescreen_pays<'a>(cells: usize, mut entries: impl Iterator<Item = &'a Rat>) -> bool {
    cells >= PRESCREEN_CELL_CUTOFF || entries.any(|r| r.bit_size() > 64)
}

/// A certified lower bound on the rank: the rank over `ℤ/p` for the first
/// prime dividing no denominator (`None` when every prime is bad).  Since
/// non-zero minors mod p are non-zero over ℚ, `rank_p ≤ rank_ℚ` always —
/// so when the bound reaches `min(rows, cols)` the exact rank is proved
/// without any bignum elimination.
pub(crate) fn rank_lower_bound(m: &crate::matrix::QMat) -> Option<usize> {
    let (rows, cols) = (m.nrows(), m.ncols());
    'prime: for &p in primes().iter() {
        let field = PrimeField::new(p);
        let mut data: Vec<Vec<u64>> = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for j in 0..cols {
                match field.rat(m.get(i, j)) {
                    Some(v) => row.push(v),
                    None => continue 'prime,
                }
            }
            data.push(row);
        }
        let mut rank = 0usize;
        for col in 0..cols {
            if rank >= rows {
                break;
            }
            let Some(sel) = (rank..rows).find(|&r| data[r][col] != 0) else {
                continue;
            };
            data.swap(rank, sel);
            let inv = field.inv(data[rank][col]);
            for r in rank + 1..rows {
                if data[r][col] == 0 {
                    continue;
                }
                let factor = field.mul(data[r][col], inv);
                let (pivot, target) = row_pair(&mut data, rank, r);
                for j in col..cols {
                    if pivot[j] != 0 {
                        target[j] = field.sub(target[j], field.mul(factor, pivot[j]));
                    }
                }
            }
            rank += 1;
        }
        return Some(rank);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::QVec;
    use cqdet_bigint::Int;

    /// A Montgomery residue back to its value in `[0, p)`.
    fn lift(f: &PrimeField, a: u64) -> u64 {
        f.mul(a, 1)
    }

    #[test]
    fn primes_are_prime_and_word_size() {
        for &p in primes() {
            assert!(is_prime_u64(p), "{p} must be prime");
            assert!(p < 1 << 62 && p > 1 << 61);
        }
        assert!(primes().windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn montgomery_field_roundtrip_and_laws() {
        let f = PrimeField::new(primes()[0]);
        for x in [0u64, 1, 2, 7, 1 << 40, f.p - 1] {
            assert_eq!(lift(&f, f.to_mont(x)), x % f.p);
        }
        let a = f.to_mont(123_456_789);
        let b = f.to_mont(987_654_321);
        assert_eq!(lift(&f, f.mul(a, b)), mulmod(123_456_789, 987_654_321, f.p));
        assert_eq!(lift(&f, f.sub(b, f.sub(b, a))), lift(&f, a));
        assert_eq!(lift(&f, f.mul(a, f.inv(a))), 1);
        assert_eq!(lift(&f, f.r1), 1);
    }

    #[test]
    fn rat_reduction_and_bad_primes() {
        let f = PrimeField::new(primes()[0]);
        // 3/4 mod p: 3·inv(4).
        let v = f.rat(&Rat::from_frac(3, 4)).unwrap();
        assert_eq!(lift(&f, f.mul(v, f.to_mont(4))), 3);
        // Negative values wrap.
        let neg = f.rat(&Rat::from_i64(-5)).unwrap();
        assert_eq!(lift(&f, neg), f.p - 5);
        // A denominator divisible by p is a bad prime.
        let bad = Rat::new(Int::one(), Int::from_nat(cqdet_bigint::Nat::from_u64(f.p)));
        assert_eq!(f.rat(&bad), None);
        // …but only for that prime.
        let other = PrimeField::new(primes()[1]);
        assert!(other.rat(&bad).is_some());
    }

    #[test]
    fn rank_lower_bound_is_sound() {
        let m = crate::matrix::QMat::from_i64_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(rank_lower_bound(&m), Some(2));
        let singular = crate::matrix::QMat::from_i64_rows(&[&[2, 4], &[1, 2]]);
        // The bound may undercount but never overcounts.
        assert!(rank_lower_bound(&singular).unwrap() <= 1);
        let rect = crate::matrix::QMat::from_i64_rows(&[&[1, 2, 3]]);
        assert_eq!(rank_lower_bound(&rect), Some(1));
        // Entries that vanish mod the first prime undercount there but the
        // later primes still see them.
        let p = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::from_u64(primes()[0])));
        let poisoned =
            crate::matrix::QMat::from_rows(&[QVec(vec![p.clone(), p]).scale(&Rat::one())]);
        assert_eq!(
            rank_lower_bound(&poisoned),
            Some(0),
            "first good prime answers"
        );
        assert_eq!(poisoned.rank(), 1, "exact fallback corrects the undercount");
    }
}
