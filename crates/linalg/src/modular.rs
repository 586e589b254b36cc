//! Tier 1 of the exact linear-algebra stack: **modular prescreening**.
//!
//! The span decision of the Main Lemma (Lemma 31) — and the rank / solve
//! questions the counterexample construction asks (Lemmas 40, 46, 57) — are
//! exact questions over ℚ, but their inputs are homomorphism counts whose
//! bit size grows with structure size, so dense elimination over [`Rat`]
//! pays bignum gcd/mul on every pivot step.  This module answers the same
//! questions over `ℤ/p` for 2–3 word-size primes first, where every
//! operation is a handful of machine instructions (Montgomery reduction,
//! [`PrimeField`]), and then makes the answer *exact* again:
//!
//! * a **solution** found mod p is lifted by CRT + rational reconstruction
//!   (Wang's algorithm) and re-verified entry by entry in exact rational
//!   arithmetic — only a verified `Σ αⱼ·v⃗ⱼ = q⃗` identity is returned;
//! * a **rejection** mod p comes with a left-null certificate `y⃗`
//!   (`y⃗ᵀA = 0`, `y⃗ᵀb ≠ 0`), which is lifted and re-verified the same way —
//!   an exactly verified certificate proves `q⃗ ∉ span` over ℚ, Fact-5 style;
//! * anything that cannot be certified (a prime dividing a denominator, a
//!   mod-p rank undercount, a reconstruction overflow) falls back to the
//!   exact tiers: first elimination on the submatrix named by the mod-p
//!   rank profile, then full exact elimination ([`SpanOutcome::Fallback`]).
//!
//! No approximate result can escape: every non-fallback outcome carries an
//! exact certificate checked in ℚ before it is returned, and the engine's
//! span-identity / counterexample re-verification remains in place one
//! layer up.  `CQDET_EXACT_LINALG=1` disables the modular tier entirely
//! (see [`exact_linalg_forced`]), forcing the pure-`Rat` path.

use crate::rat::Rat;
use crate::vector::{dot, QVec};
use cqdet_bigint::Int;
use cqdet_parallel::{Gas, Interrupt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether the `CQDET_EXACT_LINALG=1` escape hatch is active (checked once
/// per process).  When set, every modular prescreen reports
/// [`SpanOutcome::Fallback`] / `None` immediately and the callers run pure
/// exact rational elimination — the differential-debugging twin of
/// `CQDET_NAIVE_HOM`.
pub fn exact_linalg_forced() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("CQDET_EXACT_LINALG")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

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

/// The three fixed word-size primes of the modular tier: the largest primes
/// below `2⁶²`, verified by deterministic Miller–Rabin at first use (no
/// hand-copied constants to get wrong).  Primes 1–2 solve and CRT-combine;
/// prime 3 is an independent consistency check applied to reconstructed
/// values before the exact verification runs.
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
/// [`PrimeField::add`] / [`PrimeField::sub`] / [`PrimeField::inv`] are
/// Montgomery residues; [`PrimeField::rat`] maps an exact rational in and
/// [`PrimeField::lift`] maps a residue back to `[0, p)`.
#[derive(Clone, Copy, Debug)]
pub struct PrimeField {
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
    pub fn new(p: u64) -> PrimeField {
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

    /// The modulus.
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// The Montgomery residue of one.
    #[inline]
    pub fn one(&self) -> u64 {
        self.r1
    }

    /// REDC: `a·b·2⁻⁶⁴ mod p`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        let t = a as u128 * b as u128;
        let m = (t as u64).wrapping_mul(self.neg_pinv);
        let u = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        let s = a + b; // p < 2^63, so no overflow
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Convert `x ∈ [0, p)` into Montgomery form.
    #[inline]
    pub fn to_mont(&self, x: u64) -> u64 {
        self.mul(x % self.p, self.r2)
    }

    /// Convert a Montgomery residue back to its value in `[0, p)`.
    #[inline]
    pub fn lift(&self, a: u64) -> u64 {
        self.mul(a, 1)
    }

    /// Multiplicative inverse of a non-zero Montgomery residue (Fermat).
    pub fn inv(&self, a: u64) -> u64 {
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
    pub fn rat(&self, r: &Rat) -> Option<u64> {
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

// ---- dual-prime lanes -------------------------------------------------------

/// Whether the `CQDET_SEQUENTIAL_LANES=1` escape hatch is active (checked
/// once): run the dual-prime elimination as two sequential per-lane passes —
/// the shape the engine shipped with before the interleaved rewrite — kept
/// as the differential-testing oracle of the lane kernel.
fn sequential_lanes_env() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("CQDET_SEQUENTIAL_LANES")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// Process-wide programmatic override of the sequential-lane hatch, for
/// tests that must exercise both kernels inside one process (the env flag
/// is latched on first use).  Tests using it run in their own
/// integration-test binary so the global cannot race with unrelated tests.
static FORCE_SEQUENTIAL: AtomicBool = AtomicBool::new(false);

/// Force (or stop forcing) the sequential per-lane elimination, regardless
/// of the `CQDET_SEQUENTIAL_LANES` environment flag.  Test-only knob.
#[doc(hidden)]
pub fn force_sequential_lanes(on: bool) {
    FORCE_SEQUENTIAL.store(on, Ordering::SeqCst);
}

/// Whether the sequential oracle kernel is selected (env hatch or override).
fn sequential_lanes_active() -> bool {
    FORCE_SEQUENTIAL.load(Ordering::SeqCst) || sequential_lanes_env()
}

/// The two solver primes' Montgomery arithmetic over `[u64; 2]` lanes: each
/// operation performs both primes' reductions in adjacent lanes, so one
/// Gauss–Jordan pass eliminates modulo both primes at once (instead of two
/// sequential single-prime eliminations), and the straight-line two-lane
/// bodies vectorize.
#[derive(Clone, Copy)]
struct DualField {
    f: [PrimeField; 2],
}

impl DualField {
    #[inline]
    fn mul(&self, a: [u64; 2], b: [u64; 2]) -> [u64; 2] {
        [self.f[0].mul(a[0], b[0]), self.f[1].mul(a[1], b[1])]
    }

    #[inline]
    fn sub(&self, a: [u64; 2], b: [u64; 2]) -> [u64; 2] {
        [self.f[0].sub(a[0], b[0]), self.f[1].sub(a[1], b[1])]
    }
}

/// Both solver primes' fully reduced copies of the system, interleaved in
/// `[u64; 2]` lanes.  Lane 0 always holds a good prime (the driver);
/// `lane1_ok` records whether lane 1's prime divides no denominator — when
/// it does, lane 1 carries zeros and only lane 0 is meaningful.
struct DualSystem {
    dual: DualField,
    cols: Vec<Vec<[u64; 2]>>,
    b: Vec<[u64; 2]>,
    lane1_ok: bool,
}

/// Reduce every entry of the system mod both solver primes in one limb walk
/// per entry ([`cqdet_bigint::Nat::mod_pair_u64`]).  A prime dividing some
/// (reduced) denominator is *bad*: its lane is zeroed and flagged.  When the
/// first prime is bad the lanes are swapped so lane 0 still drives; `None`
/// when both primes are bad.
fn reduce_system_dual(
    fields: [PrimeField; 2],
    vectors: &[QVec],
    target: &QVec,
) -> Option<DualSystem> {
    let ps = [fields[0].prime(), fields[1].prime()];
    let mut ok = [true, true];
    let mut pair = |r: &Rat| -> [u64; 2] {
        let den = r.denom().mod_pair_u64(ps);
        let num = r.numer().magnitude().mod_pair_u64(ps);
        let mut out = [0u64; 2];
        for l in 0..2 {
            if !ok[l] {
                continue;
            }
            if den[l] == 0 {
                ok[l] = false;
                continue;
            }
            let f = &fields[l];
            let mut n = num[l];
            if r.numer().is_negative() && n != 0 {
                n = ps[l] - n;
            }
            let n = f.to_mont(n);
            out[l] = if den[l] == 1 {
                n
            } else {
                f.mul(n, f.inv(f.to_mont(den[l])))
            };
        }
        out
    };
    let mut cols: Vec<Vec<[u64; 2]>> = vectors
        .iter()
        .map(|v| v.iter().map(&mut pair).collect())
        .collect();
    let mut b: Vec<[u64; 2]> = target.iter().map(&mut pair).collect();
    let mut fields = fields;
    if !ok[0] {
        if !ok[1] {
            return None;
        }
        // Swap lanes so the good prime drives; entries reduced before the
        // bad denominator was hit carry stale lane-0 values, so re-zero.
        fields.swap(0, 1);
        for e in cols.iter_mut().flatten().chain(b.iter_mut()) {
            *e = [e[1], 0];
        }
        ok = [true, false];
    } else if !ok[1] {
        for e in cols.iter_mut().flatten().chain(b.iter_mut()) {
            e[1] = 0;
        }
    }
    Some(DualSystem {
        dual: DualField { f: fields },
        cols,
        b,
        lane1_ok: ok[1],
    })
}

/// Extract one lane of a [`DualSystem`] as a single-prime system (for the
/// certificate path, which lifts per-prime certificates and cannot ride the
/// shared-pivot dual elimination).
fn lane_system(sys: &DualSystem, lane: usize) -> ReducedSystem {
    ReducedSystem {
        field: sys.dual.f[lane],
        cols: sys
            .cols
            .iter()
            .map(|c| c.iter().map(|e| e[lane]).collect())
            .collect(),
        b: sys.b.iter().map(|e| e[lane]).collect(),
    }
}

// ---- mod-p elimination ------------------------------------------------------

/// The outcome of one Gauss–Jordan elimination of `[A | b⃗ | I]` over `ℤ/p`.
struct ZpElimination {
    /// Pivot columns of `A` — the mod-p rank profile (a subset of the exact
    /// rank profile's independent set: independence mod p implies
    /// independence over ℚ).
    pivot_cols: Vec<usize>,
    /// A solution of `A·x⃗ = b⃗` mod p (Montgomery residues, zero on free
    /// columns) when the system is consistent mod p.
    solution: Option<Vec<u64>>,
    /// When inconsistent mod p: `y⃗` (Montgomery residues, indexed by
    /// original row) with `y⃗ᵀA = 0` and `y⃗ᵀb⃗ ≠ 0` mod p.
    certificate: Option<Vec<u64>>,
}

/// Eliminate the augmented system `[A | b⃗]` over `ℤ/p`, where `A` is given
/// by `cols` (each of length `k`).  With `with_certificate`, the system is
/// further augmented by the `k × k` identity block, whose eliminated rows
/// turn an inconsistency into a constructive left-null certificate — the
/// extra `k` columns multiply the inner-loop work, so callers only ask for
/// it when they will actually lift a certificate (the Solved and
/// full-column-rank-rejection paths never do).
/// Additionally charges the [`Gas`] handle per row operation (`width`
/// steps each — machine-word work, so no byte accounting), interrupting
/// mid-elimination on an exhausted budget or expired deadline.
fn eliminate_mod_p(
    f: &PrimeField,
    cols: &[Vec<u64>],
    b: &[u64],
    with_certificate: bool,
    gas: &mut Gas,
) -> Result<ZpElimination, Interrupt> {
    let k = b.len();
    let n = cols.len();
    let width = if with_certificate { n + 1 + k } else { n + 1 };
    let mut rows: Vec<Vec<u64>> = (0..k)
        .map(|i| {
            let mut row = Vec::with_capacity(width);
            for c in cols {
                row.push(c[i]);
            }
            row.push(b[i]);
            if with_certificate {
                row.extend(std::iter::repeat_n(0u64, k));
                row[n + 1 + i] = f.one();
            }
            row
        })
        .collect();
    let mut orig: Vec<usize> = (0..k).collect();
    let mut pivot_cols = Vec::new();
    let mut pr = 0usize;
    for col in 0..n {
        if pr >= k {
            break;
        }
        let Some(sel) = (pr..k).find(|&r| rows[r][col] != 0) else {
            continue;
        };
        rows.swap(pr, sel);
        orig.swap(pr, sel);
        let inv = f.inv(rows[pr][col]);
        for x in rows[pr].iter_mut() {
            if *x != 0 {
                *x = f.mul(*x, inv);
            }
        }
        for r in 0..k {
            if r == pr || rows[r][col] == 0 {
                continue;
            }
            gas.steps(width as u64)?;
            let factor = rows[r][col];
            let (pivot, target) = row_pair(&mut rows, pr, r);
            for j in 0..width {
                if pivot[j] != 0 {
                    target[j] = f.sub(target[j], f.mul(factor, pivot[j]));
                }
            }
        }
        pivot_cols.push(col);
        pr += 1;
    }
    gas.flush()?;
    for row in rows.iter().skip(pr) {
        if row[n] != 0 {
            // This row of the eliminated matrix says yᵀ·[A | b] = [0 | ≠0],
            // with y recorded (per original row index) in the identity part
            // when it was carried.
            return Ok(ZpElimination {
                pivot_cols,
                solution: None,
                certificate: with_certificate.then(|| row[n + 1..].to_vec()),
            });
        }
    }
    let mut x = vec![0u64; n];
    for (i, &c) in pivot_cols.iter().enumerate() {
        x[c] = rows[i][n];
    }
    Ok(ZpElimination {
        pivot_cols,
        solution: Some(x),
        certificate: None,
    })
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

/// Disjoint `(pivot, target)` row borrows over `[u64; 2]`-lane rows.
fn row_pair_dual(
    rows: &mut [Vec<[u64; 2]>],
    src: usize,
    dst: usize,
) -> (&[[u64; 2]], &mut [[u64; 2]]) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (head, tail) = rows.split_at_mut(dst);
        (&head[src], &mut tail[0])
    } else {
        let (head, tail) = rows.split_at_mut(src);
        (&tail[0], &mut head[dst])
    }
}

/// The outcome of one dual-lane Gauss–Jordan elimination of `[A | b⃗]`.
struct DualElimination {
    /// Pivot columns — lane 0's mod-p rank profile (lane 0 drives pivoting).
    pivot_cols: Vec<usize>,
    /// Original row indices of the pivot rows, in pivot order.
    pivot_rows: Vec<usize>,
    /// A solution of `A·x⃗ = b⃗` (Montgomery residues per lane, zero on free
    /// columns) when the system is consistent mod lane 0's prime.
    solution: Option<Vec<[u64; 2]>>,
    /// Whether lane 1's residues are trustworthy: its prime was good, every
    /// pivot chosen by lane 0 was invertible mod it, and the zero rows were
    /// consistent in its lane too.  When false, only lane 0 may be used.
    lane1_ok: bool,
}

/// Gauss–Jordan elimination of `[A | b⃗]` over both solver primes at once:
/// pivoting is driven by lane 0, and every row operation updates both lanes
/// with per-lane factors — so whenever lane 1 survives (`lane1_ok`), both
/// lanes are in reduced row-echelon form *with the same pivot sequence*, and
/// the two residue vectors describe the same rational solution (the unique
/// one supported on the shared rank profile).  That is exactly what CRT
/// lifting needs, without a second elimination pass over the matrix.
///
/// Two kernel shapes compute the identical row-op sequence:
///
/// * **interleaved** (default): one pass per row operation, both Montgomery
///   reductions in adjacent `[u64; 2]` lanes — the auto-vectorizable shape;
/// * **sequential** (`CQDET_SEQUENTIAL_LANES=1` / [`force_sequential_lanes`]):
///   two per-lane passes per row operation — the pre-rewrite shape, kept as
///   the differential oracle.
///
/// Gas is charged once per row operation (`2·width` steps — one lane each),
/// outside the kernel branch, so the two shapes meter identically.
fn eliminate_mod_dual(sys: &DualSystem, gas: &mut Gas) -> Result<DualElimination, Interrupt> {
    let k = sys.b.len();
    let n = sys.cols.len();
    let width = n + 1;
    let dual = &sys.dual;
    let sequential = sequential_lanes_active();
    let mut rows: Vec<Vec<[u64; 2]>> = (0..k)
        .map(|i| {
            let mut row = Vec::with_capacity(width);
            for c in &sys.cols {
                row.push(c[i]);
            }
            row.push(sys.b[i]);
            row
        })
        .collect();
    let mut orig: Vec<usize> = (0..k).collect();
    let mut pivot_cols = Vec::new();
    let mut pivot_rows = Vec::new();
    let mut lane1_ok = sys.lane1_ok;
    let mut pr = 0usize;
    for col in 0..n {
        if pr >= k {
            break;
        }
        let Some(sel) = (pr..k).find(|&r| rows[r][col][0] != 0) else {
            continue;
        };
        rows.swap(pr, sel);
        orig.swap(pr, sel);
        let pv = rows[pr][col];
        let inv0 = dual.f[0].inv(pv[0]);
        let inv1 = if lane1_ok && pv[1] != 0 {
            dual.f[1].inv(pv[1])
        } else {
            // Lane 0's pivot is not invertible mod lane 1's prime: lane 1
            // cannot follow this pivot sequence.  Keep its lane arithmetic
            // running (harmless garbage) but never use its residues.
            lane1_ok = false;
            dual.f[1].one()
        };
        let inv = [inv0, inv1];
        for x in rows[pr].iter_mut() {
            *x = dual.mul(*x, inv);
        }
        for r in 0..k {
            let factor = rows[r][col];
            if r == pr || factor == [0, 0] {
                continue;
            }
            gas.steps(2 * width as u64)?;
            let (pivot, target) = row_pair_dual(&mut rows, pr, r);
            if sequential {
                for (t, p) in target.iter_mut().zip(pivot.iter()) {
                    t[0] = dual.f[0].sub(t[0], dual.f[0].mul(factor[0], p[0]));
                }
                for (t, p) in target.iter_mut().zip(pivot.iter()) {
                    t[1] = dual.f[1].sub(t[1], dual.f[1].mul(factor[1], p[1]));
                }
            } else {
                for (t, p) in target.iter_mut().zip(pivot.iter()) {
                    *t = dual.sub(*t, dual.mul(factor, *p));
                }
            }
        }
        pivot_cols.push(col);
        pivot_rows.push(orig[pr]);
        pr += 1;
    }
    gas.flush()?;
    for row in rows.iter().skip(pr) {
        if row[n][0] != 0 {
            return Ok(DualElimination {
                pivot_cols,
                pivot_rows,
                solution: None,
                lane1_ok,
            });
        }
        if row[n][1] != 0 {
            // Consistent mod lane 0's prime but not mod lane 1's: no
            // solution supported on the shared profile exists in lane 1.
            lane1_ok = false;
        }
    }
    let mut x = vec![[0u64; 2]; n];
    for (i, &c) in pivot_cols.iter().enumerate() {
        x[c] = rows[i][n];
    }
    Ok(DualElimination {
        pivot_cols,
        pivot_rows,
        solution: Some(x),
        lane1_ok,
    })
}

// ---- CRT + rational reconstruction -----------------------------------------

/// Integer square root of a `u128` (Newton; exact floor).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = 1u128 << (v.ilog2() / 2 + 1);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Wang's rational reconstruction: the unique `n/d` with
/// `|n|, d ≤ ⌊√(m/2)⌋`, `gcd(d, m) = 1` and `n ≡ u·d (mod m)`, if one
/// exists.  `m < 2¹²⁵` so every intermediate fits `i128`.
fn rat_reconstruct(u: u128, m: u128) -> Option<(i128, u128)> {
    debug_assert!(u < m && m < 1 << 125);
    let bound = isqrt_u128(m >> 1).max(1);
    let (mut r0, mut r1) = (m as i128, u as i128);
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 as u128 > bound {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    if t1 == 0 {
        return None;
    }
    let (n, d) = if t1 < 0 { (-r1, -t1) } else { (r1, t1) };
    if d as u128 > bound {
        return None;
    }
    let mut a = n.unsigned_abs();
    let mut b = d.unsigned_abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    if a != 1 {
        return None;
    }
    Some((n, d as u128))
}

/// CRT-combine residues `a₁ mod p₁` and `a₂ mod p₂` into the unique value
/// mod `p₁·p₂`.
fn crt2(a1: u64, p1: u64, a2: u64, p2: u64) -> u128 {
    let inv = powmod(p1 % p2, p2 - 2, p2);
    let diff = if a2 >= a1 % p2 {
        a2 - a1 % p2
    } else {
        a2 + p2 - a1 % p2
    };
    let t = mulmod(diff, inv, p2);
    a1 as u128 + p1 as u128 * t as u128
}

/// Build the exact rational for a reconstructed `(numerator, denominator)`.
fn rat_of(n: i128, d: u128) -> Rat {
    Rat::new(Int::from_i128(n), Int::from_i128(d as i128))
}

// ---- the tiered span solve --------------------------------------------------

/// The answer of [`span_solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// `target = Σ αⱼ·vectorsⱼ`, with the identity re-verified in exact
    /// rational arithmetic before returning.
    Solved(QVec),
    /// `target ∉ span{vectors}` — proved by an exactly verified left-null
    /// certificate `y⃗` (`⟨y⃗, v⃗ⱼ⟩ = 0` for all `j`, `⟨y⃗, target⟩ ≠ 0`).
    Rejected,
    /// The modular tier could not certify either way (hatch active, all
    /// primes bad, reconstruction failed, certificate failed exact
    /// verification); the caller must run exact elimination.
    Fallback,
}

/// One prime's fully reduced copy of the system.
struct ReducedSystem {
    field: PrimeField,
    cols: Vec<Vec<u64>>,
    b: Vec<u64>,
}

/// Reduce every entry of the system mod `p`; `None` if `p` divides any
/// denominator (bad prime).
fn reduce_system(field: PrimeField, vectors: &[QVec], target: &QVec) -> Option<ReducedSystem> {
    let cols = vectors
        .iter()
        .map(|v| v.iter().map(|r| field.rat(r)).collect::<Option<Vec<u64>>>())
        .collect::<Option<Vec<Vec<u64>>>>()?;
    let b = target
        .iter()
        .map(|r| field.rat(r))
        .collect::<Option<Vec<u64>>>()?;
    Some(ReducedSystem { field, cols, b })
}

/// Exact check of `Σ αⱼ·v⃗ⱼ = target`, row by row with early abort.
///
/// The common production case — integer vectors and target (homomorphism
/// counts), rational coefficients from the Wang lift — takes the integer
/// fast path: scale the coefficients by the lcm `D` of their denominators
/// and check `Σ (D·αⱼ)·vⱼᵢ = D·targetᵢ` in pure [`Int`] arithmetic, which
/// replaces a gcd-normalizing [`Rat`] multiply-add per cell with one bignum
/// multiply-accumulate.
fn verify_combination(vectors: &[QVec], target: &QVec, alpha: &[Rat]) -> bool {
    let k = target.dim();
    if target.iter().all(|r| r.is_integer())
        && vectors.iter().all(|v| v.iter().all(|r| r.is_integer()))
    {
        let mut d = Int::one();
        for a in alpha {
            d = d.lcm(&Int::from_nat(a.denom().clone()));
        }
        let scaled: Vec<Int> = alpha
            .iter()
            .map(|a| {
                a.numer()
                    .mul_ref(&d.div_exact(&Int::from_nat(a.denom().clone())))
            })
            .collect();
        let d_is_one = d.is_one();
        for i in 0..k {
            let mut acc = Int::zero();
            for (j, v) in vectors.iter().enumerate() {
                if !scaled[j].is_zero() && !v[i].is_zero() {
                    acc = acc.add_ref(&scaled[j].mul_ref(v[i].numer()));
                }
            }
            let mismatch = if d_is_one {
                acc != *target[i].numer()
            } else {
                acc != target[i].numer().mul_ref(&d)
            };
            if mismatch {
                return false;
            }
        }
        return true;
    }
    for i in 0..k {
        let mut acc = Rat::zero();
        for (j, v) in vectors.iter().enumerate() {
            if !alpha[j].is_zero() && !v[i].is_zero() {
                acc = acc.add_mul_ref(&alpha[j], &v[i]);
            }
        }
        if acc != target[i] {
            return false;
        }
    }
    true
}

/// Exact check of the rejection certificate: `y⃗ ⊥ every v⃗ⱼ`, `y⃗ ⊥̸ target`.
fn verify_rejection(vectors: &[QVec], target: &QVec, y: &QVec) -> bool {
    vectors.iter().all(|v| dot(y, v).is_zero()) && !dot(y, target).is_zero()
}

/// Cheap consistency probe of a reconstructed vector against an independent
/// check prime: images must match the residues a direct reduction gives.
/// `None` (no opinion) when the check prime is bad for some entry.
fn check_prime_agrees(
    field: PrimeField,
    vectors: &[QVec],
    target: &QVec,
    alpha: &[Rat],
) -> Option<bool> {
    let sys = reduce_system(field, vectors, target)?;
    let alpha_p = alpha
        .iter()
        .map(|r| field.rat(r))
        .collect::<Option<Vec<u64>>>()?;
    let k = target.dim();
    for i in 0..k {
        let mut acc = 0u64;
        for (j, col) in sys.cols.iter().enumerate() {
            acc = field.add(acc, field.mul(alpha_p[j], col[i]));
        }
        if acc != sys.b[i] {
            return Some(false);
        }
    }
    Some(true)
}

/// Reconstruct a vector of rationals from one or two primes' residues
/// (Montgomery form).  `residues` holds per-prime slices aligned with
/// `fields`; reconstruction is attempted from the first prime alone and
/// widened by CRT when that fails.
fn reconstruct_vector(fields: &[PrimeField], residues: &[&[u64]]) -> Option<Vec<Rat>> {
    let len = residues[0].len();
    let mut out = Vec::with_capacity(len);
    for (i, &first_residue) in residues[0].iter().enumerate() {
        let f0 = &fields[0];
        let a0 = f0.lift(first_residue);
        let single = rat_reconstruct(a0 as u128, f0.prime() as u128);
        let reconstructed = match single {
            Some((n, d)) if fields.len() == 1 => Some((n, d)),
            _ if fields.len() >= 2 => {
                let f1 = &fields[1];
                let a1 = f1.lift(residues[1][i]);
                let m = f0.prime() as u128 * f1.prime() as u128;
                let u = crt2(a0, f0.prime(), a1, f1.prime());
                rat_reconstruct(u, m)
            }
            other => other,
        };
        let (n, d) = reconstructed?;
        out.push(rat_of(n, d));
    }
    Some(out)
}

/// Below this cell count a word-size-entry matrix skips the modular
/// prescreen: one tiny exact elimination beats field setup + reduction.
/// Shared by the span and rank tiers so the policy cannot desynchronize.
const PRESCREEN_CELL_CUTOFF: usize = 36;

/// Whether the modular prescreen amortizes its setup on a matrix of
/// `cells` entries: bignum entries always do — that is the whole point —
/// while word-size matrices must be large enough that the exact
/// elimination they avoid costs more than the reduction.
pub(crate) fn prescreen_pays<'a>(cells: usize, mut entries: impl Iterator<Item = &'a Rat>) -> bool {
    cells >= PRESCREEN_CELL_CUTOFF || entries.any(|r| r.bit_size() > 64)
}

/// Modular-prescreened span solve: is `target ∈ span_ℚ{vectors}` and with
/// what coefficients?  See the [module docs](self) for the tier structure;
/// every non-[`Fallback`](SpanOutcome::Fallback) outcome has been verified
/// in exact rational arithmetic.
pub fn span_solve(vectors: &[QVec], target: &QVec) -> SpanOutcome {
    match span_solve_gas(vectors, target, &mut Gas::unlimited()) {
        Ok(outcome) => outcome,
        Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
    }
}

/// [`span_solve`] under fuel metering: the mod-p eliminations charge per
/// row operation, the exact verification of lifted certificates per
/// rational multiply-add.  `Err` interrupts the solve without an answer.
pub fn span_solve_gas(
    vectors: &[QVec],
    target: &QVec,
    gas: &mut Gas,
) -> Result<SpanOutcome, Interrupt> {
    if exact_linalg_forced() || vectors.is_empty() {
        return Ok(SpanOutcome::Fallback);
    }
    if target.is_zero() {
        return Ok(SpanOutcome::Solved(QVec::zeros(vectors.len())));
    }
    if !prescreen_pays(
        target.dim() * vectors.len(),
        target.iter().chain(vectors.iter().flat_map(|v| v.iter())),
    ) {
        return Ok(SpanOutcome::Fallback);
    }

    // Reduce the system mod *both* solver primes at once: one limb walk per
    // entry feeds the two `[u64; 2]` lanes (`Nat::mod_pair_u64`), and the
    // dual elimination below produces both primes' residues in a single
    // Gauss–Jordan pass — no lazy second-prime re-elimination on the
    // instances where single-prime reconstruction cannot express the
    // answer.  The reduction is metered per entry and lane, matching the
    // two per-prime walks it replaces.
    let cells = (target.dim() * (vectors.len() + 1)) as u64;
    gas.steps(2 * cells)?;
    let fields = [PrimeField::new(primes()[0]), PrimeField::new(primes()[1])];
    let Some(sys) = reduce_system_dual(fields, vectors, target) else {
        return Ok(SpanOutcome::Fallback); // every solver prime divides a denominator
    };

    // First elimination without the identity block: the two common
    // outcomes (a solution, or a full-column-rank rejection) never read
    // the left-null certificate, so they should not pay its extra k
    // columns of inner-loop work.
    let elim = eliminate_mod_dual(&sys, gas)?;
    match &elim.solution {
        Some(x0) => {
            // Consistent mod the driving prime: lift the candidate
            // coefficients (both lanes already solved) and verify.
            if let Some(alpha) = lift_dual_and_verify(&sys, &elim, x0, vectors, target, gas)? {
                return Ok(SpanOutcome::Solved(QVec(alpha)));
            }
            // Reconstruction failed: exact elimination on the pruned
            // submatrix named by the mod-p rank profile.  The pivot rows
            // are independent over ℚ (independence mod p lifts), so
            // solving them and verifying the candidate on *all* rows is
            // sound; a verification failure means the profile undercounted
            // and the caller runs the full exact elimination.
            if let Some(alpha) =
                pruned_exact_solve(vectors, target, &elim.pivot_cols, &elim.pivot_rows, gas)?
            {
                return Ok(SpanOutcome::Solved(QVec(alpha)));
            }
            Ok(SpanOutcome::Fallback)
        }
        None => {
            // Full column rank mod p forces full column rank over ℚ
            // (rank only drops under reduction), and the augmented system
            // exceeding it mod p means it exceeds it over ℚ too: the
            // inconsistency is already proved, no lifting required.  This
            // is the fast rejection for tall systems — O(k·n²) machine-word
            // operations total, independent of entry bit size.
            if elim.pivot_cols.len() == vectors.len() {
                return Ok(SpanOutcome::Rejected);
            }
            // Rank-deficient mod p: re-eliminate carrying the identity
            // block, lift the left-null certificate `y⃗` and verify it
            // exactly (its entries can be minor-sized, so this only
            // succeeds on small-coefficient instances; anything else falls
            // back to the exact tier).  Certificates cannot ride the dual
            // lanes — each lane's null row comes from per-lane factors, so
            // the two would be unrelated vectors — hence the per-prime
            // eliminations of `lift_and_verify` stay.
            let first = lane_system(&sys, 0);
            let spare = [sys.dual.f[1].prime()];
            let spare_primes: &[u64] = if sys.lane1_ok { &spare } else { &[] };
            let with_cert = eliminate_mod_p(&first.field, &first.cols, &first.b, true, gas)?;
            if let Some(y0) = &with_cert.certificate {
                if lift_and_verify(&first, spare_primes, &[], vectors, target, y0, false, gas)?
                    .is_some()
                {
                    return Ok(SpanOutcome::Rejected);
                }
            }
            Ok(SpanOutcome::Fallback)
        }
    }
}

/// Lift the dual elimination's solution residues — first from the driving
/// lane alone (most span coefficients are tiny), then CRT-widened with lane
/// 1 when it survived — and run the check-prime probe plus the mandatory
/// exact verification.  Returns the verified coefficients.
fn lift_dual_and_verify(
    sys: &DualSystem,
    elim: &DualElimination,
    x: &[[u64; 2]],
    vectors: &[QVec],
    target: &QVec,
    gas: &mut Gas,
) -> Result<Option<Vec<Rat>>, Interrupt> {
    let lane0: Vec<u64> = x.iter().map(|e| e[0]).collect();
    let lane1: Vec<u64> = x.iter().map(|e| e[1]).collect();
    for width in 1..=2usize {
        if width == 2 && !elim.lane1_ok {
            return Ok(None);
        }
        let fields = &sys.dual.f[..width];
        let slices: [&[u64]; 2] = [&lane0, &lane1];
        let Some(lifted) = reconstruct_vector(fields, &slices[..width]) else {
            continue;
        };
        // The exact verification multiplies every matrix entry once: meter
        // it as one step per cell before paying the bignum work.
        gas.steps((target.dim() * (vectors.len() + 1)) as u64)?;
        let check = PrimeField::new(primes()[2]);
        if check_prime_agrees(check, vectors, target, &lifted) == Some(false) {
            continue;
        }
        if verify_combination(vectors, target, &lifted) {
            return Ok(Some(lifted));
        }
    }
    Ok(None)
}

/// Lift residues from the first prime (widening by CRT with a spare solver
/// prime — reduced and eliminated lazily, only when single-prime
/// reconstruction cannot express the values), then run the appropriate
/// exact verification.
///
/// `residues` are aligned with the `first` system; `profile` is the first
/// prime's pivot-column rank profile, which the second prime's solve is
/// restricted to — both residue vectors must describe the *same* rational
/// vector (the unique solution supported on `profile`) or the CRT
/// combination is meaningless.  `as_solution` selects between the
/// combination identity and the rejection certificate check.  Returns the
/// verified rational vector.
#[allow(clippy::too_many_arguments)]
fn lift_and_verify(
    first: &ReducedSystem,
    spare_primes: &[u64],
    profile: &[usize],
    vectors: &[QVec],
    target: &QVec,
    residues: &[u64],
    as_solution: bool,
    gas: &mut Gas,
) -> Result<Option<Vec<Rat>>, Interrupt> {
    // Single-prime attempt first: most span coefficients are tiny.
    for width in 1..=2usize {
        let (chosen, per_prime): (Vec<PrimeField>, Vec<Vec<u64>>) = match width {
            1 => (vec![first.field], vec![residues.to_vec()]),
            _ => {
                // Reduce mod the first good spare prime.
                let Some(second) = spare_primes
                    .iter()
                    .find_map(|&p| reduce_system(PrimeField::new(p), vectors, target))
                else {
                    return Ok(None);
                };
                let second_res = if as_solution {
                    // Solve restricted to the first prime's pivot columns:
                    // those columns are independent over ℚ, so the rational
                    // solution supported on them (if any) is unique and
                    // both primes' residues are its images.  A different
                    // pivot split mod the spare prime would make the CRT
                    // combine two unrelated vectors.
                    let sub_cols: Vec<Vec<u64>> =
                        profile.iter().map(|&c| second.cols[c].clone()).collect();
                    let elim2 = eliminate_mod_p(&second.field, &sub_cols, &second.b, false, gas)?;
                    if elim2.pivot_cols.len() != profile.len() {
                        return Ok(None); // rank dropped mod the spare prime: incoherent
                    }
                    let Some(x) = elim2.solution else {
                        return Ok(None);
                    };
                    let mut full = vec![0u64; residues.len()];
                    for (pos, &c) in profile.iter().enumerate() {
                        full[c] = x[pos];
                    }
                    full
                } else {
                    match eliminate_mod_p(&second.field, &second.cols, &second.b, true, gas)?
                        .certificate
                    {
                        Some(cert) => cert,
                        None => return Ok(None),
                    }
                };
                if second_res.len() != residues.len() {
                    return Ok(None);
                }
                (
                    vec![first.field, second.field],
                    vec![residues.to_vec(), second_res],
                )
            }
        };
        let slices: Vec<&[u64]> = per_prime.iter().map(|v| v.as_slice()).collect();
        let Some(lifted) = reconstruct_vector(&chosen, &slices) else {
            continue;
        };
        // The exact verification multiplies every matrix entry once: meter
        // it as one step per cell before paying the bignum work.
        gas.steps((target.dim() * (vectors.len() + 1)) as u64)?;
        // Independent check prime first (cheap), then the mandatory exact
        // verification.
        let check = PrimeField::new(primes()[2]);
        if as_solution && check_prime_agrees(check, vectors, target, &lifted) == Some(false) {
            continue;
        }
        let verified = if as_solution {
            verify_combination(vectors, target, &lifted)
        } else {
            verify_rejection(vectors, target, &QVec(lifted.clone()))
        };
        if verified {
            return Ok(Some(lifted));
        }
    }
    Ok(None)
}

/// Exact elimination restricted to the mod-p rank profile: solve the
/// `r × r` system over the pivot rows/columns, zero-fill the free columns,
/// and verify the candidate on every row.  Sound because mod-p independence
/// lifts to ℚ; complete only when the profile did not undercount — the
/// final verification catches that case.
fn pruned_exact_solve(
    vectors: &[QVec],
    target: &QVec,
    pivot_cols: &[usize],
    pivot_rows: &[usize],
    gas: &mut Gas,
) -> Result<Option<Vec<Rat>>, Interrupt> {
    let r = pivot_cols.len();
    if r == 0 || (r == vectors.len() && r == target.dim()) {
        // Nothing to solve, or nothing was pruned (a square full-rank
        // system *is* the pivot subsystem): let the caller run the full
        // exact elimination once instead of twice.  A tall full-column-rank
        // system still benefits — the r×r pivot-row solve replaces a
        // k-row elimination.
        return Ok(None);
    }
    let sub_cols: Vec<QVec> = pivot_cols
        .iter()
        .map(|&c| QVec(pivot_rows.iter().map(|&i| vectors[c][i].clone()).collect()))
        .collect();
    let sub_target = QVec(pivot_rows.iter().map(|&i| target[i].clone()).collect());
    let Some(sub_solution) =
        crate::matrix::QMat::from_cols(&sub_cols).solve_gas(&sub_target, gas)?
    else {
        return Ok(None);
    };
    let mut alpha = vec![Rat::zero(); vectors.len()];
    for (pos, &c) in pivot_cols.iter().enumerate() {
        alpha[c] = sub_solution[pos].clone();
    }
    gas.steps((target.dim() * (vectors.len() + 1)) as u64)?;
    Ok(verify_combination(vectors, target, &alpha).then_some(alpha))
}

/// A certified lower bound on the rank: the rank over `ℤ/p` for the first
/// prime dividing no denominator (`None` when every prime is bad or the
/// hatch is active).  Since non-zero minors mod p are non-zero over ℚ,
/// `rank_p ≤ rank_ℚ` always — so when the bound reaches `min(rows, cols)`
/// the exact rank is proved without any bignum elimination.
pub(crate) fn rank_lower_bound(m: &crate::matrix::QMat) -> Option<usize> {
    if exact_linalg_forced() {
        return None;
    }
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
        for x in [0u64, 1, 2, 7, 1 << 40, f.prime() - 1] {
            assert_eq!(f.lift(f.to_mont(x)), x % f.prime());
        }
        let a = f.to_mont(123_456_789);
        let b = f.to_mont(987_654_321);
        assert_eq!(
            f.lift(f.mul(a, b)),
            mulmod(123_456_789, 987_654_321, f.prime())
        );
        assert_eq!(f.lift(f.add(a, f.sub(b, a))), f.lift(b));
        assert_eq!(f.lift(f.mul(a, f.inv(a))), 1);
        assert_eq!(f.lift(f.one()), 1);
    }

    #[test]
    fn rat_reduction_and_bad_primes() {
        let f = PrimeField::new(primes()[0]);
        // 3/4 mod p: 3·inv(4).
        let v = f.rat(&Rat::from_frac(3, 4)).unwrap();
        assert_eq!(f.lift(f.mul(v, f.to_mont(4))), 3);
        // Negative values wrap.
        let neg = f.rat(&Rat::from_i64(-5)).unwrap();
        assert_eq!(f.lift(neg), f.prime() - 5);
        // A denominator divisible by p is a bad prime.
        let bad = Rat::new(
            Int::one(),
            Int::from_nat(cqdet_bigint::Nat::from_u64(f.prime())),
        );
        assert_eq!(f.rat(&bad), None);
        // …but only for that prime.
        let other = PrimeField::new(primes()[1]);
        assert!(other.rat(&bad).is_some());
    }

    #[test]
    fn rational_reconstruction_roundtrip() {
        let p = primes()[0];
        let f = PrimeField::new(p);
        for (n, d) in [
            (1i64, 2u64),
            (-3, 7),
            (355, 113),
            (0, 1),
            (-1_000_003, 999_983),
        ] {
            let r = Rat::new(Int::from_i64(n), Int::from_i64(d as i64));
            let residue = f.lift(f.rat(&r).unwrap());
            let (rn, rd) = rat_reconstruct(residue as u128, p as u128).unwrap();
            assert_eq!(rat_of(rn, rd), r, "reconstruct {n}/{d}");
        }
    }

    #[test]
    fn crt_combines() {
        let (p1, p2) = (primes()[0], primes()[1]);
        let value = 0x1234_5678_9ABC_DEF0u128 * 3;
        let u = crt2(
            (value % p1 as u128) as u64,
            p1,
            (value % p2 as u128) as u64,
            p2,
        );
        assert_eq!(u, value);
    }

    #[test]
    fn span_solve_agrees_on_small_instances() {
        // Word-size tiny systems short-circuit to the exact tier…
        let small = QVec::from_i64s(&[2, 1, 3]);
        assert_eq!(
            span_solve(std::slice::from_ref(&small), &QVec::from_i64s(&[1, 1, 2])),
            SpanOutcome::Fallback
        );
        // …so scale everything by 2⁹⁶ to engage the modular path; the span
        // relation (and the coefficients) are invariant under common
        // scaling.
        let c = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::one().shl_bits(96)));
        let v1 = QVec::from_i64s(&[2, 1, 3]).scale(&c);
        let v2 = QVec::from_i64s(&[5, 2, 7]).scale(&c);
        let q = QVec::from_i64s(&[1, 1, 2]).scale(&c);
        match span_solve(&[v1.clone(), v2.clone()], &q) {
            SpanOutcome::Solved(alpha) => {
                assert_eq!(alpha, QVec::from_i64s(&[3, -1]));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        assert_eq!(
            span_solve(std::slice::from_ref(&v1), &q),
            SpanOutcome::Rejected
        );
        assert_eq!(
            span_solve(&[v1], &QVec::zeros(3)),
            SpanOutcome::Solved(QVec::zeros(1))
        );
    }

    #[test]
    fn span_solve_survives_rank_undercount() {
        // Every entry divisible by p₁: the matrix is identically zero mod
        // the first prime, so its rank profile undercounts; the exact
        // verification rejects the bogus lift and the certificate path must
        // not claim a false rejection either.
        // p₁² keeps every entry ≡ 0 (mod p₁) *and* over the word-size
        // threshold, so the modular tier engages instead of short-circuiting
        // to the exact tier.
        let p1 = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::from_u64(primes()[0])));
        let p = p1.mul_ref(&p1);
        let v = QVec(vec![p.clone(), p.mul_ref(&Rat::from_i64(2))]);
        let target = QVec(vec![
            p.mul_ref(&Rat::from_i64(3)),
            p.mul_ref(&Rat::from_i64(6)),
        ]);
        // target = 3·v, but mod p₁ everything is 0 and mod p₂ it is honest.
        match span_solve(std::slice::from_ref(&v), &target) {
            SpanOutcome::Solved(alpha) => assert_eq!(alpha, QVec::from_i64s(&[3])),
            SpanOutcome::Fallback => {} // acceptable: exact tier decides
            SpanOutcome::Rejected => panic!("false rejection must be impossible"),
        }
        // And a genuinely-outside target is never falsely accepted.
        let outside = QVec(vec![p.clone(), p.clone()]);
        match span_solve(&[v], &outside) {
            SpanOutcome::Rejected | SpanOutcome::Fallback => {}
            SpanOutcome::Solved(_) => panic!("false acceptance must be impossible"),
        }
    }

    /// Helper: an integer `QVec` scaled by `2⁹⁶` so the modular tier engages.
    fn scaled(vals: &[i64]) -> QVec {
        let c = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::one().shl_bits(96)));
        QVec::from_i64s(vals).scale(&c)
    }

    #[test]
    fn dual_elimination_matches_per_prime() {
        let vectors = [scaled(&[2, 1, 3]), scaled(&[5, 2, 7])];
        let target = scaled(&[1, 1, 2]);
        let fields = [PrimeField::new(primes()[0]), PrimeField::new(primes()[1])];
        let sys = reduce_system_dual(fields, &vectors, &target).unwrap();
        assert!(sys.lane1_ok);
        let mut gas = Gas::unlimited();
        let dual = eliminate_mod_dual(&sys, &mut gas).unwrap();
        assert!(dual.lane1_ok);
        let x = dual.solution.as_ref().unwrap();
        // Each lane must match the single-prime elimination of its extract.
        for lane in 0..2 {
            let single = lane_system(&sys, lane);
            let elim =
                eliminate_mod_p(&single.field, &single.cols, &single.b, false, &mut gas).unwrap();
            assert_eq!(elim.pivot_cols, dual.pivot_cols, "lane {lane} profile");
            let expect = elim.solution.unwrap();
            let got: Vec<u64> = x.iter().map(|e| e[lane]).collect();
            assert_eq!(got, expect, "lane {lane} residues");
        }
    }

    #[test]
    fn sequential_twin_computes_identical_lanes() {
        let vectors = [scaled(&[3, 1, 4, 1]), scaled(&[5, 9, 2, 6])];
        let target = scaled(&[8, 10, 6, 7]);
        let fields = [PrimeField::new(primes()[0]), PrimeField::new(primes()[1])];
        let sys = reduce_system_dual(fields, &vectors, &target).unwrap();
        let mut gas = Gas::unlimited();
        let fast = eliminate_mod_dual(&sys, &mut gas).unwrap();
        force_sequential_lanes(true);
        let slow = eliminate_mod_dual(&sys, &mut gas);
        force_sequential_lanes(false);
        let slow = slow.unwrap();
        assert_eq!(fast.pivot_cols, slow.pivot_cols);
        assert_eq!(fast.solution, slow.solution);
        assert_eq!(fast.lane1_ok, slow.lane1_ok);
    }

    #[test]
    fn bad_prime_lanes_are_skipped_or_swapped() {
        let shift = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::one().shl_bits(96)));
        // Denominator divisible by the second prime: lane 1 dies, lane 0
        // still solves.
        let bad1 = Rat::new(Int::one(), Int::from_i64(primes()[1] as i64)).mul_ref(&shift);
        let v = QVec(vec![bad1.clone(), bad1.mul_ref(&Rat::from_i64(2))]);
        let t = v.scale(&Rat::from_i64(3));
        match span_solve(&[v], &t) {
            SpanOutcome::Solved(alpha) => assert_eq!(alpha, QVec::from_i64s(&[3])),
            other => panic!("lane-1 bad prime must not block lane 0, got {other:?}"),
        }
        // Denominator divisible by the first prime: lanes swap and solve.
        let bad0 = Rat::new(Int::one(), Int::from_i64(primes()[0] as i64)).mul_ref(&shift);
        let v = QVec(vec![bad0.clone(), bad0.mul_ref(&Rat::from_i64(2))]);
        let t = v.scale(&Rat::from_i64(5));
        match span_solve(&[v], &t) {
            SpanOutcome::Solved(alpha) => assert_eq!(alpha, QVec::from_i64s(&[5])),
            other => panic!("lane-0 bad prime must swap lanes, got {other:?}"),
        }
        // Both solver primes bad: nothing to drive with — exact fallback.
        let both = Rat::new(
            Int::one(),
            Int::from_i64(primes()[0] as i64).mul_ref(&Int::from_i64(primes()[1] as i64)),
        )
        .mul_ref(&shift);
        let v = QVec(vec![both.clone(), both.mul_ref(&Rat::from_i64(2))]);
        let t = v.scale(&Rat::from_i64(7));
        assert_eq!(span_solve(&[v], &t), SpanOutcome::Fallback);
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
