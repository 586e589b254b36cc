//! The Lemma 31 span solver of the decide pipeline: an **online echelon form**.
//!
//! The batch regimes of the ROADMAP north star decide many span questions
//! against the *same* generating set (Definition 29 vectors of a shared
//! view pool) with varying targets, and the one-shot pipeline usually sees
//! the target enter the span long before every generator has been
//! eliminated.  A monolithic `QMat::solve` per call throws both structures
//! away; an [`IncrementalBasis`] keeps them:
//!
//! * generators are **inserted one at a time**, each reduced against the
//!   rows already present (fully reduced / Gauss–Jordan invariant, so
//!   insertion order never degrades later reductions);
//! * every row carries its **coordinates** over the inserted generators,
//!   so span membership and the certificate coefficients come out of the
//!   same reduction — no second elimination;
//! * [`IncrementalBasis::solve_extend`] feeds generators lazily and stops
//!   as soon as the target's residual hits zero (**early exit**): span
//!   questions over a planted workload never eliminate the columns after
//!   the spanning prefix, and a session-cached basis re-eliminates
//!   *nothing* for the second and later targets.
//!
//! Everything is exact `Rat` arithmetic — no verification step is needed,
//! it *is* the exact computation; the dense one-shot elimination
//! ([`crate::span_coefficients`]) is its differential-testing oracle.

use crate::rat::Rat;
use crate::vector::QVec;
use cqdet_parallel::{Gas, Interrupt};

/// One reduced row of the echelon form.
struct EchelonRow {
    /// The pivot column: `vec[pivot] = 1`, and every other row (and every
    /// reduced residual) is zero there.
    pivot: usize,
    /// The row itself, fully reduced against all other rows.
    vec: QVec,
    /// `vec = Σ coords[i] · generatorᵢ` over the inserted generators
    /// (entries past the stored length are zero).
    coords: Vec<Rat>,
}

/// An online echelon form over ℚ with per-row generator coordinates:
/// generators are inserted one at a time into a fully reduced echelon, and
/// [`IncrementalBasis::solve_extend`] feeds them lazily with early exit.
pub struct IncrementalBasis {
    dim: usize,
    /// Number of generators inserted so far (including dependent ones).
    inserted: usize,
    rows: Vec<EchelonRow>,
}

/// `acc[..] += f · src[..]`, growing `acc` with zeros as needed (subtract
/// by passing `f.neg_ref()`).
fn axpy(acc: &mut Vec<Rat>, f: &Rat, src: &[Rat]) {
    if acc.len() < src.len() {
        acc.resize(src.len(), Rat::zero());
    }
    for (a, s) in acc.iter_mut().zip(src) {
        if !s.is_zero() {
            *a = a.add_mul_ref(f, s);
        }
    }
}

/// `vec -= f · src` componentwise, skipping zero source entries — the one
/// elimination inner loop every reduction in this module shares.
fn sub_scaled(vec: &mut QVec, f: &Rat, src: &QVec) {
    for (t, s) in vec.0.iter_mut().zip(src.0.iter()) {
        if !s.is_zero() {
            *t = t.sub_mul_ref(f, s);
        }
    }
}

/// Fuel for one row operation against a row of `width` entries whose
/// elimination factor is `f`: `width` steps of work, plus the factor's bit
/// size as the byte proxy for the coefficient growth it causes.
#[inline]
fn charge_row_op(gas: &mut Gas, f: &Rat, width: usize) -> Result<(), Interrupt> {
    gas.charge_bytes(f.bit_size() as u64 / 8);
    gas.steps(width as u64)
}

impl IncrementalBasis {
    /// An empty basis in ambient dimension `dim`.
    pub fn new(dim: usize) -> IncrementalBasis {
        IncrementalBasis {
            dim,
            inserted: 0,
            rows: Vec::new(),
        }
    }

    /// The ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of generators inserted so far.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether no generator has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// The rank of the inserted generators.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of heap storage owned by this basis: every row's vector and
    /// coordinate buffers, limb storage included.  Feeds the byte-accurate
    /// cost accounting of the governed span cache — echelon rows over
    /// bigint rationals are by far its heaviest entries.
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| {
                row.vec.heap_bytes()
                    + row.coords.capacity() * std::mem::size_of::<Rat>()
                    + row.coords.iter().map(Rat::heap_bytes).sum::<usize>()
            })
            .sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<EchelonRow>()
    }

    /// Export the reduced rows as `(pivot, vec, coords)` triples (cloned),
    /// for the warm-start snapshot.  The inverse of
    /// [`IncrementalBasis::from_parts`].
    pub fn export_rows(&self) -> Vec<(usize, QVec, Vec<Rat>)> {
        self.rows
            .iter()
            .map(|row| (row.pivot, row.vec.clone(), row.coords.clone()))
            .collect()
    }

    /// Rebuild a basis from snapshot parts, validating every structural
    /// invariant the reduction algorithms rely on; returns `None` on any
    /// violation (the snapshot loader then discards the entry and cold
    /// starts that key).  Checked: distinct in-range pivots, row dimension,
    /// unit pivot entries with zeros at every *other* row's pivot column
    /// (the Gauss–Jordan full-reduction invariant), rank and coordinate
    /// lengths bounded by `inserted`.
    pub fn from_parts(
        dim: usize,
        inserted: usize,
        rows: Vec<(usize, QVec, Vec<Rat>)>,
    ) -> Option<IncrementalBasis> {
        if rows.len() > inserted {
            return None;
        }
        let mut seen = vec![false; dim];
        for (pivot, vec, coords) in &rows {
            if *pivot >= dim || seen[*pivot] || vec.dim() != dim || coords.len() > inserted {
                return None;
            }
            seen[*pivot] = true;
        }
        for (pivot, vec, _) in &rows {
            if !vec.0[*pivot].is_one() {
                return None;
            }
            for (other_pivot, _, _) in &rows {
                if other_pivot != pivot && !vec.0[*other_pivot].is_zero() {
                    return None;
                }
            }
        }
        Some(IncrementalBasis {
            dim,
            inserted,
            rows: rows
                .into_iter()
                .map(|(pivot, vec, coords)| EchelonRow { pivot, vec, coords })
                .collect(),
        })
    }

    /// Insert one generator; returns `true` when it enlarged the span.
    pub fn insert(&mut self, v: &QVec) -> bool {
        match self.insert_indexed(v, &mut Gas::unlimited()) {
            Ok(idx) => idx.is_some(),
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`IncrementalBasis::insert`] returning the new row's index, metered:
    /// every row operation charges the [`Gas`] handle, so an exhausted
    /// budget or expired deadline stops the elimination mid-insert.  On
    /// `Err` the basis is *consistent*: either untouched (interrupt during
    /// the initial reduction) or with the insert fully completed (interrupt
    /// during the Jordan restore — the bounded tail is finished unmetered),
    /// so a session-cached basis stays usable after an aborted request.
    fn insert_indexed(&mut self, v: &QVec, gas: &mut Gas) -> Result<Option<usize>, Interrupt> {
        assert_eq!(v.dim(), self.dim, "generator dimension mismatch");
        let mut vec = v.clone();
        let mut coords = vec![Rat::zero(); self.inserted + 1];
        coords[self.inserted] = Rat::one();
        for row in &self.rows {
            let f = vec.0[row.pivot].clone();
            if f.is_zero() {
                continue;
            }
            charge_row_op(gas, &f, self.dim + row.coords.len())?;
            sub_scaled(&mut vec, &f, &row.vec);
            axpy(&mut coords, &f.neg_ref(), &row.coords);
        }
        self.inserted += 1;
        // Pivot: the non-zero entry of minimal bit size, so the Jordan
        // updates below multiply by the smallest numbers available.
        let Some(pivot) = (0..self.dim)
            .filter(|&j| !vec.0[j].is_zero())
            .min_by_key(|&j| vec.0[j].bit_size())
        else {
            return Ok(None);
        };
        let inv = vec.0[pivot].recip();
        for t in vec.0.iter_mut() {
            if !t.is_zero() {
                *t = t.mul_ref(&inv);
            }
        }
        for c in coords.iter_mut() {
            if !c.is_zero() {
                *c = c.mul_ref(&inv);
            }
        }
        // Restore the full-reduction invariant on the existing rows.  Fuel
        // is pre-charged per row *before* mutating it: once a row operation
        // starts it always completes, keeping the echelon invariant intact
        // even when the interrupt lands mid-restore…
        let mut restored = 0usize;
        let mut interrupted = None;
        for row in &mut self.rows {
            let f = row.vec.0[pivot].clone();
            if f.is_zero() {
                restored += 1;
                continue;
            }
            if let Err(stop) = charge_row_op(gas, &f, self.dim + coords.len()) {
                interrupted = Some(stop);
                break;
            }
            sub_scaled(&mut row.vec, &f, &vec);
            axpy(&mut row.coords, &f.neg_ref(), &coords);
            restored += 1;
        }
        if let Some(stop) = interrupted {
            // …and the rows not yet reduced against the new pivot are
            // finished unmetered (bounded tail work), because a half-restored
            // basis would silently corrupt every later answer.
            for row in self.rows.iter_mut().skip(restored) {
                let f = row.vec.0[pivot].clone();
                if f.is_zero() {
                    continue;
                }
                sub_scaled(&mut row.vec, &f, &vec);
                axpy(&mut row.coords, &f.neg_ref(), &coords);
            }
            self.rows.push(EchelonRow { pivot, vec, coords });
            return Err(stop);
        }
        self.rows.push(EchelonRow { pivot, vec, coords });
        Ok(Some(self.rows.len() - 1))
    }

    /// Reduce `target` against the current rows: returns the residual and
    /// coordinates with `target = Σ coordsᵢ·generatorᵢ + residual`.
    fn reduce(&self, target: &QVec, gas: &mut Gas) -> Result<(QVec, Vec<Rat>), Interrupt> {
        assert_eq!(target.dim(), self.dim, "target dimension mismatch");
        let mut residual = target.clone();
        let mut coords = vec![Rat::zero(); self.inserted];
        for row in &self.rows {
            let f = residual.0[row.pivot].clone();
            if f.is_zero() {
                continue;
            }
            charge_row_op(gas, &f, self.dim + row.coords.len())?;
            sub_scaled(&mut residual, &f, &row.vec);
            axpy(&mut coords, &f, &row.coords);
        }
        Ok((residual, coords))
    }

    /// Whether `target` lies in the span of the inserted generators.
    pub fn contains(&self, target: &QVec) -> bool {
        match self.reduce(target, &mut Gas::unlimited()) {
            Ok((residual, _)) => residual.is_zero(),
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// Coefficients over the inserted generators when `target` is in their
    /// span (`target = Σ αᵢ·generatorᵢ`, `α` of length [`Self::len`]).
    pub fn solve(&self, target: &QVec) -> Option<QVec> {
        let (residual, mut coords) = match self.reduce(target, &mut Gas::unlimited()) {
            Ok(r) => r,
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        };
        if !residual.is_zero() {
            return None;
        }
        coords.resize(self.inserted, Rat::zero());
        Some(QVec(coords))
    }

    /// [`Self::solve`] with lazy insertion: reduce `target` against the
    /// current rows, and while the residual is non-zero keep inserting
    /// generators from `feed` (in order), re-reducing the residual by each
    /// newly created row.  Stops — **early exit** — the moment the target
    /// enters the span; generators never fed (and fed-but-dependent ones
    /// past the solution) simply get coefficient zero.
    ///
    /// Returns coefficients over *all* generators inserted so far (length
    /// [`Self::len`] after the call), or `None` when `feed` was exhausted
    /// with a non-zero residual.
    pub fn solve_extend(&mut self, target: &QVec, feed: &[QVec]) -> Option<QVec> {
        match self.solve_extend_gas(target, feed, &mut Gas::unlimited()) {
            Ok(answer) => answer,
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`Self::solve_extend`] under fuel metering: every exact row operation
    /// (reductions, insertions, Jordan restores) charges the [`Gas`] handle.
    /// `Err` aborts with the basis left consistent — generators inserted
    /// before the interrupt stay inserted (see [`Self::insert`]'s metered
    /// contract), so a session cache survives an exhausted request.
    pub fn solve_extend_gas(
        &mut self,
        target: &QVec,
        feed: &[QVec],
        gas: &mut Gas,
    ) -> Result<Option<QVec>, Interrupt> {
        let (mut residual, mut coords) = self.reduce(target, gas)?;
        for v in feed {
            if residual.is_zero() {
                break;
            }
            if let Some(idx) = self.insert_indexed(v, gas)? {
                let row = &self.rows[idx];
                let f = residual.0[row.pivot].clone();
                if !f.is_zero() {
                    charge_row_op(gas, &f, self.dim + row.coords.len())?;
                    sub_scaled(&mut residual, &f, &row.vec);
                    axpy(&mut coords, &f, &row.coords);
                }
            }
        }
        // Kernel-exit flush: tail work below the flush granularity (and all
        // pending byte charges) must hit the shared ledger before returning.
        gas.flush()?;
        if !residual.is_zero() {
            return Ok(None);
        }
        coords.resize(self.inserted, Rat::zero());
        Ok(Some(QVec(coords)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[i64]) -> QVec {
        QVec::from_i64s(vals)
    }

    /// `Σ αᵢ·gᵢ` over the first `alpha.len()` generators.
    fn combine(generators: &[QVec], alpha: &QVec) -> QVec {
        let mut acc = QVec::zeros(generators[0].dim());
        for (a, g) in alpha.iter().zip(generators) {
            acc = &acc + &g.scale(a);
        }
        acc
    }

    #[test]
    fn rank_and_membership() {
        let mut b = IncrementalBasis::new(3);
        assert!(b.is_empty() && b.rank() == 0);
        assert!(b.insert(&v(&[1, 2, 3])));
        assert!(b.insert(&v(&[0, 1, 1])));
        assert!(!b.insert(&v(&[1, 3, 4])), "dependent generator");
        assert_eq!(b.rank(), 2);
        assert_eq!(b.len(), 3);
        assert!(b.contains(&v(&[2, 5, 7])));
        assert!(!b.contains(&v(&[0, 0, 1])));
    }

    #[test]
    fn solve_reconstructs_targets() {
        let generators = [v(&[2, 1, 3]), v(&[5, 2, 7]), v(&[1, 1, 2])];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let target = v(&[1, 1, 2]);
        let alpha = b.solve(&target).unwrap();
        assert_eq!(alpha.dim(), 3);
        assert_eq!(combine(&generators, &alpha), target);
        assert!(b.solve(&v(&[0, 0, 1])).is_none());
    }

    #[test]
    fn solve_extend_exits_early() {
        let generators = vec![v(&[1, 0, 0]), v(&[0, 1, 0]), v(&[0, 0, 1])];
        let mut b = IncrementalBasis::new(3);
        // Target spanned by the first generator alone: only one insert.
        let alpha = b.solve_extend(&v(&[3, 0, 0]), &generators).unwrap();
        assert_eq!(b.len(), 1, "early exit after the first generator");
        assert_eq!(alpha, v(&[3]));
        // A later target resumes feeding where the basis left off.
        let alpha = b
            .solve_extend(&v(&[1, 2, 0]), &generators[b.len()..])
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(alpha, v(&[1, 2]));
        // Exhausting the feed without spanning reports None.
        assert!(b
            .solve_extend(&v(&[1, 1, 7]), &generators[b.len()..])
            .is_some());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn solve_extend_reports_out_of_span() {
        let mut b = IncrementalBasis::new(2);
        assert!(b
            .solve_extend(&v(&[1, 1]), &[v(&[1, 0]), v(&[2, 0])])
            .is_none());
        assert_eq!(b.len(), 2, "every generator was tried");
        // The basis remains usable afterwards.
        assert!(b.solve_extend(&v(&[1, 1]), &[v(&[0, 3])]).is_some());
    }

    #[test]
    fn rational_coefficients_are_exact() {
        let generators = [
            QVec(vec![
                Rat::from_frac(1, 2),
                Rat::from_frac(1, 3),
                Rat::from_i64(1),
            ]),
            QVec(vec![
                Rat::from_frac(2, 5),
                Rat::from_i64(0),
                Rat::from_frac(7, 4),
            ]),
        ];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let target = combine(
            &generators,
            &QVec(vec![Rat::from_frac(-3, 7), Rat::from_frac(22, 9)]),
        );
        let alpha = b.solve(&target).unwrap();
        assert_eq!(combine(&generators, &alpha), target);
        assert_eq!(alpha[0], Rat::from_frac(-3, 7));
        assert_eq!(alpha[1], Rat::from_frac(22, 9));
    }

    #[test]
    fn fuelled_solve_extend_interrupts_and_leaves_basis_usable() {
        use cqdet_parallel::{Budget, CancelToken, Interrupt};
        let n = 24;
        let generators: Vec<QVec> = (0..n)
            .map(|i| {
                QVec(
                    (0..n)
                        .map(|j| Rat::from_i64(((i * j + i + 1) % 97) as i64 - 48))
                        .collect(),
                )
            })
            .collect();
        let target: QVec = {
            let mut acc = QVec::zeros(n);
            for g in &generators {
                acc = &acc + g;
            }
            acc
        };
        // A budget far below the elimination cost interrupts mid-solve…
        let tiny = Budget::with_limits(Some(8), None);
        let mut gas = Gas::new(&CancelToken::none(), &tiny, "span");
        let mut b = IncrementalBasis::new(n);
        let stop = b
            .solve_extend_gas(&target, &generators, &mut gas)
            .unwrap_err();
        assert!(matches!(stop, Interrupt::Exhausted(e) if e.what == "steps"));
        assert!(tiny.steps_spent() > 8, "work was charged");
        // …and the basis stays consistent: the unmetered retry still finds
        // the exact coefficients (all ones).
        let alpha = b
            .solve_extend(&target, &generators[b.len()..])
            .expect("target is the generator sum");
        let mut recombined = QVec::zeros(n);
        for (a, g) in alpha.iter().zip(&generators) {
            recombined = &recombined + &g.scale(a);
        }
        assert_eq!(recombined, target);
    }

    #[test]
    fn fuelled_byte_ledger_charges_bignum_growth() {
        use cqdet_bigint::Int;
        use cqdet_parallel::{Budget, CancelToken, Interrupt};
        // Large entries: the byte ledger (bit-size proxy) fires even though
        // the step ledger is unlimited.
        let big = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::one().shl_bits(512)));
        let gens: Vec<QVec> = (0..6)
            .map(|i| {
                QVec(
                    (0..6)
                        .map(|j| big.mul_ref(&Rat::from_i64((i * 7 + j * 3 + 1) as i64)))
                        .collect(),
                )
            })
            .collect();
        let target = gens[0].clone();
        let budget = Budget::with_limits(None, Some(16));
        let mut gas = Gas::new(&CancelToken::none(), &budget, "span");
        let mut b = IncrementalBasis::new(6);
        for g in &gens {
            if b.insert_indexed(g, &mut gas).is_err() {
                break;
            }
        }
        let outcome = b.solve_extend_gas(&target, &[], &mut gas);
        let exhausted = matches!(
            outcome,
            Err(Interrupt::Exhausted(e)) if e.what == "bytes"
        ) || budget.bytes_spent() > 16;
        assert!(exhausted, "512-bit factors must charge the byte ledger");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut b = IncrementalBasis::new(3);
        b.insert(&v(&[1, 2]));
    }

    #[test]
    fn export_import_round_trip_preserves_solutions() {
        let generators = [v(&[2, 1, 3]), v(&[5, 2, 7]), v(&[1, 1, 2])];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let rebuilt = IncrementalBasis::from_parts(b.dim(), b.len(), b.export_rows())
            .expect("exported rows satisfy the invariants");
        assert_eq!(rebuilt.rank(), b.rank());
        let target = v(&[1, 1, 2]);
        assert_eq!(rebuilt.solve(&target), b.solve(&target));
        assert!(rebuilt.solve(&v(&[0, 0, 1])).is_none());
    }

    #[test]
    fn from_parts_rejects_invariant_violations() {
        let mut b = IncrementalBasis::new(3);
        b.insert(&v(&[1, 2, 3]));
        b.insert(&v(&[0, 1, 1]));
        let rows = b.export_rows();
        // Out-of-range pivot.
        let mut bad = b.export_rows();
        bad[0].0 = 7;
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Duplicate pivots.
        let mut bad = b.export_rows();
        bad[1].0 = bad[0].0;
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Non-unit pivot entry.
        let mut bad = b.export_rows();
        let p = bad[0].0;
        bad[0].1 .0[p] = Rat::from_i64(2);
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Rank above inserted count.
        assert!(IncrementalBasis::from_parts(3, 1, rows).is_none());
    }

    #[test]
    fn heap_bytes_tracks_bigint_growth() {
        use cqdet_bigint::Nat;
        let mut b = IncrementalBasis::new(2);
        b.insert(&v(&[1, 2]));
        let small = b.heap_bytes();
        let big = Rat::from_nat(Nat::one().shl_bits(4096));
        let mut b2 = IncrementalBasis::new(2);
        b2.insert(&QVec(vec![big.clone(), big]));
        assert!(
            b2.heap_bytes() > small + 512,
            "4096-bit entries must charge their limb storage"
        );
    }
}
