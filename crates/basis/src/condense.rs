//! P̃ → P condensation (Fig. 3 and Algorithm 1's update rule).
//!
//! The template matrix P̃ ∈ R^{M×M} is never materialized: each computed
//! upper-triangle entry P̃_{ij} is immediately folded into the basis matrix
//! P ∈ R^{N×N} through the label array l (template → basis index).
//!
//! Because P̃ is symmetric and only its upper triangle is iterated, an
//! *off-diagonal* P̃ entry whose two templates belong to the *same* basis
//! function contributes twice to the diagonal of P. The paper's Algorithm 1
//! pseudocode tests `i = j ∧ l_i = l_j` for the doubling — a typo: the
//! figure's color coding and the sentence "only those off-diagonal entries
//! of P̃ which are combined to the diagonal of P contribute their values
//! twice" identify the intended condition as **i ≠ j ∧ l_i = l_j**, which
//! is what [`accumulate_entry`] implements (and what the dense reference
//! test confirms).
//!
//! [`PairPlan`] is the one form of Algorithm 1's k-loop every assembly
//! routine runs — the instantiable basis and the dense piecewise-constant
//! reference (one flat template per panel) alike: it walks the triangle
//! once, maps each pair to its [`PairKey`], canonical under translation
//! and mirroring, merges the distinct keys across axis permutations
//! ([`PairKey::canonical`]), evaluates every *canonical* key once
//! (on worker threads if asked, or through a cache), then accumulates P in
//! k order. Because a value depends only on its key and the accumulation
//! order is fixed, the result is bit-identical however the evaluation was
//! split or cached.

use std::cell::Cell;
use std::ops::Range;

use bemcap_linalg::Matrix;
pub use bemcap_par::trace::pair_integrals_metric;
use bemcap_par::triangle_size;
use bemcap_quad::distinct::DistinctKeys;
use bemcap_quad::galerkin::GalerkinEngine;
use bemcap_quad::template::CanonicalTemplate;

use crate::basisfn::BasisSet;
use crate::template::{PairKey, Template};

/// The flattened template view of a basis set: templates T₁…T_M plus the
/// label array l mapping each template to its basis function.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateIndex {
    templates: Vec<Template>,
    labels: Vec<usize>,
    basis_count: usize,
}

impl TemplateIndex {
    /// Builds the flattened index from a basis set.
    pub fn new(set: &BasisSet) -> TemplateIndex {
        let (templates, labels) = set.flatten();
        TemplateIndex { templates, labels, basis_count: set.basis_count() }
    }

    /// M — number of templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// N — number of basis functions.
    pub fn basis_count(&self) -> usize {
        self.basis_count
    }

    /// Template `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= template_count()`.
    pub fn template(&self, t: usize) -> &Template {
        &self.templates[t]
    }

    /// Label l_t: the basis function owning template `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= template_count()`.
    pub fn label(&self, t: usize) -> usize {
        self.labels[t]
    }

    /// All templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The label array.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// Folds one computed upper-triangle entry P̃_{ij} (i ≤ j) into the full
/// symmetric basis matrix `p`, per (corrected) Algorithm 1.
///
/// # Panics
///
/// Panics if `i > j` or labels are out of range for `p`.
#[inline]
pub fn accumulate_entry(p: &mut Matrix, i: usize, j: usize, li: usize, lj: usize, value: f64) {
    assert!(i <= j, "upper-triangle entries require i <= j");
    if i == j {
        // Diagonal of P̃ contributes once (necessarily li == lj).
        p.add_to(li, lj, value);
    } else if li == lj {
        // Off-diagonal P̃ entry folding onto the diagonal of P: counted
        // twice (P̃_{ij} and P̃_{ji}).
        p.add_to(li, li, 2.0 * value);
    } else {
        // Generic entry: write both symmetric positions of P.
        p.add_to(li, lj, value);
        p.add_to(lj, li, value);
    }
}

/// Algorithm 1's k-loop, planned: every pair (i ≤ j) of the triangle
/// mapped to its distinct [`PairKey`], canonical under translation,
/// mirroring and axis permutation.
///
/// The walk maps every pair to its translation- and mirror-canonical key
/// through the [`DistinctKeys`] table the FMM and pFFT near fields use
/// too; only then is each walk-distinct key canonicalised
/// ([`PairKey::canonical`]) and merged again, which keeps the walk fast.
/// The plan holds one representative (i, j) per canonical key and the
/// canonical-key id of every pair in k order. The distinct list is
/// interleaved so that any contiguous slice of it costs about the same.
///
/// ```
/// use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
/// use bemcap_basis::{PairPlan, TemplateIndex};
/// use bemcap_geom::structures::{self, BusParams};
/// use bemcap_quad::galerkin::GalerkinEngine;
///
/// let geo = structures::bus_crossing(2, 2, BusParams::default());
/// let index = TemplateIndex::new(&instantiate(&geo, &InstantiateConfig::default())?);
/// let plan = PairPlan::new(&index);
/// let m = index.template_count();
/// assert_eq!(plan.pairs(), m * (m + 1) / 2);
/// assert!(plan.distinct() < plan.pairs()); // the regular bus repeats pairs
/// // Any split of the distinct list gives the same values: here, two
/// // slices, as two workers would evaluate them.
/// let values: Vec<f64> = bemcap_par::partition_ranges(plan.distinct(), 2)
///     .into_iter()
///     .flat_map(|range| plan.values(&GalerkinEngine::default(), range, |_, eval| eval()))
///     .collect();
/// let p = plan.accumulate(&values, 1.0);
/// assert_eq!(p.dim(), index.basis_count());
/// # Ok::<(), bemcap_basis::BasisError>(())
/// ```
#[derive(Debug)]
pub struct PairPlan<'a> {
    index: &'a TemplateIndex,
    canonical: Vec<CanonicalTemplate>,
    reps: Vec<(u32, u32)>,
    ids: Vec<u32>,
}

impl<'a> PairPlan<'a> {
    /// Walks the triangle of `index` once and collects its distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if there are 2³² or more templates, or 2³² − 1 or more
    /// distinct keys.
    pub fn new(index: &'a TemplateIndex) -> PairPlan<'a> {
        let canonical: Vec<CanonicalTemplate> =
            index.templates().iter().map(CanonicalTemplate::of).collect();
        let m = u32::try_from(canonical.len()).expect("fewer than 2^32 templates");
        let key = |(i, j): (u32, u32)| PairKey::of(&canonical[i as usize], &canonical[j as usize]);
        let mut ids = Vec::with_capacity(triangle_size(m as usize));
        let mut keys = DistinctKeys::default();
        for j in 0..m {
            for i in 0..=j {
                let (id, _) = keys.id_or_insert(&key((i, j)), (i, j), key);
                ids.push(id as u32); // the table holds fewer than 2^32 - 1 ids
            }
        }
        // Merge the walk's keys across axis permutations in the same table:
        // one canonicalisation per walk-distinct key, never one per pair.
        let class_key = |pair| key(pair).canonical();
        let class: Vec<u32> = keys
            .take_reps()
            .into_iter()
            .map(|rep| keys.id_or_insert(&class_key(rep), rep, class_key).0 as u32)
            .collect();
        let reps = keys.into_reps();
        // Deal the first-occurrence order into INTERLEAVE runs: keys found
        // late in the walk cost more (near-field pairs repeat less), and
        // interleaving makes every contiguous slice of the distinct list
        // sample the whole walk, so a static split of it is balanced.
        let n = reps.len();
        let mut run_start = [0; INTERLEAVE];
        for c in 1..INTERLEAVE {
            // Run c − 1 holds the first-occurrence ids ≡ c − 1 (mod INTERLEAVE).
            run_start[c] = run_start[c - 1] + (n + INTERLEAVE - c) / INTERLEAVE;
        }
        let position = |d: usize| run_start[d % INTERLEAVE] + d / INTERLEAVE;
        for id in &mut ids {
            *id = position(class[*id as usize] as usize) as u32;
        }
        // Freed before the dealt list is made, which can then reuse it: the
        // allocator tends to keep a plan's transient peak resident.
        drop(class);
        let mut dealt = vec![(0, 0); n];
        for (d, &rep) in reps.iter().enumerate() {
            dealt[position(d)] = rep;
        }
        PairPlan { index, canonical, reps: dealt, ids }
    }

    /// Pairs in the triangle: M(M+1)/2.
    pub fn pairs(&self) -> usize {
        self.ids.len()
    }

    /// Distinct canonical keys among them: the integrals the plan
    /// evaluates.
    pub fn distinct(&self) -> usize {
        self.reps.len()
    }

    /// The key of distinct entry `d`, canonical under axis permutations.
    fn key(&self, d: usize) -> PairKey {
        let (i, j) = self.reps[d];
        PairKey::of(&self.canonical[i as usize], &self.canonical[j as usize]).canonical()
    }

    /// The raw integrals of the distinct keys in `range`, in order. Each is
    /// obtained through `source`, which receives the canonical key (the
    /// key a cache stores) and the evaluation — a cache answers from its
    /// store or calls the evaluation, a plain caller just calls it. The
    /// evaluation is the one place pair integrals are computed and counted
    /// ([`pair_integrals_metric`]).
    pub fn values(
        &self,
        eng: &GalerkinEngine,
        range: Range<usize>,
        mut source: impl FnMut(&PairKey, &dyn Fn() -> f64) -> f64,
    ) -> Vec<f64> {
        // Counted locally and published once: one shared atomic add per
        // evaluation would bounce its cache line between the workers.
        let evaluated = Cell::new(0);
        let values = range
            .map(|d| {
                let key = self.key(d);
                source(&key, &|| {
                    evaluated.set(evaluated.get() + 1);
                    key.integral(eng)
                })
            })
            .collect();
        pair_integrals_metric().add(evaluated.get());
        values
    }

    /// P from the distinct values: every pair's `scale × value`, folded in
    /// k order by [`accumulate_entry`].
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer than [`PairPlan::distinct`] entries.
    pub fn accumulate(&self, values: &[f64], scale: f64) -> Matrix {
        let n = self.index.basis_count();
        let labels = self.index.labels();
        let mut p = Matrix::zeros(n, n);
        let mut ids = self.ids.iter();
        for j in 0..labels.len() {
            for (i, id) in ids.by_ref().take(j + 1).enumerate() {
                accumulate_entry(&mut p, i, j, labels[i], labels[j], scale * values[*id as usize]);
            }
        }
        p
    }
}

/// Runs the distinct keys are dealt into (see [`PairPlan::new`]).
const INTERLEAVE: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchShape;
    use crate::basisfn::BasisFunction;
    use crate::template::pair_integral;
    use bemcap_geom::{Axis, Panel};
    use bemcap_quad::galerkin::ShapeDir;

    /// Reference (slow) assembly of P directly at the basis level: the
    /// double sum of equation (4) over every ordered template pair. Used to
    /// validate the condensed Algorithm 1 path.
    fn assemble_dense_reference(eng: &GalerkinEngine, set: &BasisSet) -> Matrix {
        let n = set.basis_count();
        let mut p = Matrix::zeros(n, n);
        for (bi, fi) in set.functions().iter().enumerate() {
            for (bj, fj) in set.functions().iter().enumerate() {
                let mut acc = 0.0;
                for ti in &fi.templates {
                    for tj in &fj.templates {
                        acc += pair_integral(eng, ti, tj);
                    }
                }
                p.set(bi, bj, acc);
            }
        }
        p
    }

    fn example_set() -> BasisSet {
        // Mirrors Fig. 3: four basis functions, ψ3 with two templates.
        let p = |w: f64, u0: f64| Panel::new(Axis::Z, w, (u0, u0 + 1.0), (0.0, 1.0)).unwrap();
        BasisSet::new(vec![
            BasisFunction::new(0, vec![Template::flat(p(0.0, 0.0))]),
            BasisFunction::new(0, vec![Template::flat(p(0.0, 1.5))]),
            BasisFunction::new(
                1,
                vec![
                    Template::flat(p(1.0, 0.5)),
                    Template::arch(p(1.0, 0.2), ShapeDir::U, ArchShape { center: 0.7, width: 0.3 }),
                ],
            ),
            BasisFunction::new(1, vec![Template::flat(p(1.0, 2.0))]),
        ])
    }

    #[test]
    fn template_index_mirrors_fig3() {
        let set = example_set();
        let idx = TemplateIndex::new(&set);
        assert_eq!(idx.template_count(), 5);
        assert_eq!(idx.basis_count(), 4);
        assert_eq!(idx.labels(), &[0, 1, 2, 2, 3]);
    }

    #[test]
    fn condensed_equals_dense_reference() {
        let eng = GalerkinEngine::default();
        let set = example_set();
        let idx = TemplateIndex::new(&set);
        let dense = assemble_dense_reference(&eng, &set);
        let plan = PairPlan::new(&idx);
        let values = plan.values(&eng, 0..plan.distinct(), |_, eval| eval());
        let condensed = plan.accumulate(&values, 1.0);
        let scale = dense.max_abs();
        for i in 0..4 {
            for j in 0..4 {
                let d = (dense.get(i, j) - condensed.get(i, j)).abs();
                assert!(
                    d < 1e-9 * scale,
                    "entry ({i},{j}): dense {} vs condensed {}",
                    dense.get(i, j),
                    condensed.get(i, j)
                );
            }
        }
        assert!(condensed.is_symmetric(1e-9));
    }

    #[test]
    fn plan_matches_the_plain_k_loop_bit_for_bit_at_any_split() {
        let eng = GalerkinEngine::default();
        let idx = TemplateIndex::new(&example_set());
        let mut naive = Matrix::zeros(4, 4);
        for k in 0..triangle_size(idx.template_count()) {
            let (i, j) = bemcap_par::k_to_ij(k);
            // The plan gives every pair its canonical key's integral.
            let key = PairKey::new(idx.template(i), idx.template(j)).canonical();
            let v = 0.5 * key.integral(&eng);
            accumulate_entry(&mut naive, i, j, idx.label(i), idx.label(j), v);
        }
        let plan = PairPlan::new(&idx);
        assert_eq!(plan.pairs(), 15);
        for splits in [1, 2, 3, 5] {
            let ranges = bemcap_par::partition_ranges(plan.distinct(), splits);
            assert_eq!(ranges.len(), splits);
            let values: Vec<f64> =
                ranges.into_iter().flat_map(|r| plan.values(&eng, r, |_, eval| eval())).collect();
            assert_eq!(values.len(), plan.distinct());
            assert_eq!(plan.accumulate(&values, 0.5), naive, "splits={splits}");
        }
    }

    #[test]
    fn translated_repeats_share_one_key() {
        // Three unit flats 1.5 apart on one plane.
        let p = |u0: f64| Panel::new(Axis::Z, 0.0, (u0, u0 + 1.0), (0.0, 1.0)).unwrap();
        let set = BasisSet::new(
            [0.0, 1.5, 3.0]
                .iter()
                .map(|&u0| BasisFunction::new(0, vec![Template::flat(p(u0))]))
                .collect(),
        );
        let idx = TemplateIndex::new(&set);
        let plan = PairPlan::new(&idx);
        // Six pairs: three self pairs (one key), two at offset 1.5, one at 3.
        assert_eq!((plan.pairs(), plan.distinct()), (6, 3));
        let mut seen = Vec::new();
        plan.values(&GalerkinEngine::default(), 0..plan.distinct(), |key, eval| {
            seen.push(*key);
            eval()
        });
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().enumerate().all(|(d, key)| *key == plan.key(d)));
    }

    #[test]
    fn axis_permuted_pairs_are_evaluated_once() {
        // A crossing: unit-wide flats along x at z = 0 and their x↔y
        // images along y at z = 1, so most pairs of one layer have an
        // axis-permuted twin on the other.
        let along_x = |y0: f64| Panel::new(Axis::Z, 0.0, (0.0, 4.0), (y0, y0 + 1.0)).unwrap();
        let along_y = |x0: f64| Panel::new(Axis::Z, 1.0, (x0, x0 + 1.0), (0.0, 4.0)).unwrap();
        let panels = [along_x(0.0), along_x(1.5), along_x(3.0), along_y(0.0), along_y(1.5)];
        let set = BasisSet::new(
            panels.iter().map(|&p| BasisFunction::new(0, vec![Template::flat(p)])).collect(),
        );
        let idx = TemplateIndex::new(&set);
        let templates = idx.templates();
        let walked: std::collections::HashSet<PairKey> = (0..templates.len())
            .flat_map(|j| (0..=j).map(move |i| (i, j)))
            .map(|(i, j)| PairKey::new(&templates[i], &templates[j]))
            .collect();
        let plan = PairPlan::new(&idx);
        assert!(plan.distinct() < walked.len(), "{} of {}", plan.distinct(), walked.len());
        let mut evaluations = 0;
        plan.values(&GalerkinEngine::default(), 0..plan.distinct(), |_, eval| {
            evaluations += 1;
            eval()
        });
        assert_eq!(evaluations, plan.distinct());
    }

    #[test]
    fn accumulate_rules() {
        let mut p = Matrix::zeros(2, 2);
        // Diagonal P̃ entry: counted once.
        accumulate_entry(&mut p, 0, 0, 0, 0, 3.0);
        assert_eq!(p.get(0, 0), 3.0);
        // Off-diagonal entry, same basis: doubled onto the diagonal.
        accumulate_entry(&mut p, 0, 1, 1, 1, 2.0);
        assert_eq!(p.get(1, 1), 4.0);
        // Off-diagonal entry, different bases: symmetric pair.
        accumulate_entry(&mut p, 1, 2, 0, 1, 5.0);
        assert_eq!(p.get(0, 1), 5.0);
        assert_eq!(p.get(1, 0), 5.0);
    }

    #[test]
    #[should_panic]
    fn lower_triangle_rejected() {
        let mut p = Matrix::zeros(2, 2);
        accumulate_entry(&mut p, 2, 1, 0, 0, 1.0);
    }
}
