//! The one distinct-key table: which pairs of a set of templates share a
//! [`PairKey`], so each distinct key is evaluated once.
//!
//! [`DistinctKeys`] maps every pair it is shown to the id of its key and
//! keeps one representative pair per id; the key itself is never stored,
//! only recomputed from the representative's templates. Both users walk
//! it the same way: the basis pair plan over Algorithm 1's triangle
//! (and once more over its distinct keys, to merge them across axis
//! permutations), and [`PairValues`] over the near-field lists of the FMM
//! and pFFT operators, where a piecewise-constant mesh is one flat
//! template per panel.

use bemcap_geom::Panel;

use crate::galerkin::GalerkinEngine;
use crate::template::{CanonicalTemplate, PairKey, Template};

/// Open-addressed table of distinct-key ids: each slot holds a key's upper
/// 32 fingerprint bits and its id + 1 (0 = empty), kept at most half full,
/// plus the representative pair (i, j) of every id in first-seen order.
#[derive(Debug)]
pub struct DistinctKeys {
    slots: Vec<u64>,
    reps: Vec<(u32, u32)>,
}

impl Default for DistinctKeys {
    fn default() -> DistinctKeys {
        DistinctKeys { slots: vec![0; 1024], reps: Vec::new() }
    }
}

impl DistinctKeys {
    /// The id of `key`, the key of the pair `pair`, and whether it is new:
    /// on a miss `pair` becomes the representative of the next id.
    /// `key_of` recomputes a representative's key to verify a fingerprint
    /// match.
    ///
    /// # Panics
    ///
    /// Panics at 2³² − 1 distinct keys.
    #[inline]
    pub fn id_or_insert(
        &mut self,
        key: &PairKey,
        pair: (u32, u32),
        key_of: impl Fn((u32, u32)) -> PairKey,
    ) -> (usize, bool) {
        let fp = fingerprint(key);
        let slot = match self.probe(fp, |id| key_of(self.reps[id]) == *key) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.reps.len();
        self.put(slot, fp, id);
        self.reps.push(pair);
        if 2 * self.reps.len() > self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()];
            let reps = std::mem::take(&mut self.reps);
            for (id, &rep) in reps.iter().enumerate() {
                let fp = fingerprint(&key_of(rep));
                let slot = self.probe(fp, |_| false).unwrap_err();
                self.put(slot, fp, id);
            }
            self.reps = reps;
        }
        (id, true)
    }

    /// The representative pair of every id, in id order.
    pub fn into_reps(self) -> Vec<(u32, u32)> {
        self.reps
    }

    /// The representative pair of every id, leaving the table empty but
    /// with room to take as many keys again without growing.
    pub fn take_reps(&mut self) -> Vec<(u32, u32)> {
        self.slots.fill(0);
        let room = Vec::with_capacity(self.reps.len());
        std::mem::replace(&mut self.reps, room)
    }

    /// The id stored under `fp` for which `is_match` holds, or the empty
    /// slot where a new one goes.
    #[inline]
    fn probe(&self, fp: u64, mut is_match: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = fp as usize & mask;
        loop {
            let slot = self.slots[s];
            if slot == 0 {
                return Err(s);
            }
            if slot >> 32 == fp >> 32 {
                let id = (slot & 0xffff_ffff) as usize - 1;
                if is_match(id) {
                    return Ok(id);
                }
            }
            s = (s + 1) & mask;
        }
    }

    #[inline]
    fn put(&mut self, slot: usize, fp: u64, id: usize) {
        let stored = u32::try_from(id + 1).expect("fewer than 2^32 - 1 distinct keys");
        self.slots[slot] = (fp >> 32) << 32 | u64::from(stored);
    }
}

/// A 64-bit hash of a key's words (multiply-rotate per word, splitmix64
/// finaliser): its low bits pick the slot, its high bits screen matches.
#[inline]
fn fingerprint(key: &PairKey) -> u64 {
    let h = key
        .words()
        .iter()
        .fold(0, |h: u64, &w| (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Scaled Galerkin integrals between the panels of a mesh, each taken as a
/// flat template: [`PairValues::get`] evaluates a pair's key on its first
/// occurrence and answers every translated or mirrored repeat from the
/// stored `scale × raw` value, bit for bit.
#[derive(Debug)]
pub struct PairValues<'a> {
    eng: &'a GalerkinEngine,
    scale: f64,
    canonical: Vec<CanonicalTemplate>,
    keys: DistinctKeys,
    values: Vec<f64>,
}

impl<'a> PairValues<'a> {
    /// An empty table over `panels`, scaling every raw integral by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if there are 2³² or more panels.
    pub fn new<'p>(
        eng: &'a GalerkinEngine,
        scale: f64,
        panels: impl IntoIterator<Item = &'p Panel>,
    ) -> PairValues<'a> {
        let canonical: Vec<CanonicalTemplate> =
            panels.into_iter().map(|p| CanonicalTemplate::of(&Template::flat(*p))).collect();
        assert!(u32::try_from(canonical.len()).is_ok(), "fewer than 2^32 panels");
        PairValues { eng, scale, canonical, keys: DistinctKeys::default(), values: Vec::new() }
    }

    /// `scale` × the Galerkin integral of panels `i` and `j`.
    pub fn get(&mut self, i: usize, j: usize) -> f64 {
        let canonical = &self.canonical;
        let key_of =
            |(i, j): (u32, u32)| PairKey::of(&canonical[i as usize], &canonical[j as usize]);
        let pair = (i as u32, j as u32);
        let key = key_of(pair);
        let (id, new) = self.keys.id_or_insert(&key, pair, key_of);
        if new {
            self.values.push(self.scale * key.integral(self.eng));
        }
        self.values[id]
    }

    /// Integrals evaluated so far: one per distinct key.
    pub fn evaluated(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::Axis;

    #[test]
    fn translated_repeats_are_answered_from_one_evaluation() {
        let eng = GalerkinEngine::default();
        // Five unit flats 1.5 apart on one plane: four pairs at offset 1.5.
        let panels: Vec<Panel> = (0..5)
            .map(|k| {
                let u0 = 1.5 * k as f64;
                Panel::new(Axis::Z, 0.0, (u0, u0 + 1.0), (0.0, 1.0)).unwrap()
            })
            .collect();
        let mut values = PairValues::new(&eng, 2.0, &panels);
        let first = values.get(0, 1);
        assert!((0..4).all(|k| values.get(k, k + 1) == first));
        assert_eq!(values.evaluated(), 1);
        let direct = crate::template::pair_integral(
            &eng,
            &Template::flat(panels[3]),
            &Template::flat(panels[4]),
        );
        assert_eq!(first, 2.0 * direct);
        // The mirror image shares the key; offset 3 and the self pairs do not.
        assert_eq!(values.get(1, 0), first);
        assert_ne!(values.get(0, 2), first);
        (0..5).for_each(|k| assert_eq!(values.get(k, k), values.get(0, 0)));
        assert_eq!(values.evaluated(), 3);
    }

    #[test]
    fn the_table_grows_past_its_first_slots_and_keeps_every_id() {
        let panels: Vec<Panel> = (0..40)
            .map(|k| Panel::new(Axis::Z, 0.0, (0.0, 1.0 + k as f64), (0.0, 1.0)).unwrap())
            .collect();
        let canonical: Vec<CanonicalTemplate> =
            panels.iter().map(|p| CanonicalTemplate::of(&Template::flat(*p))).collect();
        let key_of =
            |(i, j): (u32, u32)| PairKey::of(&canonical[i as usize], &canonical[j as usize]);
        let mut keys = DistinctKeys::default();
        let pairs: Vec<(u32, u32)> = (0..40).flat_map(|i| (0..40).map(move |j| (i, j))).collect();
        for (n, &pair) in pairs.iter().enumerate() {
            assert_eq!(keys.id_or_insert(&key_of(pair), pair, key_of), (n, true));
        }
        for (n, &pair) in pairs.iter().enumerate() {
            assert_eq!(keys.id_or_insert(&key_of(pair), pair, key_of), (n, false));
        }
        assert_eq!(keys.into_reps(), pairs);
    }
}
