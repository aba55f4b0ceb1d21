//! Property tests of the solver-configuration digest
//! (`Extractor::config_digest`) — the identity router affinity and the
//! chip window cache key on. The contract pinned here:
//!
//! * two extractors differing in **any** knob of the *active* backend's
//!   typed config (pFFT grid spacing, FMM tolerance, Krylov caps, Auto
//!   budget) can never share a digest, so a cached window result or a
//!   replica's warm cache is never reused across differing configs;
//! * equal configurations always share a digest, so legitimate reuse
//!   keeps working;
//! * knobs of an *inactive* backend do not leak into the digest, so they
//!   cannot spuriously split otherwise-identical configurations.

use bemcap_core::extraction::Parallelism;
use bemcap_core::{Extractor, FmmConfig, KrylovConfig, Method, PfftConfig};
use proptest::prelude::*;

/// The digest words shared by every default extractor after the method
/// word: sequential, exact primitives, 8 mesh divisions, then the
/// instantiation laws and quadrature settings.
const COMMON: [u64; 13] = [
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000008,
    0x3ff0000000000000,
    0x4008000000000000,
    0x4039000000000000,
    0x4008000000000000,
    0x4020000000000000,
    0x4004000000000000,
    0x0000000000000006,
    0x0000000000000003,
    0x0000000000000003,
    0x0000000000000006,
];

/// Default FMM words: θ = 0.45, leaf size 12.
const FMM: [u64; 2] = [0x3fdccccccccccccd, 0x000000000000000c];
/// Default pFFT words: spacing 1.0, 2 near cells, 2²⁴ grid points.
const PFFT: [u64; 3] = [0x3ff0000000000000, 0x0000000000000002, 0x0000000001000000];
/// Default Krylov words: tol 1e-6, restart 40, 600 matvecs, and the
/// retired preconditioner word, fixed at Jacobi's 1.
const KRYLOV: [u64; 4] =
    [0x3eb0c6f7a0b5ed8d, 0x0000000000000028, 0x0000000000000258, 0x0000000000000001];

fn digest(method_word: u64, tail: &[&[u64]]) -> Vec<u64> {
    let mut words = vec![method_word];
    words.extend(COMMON);
    words.extend(tail.concat());
    words
}

/// `config_digest` keys the chip window cache and the router shards by
/// it, so its words are pinned literally: a refactor that moves
/// one word splits caches and affinity across a rolling upgrade.
#[test]
fn config_digest_words_are_pinned() {
    let budget_256_mib = [0x0000000010000000];
    let cases = [
        (Extractor::new().method(Method::InstantiableBasis), digest(0, &[])),
        (Extractor::new().method(Method::PwcDense), digest(1, &[])),
        (Extractor::new().method(Method::PwcFmm), digest(2, &[&FMM, &KRYLOV])),
        (Extractor::new().method(Method::PwcPfft), digest(3, &[&PFFT, &KRYLOV])),
        (
            Extractor::new().method(Method::Auto),
            digest(4, &[&budget_256_mib, &FMM, &PFFT, &KRYLOV]),
        ),
        (
            Extractor::new()
                .method(Method::PwcFmm)
                .fmm_config(FmmConfig { theta: 0.4, ..Default::default() }),
            digest(2, &[&[0x3fd999999999999a, FMM[1]], &KRYLOV]),
        ),
        (
            Extractor::new()
                .method(Method::PwcPfft)
                .pfft_config(PfftConfig { spacing_factor: 1.25, ..Default::default() }),
            digest(3, &[&[0x3ff4000000000000, PFFT[1], PFFT[2]], &KRYLOV]),
        ),
        (
            Extractor::new()
                .method(Method::PwcFmm)
                .krylov_config(KrylovConfig { tol: 1e-8, ..Default::default() }),
            digest(2, &[&FMM, &[0x3e45798ee2308c3a, KRYLOV[1], KRYLOV[2], KRYLOV[3]]]),
        ),
        (
            Extractor::new().method(Method::Auto).auto_memory_budget(64 << 20),
            digest(4, &[&[0x0000000004000000], &FMM, &PFFT, &KRYLOV]),
        ),
    ];
    for (extractor, words) in cases {
        assert_eq!(extractor.config_digest(), words, "{extractor:?}");
    }
}

/// The parallelism word (the digest's second) of the two setup modes,
/// literally: `Sequential` is 0 and `Threads(n)` is `1 << 32 | n`. Router
/// affinity and chip `WindowKey`s key on the digest, so removing or
/// reordering a `Parallelism` variant must not move these words.
#[test]
fn parallelism_words_are_pinned() {
    for (parallelism, word) in
        [(Parallelism::Sequential, 0), (Parallelism::Threads(2), (1u64 << 32) | 2)]
    {
        let digest = Extractor::new().parallelism(parallelism).config_digest();
        assert_eq!(digest[1], word, "{parallelism:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every active-backend knob separates digests; the untouched clone
    /// never does.
    #[test]
    fn active_backend_config_knobs_always_separate_digests(
        theta in 0.2..0.8f64,
        dtheta in 0.01..0.3f64,
        spacing in 0.8..1.6f64,
        dspacing in 0.01..0.5f64,
        tol_exp in 4i32..10,
        budget_mib in 1usize..1024,
    ) {
        let tol = 10f64.powi(-tol_exp);
        // FMM: theta, krylov tolerance.
        let fmm = Extractor::new()
            .method(Method::PwcFmm)
            .fmm_config(FmmConfig { theta, ..Default::default() })
            .krylov_config(KrylovConfig { tol, ..Default::default() });
        prop_assert_eq!(fmm.config_digest(), fmm.clone().config_digest(), "clone must match");
        let fmm_theta = fmm
            .clone()
            .fmm_config(FmmConfig { theta: theta + dtheta, ..Default::default() });
        prop_assert_ne!(fmm.config_digest(), fmm_theta.config_digest(), "theta");
        let fmm_tol = fmm
            .clone()
            .krylov_config(KrylovConfig { tol: tol * 0.5, ..Default::default() });
        prop_assert_ne!(fmm.config_digest(), fmm_tol.config_digest(), "krylov tol");

        // pFFT: grid spacing.
        let pfft = Extractor::new()
            .method(Method::PwcPfft)
            .pfft_config(PfftConfig { spacing_factor: spacing, ..Default::default() });
        let pfft_spacing = pfft.clone().pfft_config(PfftConfig {
            spacing_factor: spacing + dspacing,
            ..Default::default()
        });
        prop_assert_eq!(pfft.config_digest(), pfft.clone().config_digest());
        prop_assert_ne!(pfft.config_digest(), pfft_spacing.config_digest(), "spacing");

        // Auto folds in the budget and every candidate's knobs.
        let auto = Extractor::new().method(Method::Auto).auto_memory_budget(budget_mib << 20);
        let auto_budget = auto.clone().auto_memory_budget((budget_mib << 20) + 1);
        prop_assert_ne!(auto.config_digest(), auto_budget.config_digest(), "auto budget");
        let auto_fmm = auto
            .clone()
            .fmm_config(FmmConfig { theta: theta + dtheta, ..Default::default() });
        prop_assert_ne!(auto.config_digest(), auto_fmm.config_digest(), "auto fmm candidate");

        // Different methods never share a digest.
        for (a, b) in [
            (Method::InstantiableBasis, Method::PwcDense),
            (Method::PwcFmm, Method::PwcPfft),
            (Method::PwcDense, Method::Auto),
        ] {
            prop_assert_ne!(
                Extractor::new().method(a).config_digest(),
                Extractor::new().method(b).config_digest(),
                "methods {:?} vs {:?}", a, b
            );
        }
    }

    /// Inactive backends' knobs are not folded in: an instantiable
    /// extractor keeps its digest whatever the (unused) pFFT/FMM configs
    /// say, so unrelated knobs cannot split legitimate cache reuse.
    #[test]
    fn inactive_backend_config_does_not_leak_into_the_digest(
        theta in 0.2..0.8f64,
        spacing in 0.8..1.6f64,
    ) {
        let base = Extractor::new(); // instantiable
        let with_unused = base
            .clone()
            .fmm_config(FmmConfig { theta, ..Default::default() })
            .pfft_config(PfftConfig { spacing_factor: spacing, ..Default::default() });
        prop_assert_eq!(base.config_digest(), with_unused.config_digest());
        // The same knobs on the dense backend are inert too.
        let dense = Extractor::new().method(Method::PwcDense).mesh_divisions(5);
        let dense_unused = dense
            .clone()
            .fmm_config(FmmConfig { theta, ..Default::default() });
        prop_assert_eq!(dense.config_digest(), dense_unused.config_digest());
    }
}
