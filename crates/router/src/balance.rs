//! Digest-affinity shard selection: rendezvous (highest-random-weight)
//! hashing from a request's routing key onto the replica set.
//!
//! The routing key folds the request's solver **config digest** (the
//! same `Extractor::config_digest` that keys the daemon's window cache)
//! with a content hash of the geometry payload. Two consequences:
//!
//! * a repeated request — same options, same geometry — always lands on
//!   the same replica, so that replica's `TemplateCache`/`WindowCache`
//!   answers it warm;
//! * distinct structures spread across replicas even under one solver
//!   configuration, because the geometry content participates in the
//!   key (config digest alone would pin a whole default-options
//!   workload to a single shard).
//!
//! Rendezvous hashing gives the minimal-remap property the front tier
//! wants during failover: removing a replica remaps only the keys that
//! ranked it first — every other key keeps its shard, and its warm
//! caches.

use bemcap_serve::protocol::{build_extractor, ExtractOptions, Request};

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit permutation. Used
/// both to fold key material and to draw the per-(key, replica)
/// rendezvous weights.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds one word into an accumulator (order-sensitive).
fn fold(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ word)
}

/// FNV-1a content hash of a byte payload, passed through the mixer.
fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// Folds the solver config digest of `options` — bit-exact identity, so
/// the shard choice agrees with the backend's cache identity.
fn fold_options(mut acc: u64, options: &ExtractOptions) -> u64 {
    for word in build_extractor(options).config_digest() {
        acc = fold(acc, word);
    }
    acc
}

/// The shard-affinity routing key of a request, or `None` for control
/// ops the router answers itself (`ping`, `metrics`, `route_stats`,
/// `shutdown`) or refuses (`stats`, `snapshot` — per-daemon state).
///
/// `batch` folds every geometry: the daemon runs the frame as one
/// executor submission, so the frame routes as one unit. `chip` additionally
/// folds the window grid and halo — different partitions populate
/// different window-cache entries.
pub fn routing_key(request: &Request) -> Option<u64> {
    match request {
        Request::Extract { geometry, options, .. } => {
            Some(fold(fold_options(1, options), content_hash(geometry.as_bytes())))
        }
        Request::Batch { geometries, options, .. } => {
            let mut acc = fold_options(2, options);
            for g in geometries {
                acc = fold(acc, content_hash(g.as_bytes()));
            }
            Some(acc)
        }
        Request::Chip { geometry, options, nx, ny, halo, .. } => {
            let mut acc = fold_options(3, options);
            acc = fold(acc, content_hash(geometry.as_bytes()));
            acc = fold(acc, *nx as u64);
            acc = fold(acc, *ny as u64);
            acc = fold(acc, halo.map_or(u64::MAX, f64::to_bits));
            Some(acc)
        }
        Request::Ping { .. }
        | Request::Stats { .. }
        | Request::Metrics { .. }
        | Request::RouteStats { .. }
        | Request::Snapshot { .. }
        | Request::Shutdown { .. } => None,
    }
}

/// Rendezvous ranking of a fixed replica set. Replica identity is the
/// *address string*, not the position: dropping a replica from the
/// configuration leaves every other replica's weights — and therefore
/// every surviving key assignment — unchanged.
#[derive(Debug, Clone)]
pub struct Balancer {
    seeds: Vec<u64>,
}

impl Balancer {
    /// Builds a balancer over the replica addresses, in configuration
    /// order (the indices [`Balancer::ranked`] returns index into it).
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Balancer {
        Balancer { seeds: addrs.iter().map(|a| content_hash(a.as_ref().as_bytes())).collect() }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the replica set is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// All replica indices ordered by descending rendezvous weight for
    /// `key` — the affinity shard first, then the failover preference
    /// order. Ties (only possible with duplicate addresses) break by
    /// index, keeping the order deterministic.
    pub fn ranked(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.seeds.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(splitmix64(key ^ self.seeds[i])), i));
        order
    }

    /// The affinity shard for `key` (`None` on an empty set).
    pub fn pick(&self, key: u64) -> Option<usize> {
        self.ranked(key).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 4500 + i)).collect()
    }

    #[test]
    fn ranking_is_deterministic_and_total() {
        let b = Balancer::new(&addrs(5));
        for key in [0u64, 1, 42, u64::MAX] {
            let r1 = b.ranked(key);
            let r2 = b.ranked(key);
            assert_eq!(r1, r2);
            let mut sorted = r1.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "every replica ranked once: {r1:?}");
        }
    }

    #[test]
    fn keys_spread_across_replicas() {
        let b = Balancer::new(&addrs(4));
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[b.pick(splitmix64(key)).unwrap()] += 1;
        }
        // A uniform split is 1000 each; accept a generous band — the
        // point is that no replica is starved or dominant.
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..=1400).contains(&c), "replica {i} got {c} of 4000: {counts:?}");
        }
    }

    #[test]
    fn removal_remaps_only_the_lost_replicas_share() {
        let all = addrs(5);
        let b_all = Balancer::new(&all);
        let survivors: Vec<String> =
            all.iter().enumerate().filter(|(i, _)| *i != 2).map(|(_, a)| a.clone()).collect();
        let b_less = Balancer::new(&survivors);
        for key in 0..2000u64 {
            let key = splitmix64(key ^ 0xabcdef);
            let before = b_all.pick(key).unwrap();
            let after = b_less.pick(key).unwrap();
            if before != 2 {
                // Index shift: survivors drop slot 2, so 3→2, 4→3.
                let expect = if before > 2 { before - 1 } else { before };
                assert_eq!(after, expect, "key {key:#x} moved without losing its replica");
            }
        }
    }

    #[test]
    fn routing_keys_track_payload_and_config() {
        let geo = "conductor a\nbox 0 0 0 1 1 1\n".to_string();
        let other = "conductor b\nbox 0 0 0 2 2 2\n".to_string();
        let req = |geometry: &String, options: ExtractOptions| Request::Extract {
            id: Some(1),
            geometry: geometry.clone(),
            options,
        };
        let base = routing_key(&req(&geo, ExtractOptions::default())).unwrap();
        // The id plays no part: repeats with fresh ids keep their shard.
        let repeat = Request::Extract {
            id: Some(999),
            geometry: geo.clone(),
            options: ExtractOptions::default(),
        };
        assert_eq!(base, routing_key(&repeat).unwrap());
        // Geometry content and solver config both move the key.
        assert_ne!(base, routing_key(&req(&other, ExtractOptions::default())).unwrap());
        let accel = ExtractOptions { accelerated: true, ..Default::default() };
        assert_ne!(base, routing_key(&req(&geo, accel)).unwrap());
        // The same payload under a different op routes independently.
        let as_batch = Request::Batch {
            id: Some(1),
            geometries: vec![geo.clone()],
            options: ExtractOptions::default(),
        };
        assert_ne!(base, routing_key(&as_batch).unwrap());
    }

    #[test]
    fn chip_keys_fold_the_window_grid() {
        let geo = "conductor a\nbox 0 0 0 1 1 1\n".to_string();
        let chip = |nx: usize, ny: usize, halo: Option<f64>| Request::Chip {
            id: None,
            geometry: geo.clone(),
            options: ExtractOptions::default(),
            nx,
            ny,
            halo,
        };
        let base = routing_key(&chip(2, 2, None)).unwrap();
        assert_eq!(base, routing_key(&chip(2, 2, None)).unwrap());
        assert_ne!(base, routing_key(&chip(3, 2, None)).unwrap());
        assert_ne!(base, routing_key(&chip(2, 2, Some(1e-6))).unwrap());
    }

    #[test]
    fn control_ops_have_no_routing_key() {
        for req in [
            Request::Ping { id: None },
            Request::Stats { id: None },
            Request::Metrics { id: None },
            Request::RouteStats { id: None },
            Request::Snapshot { id: None, path: "p".into() },
            Request::Shutdown { id: None },
        ] {
            assert_eq!(routing_key(&req), None, "{req:?}");
        }
    }
}
