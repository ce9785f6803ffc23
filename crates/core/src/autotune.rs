//! Live calibration of the cost model against the actual transport.
//!
//! The paper fine-tunes the index radix "according to the parameters of
//! the underlying machines" (§3.3) — its §3.5 measures `β` and `τ` on the
//! IBM SP-1 by hand. This module automates that measurement: every rank
//! pairs with a neighbour and runs a **ping ladder** (round-trip
//! exchanges at geometrically spaced message sizes), records
//! `(Complexity, seconds)` samples into a [`Calibrator`], and the cluster
//! agrees on a single merged [`LinearFit`] for the transport.
//!
//! Fits are cached per **transport kind** ([`Comm::transport_kind`]:
//! `"channel"`, `"uds"`, …) in a process-global table, so a bench that
//! spins up many clusters over the same substrate probes once.
//! Everything after the probe is collective-consistent: rank 0 alone
//! consults the cache and broadcasts its verdict, all ranks' local fits
//! are gathered back to rank 0, deterministically merged, and the merged
//! fit is broadcast — every rank leaves [`calibrated_fit`] holding
//! bit-identical parameters, so later planner decisions agree without
//! further communication.
//!
//! [`refresh_from_metrics`] closes the loop after real collectives run:
//! it folds a measured `(global complexity, wall seconds)` pair back into
//! the cached [`Calibrator`] and refits, so the model tracks the live
//! machine instead of the ping microbenchmark alone.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use bruck_model::calibrate::{Calibrator, LinearFit};
use bruck_model::complexity::Complexity;
use bruck_model::cost::LinearModel;
use bruck_net::{Comm, NetError, RunMetrics};

use crate::primitives::{broadcast, gather};

/// Tag base for probe traffic. Kept below bit 40 so it never collides
/// with [`bruck_net::GroupComm`] epoch prefixes.
const PROBE_TAG: u64 = 0xA0_0000_0000;

/// Ping-ladder message sizes (bytes). Geometric spacing separates the
/// start-up-dominated and bandwidth-dominated regimes so the two-variable
/// fit is well conditioned.
pub const PROBE_SIZES: [usize; 5] = [64, 512, 4096, 32768, 65536];

/// Timed repetitions per ladder rung (one extra untimed warmup precedes
/// each rung).
const PROBE_REPS: usize = 3;

struct CacheEntry {
    cal: Calibrator,
    fit: LinearFit,
}

static CACHE: Mutex<Option<HashMap<String, CacheEntry>>> = Mutex::new(None);

fn with_cache<R>(f: impl FnOnce(&mut HashMap<String, CacheEntry>) -> R) -> R {
    let mut guard = CACHE.lock().expect("calibration cache poisoned");
    f(guard.get_or_insert_with(HashMap::new))
}

/// Drop every cached fit (tests; or to force a re-probe).
pub fn clear_cache() {
    with_cache(HashMap::clear);
}

/// The cached fit for a transport kind, if any rank has probed it.
#[must_use]
pub fn cached_fit(kind: &str) -> Option<LinearFit> {
    with_cache(|c| c.get(kind).map(|e| e.fit))
}

/// Fold a measured run — its global [`Complexity`] and wall-clock
/// duration — into the cached calibrator for `kind` and refit. Returns
/// the updated fit, or `None` when there is no cache entry for `kind`,
/// the metrics carry no global complexity, or the refreshed samples no
/// longer support a fit.
pub fn refresh_from_metrics(
    kind: &str,
    metrics: &RunMetrics,
    wall_seconds: f64,
) -> Option<LinearFit> {
    let c = metrics.global_complexity()?;
    with_cache(|cache| {
        let entry = cache.get_mut(kind)?;
        entry.cal.record_run(c, wall_seconds);
        let fit = entry.cal.try_fit()?;
        entry.fit = fit;
        Some(fit)
    })
}

/// Encode an optional fit as a 1-byte validity flag plus the wire fit.
fn encode_opt(fit: Option<&LinearFit>) -> Vec<u8> {
    let mut out = vec![0u8; 1 + LinearFit::WIRE_BYTES];
    if let Some(f) = fit {
        out[0] = 1;
        out[1..].copy_from_slice(&f.to_bytes());
    }
    out
}

fn decode_opt(bytes: &[u8]) -> Option<LinearFit> {
    let arr: &[u8; LinearFit::WIRE_BYTES] = bytes.get(1..)?.try_into().ok()?;
    (bytes[0] == 1).then(|| LinearFit::from_bytes(arr))
}

/// Deterministic merge of the per-rank fits: arithmetic mean of the
/// parameters over the ranks that produced one, total sample count.
fn merge(fits: &[LinearFit]) -> Option<LinearFit> {
    if fits.is_empty() {
        return None;
    }
    let n = fits.len() as f64;
    Some(LinearFit {
        model: LinearModel::new(
            fits.iter().map(|f| f.model.startup).sum::<f64>() / n,
            fits.iter().map(|f| f.model.per_byte).sum::<f64>() / n,
        ),
        r_squared: fits.iter().map(|f| f.r_squared).sum::<f64>() / n,
        samples: fits.iter().map(|f| f.samples).sum(),
    })
}

/// When no rank could probe (a 1-rank cluster), fall back to the paper's
/// SP-1 calibration with `samples = 0` marking it synthetic.
fn fallback() -> LinearFit {
    LinearFit {
        model: LinearModel::sp1(),
        r_squared: 0.0,
        samples: 0,
    }
}

/// Run this rank's half of the ping ladder against `partner`, recording
/// one `(Complexity::new(1, size), seconds)` sample per timed exchange:
/// both directions of an exchange proceed concurrently, so one round-trip
/// ≈ one round's start-up plus `size` bytes per port.
fn probe_pair<C: Comm + ?Sized>(
    ep: &mut C,
    partner: usize,
    cal: &mut Calibrator,
) -> Result<(), NetError> {
    let payload = vec![0u8; *PROBE_SIZES.iter().max().expect("non-empty ladder")];
    let mut scratch = vec![0u8; payload.len()];
    for (i, &size) in PROBE_SIZES.iter().enumerate() {
        for rep in 0..=PROBE_REPS {
            let tag = PROBE_TAG | ((i as u64) << 8) | rep as u64;
            let t0 = Instant::now();
            ep.send_and_recv_into(partner, &payload[..size], partner, tag, &mut scratch)?;
            let secs = t0.elapsed().as_secs_f64();
            if rep > 0 {
                // rep 0 is the warmup (page faults, pool growth, lazy
                // connection setup) and is discarded.
                cal.record_run(Complexity::new(1, size as u64), secs);
            }
        }
    }
    Ok(())
}

/// Probe the live transport (or reuse the cached result) and return the
/// fitted `(β, τ)` every rank agrees on.
///
/// Collective over the whole communicator — every rank must call it. The
/// probe itself is pairwise: rank `i` exchanges with `i ^ 1`; with odd
/// `n` the last rank sits the ladder out and adopts the merged fit.
///
/// # Errors
///
/// Network failures propagate.
pub fn calibrated_fit<C: Comm + ?Sized>(ep: &mut C) -> Result<LinearFit, NetError> {
    let kind = ep.transport_kind();
    let n = ep.size();
    let rank = ep.rank();

    // Cache consultation must be collectively consistent: rank 0 alone
    // reads the table and broadcasts its verdict, so ranks never split
    // between the cached and probing paths (which would deadlock the
    // probe rounds).
    let verdict = if rank == 0 {
        encode_opt(cached_fit(kind).as_ref())
    } else {
        Vec::new()
    };
    let verdict = broadcast(ep, 0, &verdict)?;
    if let Some(fit) = decode_opt(&verdict) {
        return Ok(fit);
    }

    let mut cal = Calibrator::new();
    let partner = rank ^ 1;
    if partner < n {
        probe_pair(ep, partner, &mut cal)?;
    }
    let local = cal.try_fit();

    // Gather every rank's fit to rank 0, merge deterministically, and
    // broadcast the merged result so all ranks adopt ONE set of
    // parameters (per-rank timing noise must not diverge later plans).
    let gathered = gather(ep, 0, &encode_opt(local.as_ref()))?;
    let merged = if let Some(all) = gathered {
        let stride = 1 + LinearFit::WIRE_BYTES;
        let fits: Vec<LinearFit> = all.chunks_exact(stride).filter_map(decode_opt).collect();
        let fit = merge(&fits).unwrap_or_else(fallback);
        encode_opt(Some(&fit))
    } else {
        Vec::new()
    };
    let merged = broadcast(ep, 0, &merged)?;
    let fit = decode_opt(&merged).expect("rank 0 always encodes a merged fit");

    if rank == 0 {
        with_cache(|c| {
            c.insert(kind.to_string(), CacheEntry { cal, fit });
        });
    }
    Ok(fit)
}

/// [`calibrated_fit`], reduced to the [`LinearModel`] the planner wants.
///
/// # Errors
///
/// Network failures propagate.
pub fn calibrated_model<C: Comm + ?Sized>(ep: &mut C) -> Result<LinearModel, NetError> {
    Ok(calibrated_fit(ep)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_net::{Cluster, ClusterConfig};
    use std::sync::MutexGuard;

    /// The cache is process-global; tests that reset it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn all_ranks_agree_on_one_fit() {
        let _guard = exclusive();
        clear_cache();
        let cfg = ClusterConfig::new(4);
        let out = Cluster::run(&cfg, calibrated_fit).unwrap();
        let first = out.results[0];
        for (rank, fit) in out.results.iter().enumerate() {
            assert_eq!(fit.to_bytes(), first.to_bytes(), "rank {rank} diverged");
        }
        assert!(first.samples > 0, "probing ranks must contribute samples");
        assert!(cached_fit("channel").is_some(), "fit must be cached");
    }

    #[test]
    fn second_cluster_reuses_cache() {
        let _guard = exclusive();
        clear_cache();
        let cfg = ClusterConfig::new(2);
        let first = Cluster::run(&cfg, calibrated_fit).unwrap().results[0];
        // Poison-pill check: a second run must return the cached fit
        // bit-for-bit (a re-probe would time differently).
        let second = Cluster::run(&cfg, calibrated_fit).unwrap().results[0];
        assert_eq!(first.to_bytes(), second.to_bytes());
    }

    #[test]
    fn odd_cluster_and_singleton_still_agree() {
        let _guard = exclusive();
        clear_cache();
        let out = Cluster::run(&ClusterConfig::new(3), calibrated_fit).unwrap();
        let first = out.results[0];
        for fit in &out.results {
            assert_eq!(fit.to_bytes(), first.to_bytes());
        }
        clear_cache();
        // n = 1: nobody can probe; the SP-1 fallback is returned.
        let solo = Cluster::run(&ClusterConfig::new(1), calibrated_fit)
            .unwrap()
            .results[0];
        assert_eq!(solo.samples, 0);
        assert!(solo.model.startup > 0.0);
    }

    #[test]
    fn refresh_folds_run_samples_into_cache() {
        let _guard = exclusive();
        clear_cache();
        let cfg = ClusterConfig::new(2);
        Cluster::run(&cfg, calibrated_fit).unwrap();
        let before = cached_fit("channel").unwrap();
        let out = Cluster::run(&cfg, |ep| {
            let buf = vec![7u8; 2 * 64];
            crate::index::IndexAlgorithm::BruckRadix(2)
                .run(ep, &buf, 64)
                .map(|_| ())
        })
        .unwrap();
        let refreshed = refresh_from_metrics("channel", &out.metrics, 1e-4).unwrap();
        // The cached calibrator holds rank 0's ladder samples (the merged
        // fit's count sums every rank's, so compare against the ladder).
        assert_eq!(refreshed.samples, PROBE_SIZES.len() * PROBE_REPS + 1);
        assert!(before.samples >= PROBE_SIZES.len() * PROBE_REPS);
        assert_eq!(cached_fit("channel").unwrap().samples, refreshed.samples);
        // Unknown transports have nothing to refresh.
        assert!(refresh_from_metrics("nonsuch", &out.metrics, 1e-4).is_none());
    }
}
