//! Failure injection through the full stack: dead ranks, dropped
//! messages, and probabilistic wire faults must surface as clean errors
//! from the collectives — never hangs, never silent corruption — and the
//! reliability sublayer must heal what is healable.

use std::time::Duration;

use bruck::collectives::api::{alltoall, alltoall_resilient, Tuning};
use bruck::collectives::concat::ConcatAlgorithm;
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::verify;
use bruck::model::partition::Preference;
use bruck::net::{Cluster, ClusterConfig, FaultPlan, LinkStats, NetError, Reliability};

fn faulty_cfg(n: usize, faults: FaultPlan) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_timeout(Duration::from_millis(200))
        .with_faults(faults)
}

#[test]
fn index_with_dead_rank_errors_out() {
    let n = 6;
    let cfg = faulty_cfg(n, FaultPlan::new().kill_rank_after(3, 1));
    let err = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 4);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, 4)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Killed { rank: 3, .. } | NetError::Timeout { .. }
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn concat_with_dead_rank_errors_out() {
    let n = 8;
    let cfg = faulty_cfg(n, FaultPlan::new().kill_rank_after(0, 0));
    let err = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), 4);
        ConcatAlgorithm::Bruck(Preference::Rounds).run(ep, &input)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Killed { rank: 0, .. } | NetError::Timeout { .. }
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn dropped_message_is_detected_not_corrupted() {
    let n = 5;
    // Drop one mid-algorithm message of the Bruck index (round 1).
    let cfg = faulty_cfg(n, FaultPlan::new().drop_message(2, 4, 1));
    let err = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 4);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, 4)
    })
    .unwrap_err();
    // Rank 4 stalls waiting for the dropped message; ranks downstream of
    // the stall may reach their own deadlines in the same poll window, so
    // the root cause is *a* timeout (never corruption, never a hang) —
    // which exact waiter wins the tie is scheduling-dependent.
    assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
}

#[test]
fn gather_bcast_survives_no_faults_under_short_timeout() {
    // Control: the same short timeout without faults completes fine.
    let n = 8;
    let cfg = faulty_cfg(n, FaultPlan::new());
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), 4);
        ConcatAlgorithm::GatherBroadcast.run(ep, &input)
    })
    .unwrap();
    let expected = verify::concat_expected(n, 4);
    for r in &out.results {
        assert_eq!(r, &expected);
    }
}

/// The ISSUE's first demo: alltoall over a 5% lossy wire completes
/// bit-correct via retransmission, and the retry counters prove the
/// reliability layer actually worked.
#[test]
fn alltoall_over_lossy_wire_heals_by_retransmission() {
    let n = 8;
    let block = 16;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().with_seed(0xB10C).with_loss(0.05))
        .with_reliability(Reliability::default());
    let tuning = Tuning::default();
    let link = until_data_frame_dropped(|| {
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            // Several repetitions: enough physical transmissions that the
            // 5% loss rate fires with overwhelming probability.
            let mut last = Vec::new();
            for _ in 0..4 {
                last = alltoall(ep, &input, block, &tuning)?;
            }
            Ok(last)
        })
        .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, block),
                "rank {rank} corrupted under loss"
            );
        }
        assert_eq!(
            out.metrics.total_retransmits(),
            out.metrics.link_totals().retransmits
        );
        out.metrics.link_totals()
    });
    assert!(
        link.injected_losses > 0,
        "the plan never actually dropped anything"
    );
    assert!(
        link.retransmits > 0,
        "losses occurred but nothing was retransmitted"
    );
}

/// Run a lossy cluster until the plan drops a *data* frame, at most
/// [`LOSSY_ATTEMPTS`] times, and return that run's link totals. Ack
/// arrival order perturbs the per-transmission loss draws, so a seeded
/// run can occasionally drop only control frames (acks, probes) that a
/// later cumulative ack covers; such a run owes no retransmission and
/// proves nothing about healing, so it is repeated rather than judged.
fn until_data_frame_dropped(mut run: impl FnMut() -> LinkStats) -> LinkStats {
    let mut link = run();
    for _ in 1..LOSSY_ATTEMPTS {
        if link.injected_losses > 0 {
            break;
        }
        link = run();
    }
    link
}

/// Bound on [`until_data_frame_dropped`]'s repeats.
const LOSSY_ATTEMPTS: usize = 5;

#[test]
fn alltoall_over_duplicating_corrupting_wire_is_bit_correct() {
    let n = 6;
    let block = 8;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(
            FaultPlan::new()
                .with_seed(7)
                .with_loss(0.03)
                .with_duplication(0.05)
                .with_corruption(0.05),
        )
        .with_reliability(Reliability::default());
    let tuning = Tuning::default();
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        let mut last = Vec::new();
        for _ in 0..4 {
            last = alltoall(ep, &input, block, &tuning)?;
        }
        Ok(last)
    })
    .unwrap();
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(result, &verify::index_expected(rank, n, block));
    }
    let link = out.metrics.link_totals();
    assert!(link.injected_corruptions > 0 || link.injected_dups > 0);
    assert_eq!(
        link.corrupt_dropped, link.injected_corruptions,
        "every corrupted frame must be caught by its checksum"
    );
}

/// Without the reliability sublayer, corruption must surface as a
/// `Corrupt` error (the root cause), never as silently wrong bytes.
#[test]
fn corruption_without_reliability_is_detected() {
    let n = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_millis(500))
        .with_faults(FaultPlan::new().with_seed(3).with_corruption(0.3));
    let tuning = Tuning::default();
    let err = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 32);
        let mut last = Vec::new();
        for _ in 0..8 {
            last = alltoall(ep, &input, 32, &tuning)?;
        }
        Ok(last)
    })
    .unwrap_err();
    assert!(matches!(err, NetError::Corrupt { .. }), "{err:?}");
}

/// The ISSUE's second demo, part 1: a killed rank yields one consistent
/// cluster-wide verdict — the killed rank reports `Killed`, every
/// survivor reports the same `RanksFailed`, nobody hangs or times out.
#[test]
fn killed_rank_yields_consistent_ranks_failed_on_all_survivors() {
    let n = 6;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(2, 1));
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 4);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, 4)
    });
    assert_eq!(report.failed, vec![2]);
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let err = outcome.as_ref().unwrap_err();
        if rank == 2 {
            assert!(matches!(err, NetError::Killed { rank: 2, .. }), "{err:?}");
        } else {
            assert_eq!(
                err,
                &NetError::RanksFailed { ranks: vec![2] },
                "survivor {rank} disagrees on the verdict"
            );
        }
    }
    // Root-cause aggregation: the kill, not any reaction to it.
    let (_, cause) = report.root_cause().unwrap();
    assert!(matches!(cause, NetError::Killed { rank: 2, .. }));
}

/// The ISSUE's second demo, part 2: `run_resilient` shrinks to the
/// survivors and completes the collective among them.
#[test]
fn run_resilient_completes_among_survivors() {
    let n = 6;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(2, 1));
    let tuning = Tuning::default();
    let resilient = Cluster::run_resilient(&cfg, 3, |ep, view| {
        // The body re-plans for whatever size it is given: the radix is
        // re-tuned and the input rebuilt for the dense survivor ranks.
        let m = ep.size();
        let input = verify::index_input(ep.rank(), m, block);
        let data = alltoall(ep, &input, block, &tuning)?;
        Ok((view.attempt, data))
    })
    .unwrap();
    assert_eq!(resilient.survivors, vec![0, 1, 3, 4, 5]);
    assert_eq!(resilient.attempts, 2);
    let m = resilient.survivors.len();
    for (dense, (attempt, data)) in resilient.output.results.iter().enumerate() {
        assert_eq!(*attempt, 1, "success must come from the retry attempt");
        assert_eq!(data, &verify::index_expected(dense, m, block));
    }
}

/// In-run recovery: survivors shrink the communicator and retry inside
/// the same cluster run (`alltoall_resilient`), with epoch-tagged
/// attempts isolating stale traffic.
#[test]
fn alltoall_resilient_shrinks_in_run() {
    let n = 6;
    let block = 4;
    let victim = 2;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(victim, 1));
    let tuning = Tuning::default();
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &tuning, 3)
    });
    assert_eq!(report.failed, vec![victim]);
    let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == victim {
            let err = outcome.as_ref().unwrap_err();
            assert!(matches!(err, NetError::Killed { rank: 2, .. }), "{err:?}");
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed to recover in-run: {e:?}"));
        assert_eq!(res.survivors, survivors);
        // Most ranks abort the full-membership attempt and succeed on the
        // retry; a rank scheduled late enough may first observe the dead
        // set after the kill and join the survivor epoch directly.
        assert!(res.attempts <= 2, "attempts = {}", res.attempts);
        // Survivor-dense correctness: block i came from survivors[i].
        let me = survivors.iter().position(|&s| s == rank).unwrap();
        for (i, &src) in survivors.iter().enumerate() {
            let got = &res.data[i * block..(i + 1) * block];
            let full = verify::index_input(src, n, block);
            assert_eq!(
                got,
                &full[rank * block..(rank + 1) * block],
                "rank {rank} (dense {me}) got wrong block from {src}"
            );
        }
    }
}

/// Rank i's non-uniform payload for rank j: (i + j + 1) % 13 bytes —
/// some spans empty, all sizes distinct enough to catch layout slips.
fn v_payload(i: usize, j: usize) -> Vec<u8> {
    (0..(i + j + 1) % 13)
        .map(|t| verify::content_byte(i, j, t))
        .collect()
}

/// In-run recovery for the non-uniform family: `alltoallv_resilient`
/// shrinks to the survivors, repacks the variable-size blocks dense
/// under a fresh layout, and completes bit-correct — the PR 6 v-ops get
/// the same epoch-tagged shrink treatment as the uniform all-to-all.
#[test]
fn alltoallv_resilient_shrinks_in_run() {
    use bruck::collectives::vops::alltoallv_resilient;
    use bruck::collectives::vops::VLayout;
    let n = 6;
    let victim = 2;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(victim, 1));
    let tuning = Tuning::default();
    let report = Cluster::try_run(&cfg, |ep| {
        let bufs: Vec<Vec<u8>> = (0..n).map(|j| v_payload(ep.rank(), j)).collect();
        let layout = VLayout::from_counts(&bufs.iter().map(Vec::len).collect::<Vec<_>>());
        alltoallv_resilient(ep, &bufs.concat(), &layout, &tuning, 3)
    });
    assert_eq!(report.failed, vec![victim]);
    let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == victim {
            let err = outcome.as_ref().unwrap_err();
            assert!(matches!(err, NetError::Killed { rank: 2, .. }), "{err:?}");
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed to recover in-run: {e:?}"));
        assert_eq!(res.survivors, survivors);
        assert!(res.attempts <= 2, "attempts = {}", res.attempts);
        // Survivor-dense correctness: span i came from survivors[i].
        for (i, &src) in survivors.iter().enumerate() {
            assert_eq!(
                res.layout.slice(&res.data, i),
                &v_payload(src, rank)[..],
                "rank {rank} got wrong span from {src}"
            );
        }
    }
}

/// `FailFast` turns a below-quorum shrink into an immediate
/// `RanksFailed` on every survivor instead of a degraded completion;
/// with the quorum satisfied the same run shrinks and completes.
#[test]
fn alltoallv_resilient_honours_fail_fast_quorum() {
    use bruck::collectives::vops::alltoallv_resilient_with_policy;
    use bruck::collectives::vops::VLayout;
    use bruck::net::RecoveryPolicy;
    let n = 4;
    let victim = 1;
    for (min_quorum, expect_ok) in [(n, false), (n - 1, true)] {
        let cfg = ClusterConfig::new(n)
            .with_timeout(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_after(victim, 1));
        let tuning = Tuning::default();
        let report = Cluster::try_run(&cfg, move |ep| {
            let bufs: Vec<Vec<u8>> = (0..n).map(|j| v_payload(ep.rank(), j)).collect();
            let layout = VLayout::from_counts(&bufs.iter().map(Vec::len).collect::<Vec<_>>());
            alltoallv_resilient_with_policy(
                ep,
                &bufs.concat(),
                &layout,
                &tuning,
                3,
                RecoveryPolicy::FailFast { min_quorum },
            )
        });
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            if rank == victim {
                continue;
            }
            match outcome {
                Ok(res) if expect_ok => {
                    assert_eq!(res.survivors, vec![0, 2, 3], "quorum {min_quorum}");
                }
                Err(NetError::RanksFailed { ranks }) if !expect_ok => {
                    assert!(ranks.contains(&victim), "quorum {min_quorum}: {ranks:?}");
                }
                other => panic!("rank {rank} quorum {min_quorum} expect_ok={expect_ok}: {other:?}"),
            }
        }
    }
}

/// The fault plan is transport-agnostic: the same wire-fault injection
/// and reliability stack wrap the Unix-socket transport, so a lossy
/// kernel path heals the same way the channel path does.
#[cfg(unix)]
#[test]
fn socket_transport_honours_fault_plan() {
    use bruck::net::SocketCluster;
    let n = 4;
    let block = 8;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(10))
        .with_faults(FaultPlan::new().with_seed(0x50C).with_loss(0.08))
        .with_reliability(Reliability::default());
    let tuning = Tuning::default();
    let link = until_data_frame_dropped(|| {
        let out = SocketCluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            // Enough repetitions that the 8% loss rate fires with
            // overwhelming probability (ack arrival order perturbs the
            // per-transmission draws, so this is a tail bound, not a
            // fixed replay).
            let mut last = Vec::new();
            for _ in 0..8 {
                last = alltoall(ep, &input, block, &tuning)?;
            }
            Ok(last)
        })
        .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(result, &verify::index_expected(rank, n, block));
        }
        out.metrics.link_totals()
    });
    assert!(link.injected_losses > 0);
    assert!(link.retransmits > 0);
}

/// A killed rank on the socket transport surfaces as the same clean,
/// root-caused error as on channels.
#[cfg(unix)]
#[test]
fn socket_transport_kill_is_root_caused() {
    use bruck::net::SocketCluster;
    let n = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(1, 0));
    let err = SocketCluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 4);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, 4)
    })
    .unwrap_err();
    assert!(matches!(err, NetError::Killed { rank: 1, .. }), "{err:?}");
}

/// Rank 0 is special: it roots the calibration gather/broadcast and
/// every cached-fit verdict. Killing it mid-run must still shrink
/// cleanly — the survivor cluster re-roots calibration at its own dense
/// rank 0 (the old rank 1) and completes. `n = 7` additionally makes the
/// survivor count 6, not a power of the radix, so the retry's re-planned
/// schedule exercises the non-power shrink path.
#[test]
fn run_resilient_survives_death_of_calibration_root() {
    use bruck::collectives::autotune::calibrated_fit;
    let n = 7;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(0, 1));
    let tuning = Tuning::default();
    let resilient = Cluster::run_resilient(&cfg, 3, |ep, _view| {
        // The calibration collective is rooted at (dense) rank 0 — on
        // the retry that is a different physical rank than the corpse.
        let fit = calibrated_fit(ep)?;
        let m = ep.size();
        let input = verify::index_input(ep.rank(), m, block);
        let data = alltoall(ep, &input, block, &tuning)?;
        Ok((fit.model, data))
    })
    .unwrap();
    assert_eq!(resilient.survivors, vec![1, 2, 3, 4, 5, 6]);
    let m = resilient.survivors.len();
    for (dense, (_model, data)) in resilient.output.results.iter().enumerate() {
        assert_eq!(data, &verify::index_expected(dense, m, block));
    }
}

/// The in-run variant of root death: `alltoall_resilient` shrinks around
/// a dead rank 0 without restarting the cluster, at a survivor count
/// (6 of 7) that is not a power of the radix.
#[test]
fn alltoall_resilient_survives_death_of_rank_zero() {
    let n = 7;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(0, 1));
    let tuning = Tuning::default();
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &tuning, 3)
    });
    assert_eq!(report.failed, vec![0]);
    let survivors: Vec<usize> = (1..n).collect();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == 0 {
            let err = outcome.as_ref().unwrap_err();
            assert!(matches!(err, NetError::Killed { rank: 0, .. }), "{err:?}");
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed to recover: {e:?}"));
        assert_eq!(res.survivors, survivors);
        for (i, &src) in survivors.iter().enumerate() {
            let got = &res.data[i * block..(i + 1) * block];
            let full = verify::index_input(src, n, block);
            assert_eq!(
                got,
                &full[rank * block..(rank + 1) * block],
                "rank {rank} got wrong block from {src}"
            );
        }
    }
}

#[test]
fn fault_in_last_round_of_concat() {
    // Kill a rank right before the partitioned last round: phase-1
    // progress must not mask the failure.
    let n = 10; // k = 3 ⇒ d = 2: one phase-1 round, then the last round
    let cfg = ClusterConfig::new(n)
        .with_ports(3)
        .with_timeout(Duration::from_millis(200))
        .with_faults(FaultPlan::new().kill_rank_after(7, 1));
    let err = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), 3);
        ConcatAlgorithm::Bruck(Preference::Rounds).run(ep, &input)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Killed { rank: 7, .. } | NetError::Timeout { .. }
        ),
        "{err:?}"
    );
}
