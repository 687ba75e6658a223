//! Exploration of the VeloC asynchronous-flush protocol: the backend
//! worker thread vs `checkpoint`/`checkpoint_wait` vs teardown vs the
//! worker's scheduled death. The one-slot hand-off's mutex and condvar run
//! on the model-aware shims, so enqueue → flush → wait → drop is explored
//! end to end; the cluster uses `TimeScale::instant()` so no modeled time
//! passes.

use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, Key, TimeScale};
use modelcheck::Explorer;
use simmpi::fault::{BackendFault, FaultSchedule};
use telemetry::Recorder;
use veloc::{ActiveBackend, Client, Config, VecRegion};

fn cluster(nodes: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

/// Checkpoint rank 0's `version` under the name `ck`.
fn ck(c: &Cluster, version: u64) -> Key {
    Key::new(c.names().intern("ck"), version, 0)
}

/// Enqueue a flush, wait for it, tear the backend down. Under every
/// schedule the blob lands on the PFS before `wait` returns and nothing is
/// outstanding afterwards.
#[test]
fn flush_wait_teardown_is_clean() {
    let report = Explorer::with_bound(2)
        .from_env()
        .check("veloc flush/wait/drop", || {
            let c = cluster(1);
            let b = ActiveBackend::spawn(c.clone(), 0).expect("no spawn fault injected");
            b.enqueue_flush(
                ck(&c, 1),
                Bytes::from_static(b"payload"),
                Recorder::disabled(),
            );
            b.wait();
            assert_eq!(b.outstanding(), 0, "wait returned with work outstanding");
            assert_eq!(
                &c.pfs().read("ck/v1/r0").expect("flush must have landed").0[..],
                b"payload"
            );
            drop(b);
        });
    assert!(report.exhaustive, "expected exhaustive DFS: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// Teardown with the flush still in flight: drop must drain, never discard,
/// under every interleaving of the worker and the dropping thread.
#[test]
fn drop_drains_in_flight_flush_under_all_schedules() {
    let report = Explorer::with_bound(2)
        .from_env()
        .check("veloc drop drains", || {
            let c = cluster(1);
            {
                let b = ActiveBackend::spawn(c.clone(), 0).expect("no spawn fault injected");
                b.enqueue_flush(ck(&c, 1), Bytes::from_static(b"x"), Recorder::disabled());
            }
            assert!(
                c.pfs().exists("ck/v1/r0"),
                "acknowledged checkpoint lost on teardown"
            );
        });
    assert!(report.exhaustive, "expected exhaustive DFS: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// The worker dies after its first flush; a second flush is handed over
/// around that death. Handed over before `wait`, it may sit in the slot as
/// the worker dies, and must still land. Handed over after `wait` saw the
/// worker idle, it must run inline on the caller: the death and the end of
/// the flush are one critical section, so `wait` never sees a dead worker
/// that still takes jobs.
#[test]
fn worker_death_never_strands_a_flush() {
    let report = Explorer::with_bound(2)
        .from_env()
        .check("veloc worker death", || {
            for wait_between in [false, true] {
                let c = cluster(1);
                let schedule = FaultSchedule::none().and_backend(BackendFault::worker_death(0, 1));
                c.set_injector(Some(Arc::new(schedule)));
                let b = ActiveBackend::spawn(c.clone(), 0).expect("no spawn fault injected");
                let enqueue = |v: u64| {
                    b.enqueue_flush(ck(&c, v), Bytes::from_static(b"x"), Recorder::disabled());
                };
                enqueue(1);
                if wait_between {
                    b.wait();
                    enqueue(2);
                    assert!(
                        c.pfs().exists("ck/v2/r0"),
                        "a flush after the death did not run inline"
                    );
                } else {
                    enqueue(2);
                }
                b.wait();
                for v in [1, 2] {
                    assert!(
                        c.pfs().exists(ck(&c, v)),
                        "wait returned before v{v} landed"
                    );
                }
                drop(b);
            }
        });
    assert!(report.exhaustive, "expected exhaustive DFS: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// Full client: checkpoint (which begins with an implicit checkpoint_wait
/// on the previous flush), a second checkpoint racing the first flush, then
/// restart after the drain. The restored bytes must come from the newest
/// acknowledged checkpoint under every schedule.
#[test]
fn checkpoint_restart_races_the_flush_thread() {
    let report = Explorer::with_bound(1)
        .from_env()
        .check("veloc checkpoint vs flush", || {
            let c = cluster(1);
            let cl = Client::init(c.clone(), 0, Config { async_flush: true });
            assert!(cl.async_flush_active());
            let r = VecRegion::new(vec![1u64]);
            cl.protect(0, Arc::new(r.clone()));
            cl.checkpoint("ck", 1).unwrap();
            *r.lock() = vec![2u64];
            cl.checkpoint("ck", 2).unwrap();
            cl.checkpoint_wait();
            assert_eq!(cl.latest_version("ck"), Some(2));
            *r.lock() = vec![0u64];
            cl.restart("ck", 2).unwrap();
            assert_eq!(*r.lock(), vec![2u64]);
            cl.finalize();
        });
    assert_eq!(report.truncated, 0);
    assert!(report.exhaustive, "expected exhaustive DFS: {report:?}");
}
