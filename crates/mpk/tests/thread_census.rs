//! Thread census of the socket backend, in a test binary of its own so no
//! other test's threads are counted.
//!
//! An unsupervised rank is one OS thread: it reads its own sockets, so a
//! `p`-rank loopback mesh adds exactly `p` threads to the process, however
//! many connections it has. A supervised rank adds two: the supervisor,
//! which heartbeats and redials, and the acceptor, which admits redials.
//! They stay apart because a junk dialer can hold the acceptor in a
//! handshake read for seconds, far past a heartbeat's miss deadline.

use mpk::{run_socket_cluster, SocketClusterOptions, SupervisorOptions, Tag, Transport};

/// The threads of this process that belong to the calling test: the ones
/// named like the calling thread. libtest names each test's thread after
/// the test, and Linux gives a new thread its creator's name, so the
/// rank, supervisor and acceptor threads a test starts carry its name
/// too, while the two tests here, running side by side, never count each
/// other's.
fn threads_of_this_test() -> usize {
    let comm = |task: &std::path::Path| std::fs::read_to_string(task.join("comm")).ok();
    let mine = comm("/proc/thread-self".as_ref()).expect("reading /proc/thread-self/comm");
    let tasks = std::fs::read_dir("/proc/self/task").expect("reading /proc/self/task");
    tasks
        .filter_map(|task| comm(&task.ok()?.path()))
        .filter(|name| *name == mine)
        .count()
}

/// Run a `P`-rank loopback mesh with `opts` and return how many threads
/// this test had before it and, as each rank counted, while it ran.
fn census<const P: usize>(opts: SocketClusterOptions) -> (usize, Vec<usize>) {
    let before = threads_of_this_test();
    let census = run_socket_cluster::<u8, _, _>(P, opts, |t| {
        // Two all-to-all rounds bracket the count: the mesh is up and in
        // use before any rank counts, and no rank can collect its
        // 2·(P − 1) messages (and exit) before every other has counted.
        let all_to_all = |t: &mut mpk::SocketTransport<u8>| {
            t.broadcast(Tag(0), 0);
            for _ in 1..P {
                t.recv();
            }
        };
        all_to_all(t);
        let threads = threads_of_this_test();
        all_to_all(t);
        threads
    });
    (before, census)
}

#[test]
fn unsupervised_mesh_runs_one_thread_per_rank() {
    const P: usize = 4;
    let (before, census) = census::<P>(SocketClusterOptions::default());
    assert_eq!(census, vec![before + P; P], "threads beyond the ranks");
}

#[test]
fn supervised_mesh_runs_three_threads_per_rank() {
    const P: usize = 3;
    let opts = SocketClusterOptions {
        supervision: Some(SupervisorOptions::default()),
        ..SocketClusterOptions::default()
    };
    let (before, census) = census::<P>(opts);
    // Rank, supervisor and acceptor, each spawned before its rank can
    // send: every rank has finished joining once the first round is in.
    assert_eq!(census, vec![before + 3 * P; P], "not 3 threads per rank");
}
