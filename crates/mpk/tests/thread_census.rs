//! Thread census of the socket backend, in a test binary of its own so no
//! other test's threads are counted.
//!
//! An unsupervised rank is one OS thread: it reads its own sockets, so a
//! `p`-rank loopback mesh adds exactly `p` threads to the process, however
//! many connections it has.

use mpk::{run_socket_cluster, SocketClusterOptions, Tag, Transport};

/// The `Threads:` line of `/proc/self/status`.
fn threads_in_process() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("no Threads: line");
    line.trim().parse().expect("Threads: is not a number")
}

#[test]
fn unsupervised_mesh_runs_one_thread_per_rank() {
    const P: usize = 4;
    let before = threads_in_process();
    let census = run_socket_cluster::<u8, _, _>(P, SocketClusterOptions::default(), |t| {
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
        let threads = threads_in_process();
        all_to_all(t);
        threads
    });
    assert_eq!(census, vec![before + P; P], "threads beyond the ranks");
}
