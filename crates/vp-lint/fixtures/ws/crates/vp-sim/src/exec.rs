//! Fixture stand-in for the blessed shard executor. Its path matches
//! `rules::BLESSED_EXECUTOR_FILE`, so the `thread::spawn` and the channel
//! below are exempt from rule c5 — the one file where concurrency
//! primitives may be named. This file is fixture input for the lint
//! gate; it is never compiled.

pub fn run_sharded(shards: usize) -> usize {
    let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(1);
    let worker = std::thread::spawn(move || tx.send(shards));
    drop((worker, rx));
    shards
}
