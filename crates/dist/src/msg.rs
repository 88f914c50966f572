//! A thread-backed message-passing world, the MPI-like substrate the
//! executed exchange runs on. Every rank is a thread; sends are tagged,
//! buffered, and matched out of order, as in MPI point-to-point, and the
//! collectives are built on them, so the byte counter measures real wire
//! volume.
//!
//! A rank whose body panics tells every peer: a waiting `recv` then panics
//! naming it, and [`run_world`] re-raises the first panic. Without that
//! word a blocked `recv` would wait forever, since every rank holds a
//! sender to every channel, its own included.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;

/// What travels between ranks.
enum Packet {
    /// A payload: sender, tag, data.
    Data(usize, u64, Vec<f64>),
    /// The sender's body panicked; it will send nothing more.
    Died(usize),
}

/// Per-rank communication context handed to the rank body.
pub struct RankCtx<'w> {
    rank: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Out-of-order buffer: (from, tag) -> queued payloads.
    pending: HashMap<(usize, u64), Vec<Vec<f64>>>,
    bytes_sent: &'w AtomicU64,
}

impl RankCtx<'_> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Sends `data` to rank `to` under `tag` (non-blocking; unbounded
    /// buffering).
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.bytes_sent
            .fetch_add((data.len() * 8) as u64, Ordering::Relaxed);
        self.senders[to]
            .send(Packet::Data(self.rank, tag, data))
            .expect("a rank outlives the messages it expects");
    }

    /// Receives the next message from `from` with `tag`, blocking until it
    /// arrives; other messages are buffered for later matching.
    ///
    /// # Panics
    /// Panics, naming the rank, once any peer's body has panicked.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        if let Some(q) = self.pending.get_mut(&(from, tag)) {
            if !q.is_empty() {
                return q.remove(0);
            }
        }
        loop {
            match self.receiver.recv().expect("a rank holds its own sender") {
                Packet::Data(f, t, data) if (f, t) == (from, tag) => return data,
                Packet::Data(f, t, data) => self.pending.entry((f, t)).or_default().push(data),
                Packet::Died(dead) => panic!("rank {}: rank {dead} panicked", self.rank),
            }
        }
    }

    /// Sends `parts[i]` to member `group[i]` of a group containing this
    /// rank, and returns what every member sent this rank, in `group`
    /// order (this rank's own part in its place). Each part goes straight
    /// to its member, so the byte count is the true total volume.
    fn all_to_all(&mut self, group: &[usize], tag: u64, parts: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let mut own = Vec::new();
        for (&peer, part) in group.iter().zip(parts) {
            if peer == self.rank {
                own = part;
            } else {
                self.send(peer, tag, part);
            }
        }
        let mut take = |peer: usize| {
            if peer == self.rank {
                std::mem::take(&mut own)
            } else {
                self.recv(peer, tag)
            }
        };
        group.iter().map(|&peer| take(peer)).collect()
    }

    /// AllGather within `group` (must contain this rank): returns every
    /// member's contribution, ordered as in `group`.
    pub fn allgather(&mut self, group: &[usize], tag: u64, mine: Vec<f64>) -> Vec<Vec<f64>> {
        self.all_to_all(group, tag, vec![mine; group.len()])
    }

    /// Reduce-Scatter (sum) within `group` (must contain this rank):
    /// `parts[i]` is this rank's contribution to member `group[i]`'s block.
    /// Returns the sum of every member's contribution to this rank's block,
    /// added in `group` order.
    pub fn reduce_scatter(&mut self, group: &[usize], tag: u64, parts: Vec<Vec<f64>>) -> Vec<f64> {
        let mut received = self.all_to_all(group, tag, parts).into_iter();
        let first = received.next().expect("a group has a member");
        received.fold(first, |mut sum, part| {
            sum.iter_mut().zip(part).for_each(|(s, v)| *s += v);
            sum
        })
    }
}

/// Runs `body` on `p` rank-threads and returns their results in rank
/// order, plus the total bytes sent on the (simulated) wire.
///
/// # Panics
/// Re-raises the panic of the first rank whose body panicked.
pub fn run_world<F, R>(p: usize, body: F) -> (Vec<R>, u64)
where
    F: Fn(&mut RankCtx) -> R + Sync,
    R: Send,
{
    assert!(p > 0, "world must have at least one rank");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
    let bytes = AtomicU64::new(0);
    let first_dead = OnceLock::new();
    let mut outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                let senders = senders.clone();
                let (body, bytes, first_dead) = (&body, &bytes, &first_dead);
                scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        senders,
                        receiver,
                        pending: HashMap::new(),
                        bytes_sent: bytes,
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                    if outcome.is_err() {
                        let _ = first_dead.set(rank);
                        for s in &ctx.senders {
                            // a peer that has returned needs no word
                            let _ = s.send(Packet::Died(rank));
                        }
                    }
                    outcome
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|j| j.expect("a rank thread catches its body's panic"))
            .collect()
    });
    if let Some(&first) = first_dead.get() {
        if let Err(payload) = outcomes.swap_remove(first) {
            resume_unwind(payload);
        }
    }
    let results = outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|p| resume_unwind(p)));
    (results.collect(), bytes.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptp_roundtrip() {
        let (results, bytes) = run_world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0, 2.0, 3.0]);
                0.0
            } else {
                ctx.recv(0, 7).iter().sum::<f64>()
            }
        });
        assert_eq!(results[1], 6.0);
        assert_eq!(bytes, 24);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let (results, _) = run_world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![10.0]);
                ctx.send(1, 2, vec![20.0]);
                0.0
            } else {
                // receive tag 2 first even though tag 1 arrives first
                let b = ctx.recv(0, 2)[0];
                let a = ctx.recv(0, 1)[0];
                a * 100.0 + b
            }
        });
        assert_eq!(results[1], 1020.0);
    }

    #[test]
    fn allgather_ordering_and_volume() {
        let (results, bytes) = run_world(4, |ctx| {
            let mine = vec![ctx.rank() as f64; 2];
            let all = ctx.allgather(&[0, 1, 2, 3], 5, mine);
            all.iter().map(|v| v[0]).collect::<Vec<f64>>()
        });
        for r in &results {
            assert_eq!(r, &[0.0, 1.0, 2.0, 3.0]);
        }
        // each of 4 ranks sends 2 doubles to 3 peers
        assert_eq!(bytes, 4 * 3 * 16);
    }

    #[test]
    fn reduce_scatter_sums_each_block_and_moves_only_foreign_parts() {
        let (results, bytes) = run_world(3, |ctx| {
            // rank r contributes (r + 1) * (i + 1) to member i's block of
            // i + 1 doubles
            let r = ctx.rank() as f64;
            let parts = (0..3)
                .map(|i| vec![(r + 1.0) * (i as f64 + 1.0); i + 1])
                .collect();
            ctx.reduce_scatter(&[0, 1, 2], 9, parts)
        });
        assert_eq!(results, [vec![6.0], vec![12.0; 2], vec![18.0; 3]]);
        // each block arrives from the two other members
        assert_eq!(bytes, 2 * (1 + 2 + 3) * 8);
    }

    #[test]
    fn subgroup_collectives_do_not_interfere() {
        let (results, _) = run_world(4, |ctx| {
            let group: Vec<usize> = if ctx.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let mine = vec![ctx.rank() as f64];
            ctx.reduce_scatter(&group, 3, vec![mine.clone(), mine])[0]
        });
        assert_eq!(results, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn single_rank_world() {
        let (results, bytes) = run_world(1, |ctx| ctx.reduce_scatter(&[0], 0, vec![vec![42.0]])[0]);
        assert_eq!(results, vec![42.0]);
        assert_eq!(bytes, 0);
    }

    #[test]
    fn a_panicking_rank_fails_the_world_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = catch_unwind(|| {
                run_world(2, |ctx| {
                    if ctx.rank() == 0 {
                        panic!("rank 0 fails before sending");
                    }
                    ctx.recv(0, 1);
                })
            });
            let message = outcome
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the world hung after a rank panicked");
        // the re-raised panic is the failing rank's, not its peer's
        assert_eq!(message.as_deref(), Some("rank 0 fails before sending"));
        helper.join().expect("helper thread");
    }
}
