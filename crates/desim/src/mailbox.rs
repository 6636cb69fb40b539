//! Mailboxes: the delivery endpoints for simulated messages.
//!
//! A mailbox is a FIFO queue of already-delivered payloads plus a FIFO queue
//! of processes blocked waiting on it. Delivery order is the order in which
//! `Deliver` events fire, which — because the event queue is deterministic —
//! is itself deterministic.

use std::collections::VecDeque;

use crate::event::Payload;
use crate::process::ProcessId;

/// Identifier of a mailbox within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MailboxId(pub usize);

/// Internal mailbox state owned by the kernel.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: VecDeque<Payload>,
    waiters: VecDeque<ProcessId>,
}

impl Mailbox {
    /// Enqueue a delivered payload.
    pub(crate) fn deliver(&mut self, msg: Payload) {
        self.queue.push_back(msg);
    }

    /// Pop the oldest delivered payload, if any.
    pub(crate) fn pop(&mut self) -> Option<Payload> {
        self.queue.pop_front()
    }

    /// Register `pid` as blocked on this mailbox.
    pub(crate) fn add_waiter(&mut self, pid: ProcessId) {
        self.waiters.push_back(pid);
    }

    /// Pop the longest-waiting blocked process, if any.
    pub(crate) fn take_waiter(&mut self) -> Option<ProcessId> {
        self.waiters.pop_front()
    }

    /// Unregister a specific blocked process (its deadline timer fired and
    /// it is no longer waiting here). No-op if `pid` is not a waiter.
    pub(crate) fn remove_waiter(&mut self, pid: ProcessId) {
        if let Some(at) = self.waiters.iter().position(|w| *w == pid) {
            self.waiters.remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_delivery() {
        let mut m = Mailbox::default();
        m.deliver(Box::new(1u32));
        m.deliver(Box::new(2u32));
        m.deliver(Box::new(3u32));
        assert_eq!(m.queue.len(), 3);
        for want in 1u32..=3 {
            let got = *m.pop().unwrap().downcast::<u32>().unwrap();
            assert_eq!(got, want);
        }
        assert!(m.pop().is_none());
    }

    #[test]
    fn fifo_waiters() {
        let mut m = Mailbox::default();
        assert!(m.waiters.is_empty());
        m.add_waiter(ProcessId(7));
        m.add_waiter(ProcessId(8));
        assert!(!m.waiters.is_empty());
        assert_eq!(m.take_waiter(), Some(ProcessId(7)));
        assert_eq!(m.take_waiter(), Some(ProcessId(8)));
        assert_eq!(m.take_waiter(), None);
    }

    #[test]
    fn remove_waiter_unregisters_only_the_given_process() {
        let mut m = Mailbox::default();
        m.add_waiter(ProcessId(1));
        m.add_waiter(ProcessId(2));
        m.add_waiter(ProcessId(3));
        m.remove_waiter(ProcessId(2));
        m.remove_waiter(ProcessId(9)); // absent pid: no-op
        let ids: Vec<usize> = m.waiters.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }
}
