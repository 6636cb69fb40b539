//! The host's second core: one helper thread that runs the back half of a
//! large force call while the calling thread runs the front half.
//!
//! Safe Rust cannot lend the helper a borrowed slice of the caller's
//! arrays, so the helper's half travels by value: the caller fills a job
//! `J`, posts it, runs its own rows, waits, and reads the helper's results
//! back out of the same job. Jobs are recycled — the one job lives in the
//! seat between calls, so its buffers keep their capacity and a call
//! allocates nothing once they have grown to the largest half seen (the
//! caller grows them; the helper thread only computes in place).
//!
//! One caller at a time: [`Helper::seat`] is a `try_lock`, and a caller
//! that finds the helper taken — another rank thread, a parallel test —
//! runs its whole call inline. Nobody ever blocks on the seat, so nobody
//! can deadlock on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How long the helper keeps polling for the next job before it parks:
/// a parked helper costs the next caller a futex wake, tens of µs on a
/// VM, while consecutive large calls of one simulated run are a few µs
/// apart.
const HELPER_SPIN: Duration = Duration::from_micros(200);

/// How long a caller that has finished its own rows polls for the
/// helper's before it parks.
const CALLER_SPIN: Duration = Duration::from_micros(100);

/// The job in flight and who is parked waiting on it.
#[derive(Default)]
struct Slot<J> {
    /// Posted by the caller, not yet taken by the helper.
    todo: Option<J>,
    /// Finished by the helper, not yet taken by the caller; `Err` when
    /// the work panicked (the job is then lost).
    done: Option<Result<J, ()>>,
    helper_parked: bool,
    caller_parked: bool,
}

/// A helper thread and the one job it shares with one caller at a time.
pub(crate) struct Helper<J> {
    /// Held by the caller using the helper; holds the recycled job
    /// between calls.
    seat: Mutex<J>,
    slot: Mutex<Slot<J>>,
    /// The helper parks here for a job.
    posted: Condvar,
    /// The caller parks here for the helper's half.
    finished: Condvar,
    work: fn(&mut J),
}

impl<J: Default + Send + 'static> Helper<J> {
    /// Starts a helper thread named `name` that runs `work` on every
    /// posted job. `None` on a host with one core (there is nothing to
    /// gain) or when the thread cannot be spawned; callers then run
    /// inline. The thread is never joined: it lives as long as the
    /// process, parked when idle, and a panic in `work` is caught and
    /// raised again in the caller that posted the job, so detaching it
    /// hides nothing.
    pub(crate) fn spawn(name: &str, work: fn(&mut J)) -> Option<Arc<Self>> {
        if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return None;
        }
        let helper = Arc::new(Helper {
            seat: Mutex::new(J::default()),
            slot: Mutex::new(Slot::default()),
            posted: Condvar::new(),
            finished: Condvar::new(),
            work,
        });
        let served = Arc::clone(&helper);
        thread::Builder::new()
            .name(name.into())
            .spawn(move || served.serve())
            .ok()?;
        Some(helper)
    }

    /// The helper thread's loop: take a job, run it, hand it back.
    fn serve(&self) {
        loop {
            let mut job = self.wait_for(
                HELPER_SPIN,
                &self.posted,
                |s| &mut s.helper_parked,
                |s| s.todo.take(),
            );
            let result = catch_unwind(AssertUnwindSafe(|| (self.work)(&mut job)));
            let mut slot = self.lock_slot();
            slot.done = Some(result.map(|()| job).map_err(drop));
            if slot.caller_parked {
                self.finished.notify_one();
            }
        }
    }

    /// Polls the slot for `spin` until `take` finds what this side waits
    /// for, then parks on `cv` with its `parked` flag set, so that the
    /// other side knows to notify it.
    fn wait_for<T>(
        &self,
        spin: Duration,
        cv: &Condvar,
        parked: fn(&mut Slot<J>) -> &mut bool,
        take: fn(&mut Slot<J>) -> Option<T>,
    ) -> T {
        let start = Instant::now();
        while start.elapsed() < spin {
            if let Ok(mut slot) = self.slot.try_lock() {
                if let Some(found) = take(&mut slot) {
                    return found;
                }
            }
            std::hint::spin_loop();
        }
        let mut slot = self.lock_slot();
        loop {
            if let Some(found) = take(&mut slot) {
                *parked(&mut slot) = false;
                return found;
            }
            *parked(&mut slot) = true;
            slot = cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The slot, whatever a panic elsewhere left it marked as: its
    /// fields are only ever assigned whole.
    fn lock_slot(&self) -> MutexGuard<'_, Slot<J>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The helper and its recycled job, if no other caller holds them.
    pub(crate) fn seat(&self) -> Option<Seat<'_, J>> {
        let job = self.seat.try_lock().ok()?;
        Some(Seat {
            helper: self,
            job,
            posted: false,
        })
    }
}

/// One caller's exclusive use of the helper, for one call.
pub(crate) struct Seat<'h, J: Default + Send + 'static> {
    helper: &'h Helper<J>,
    job: MutexGuard<'h, J>,
    /// The job is with the helper: [`Seat::collect`] must take it back.
    posted: bool,
}

impl<J: Default + Send + 'static> Seat<'_, J> {
    /// The recycled job, to fill before [`Seat::post`].
    pub(crate) fn job(&mut self) -> &mut J {
        &mut self.job
    }

    /// Hands the job to the helper thread, which starts on it at once.
    pub(crate) fn post(&mut self) {
        debug_assert!(!self.posted);
        let job = std::mem::take(&mut *self.job);
        let mut slot = self.helper.lock_slot();
        slot.todo = Some(job);
        if slot.helper_parked {
            self.helper.posted.notify_one();
        }
        self.posted = true;
    }

    /// Waits for the helper's half and returns the finished job.
    ///
    /// # Panics
    /// If the helper's work panicked.
    pub(crate) fn collect(&mut self) -> &J {
        debug_assert!(self.posted);
        let done = self.helper.wait_for(
            CALLER_SPIN,
            &self.helper.finished,
            |s| &mut s.caller_parked,
            |s| s.done.take(),
        );
        self.posted = false;
        *self.job = done.expect("the force helper thread panicked");
        &self.job
    }
}

impl<J: Default + Send + 'static> Drop for Seat<'_, J> {
    /// A caller that unwinds between `post` and `collect` still takes its
    /// job back, so the next caller never finds a stale result.
    fn drop(&mut self) {
        if self.posted {
            // `collect` panics only if the helper's work did; an
            // unwinding caller must not turn that into an abort.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                self.collect();
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_posted_job_comes_back_done_and_the_seat_is_exclusive() {
        // Now and then a job outlasts the caller's spin, so it parks.
        let Some(helper) = Helper::spawn("helper-test", |v: &mut Vec<u64>| {
            if v.len().is_multiple_of(7) {
                thread::sleep(Duration::from_millis(1));
            }
            v.iter_mut().for_each(|x| *x *= 2);
        }) else {
            return; // one core: nothing to test
        };
        for round in 0..50u64 {
            let mut seat = helper.seat().expect("only this test uses it");
            assert!(helper.seat().is_none(), "a second caller must run inline");
            seat.job().clear();
            seat.job().extend(0..round);
            // Now and then the helper has parked before the post.
            if round.is_multiple_of(5) {
                thread::sleep(Duration::from_millis(1));
            }
            seat.post();
            let done = seat.collect();
            assert_eq!(*done, (0..round).map(|x| 2 * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_job_fails_its_caller_and_not_the_next() {
        let Some(helper) = Helper::spawn("helper-test", |v: &mut Vec<u64>| {
            assert!(v.is_empty(), "boom");
            v.push(1);
        }) else {
            return;
        };
        let mut seat = helper.seat().unwrap();
        seat.job().push(7);
        seat.post();
        let failed = catch_unwind(AssertUnwindSafe(|| seat.collect().len()));
        assert!(failed.is_err(), "the helper's panic reaches its caller");
        drop(seat);
        // The helper thread is still serving.
        let mut seat = helper.seat().unwrap();
        seat.job().clear();
        seat.post();
        assert_eq!(*seat.collect(), vec![1]);
    }
}
