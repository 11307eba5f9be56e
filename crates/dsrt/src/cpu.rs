//! The per-host CPU model.

use mpichgq_sim::{SimDelta, SimTime};

/// DSRT admits reservations only up to this fraction of the CPU, so the
/// host never starves completely (mirrors DSRT's admission policy).
pub const MAX_RESERVABLE: f64 = 0.95;

/// Identifies a process registered with a [`Cpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub(crate) u32);

/// Identifies a unit of CPU work started by a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkId(pub(crate) u32);

/// A refreshed completion estimate for an in-flight work item.
///
/// The caller schedules a wake-up at `eta` carrying `gen`; when it fires it
/// calls [`Cpu::complete`], which rejects stale generations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Update {
    pub work: WorkId,
    pub eta: SimTime,
    pub gen: u64,
}

/// Reservation request rejected by admission control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionError {
    pub(crate) requested: f64,
    pub available: f64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CPU reservation of {:.0}% rejected; only {:.0}% available",
            self.requested * 100.0,
            self.available * 100.0
        )
    }
}
impl std::error::Error for AdmissionError {}

#[derive(Debug, Clone)]
struct Proc {
    alive: bool,
    reservation: Option<f64>,
    /// A hog is permanently runnable even with no work items (models a
    /// CPU-intensive competitor application).
    hog: bool,
    active_works: u32,
}

#[derive(Debug, Clone)]
struct Work {
    proc: ProcId,
    /// Remaining CPU time, in CPU-nanoseconds (fractional during rescaling).
    remaining: f64,
    gen: u64,
    done: bool,
}

/// Result of [`Cpu::complete`].
#[derive(Debug)]
pub enum CompleteOutcome {
    /// The wake-up was for an outdated schedule; ignore it.
    Stale,
    /// The work item finished. `updates` re-times the remaining work items
    /// (their shares grew now that this one is gone).
    Done { proc: ProcId, updates: Vec<Update> },
}

/// One host CPU with fair-share scheduling plus DSRT-style reservations.
#[derive(Debug)]
pub struct Cpu {
    procs: Vec<Proc>,
    works: Vec<Work>,
    last_advance: SimTime,
    next_gen: u64,
    /// Whole-CPU capacity factor in `(0, 1]` (thermal/power throttling —
    /// a fault-injection knob). Scales every share uniformly, so relative
    /// fairness and reservation ratios are preserved.
    throttle: f64,
}

impl Cpu {
    pub fn new() -> Self {
        Cpu {
            procs: Vec::new(),
            works: Vec::new(),
            last_advance: SimTime::ZERO,
            next_gen: 1,
            throttle: 1.0,
        }
    }

    /// Throttle the whole CPU to `factor` of its capacity (`1.0` restores
    /// full speed). Reservation *admission* is unaffected — DSRT admitted
    /// those fractions of the nominal CPU; a throttled host simply runs
    /// everything proportionally slower, which is exactly the failure the
    /// adaptation layer must notice from the outside.
    pub fn set_throttle(&mut self, now: SimTime, factor: f64) -> Vec<Update> {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "throttle factor out of (0, 1]: {factor}"
        );
        self.advance(now);
        self.throttle = factor;
        self.reschedule(now)
    }

    /// Register a best-effort process.
    pub fn add_process(&mut self) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Proc {
            alive: true,
            reservation: None,
            hog: false,
            active_works: 0,
        });
        id
    }

    /// Register a permanently-runnable CPU hog (competitor application).
    /// Returns updated ETAs for work items whose share just shrank.
    pub fn spawn_hog(&mut self, now: SimTime) -> (ProcId, Vec<Update>) {
        self.advance(now);
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Proc {
            alive: true,
            reservation: None,
            hog: true,
            active_works: 0,
        });
        (id, self.reschedule(now))
    }

    /// Deregister a process; its in-flight work is abandoned.
    pub fn remove_process(&mut self, now: SimTime, pid: ProcId) -> Vec<Update> {
        self.advance(now);
        let p = &mut self.procs[pid.0 as usize];
        p.alive = false;
        p.active_works = 0;
        for w in &mut self.works {
            if w.proc == pid && !w.done {
                w.done = true;
                w.gen = self.next_gen;
                self.next_gen += 1;
            }
        }
        self.reschedule(now)
    }

    /// Grant or clear a CPU reservation for `pid`.
    ///
    /// `fraction` in `(0, 1]`; admission control rejects requests that would
    /// push the total reserved fraction past [`MAX_RESERVABLE`].
    pub fn set_reservation(
        &mut self,
        now: SimTime,
        pid: ProcId,
        fraction: Option<f64>,
    ) -> Result<Vec<Update>, AdmissionError> {
        if let Some(f) = fraction {
            assert!(
                f > 0.0 && f <= 1.0,
                "reservation fraction out of range: {f}"
            );
            let reserved_by_others: f64 = self
                .procs
                .iter()
                .enumerate()
                .filter(|&(i, p)| p.alive && i != pid.0 as usize)
                .filter_map(|(_, p)| p.reservation)
                .sum();
            if reserved_by_others + f > MAX_RESERVABLE + 1e-12 {
                return Err(AdmissionError {
                    requested: f,
                    available: (MAX_RESERVABLE - reserved_by_others).max(0.0),
                });
            }
        }
        self.advance(now);
        self.procs[pid.0 as usize].reservation = fraction;
        Ok(self.reschedule(now))
    }

    /// Begin `cpu_time` of work for `pid`. The returned [`Update`]s include
    /// the new item and any other items whose shares changed.
    pub fn start_work(
        &mut self,
        now: SimTime,
        pid: ProcId,
        cpu_time: SimDelta,
    ) -> (WorkId, Vec<Update>) {
        assert!(self.procs[pid.0 as usize].alive, "work on dead process");
        self.advance(now);
        let wid = WorkId(self.works.len() as u32);
        let gen = self.bump_gen();
        self.works.push(Work {
            proc: pid,
            remaining: cpu_time.as_nanos() as f64,
            gen,
            done: false,
        });
        self.procs[pid.0 as usize].active_works += 1;
        (wid, self.reschedule(now))
    }

    /// A scheduled wake-up fired. Completes the work if the generation is
    /// current; returns [`CompleteOutcome::Stale`] otherwise.
    pub fn complete(&mut self, now: SimTime, wid: WorkId, gen: u64) -> CompleteOutcome {
        {
            let w = &self.works[wid.0 as usize];
            if w.done || w.gen != gen {
                return CompleteOutcome::Stale;
            }
        }
        self.advance(now);
        let w = &mut self.works[wid.0 as usize];
        // The wake-up was computed under the shares in force since the last
        // reschedule, so by now the remaining work is (numerically) zero.
        debug_assert!(
            w.remaining <= 2.0,
            "completion fired early: {} cpu-ns left",
            w.remaining
        );
        w.done = true;
        let proc = w.proc;
        self.procs[proc.0 as usize].active_works -= 1;
        let updates = self.reschedule(now);
        CompleteOutcome::Done { proc, updates }
    }

    /// Current CPU share of `pid` in `[0, 1]` (0 if not runnable).
    pub fn share_of(&self, pid: ProcId) -> f64 {
        self.shares()
            .into_iter()
            .find(|&(p, _)| p == pid)
            .map(|(_, s)| s)
            .unwrap_or(0.0)
    }

    fn bump_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += 1;
        g
    }

    /// Shares for currently runnable processes.
    fn shares(&self) -> Vec<(ProcId, f64)> {
        let runnable: Vec<(ProcId, &Proc)> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i as u32), p))
            .filter(|(_, p)| p.alive && (p.hog || p.active_works > 0))
            .collect();
        if runnable.is_empty() {
            return Vec::new();
        }
        let reserved: f64 = runnable
            .iter()
            .filter_map(|(_, p)| p.reservation)
            .sum::<f64>()
            .min(1.0);
        let leftover = (1.0 - reserved).max(0.0);
        let be_count = runnable
            .iter()
            .filter(|(_, p)| p.reservation.is_none())
            .count();
        let reserved_count = runnable.len() - be_count;
        runnable
            .iter()
            .map(|&(id, p)| {
                let s = match p.reservation {
                    Some(r) => {
                        // Work-conserving: if no best-effort process is
                        // runnable, reserved processes share the leftover.
                        r + if be_count == 0 {
                            leftover / reserved_count as f64
                        } else {
                            0.0
                        }
                    }
                    None => leftover / be_count as f64,
                };
                (id, s * self.throttle)
            })
            .collect()
    }

    /// Progress all active work items from `last_advance` to `now` under the
    /// shares in force during that interval.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_nanos() as f64;
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 {
            return;
        }
        let shares = self.shares();
        for w in self.works.iter_mut().filter(|w| !w.done) {
            let proc_share = shares
                .iter()
                .find(|&&(p, _)| p == w.proc)
                .map(|&(_, s)| s)
                .unwrap_or(0.0);
            let nworks = self.procs[w.proc.0 as usize].active_works.max(1) as f64;
            let work_share = proc_share / nworks;
            w.remaining = (w.remaining - dt * work_share).max(0.0);
        }
    }

    /// Recompute ETAs for all active work items and bump their generations.
    fn reschedule(&mut self, now: SimTime) -> Vec<Update> {
        let shares = self.shares();
        let mut updates = Vec::new();
        let mut gens_needed = 0;
        for w in self.works.iter().filter(|w| !w.done) {
            let _ = w;
            gens_needed += 1;
        }
        let mut gen = self.next_gen;
        self.next_gen += gens_needed;
        for (i, w) in self.works.iter_mut().enumerate() {
            if w.done {
                continue;
            }
            let proc_share = shares
                .iter()
                .find(|&&(p, _)| p == w.proc)
                .map(|&(_, s)| s)
                .unwrap_or(0.0);
            let nworks = self.procs[w.proc.0 as usize].active_works.max(1) as f64;
            let work_share = proc_share / nworks;
            w.gen = gen;
            gen += 1;
            if work_share > 0.0 {
                let eta = now + SimDelta::from_nanos((w.remaining / work_share).ceil() as u64);
                updates.push(Update {
                    work: WorkId(i as u32),
                    eta,
                    gen: w.gen,
                });
            }
            // A zero share means the work is stalled; it will be re-timed by
            // the next share change (no update emitted, old wake-ups stale).
        }
        updates
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }
    fn d(s: f64) -> SimDelta {
        SimDelta::from_secs_f64(s)
    }

    fn eta_of(updates: &[Update], w: WorkId) -> SimTime {
        updates
            .iter()
            .rev()
            .find(|u| u.work == w)
            .map(|u| u.eta)
            .expect("no update for work")
    }

    #[test]
    fn solo_process_runs_at_full_speed() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (w, ups) = cpu.start_work(t(0.0), p, d(2.0));
        assert_eq!(eta_of(&ups, w), t(2.0));
        let g = ups.last().unwrap().gen;
        match cpu.complete(t(2.0), w, g) {
            CompleteOutcome::Done { proc, .. } => assert_eq!(proc, p),
            CompleteOutcome::Stale => panic!("should complete"),
        }
    }

    #[test]
    fn hog_halves_best_effort_share() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (w, ups) = cpu.start_work(t(0.0), p, d(2.0));
        assert_eq!(eta_of(&ups, w), t(2.0));
        // Hog arrives at t=1: half the work remains, now at half speed.
        let (_hog, ups) = cpu.spawn_hog(t(1.0));
        assert_eq!(eta_of(&ups, w), t(3.0));
    }

    #[test]
    fn reservation_restores_rate() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (_hog, _) = cpu.spawn_hog(t(0.0));
        let (w, ups) = cpu.start_work(t(0.0), p, d(1.0));
        // Fair share 50% -> 2s elapsed time.
        assert_eq!(eta_of(&ups, w), t(2.0));
        // 90% reservation at t=1 (0.5 cpu-s done, 0.5 left at 0.9 share).
        let ups = cpu.set_reservation(t(1.0), p, Some(0.9)).unwrap();
        let eta = eta_of(&ups, w);
        let expect = 1.0 + 0.5 / 0.9;
        assert!((eta.as_secs_f64() - expect).abs() < 1e-6, "eta {eta}");
    }

    #[test]
    fn stale_generation_is_ignored() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (w, ups) = cpu.start_work(t(0.0), p, d(2.0));
        let old_gen = ups.last().unwrap().gen;
        let (_hog, ups2) = cpu.spawn_hog(t(1.0));
        // Old wake-up at t=2 fires but the schedule moved to t=3.
        assert!(matches!(
            cpu.complete(t(2.0), w, old_gen),
            CompleteOutcome::Stale
        ));
        let g2 = eta_gen(&ups2, w);
        assert!(matches!(
            cpu.complete(t(3.0), w, g2),
            CompleteOutcome::Done { .. }
        ));
    }

    fn eta_gen(updates: &[Update], w: WorkId) -> u64 {
        updates.iter().rev().find(|u| u.work == w).unwrap().gen
    }

    #[test]
    fn throttle_scales_all_shares_uniformly() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (w, ups) = cpu.start_work(t(0.0), p, d(2.0));
        assert_eq!(eta_of(&ups, w), t(2.0));
        // Throttle to 25% at t=1: 1 cpu-s left now takes 4 s.
        let ups = cpu.set_throttle(t(1.0), 0.25);
        assert_eq!(eta_of(&ups, w), t(5.0));
        assert!((cpu.share_of(p) - 0.25).abs() < 1e-9);
        // Restoring full speed re-times the remainder.
        let ups = cpu.set_throttle(t(2.0), 1.0);
        // 0.25 cpu-s progressed during the throttled second; 0.75 left.
        let eta = eta_of(&ups, w).as_secs_f64();
        assert!((eta - 2.75).abs() < 1e-9, "eta {eta}");
    }

    #[test]
    fn throttle_preserves_reservation_ratios() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        cpu.set_reservation(t(0.0), p, Some(0.8)).unwrap();
        cpu.spawn_hog(t(0.0));
        cpu.set_throttle(t(0.0), 0.5);
        let (_w, _ups) = cpu.start_work(t(0.0), p, d(1.0));
        assert!((cpu.share_of(p) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn admission_control_rejects_oversubscription() {
        let mut cpu = Cpu::new();
        let a = cpu.add_process();
        let b = cpu.add_process();
        cpu.set_reservation(t(0.0), a, Some(0.6)).unwrap();
        let err = cpu.set_reservation(t(0.0), b, Some(0.5)).unwrap_err();
        assert!((err.available - 0.35).abs() < 1e-9);
        // Clearing a's reservation frees capacity.
        cpu.set_reservation(t(0.0), a, None).unwrap();
        cpu.set_reservation(t(0.0), b, Some(0.5)).unwrap();
    }

    #[test]
    fn work_conserving_when_only_reserved_runnable() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        cpu.set_reservation(t(0.0), p, Some(0.5)).unwrap();
        // No other runnable process: p should get the whole CPU.
        let (w, ups) = cpu.start_work(t(0.0), p, d(1.0));
        assert_eq!(eta_of(&ups, w), t(1.0));
    }

    #[test]
    fn two_hogs_split_with_reserved_process() {
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        cpu.set_reservation(t(0.0), p, Some(0.8)).unwrap();
        cpu.spawn_hog(t(0.0));
        cpu.spawn_hog(t(0.0));
        let (w, ups) = cpu.start_work(t(0.0), p, d(0.8));
        // p gets exactly its 80%; hogs share the remaining 20%.
        assert_eq!(eta_of(&ups, w), t(1.0));
        assert!((cpu.share_of(p) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn remove_process_abandons_work_and_frees_cpu() {
        let mut cpu = Cpu::new();
        let a = cpu.add_process();
        let b = cpu.add_process();
        let (_wa, _) = cpu.start_work(t(0.0), a, d(10.0));
        let (wb, _) = cpu.start_work(t(0.0), b, d(1.0));
        let ups = cpu.remove_process(t(1.0), a);
        // b had 0.5 cpu-s done; remaining 0.5 at full speed.
        assert_eq!(eta_of(&ups, wb), t(1.5));
    }

    #[test]
    fn work_conservation_under_many_share_changes() {
        // Total CPU time consumed must equal the work requested, regardless
        // of how often shares change in between.
        let mut cpu = Cpu::new();
        let p = cpu.add_process();
        let (w, mut ups) = cpu.start_work(t(0.0), p, d(4.0));
        let mut hogs = Vec::new();
        // Add a hog every second for 3 seconds, then remove them all.
        for i in 1..=3u64 {
            let (h, u) = cpu.spawn_hog(SimTime::from_secs(i));
            hogs.push(h);
            ups = u;
        }
        // After t=3: share 1/4. Work done so far: 1 + 1/2 + 1/3 = 1.8333.
        // Remaining 2.1667 at 1/4 -> eta 3 + 8.6667.
        let eta = eta_of(&ups, w).as_secs_f64();
        assert!((eta - (3.0 + (4.0 - (1.0 + 0.5 + 1.0 / 3.0)) * 4.0)).abs() < 1e-6);
        for h in hogs {
            ups = cpu.remove_process(t(5.0), h);
        }
        // Done by t=5: 1 + .5 + .3333 + (2s at 1/4)=0.5 -> 2.3333; left 1.6667 at 1.0.
        let eta = eta_of(&ups, w).as_secs_f64();
        assert!((eta - (5.0 + 4.0 - (1.0 + 0.5 + 1.0 / 3.0 + 0.5))).abs() < 1e-6);
    }
}
