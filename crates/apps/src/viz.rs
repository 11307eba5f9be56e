//! The distance-visualization pipeline (paper §5.3).
//!
//! "An MPI program designed to emulate a distance visualization pipeline.
//! The program communicates a stream of fixed-sized messages from a sender
//! to a receiver at a fixed rate; both the rate ('frames per second') and
//! the message size ('frame size') can be adjusted, hence varying both the
//! generated bandwidth and the burstiness of the traffic."
//!
//! Per §5.5's lesson, the sender can also "do some 'work' between sending
//! frames" — CPU work scheduled through the host's DSRT model — which is
//! what makes it sensitive to CPU contention (Figures 8 and 9).

use mpichgq_core::{QosAttribute, QosEnv};
use mpichgq_mpi::{Mpi, MpiProgram, Poll, ReqId};
use mpichgq_sim::{SimDelta, SimTime, ThroughputMeter, TimeSeries};
use std::cell::RefCell;
use std::rc::Rc;

const TAG: u32 = 0xF00D;
const TIMER_FRAME: u32 = 1;

/// Sender parameters.
#[derive(Debug, Clone, Copy)]
pub struct VizCfg {
    pub frame_bytes: u32,
    /// Frames per second the application *attempts*.
    pub fps: f64,
    /// CPU time to "render" each frame (zero = the paper's original,
    /// inaccurate sleep-only simulation).
    pub work_per_frame: SimDelta,
    pub start: SimTime,
    pub end: SimTime,
}

impl VizCfg {
    pub(crate) fn interval(&self) -> SimDelta {
        SimDelta::from_secs_f64(1.0 / self.fps)
    }
}

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct VizSendStats {
    pub frames_sent: u64,
    /// Frames whose send started later than their schedule (backpressure).
    pub frames_late: u64,
}

/// The sending rank: render (CPU work) → blocking send → wait for the next
/// frame boundary.
pub struct VizSender {
    cfg: VizCfg,
    qos: Option<(QosEnv, QosAttribute)>,
    stats: Rc<RefCell<VizSendStats>>,
    state: SendState,
    next_deadline: SimTime,
    send_req: Option<ReqId>,
    /// Filled at startup so scenario scripts can make CPU reservations for
    /// this process (Figures 8–9).
    proc_out: Rc<RefCell<Option<mpichgq_dsrt::ProcId>>>,
}

enum SendState {
    Init,
    WaitStart,
    Render,
    WaitWork,
    WaitSend,
    WaitFrameBoundary,
    Finished,
}

impl VizSender {
    #[allow(clippy::type_complexity)]
    pub fn new(
        cfg: VizCfg,
        qos: Option<(QosEnv, QosAttribute)>,
    ) -> (
        VizSender,
        Rc<RefCell<VizSendStats>>,
        Rc<RefCell<Option<mpichgq_dsrt::ProcId>>>,
    ) {
        let stats = Rc::new(RefCell::new(VizSendStats::default()));
        let proc_out = Rc::new(RefCell::new(None));
        (
            VizSender {
                cfg,
                qos,
                stats: stats.clone(),
                state: SendState::Init,
                next_deadline: cfg.start,
                send_req: None,
                proc_out: proc_out.clone(),
            },
            stats,
            proc_out,
        )
    }
}

impl MpiProgram for VizSender {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        loop {
            match self.state {
                SendState::Init => {
                    *self.proc_out.borrow_mut() = Some(mpi.cpu_proc());
                    if let Some((env, attr)) = self.qos.take() {
                        let w = mpi.comm_world();
                        mpi.attr_put(w, env.keyval(), Rc::new(attr));
                    }
                    let wait = self.cfg.start.since(mpi.now());
                    mpi.set_timer(wait, TIMER_FRAME);
                    self.state = SendState::WaitStart;
                }
                SendState::WaitStart => {
                    if !mpi.take_timer(TIMER_FRAME) {
                        return Poll::Pending;
                    }
                    self.next_deadline = mpi.now();
                    self.state = SendState::Render;
                }
                SendState::Render => {
                    if mpi.now() >= self.cfg.end {
                        self.state = SendState::Finished;
                        continue;
                    }
                    if self.cfg.work_per_frame.is_zero() {
                        self.state = SendState::WaitSend;
                        self.send_frame(mpi);
                    } else {
                        mpi.cpu_work(self.cfg.work_per_frame);
                        self.state = SendState::WaitWork;
                    }
                }
                SendState::WaitWork => {
                    if !mpi.take_cpu_done() {
                        return Poll::Pending;
                    }
                    self.send_frame(mpi);
                    self.state = SendState::WaitSend;
                }
                SendState::WaitSend => {
                    // Blocking-send semantics: wait until TCP accepted the
                    // whole frame before scheduling the next one.
                    let Some(r) = self.send_req else {
                        self.state = SendState::WaitFrameBoundary;
                        continue;
                    };
                    match mpi.test(r) {
                        Some(_) => {
                            self.send_req = None;
                            self.state = SendState::WaitFrameBoundary;
                        }
                        None => return Poll::Pending,
                    }
                }
                SendState::WaitFrameBoundary => {
                    self.next_deadline += self.cfg.interval();
                    let now = mpi.now();
                    if now >= self.next_deadline {
                        // Running behind schedule: produce immediately.
                        self.stats.borrow_mut().frames_late += 1;
                        self.state = SendState::Render;
                    } else {
                        mpi.set_timer(self.next_deadline.since(now), TIMER_FRAME);
                        self.state = SendState::WaitStart;
                    }
                }
                SendState::Finished => return Poll::Done,
            }
        }
    }
}

impl VizSender {
    fn send_frame(&mut self, mpi: &mut Mpi) {
        let w = mpi.comm_world();
        self.send_req = Some(mpi.isend(w, 1, TAG, self.cfg.frame_bytes));
        self.stats.borrow_mut().frames_sent += 1;
    }
}

/// The receiving rank: drains frames and meters achieved bandwidth, like
/// the paper's "Bandwidth Achieved (Kb/s)" traces.
pub struct VizReceiver {
    meter: Rc<RefCell<ThroughputMeter>>,
    frames: Rc<RefCell<u64>>,
    end: SimTime,
    req: Option<ReqId>,
}

impl VizReceiver {
    pub fn new(
        bucket: SimDelta,
        end: SimTime,
    ) -> (VizReceiver, Rc<RefCell<ThroughputMeter>>, Rc<RefCell<u64>>) {
        let meter = Rc::new(RefCell::new(ThroughputMeter::new(bucket)));
        let frames = Rc::new(RefCell::new(0));
        (
            VizReceiver {
                meter: meter.clone(),
                frames: frames.clone(),
                end,
                req: None,
            },
            meter,
            frames,
        )
    }
}

impl MpiProgram for VizReceiver {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        loop {
            if mpi.now() >= self.end {
                return Poll::Done;
            }
            if self.req.is_none() {
                let w = mpi.comm_world();
                self.req = Some(mpi.irecv(w, Some(0), Some(TAG)));
            }
            match mpi.test(self.req.unwrap()) {
                Some(info) => {
                    self.req = None;
                    self.meter.borrow_mut().on_bytes(mpi.now(), info.len as u64);
                    *self.frames.borrow_mut() += 1;
                }
                None => return Poll::Pending,
            }
        }
    }
}

/// Summary of one visualization run.
#[derive(Debug, Clone)]
pub struct VizRun {
    pub series: TimeSeries,
    pub frames_received: u64,
    pub achieved_kbps_steady: f64,
}

/// Finish a receiver meter into a run summary. `steady_from`/`steady_to`
/// bound the window over which the steady-state average is computed.
pub fn finish_viz(
    meter: Rc<RefCell<ThroughputMeter>>,
    frames: Rc<RefCell<u64>>,
    end: SimTime,
    steady_from: SimTime,
    steady_to: SimTime,
) -> VizRun {
    let meter = Rc::try_unwrap(meter)
        .map(|c| c.into_inner())
        .unwrap_or_else(|rc| rc.borrow().clone());
    let series = meter.finish(end);
    VizRun {
        achieved_kbps_steady: series.mean_in(steady_from, steady_to),
        series,
        frames_received: *frames.borrow(),
    }
}
