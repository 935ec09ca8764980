//! Shared test scaffolding: a minimal correct router for engine-level
//! tests, independent of the real mechanisms in downstream crates.

use crate::channel::{ControlSignal, Credit};
use crate::config::NetworkConfig;
use crate::counters::ActivityCounters;
use crate::flit::{Cycle, Flit, VcId};
use crate::geom::{Direction, NodeId, PortId};
use crate::rng::SimRng;
use crate::router::{Router, RouterFactory, RouterMode, RouterOutputs};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topology::Mesh;
use std::collections::VecDeque;

/// A minimal correct router: unbounded FIFO, DOR routing, one flit out per
/// port per cycle, and one credit back upstream per flit received from a
/// neighbour (so the credit audit has traffic to balance). Good enough to
/// exercise the engine end to end, snapshots included.
pub(crate) struct FifoRouter {
    pub(crate) node: NodeId,
    pub(crate) mesh: Mesh,
    pub(crate) queue: VecDeque<Flit>,
    /// Input ports that received a flit since the last step; each returns
    /// one credit in the next step.
    pub(crate) credit_returns: Vec<Direction>,
    pub(crate) counters: ActivityCounters,
    /// When true, silently discards every arriving flit (for audit tests).
    pub(crate) lossy: bool,
}

impl Router for FifoRouter {
    fn receive_flit(&mut self, input: PortId, flit: Flit, _now: Cycle) {
        if let PortId::Net(dir) = input {
            self.credit_returns.push(dir);
        }
        if !self.lossy {
            self.queue.push_back(flit);
        }
    }
    fn receive_credit(&mut self, _output: PortId, _credit: Credit, _now: Cycle) {}
    fn receive_control(&mut self, _output: PortId, _signal: ControlSignal, _now: Cycle) {}
    fn injection_ready(&self, _flit: &Flit, _now: Cycle) -> bool {
        true
    }
    fn inject(&mut self, flit: Flit, _now: Cycle) {
        if !self.lossy {
            self.queue.push_back(flit);
        }
    }
    fn step(&mut self, _now: Cycle, _rng: &mut SimRng, out: &mut RouterOutputs) {
        self.counters.cycles += 1;
        for dir in self.credit_returns.drain(..) {
            out.credits[PortId::Net(dir)].push(Credit::Vc(VcId(0)));
        }
        let mut kept = VecDeque::new();
        while let Some(mut flit) = self.queue.pop_front() {
            if flit.dest == self.node {
                out.ejected.push(flit);
                self.counters.ejections += 1;
                continue;
            }
            let dir = self.mesh.dor_route(self.node, flit.dest).expect("route");
            let port = PortId::Net(dir);
            if out.flits[port].is_none() {
                flit.hops += 1;
                out.flits[port] = Some(flit);
                self.counters.link_traversals += 1;
            } else {
                kept.push_back(flit);
            }
        }
        self.queue = kept;
    }
    fn counters(&self) -> &ActivityCounters {
        &self.counters
    }
    fn counters_mut(&mut self) -> &mut ActivityCounters {
        &mut self.counters
    }
    fn mode(&self) -> RouterMode {
        RouterMode::Backpressured
    }
    fn occupancy(&self) -> usize {
        self.queue.len()
    }
    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put_usize(self.queue.len());
        for flit in &self.queue {
            snapshot::write_flit(w, flit);
        }
        w.put_usize(self.credit_returns.len());
        for dir in &self.credit_returns {
            w.put_u8(dir.index() as u8);
        }
        self.counters.save(w);
        Ok(())
    }
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.queue.clear();
        for _ in 0..r.get_usize("fifo queue length")? {
            self.queue.push_back(snapshot::read_flit(r)?);
        }
        self.credit_returns.clear();
        for _ in 0..r.get_usize("fifo credit count")? {
            let dir = Direction::from_index(r.get_u8("fifo credit port")? as usize).ok_or(
                SnapshotError::Malformed {
                    what: "fifo credit port",
                },
            )?;
            self.credit_returns.push(dir);
        }
        self.counters = ActivityCounters::load(r)?;
        Ok(())
    }
}

/// Factory for [`FifoRouter`]s.
pub(crate) struct FifoFactory {
    pub(crate) lossy: bool,
}

impl RouterFactory for FifoFactory {
    fn build(&self, node: NodeId, mesh: &Mesh, _config: &NetworkConfig) -> Box<dyn Router> {
        Box::new(FifoRouter {
            node,
            mesh: mesh.clone(),
            queue: VecDeque::new(),
            credit_returns: Vec::new(),
            counters: ActivityCounters::new(),
            lossy: self.lossy,
        })
    }
    fn name(&self) -> &'static str {
        "fifo-test"
    }
    fn flit_width_bits(&self) -> u32 {
        41
    }
    fn buffer_flits_per_port(&self, _config: &NetworkConfig) -> usize {
        16
    }
}
