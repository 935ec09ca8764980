//! Deterministic fault injection: the configured *fault plane*.
//!
//! A [`FaultPlan`] describes every fault a run should experience — transient
//! flit drop/corruption on links, permanent link kills, router stalls, and
//! credit loss on the reverse lanes. The plan lives in
//! [`NetworkConfig`](crate::config::NetworkConfig) and is evaluated by the
//! network engine with a dedicated RNG stream forked from the run seed, so a
//! given `(config, seed)` pair reproduces the *exact same* fault sequence
//! cycle for cycle. Every injected fault is counted in
//! [`NetworkStats`](crate::stats::NetworkStats) and recorded in the
//! network's fault log for trace analysis.
//!
//! Fault semantics:
//!
//! * **Transient drop** — an arriving flit silently vanishes with the given
//!   per-flit-hop probability inside the window. Recovery requires the
//!   NI-level retransmit timeout (see
//!   [`RetransmitConfig`](crate::config::RetransmitConfig)).
//! * **Transient corruption** — an arriving flit's checksum is damaged; the
//!   destination NI detects the mismatch at reassembly and NACKs the flit
//!   back to its source for retransmission.
//! * **Kill** — from cycle `at` onward the link delivers nothing; every
//!   flit pushed onto it is lost (counted as a fault drop).
//! * **Router stall** — the router freezes for a window: it neither
//!   arbitrates nor accepts injections, and its incoming links hold their
//!   flits (delivered one per cycle once the stall lifts).
//! * **Credit loss** — an arriving credit vanishes with the given
//!   probability, modeling a glitched reverse lane. Exercised by the
//!   credit-conservation audit
//!   ([`Network::credit_audit`](crate::network::Network::credit_audit)).

use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::{Direction, NodeId};
use crate::rng::SimRng;
use crate::topology::Mesh;

/// A half-open cycle interval `[start, end)` during which a fault is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First cycle (inclusive) the fault is active.
    pub start: Cycle,
    /// First cycle (exclusive) after which the fault is inert.
    pub end: Cycle,
}

impl FaultWindow {
    /// A window covering the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        start: 0,
        end: Cycle::MAX,
    };

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Cycle) -> bool {
        self.start <= now && now < self.end
    }
}

/// Which links a [`LinkSelector`] applies to.
///
/// Selectors beyond `All`/`Link` make kill-storm plans expressible without
/// enumerating links: `Node` isolates a node (every directed link entering
/// *or* leaving it), while `Row`/`Column`/`Region` select by the *upstream*
/// endpoint's coordinate — a regional kill severs everything leaving the
/// region's nodes, including the links crossing its boundary outward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every directed link in the mesh.
    All,
    /// The single directed link leaving `from` toward `dir`.
    Link {
        /// Upstream endpoint.
        from: NodeId,
        /// Outgoing direction at the upstream endpoint.
        dir: Direction,
    },
    /// Every directed link entering or leaving `node` (isolates the node).
    Node {
        /// The isolated node.
        node: NodeId,
    },
    /// Every directed link whose upstream endpoint sits in row `y`.
    Row {
        /// Row index (0 = northmost).
        y: u16,
    },
    /// Every directed link whose upstream endpoint sits in column `x`.
    Column {
        /// Column index (0 = westmost).
        x: u16,
    },
    /// Every directed link whose upstream endpoint lies in the inclusive
    /// rectangle `[x0, x1] × [y0, y1]`.
    Region {
        /// West edge (inclusive).
        x0: u16,
        /// North edge (inclusive).
        y0: u16,
        /// East edge (inclusive).
        x1: u16,
        /// South edge (inclusive).
        y1: u16,
    },
}

impl LinkSelector {
    /// Whether the selector covers the directed link `from -> dir`.
    pub fn matches(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Link { from: f, dir: d } => f == from && d == dir,
            LinkSelector::Node { node } => from == node || mesh.neighbor(from, dir) == Some(node),
            LinkSelector::Row { y } => mesh.coord(from).y == y,
            LinkSelector::Column { x } => mesh.coord(from).x == x,
            LinkSelector::Region { x0, y0, x1, y1 } => {
                let c = mesh.coord(from);
                (x0..=x1).contains(&c.x) && (y0..=y1).contains(&c.y)
            }
        }
    }
}

/// What a link fault does to the traffic crossing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// Drop each arriving flit with probability `rate` inside `window`.
    TransientDrop {
        /// Per-flit drop probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
    /// Corrupt each arriving flit's checksum with probability `rate`.
    TransientCorrupt {
        /// Per-flit corruption probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
    /// Permanently kill the link: nothing arrives from cycle `at` onward
    /// (until a matching [`LinkFaultKind::ReviveAt`] at or after `at`
    /// supersedes the kill).
    KillAt {
        /// Cycle of the kill.
        at: Cycle,
    },
    /// Revive the link at cycle `at`: any kill whose cycle is `<= at` is
    /// superseded from `at` onward (a revive and a kill scheduled for the
    /// same cycle resolve in the revive's favor). Traffic flows normally
    /// again; the repair plane notifies both endpoints `detection_delay`
    /// cycles later so routing state re-converges (DESIGN.md §15).
    ReviveAt {
        /// Cycle of the revival.
        at: Cycle,
    },
    /// Drop each arriving credit with probability `rate` inside `window`.
    CreditLoss {
        /// Per-credit loss probability in `[0, 1]`.
        rate: f64,
        /// Active interval.
        window: FaultWindow,
    },
}

/// One fault bound to a set of links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Links the fault applies to.
    pub selector: LinkSelector,
    /// Fault behavior.
    pub kind: LinkFaultKind,
}

/// A router frozen for `cycles` cycles starting at `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStall {
    /// Stalled node.
    pub node: NodeId,
    /// First stalled cycle.
    pub from: Cycle,
    /// Stall length in cycles.
    pub cycles: u64,
}

impl RouterStall {
    /// Whether the stall covers `now`.
    pub fn contains(&self, now: Cycle) -> bool {
        self.from <= now && now < self.from.saturating_add(self.cycles)
    }
}

/// The complete fault schedule for one run.
///
/// An empty plan (the default) injects nothing and costs nothing on the hot
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Link-level faults, evaluated in order for every matching arrival.
    pub link_faults: Vec<LinkFault>,
    /// Router stall windows.
    pub router_stalls: Vec<RouterStall>,
    /// Cycles between a link kill taking effect and the upstream router
    /// *detecting* it (modeling a credit/progress timeout). Deterministic:
    /// the engine dispatches the detection exactly `kill_at +
    /// detection_delay`, with no wall-clock involvement.
    pub detection_delay: Cycle,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            link_faults: Vec::new(),
            router_stalls: Vec::new(),
            detection_delay: FaultPlan::DEFAULT_DETECTION_DELAY,
        }
    }
}

impl FaultPlan {
    /// Default link-kill detection latency in cycles.
    pub const DEFAULT_DETECTION_DELAY: Cycle = 16;

    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.router_stalls.is_empty()
    }

    /// Uniform transient faults on every link for the whole run: flits drop
    /// with `drop_rate` and corrupt with `corrupt_rate`.
    pub fn uniform_transient(drop_rate: f64, corrupt_rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if drop_rate > 0.0 {
            plan.link_faults.push(LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientDrop {
                    rate: drop_rate,
                    window: FaultWindow::ALWAYS,
                },
            });
        }
        if corrupt_rate > 0.0 {
            plan.link_faults.push(LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientCorrupt {
                    rate: corrupt_rate,
                    window: FaultWindow::ALWAYS,
                },
            });
        }
        plan
    }

    /// Adds a permanent kill of the directed link `from -> dir` at `at`.
    pub fn kill_link(mut self, from: NodeId, dir: Direction, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Link { from, dir },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link entering or leaving `node` at
    /// `at` (isolates the node).
    pub fn kill_node(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Node { node },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving row `y` at `at`.
    pub fn kill_row(mut self, y: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Row { y },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving column `x` at `at`.
    pub fn kill_column(mut self, x: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Column { x },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a permanent kill of every link leaving the inclusive rectangle
    /// `[x0, x1] × [y0, y1]` at `at`.
    pub fn kill_region(mut self, x0: u16, y0: u16, x1: u16, y1: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Region { x0, y0, x1, y1 },
            kind: LinkFaultKind::KillAt { at },
        });
        self
    }

    /// Adds a revival of the directed link `from -> dir` at `at`.
    pub fn revive_link(mut self, from: NodeId, dir: Direction, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Link { from, dir },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link entering or leaving `node` at `at`.
    pub fn revive_node(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Node { node },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link leaving row `y` at `at`.
    pub fn revive_row(mut self, y: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Row { y },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link leaving column `x` at `at`.
    pub fn revive_column(mut self, x: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Column { x },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Adds a revival of every link leaving the inclusive rectangle
    /// `[x0, x1] × [y0, y1]` at `at`.
    pub fn revive_region(mut self, x0: u16, y0: u16, x1: u16, y1: u16, at: Cycle) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::Region { x0, y0, x1, y1 },
            kind: LinkFaultKind::ReviveAt { at },
        });
        self
    }

    /// Pairs every `KillAt` fault already in the plan with a `ReviveAt` of
    /// the same selector `after` cycles later — the CLI's `--revive-after`
    /// semantics: every kill heals on a fixed delay.
    pub fn with_revive_after(mut self, after: Cycle) -> FaultPlan {
        let revives: Vec<LinkFault> = self
            .link_faults
            .iter()
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some(LinkFault {
                    selector: f.selector,
                    kind: LinkFaultKind::ReviveAt {
                        at: at.saturating_add(after),
                    },
                }),
                _ => None,
            })
            .collect();
        self.link_faults.extend(revives);
        self
    }

    /// Appends a deterministic churn schedule: every `period` cycles one
    /// pseudo-randomly chosen directed link is killed, then revived
    /// `duty * period` cycles later, until `horizon`. The schedule is a
    /// pure function of `(mesh, seed, period, duty, horizon)` — only
    /// `KillAt`/`ReviveAt` entries are produced, so the plan stays
    /// deterministic and parallel-engine eligible.
    pub fn with_churn(
        mut self,
        mesh: &Mesh,
        seed: u64,
        period: Cycle,
        duty: f64,
        horizon: Cycle,
    ) -> FaultPlan {
        assert!(period > 0, "churn period must be positive");
        assert!(
            (0.0..=1.0).contains(&duty),
            "churn duty must be in [0, 1], got {duty}"
        );
        let mut rng = SimRng::seed_from(seed ^ 0x6368_7572_6e00);
        let dead_for = ((period as f64) * duty).round() as Cycle;
        let mut at = period;
        while at < horizon {
            // Rejection-sample a directed link that exists in the mesh.
            let (from, dir) = loop {
                let node = NodeId::new(rng.gen_range(mesh.node_count() as u64) as usize);
                let dir = Direction::ALL[rng.gen_range(4) as usize];
                if mesh.neighbor(node, dir).is_some() {
                    break (node, dir);
                }
            };
            self.link_faults.push(LinkFault {
                selector: LinkSelector::Link { from, dir },
                kind: LinkFaultKind::KillAt { at },
            });
            self.link_faults.push(LinkFault {
                selector: LinkSelector::Link { from, dir },
                kind: LinkFaultKind::ReviveAt {
                    at: at.saturating_add(dead_for),
                },
            });
            at = at.saturating_add(period);
        }
        self
    }

    /// Overrides the link-kill detection latency.
    pub fn with_detection_delay(mut self, cycles: Cycle) -> FaultPlan {
        self.detection_delay = cycles;
        self
    }

    /// True when the plan's entire effect is a pure function of the cycle
    /// counter: only permanent link kills and revivals, no probabilistic
    /// faults, no router stalls. Deterministic plans never draw from the
    /// fault RNG and never create held-back flits, which is what lets the
    /// engine keep the activity-tracked and intra-run-parallel paths
    /// enabled under them.
    pub fn is_deterministic(&self) -> bool {
        self.router_stalls.is_empty()
            && self.link_faults.iter().all(|f| {
                matches!(
                    f.kind,
                    LinkFaultKind::KillAt { .. } | LinkFaultKind::ReviveAt { .. }
                )
            })
    }

    /// True when any fault in the plan is a revival (the repair plane is
    /// active).
    pub fn has_revivals(&self) -> bool {
        self.link_faults
            .iter()
            .any(|f| matches!(f.kind, LinkFaultKind::ReviveAt { .. }))
    }

    /// Earliest cycle at which the directed link `from -> dir` is
    /// permanently killed, if any kill fault covers it.
    pub fn first_kill_at(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> Option<Cycle> {
        self.link_faults
            .iter()
            .filter(|f| f.selector.matches(mesh, from, dir))
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some(at),
                _ => None,
            })
            .min()
    }

    /// The alive-state transition timeline of the directed link
    /// `from -> dir`: `(cycle, alive)` entries in increasing cycle order,
    /// starting from the implicit alive state at cycle 0 (which is *not* an
    /// entry). The 1-based index of each transition is the link's **epoch**
    /// at and after that cycle — the monotonic version number fault gossip
    /// carries so a revival supersedes a kill (and vice versa) regardless
    /// of arrival order. Kills and revivals scheduled for the same cycle
    /// coalesce in the revival's favor.
    pub fn link_timeline(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> Vec<(Cycle, bool)> {
        let mut events: Vec<(Cycle, bool)> = self
            .link_faults
            .iter()
            .filter(|f| f.selector.matches(mesh, from, dir))
            .filter_map(|f| match f.kind {
                LinkFaultKind::KillAt { at } => Some((at, false)),
                LinkFaultKind::ReviveAt { at } => Some((at, true)),
                _ => None,
            })
            .collect();
        let mut timeline = Vec::new();
        coalesce(&mut events, |cycle, alive| timeline.push((cycle, alive)));
        timeline
    }

    /// The half-open cycle intervals `[dead_from, alive_from)` during which
    /// the directed link `from -> dir` is dead (the last interval ends at
    /// `Cycle::MAX` if the link never revives). For deterministic plans an
    /// interval test is exactly the fault plane's flit and credit fate.
    pub fn dead_windows(&self, mesh: &Mesh, from: NodeId, dir: Direction) -> Vec<(Cycle, Cycle)> {
        let mut windows = Vec::new();
        let mut dead_from = None;
        for (cycle, alive) in self.link_timeline(mesh, from, dir) {
            if alive {
                if let Some(start) = dead_from.take() {
                    windows.push((start, cycle));
                }
            } else {
                dead_from = Some(cycle);
            }
        }
        if let Some(start) = dead_from {
            windows.push((start, Cycle::MAX));
        }
        windows
    }

    /// The deterministic link-event detection schedule: one entry per
    /// alive-state *transition* of each directed link, sorted by
    /// `(detect_cycle, node, dir, epoch)`. `detect_cycle = transition_at +
    /// detection_delay` (saturating). The engine dispatches each entry
    /// once: a death to the upstream router (which masks the output and
    /// gossips the fact), a revival to both endpoints (the upstream router
    /// unmasks and re-gossips; the downstream router clears its input mask
    /// and starts the credit re-sync handshake).
    pub fn event_schedule(&self, mesh: &Mesh) -> Vec<LinkEvent> {
        FaultIndex::new(self, mesh).event_schedule(self.detection_delay)
    }

    /// The deterministic link-kill detection schedule: the dead-transition
    /// entries of [`FaultPlan::event_schedule`] as `(detect_cycle, upstream
    /// node, direction)` tuples.
    pub fn kill_schedule(&self, mesh: &Mesh) -> Vec<(Cycle, NodeId, Direction)> {
        self.event_schedule(mesh)
            .into_iter()
            .filter(|e| !e.alive)
            .map(|e| (e.detect_at, e.node, e.dir))
            .collect()
    }

    /// The deterministic link-revival detection schedule: the
    /// alive-transition entries of [`FaultPlan::event_schedule`] as
    /// `(detect_cycle, upstream node, direction)` tuples — symmetric to
    /// [`FaultPlan::kill_schedule`].
    pub fn revive_schedule(&self, mesh: &Mesh) -> Vec<(Cycle, NodeId, Direction)> {
        self.event_schedule(mesh)
            .into_iter()
            .filter(|e| e.alive)
            .map(|e| (e.detect_at, e.node, e.dir))
            .collect()
    }

    /// Adds uniform credit loss on every link for the whole run.
    pub fn with_credit_loss(mut self, rate: f64) -> FaultPlan {
        self.link_faults.push(LinkFault {
            selector: LinkSelector::All,
            kind: LinkFaultKind::CreditLoss {
                rate,
                window: FaultWindow::ALWAYS,
            },
        });
        self
    }

    /// Adds a router stall window.
    pub fn with_stall(mut self, node: NodeId, from: Cycle, cycles: u64) -> FaultPlan {
        self.router_stalls.push(RouterStall { node, from, cycles });
        self
    }

    /// Validates rates, windows, and selector bounds against the mesh
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`](crate::error::ConfigError) for a
    /// probability outside `[0, 1]`, an inverted window, or a selector
    /// referencing a node, row, column, or region outside the
    /// `width × height` mesh.
    pub fn validate(&self, width: u16, height: u16) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        let nodes = width as usize * height as usize;
        for f in &self.link_faults {
            match f.selector {
                LinkSelector::All | LinkSelector::Link { .. } => {}
                LinkSelector::Node { node } => {
                    if node.index() >= nodes {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector node",
                            range: "node < width * height",
                        });
                    }
                }
                LinkSelector::Row { y } => {
                    if y >= height {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector row",
                            range: "row < height",
                        });
                    }
                }
                LinkSelector::Column { x } => {
                    if x >= width {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector column",
                            range: "column < width",
                        });
                    }
                }
                LinkSelector::Region { x0, y0, x1, y1 } => {
                    if x0 > x1 || y0 > y1 || x1 >= width || y1 >= height {
                        return Err(ConfigError::OutOfRange {
                            what: "fault selector region",
                            range: "x0 <= x1 < width, y0 <= y1 < height",
                        });
                    }
                }
            }
            let (rate, window) = match f.kind {
                LinkFaultKind::TransientDrop { rate, window }
                | LinkFaultKind::TransientCorrupt { rate, window }
                | LinkFaultKind::CreditLoss { rate, window } => (rate, Some(window)),
                LinkFaultKind::KillAt { .. } | LinkFaultKind::ReviveAt { .. } => (0.0, None),
            };
            if !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::OutOfRange {
                    what: "fault rate",
                    range: "0.0..=1.0",
                });
            }
            if let Some(w) = window {
                if w.end < w.start {
                    return Err(ConfigError::OutOfRange {
                        what: "fault window",
                        range: "start <= end",
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether `node` is frozen at `now`.
    pub fn router_stalled(&self, node: NodeId, now: Cycle) -> bool {
        self.router_stalls
            .iter()
            .any(|s| s.node == node && s.contains(now))
    }
}

/// One entry of the deterministic link-event detection schedule: the
/// directed link `node -> dir` transitioned to `alive` (epoch `epoch`) and
/// the engine reports it at `detect_at` (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// Cycle the engine dispatches the notification (transition cycle plus
    /// the plan's detection delay).
    pub detect_at: Cycle,
    /// Upstream endpoint of the link.
    pub node: NodeId,
    /// Outgoing direction at the upstream endpoint.
    pub dir: Direction,
    /// New alive state of the link.
    pub alive: bool,
    /// Monotonic per-link epoch of the transition (1-based; epoch 0 is the
    /// implicit initial alive state).
    pub epoch: u32,
}

/// Outcome of evaluating the fault plane for one arriving flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitFate {
    /// Delivered untouched.
    Deliver,
    /// Silently lost on the link.
    Drop,
    /// Delivered with a damaged checksum.
    Corrupt,
}

/// Sorts one link's kill (`false`) and revival (`true`) events and emits
/// the alive-state transitions they produce, in cycle order. Within one
/// cycle a revival wins: sorting kills first makes the last state seen at
/// each cycle the winning one.
fn coalesce(events: &mut [(Cycle, bool)], mut emit: impl FnMut(Cycle, bool)) {
    events.sort_unstable_by_key(|&(at, alive)| (at, alive));
    let mut alive = true;
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].0;
        let mut state = alive;
        while i < events.len() && events[i].0 == cycle {
            state = events[i].1;
            i += 1;
        }
        if state != alive {
            alive = state;
            emit(cycle, alive);
        }
    }
}

/// One link fault compiled for one directed link. Revivals are folded
/// into the kills they end, so evaluation needs no second scan.
#[derive(Debug, Clone, Copy)]
enum LinkRule {
    /// A kill in force on `[at, until)`: `until` is the first matching
    /// revival at or after `at` (revive-wins-ties), `Cycle::MAX` if none.
    Kill {
        at: Cycle,
        until: Cycle,
    },
    Drop {
        rate: f64,
        window: FaultWindow,
    },
    Corrupt {
        rate: f64,
        window: FaultWindow,
    },
    CreditLoss {
        rate: f64,
        window: FaultWindow,
    },
}

/// A [`FaultPlan`] compiled per directed link: the one derived form every
/// fault-plane consumer reads (DESIGN.md §6.1) — serial flit and credit
/// delivery, the parallel engine's dead-link test, and the detection
/// schedule.
///
/// Links are addressed by slot `node * 4 + direction`. Each slot holds its
/// matching faults in plan order, so probabilistic faults draw from the
/// fault RNG in exactly the order of a scan over the whole plan, and its
/// coalesced alive-state transitions. Derived from the configuration
/// alone: never snapshotted, unchanged by arena resets. An empty plan
/// compiles to an index that owns no heap.
#[derive(Debug, Default)]
pub(crate) struct FaultIndex {
    /// Slot `s` owns `rules[rule_off[s]..rule_off[s + 1]]`.
    rule_off: Vec<u32>,
    rules: Vec<LinkRule>,
    /// Slot `s` owns `transitions[tl_off[s]..tl_off[s + 1]]`: ascending
    /// cycles at which the link alternately dies and revives, starting
    /// with a death (the link epoch is the 1-based position).
    tl_off: Vec<u32>,
    transitions: Vec<Cycle>,
}

impl FaultIndex {
    /// Compiles `plan` for the links of `mesh`: O(faults + matches + links).
    pub(crate) fn new(plan: &FaultPlan, mesh: &Mesh) -> FaultIndex {
        if plan.link_faults.is_empty() {
            return FaultIndex::default();
        }
        let slots = mesh.node_count() * 4;
        // Counting sort of (slot, fault id) pairs by slot; filling in plan
        // order keeps every slot's ids in plan order.
        let mut id_off = vec![0u32; slots + 1];
        for f in &plan.link_faults {
            for_each_slot(&f.selector, mesh, |s| id_off[s + 1] += 1);
        }
        for s in 0..slots {
            id_off[s + 1] += id_off[s];
        }
        let mut ids = vec![0u32; id_off[slots] as usize];
        let mut cursor = id_off.clone();
        for (id, f) in plan.link_faults.iter().enumerate() {
            for_each_slot(&f.selector, mesh, |s| {
                ids[cursor[s] as usize] = id as u32;
                cursor[s] += 1;
            });
        }

        let mut index = FaultIndex {
            rule_off: Vec::with_capacity(slots + 1),
            rules: Vec::new(),
            tl_off: Vec::with_capacity(slots + 1),
            transitions: Vec::new(),
        };
        index.rule_off.push(0);
        index.tl_off.push(0);
        let mut revives = Vec::new();
        let mut events = Vec::new();
        for s in 0..slots {
            let faults = ids[id_off[s] as usize..id_off[s + 1] as usize]
                .iter()
                .map(|&id| &plan.link_faults[id as usize].kind);
            revives.clear();
            events.clear();
            for kind in faults.clone() {
                match *kind {
                    LinkFaultKind::KillAt { at } => events.push((at, false)),
                    LinkFaultKind::ReviveAt { at } => {
                        events.push((at, true));
                        revives.push(at);
                    }
                    _ => {}
                }
            }
            revives.sort_unstable();
            for kind in faults {
                index.rules.push(match *kind {
                    LinkFaultKind::KillAt { at } => LinkRule::Kill {
                        at,
                        until: revives
                            .get(revives.partition_point(|&r| r < at))
                            .copied()
                            .unwrap_or(Cycle::MAX),
                    },
                    LinkFaultKind::TransientDrop { rate, window } => {
                        LinkRule::Drop { rate, window }
                    }
                    LinkFaultKind::TransientCorrupt { rate, window } => {
                        LinkRule::Corrupt { rate, window }
                    }
                    LinkFaultKind::CreditLoss { rate, window } => {
                        LinkRule::CreditLoss { rate, window }
                    }
                    LinkFaultKind::ReviveAt { .. } => continue,
                });
            }
            coalesce(&mut events, |cycle, _| index.transitions.push(cycle));
            index.rule_off.push(index.rules.len() as u32);
            index.tl_off.push(index.transitions.len() as u32);
        }
        index
    }

    #[inline]
    fn slot(from: NodeId, dir: Direction) -> usize {
        from.index() * 4 + dir.index()
    }

    #[inline]
    fn rules(&self, from: NodeId, dir: Direction) -> &[LinkRule] {
        let s = Self::slot(from, dir);
        match self.rule_off.get(s..s + 2) {
            Some(&[lo, hi]) => &self.rules[lo as usize..hi as usize],
            _ => &[],
        }
    }

    #[inline]
    fn transitions(&self, from: NodeId, dir: Direction) -> &[Cycle] {
        let s = Self::slot(from, dir);
        match self.tl_off.get(s..s + 2) {
            Some(&[lo, hi]) => &self.transitions[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Decides the fate of a flit arriving over the link `from -> dir` at
    /// `now`: the link's faults in plan order, a transient drawing from
    /// `rng` only while armed, the first drop (a kill in force or a drawn
    /// drop) ending the scan.
    pub(crate) fn flit_fate(
        &self,
        from: NodeId,
        dir: Direction,
        now: Cycle,
        rng: &mut SimRng,
    ) -> FlitFate {
        let mut fate = FlitFate::Deliver;
        for rule in self.rules(from, dir) {
            match *rule {
                LinkRule::Kill { at, until } if at <= now && now < until => {
                    return FlitFate::Drop;
                }
                LinkRule::Drop { rate, window }
                    if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                {
                    return FlitFate::Drop;
                }
                LinkRule::Corrupt { rate, window }
                    if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                {
                    fate = FlitFate::Corrupt;
                }
                _ => {}
            }
        }
        fate
    }

    /// Whether a credit arriving over `from -> dir` at `now` is lost (same
    /// scan as [`FaultIndex::flit_fate`] over kills and credit loss).
    pub(crate) fn credit_lost(
        &self,
        from: NodeId,
        dir: Direction,
        now: Cycle,
        rng: &mut SimRng,
    ) -> bool {
        self.rules(from, dir).iter().any(|rule| match *rule {
            LinkRule::Kill { at, until } => at <= now && now < until,
            LinkRule::CreditLoss { rate, window } => {
                window.contains(now) && rate > 0.0 && rng.gen_bool(rate)
            }
            _ => false,
        })
    }

    /// Whether the link `from -> dir` is dead at `now` (a link revived at
    /// `now` is alive): an odd number of transitions at or before `now`.
    /// For deterministic plans this is the whole of the flit and credit
    /// fate. Links carry 0–2 transitions in practice, so a linear count
    /// beats a binary search.
    #[inline]
    pub(crate) fn link_dead(&self, from: NodeId, dir: Direction, now: Cycle) -> bool {
        !self.transitions.is_empty()
            && self
                .transitions(from, dir)
                .iter()
                .take_while(|&&at| at <= now)
                .count()
                % 2
                == 1
    }

    /// The detection schedule (see [`FaultPlan::event_schedule`]): one
    /// event per transition, sorted by `(detect_cycle, node, dir, epoch)`.
    pub(crate) fn event_schedule(&self, detection_delay: Cycle) -> Vec<LinkEvent> {
        let mut schedule = Vec::with_capacity(self.transitions.len());
        for s in 0..self.tl_off.len().saturating_sub(1) {
            let (node, dir) = (NodeId::new(s / 4), Direction::ALL[s % 4]);
            for (i, &at) in self.transitions(node, dir).iter().enumerate() {
                schedule.push(LinkEvent {
                    detect_at: at.saturating_add(detection_delay),
                    node,
                    dir,
                    alive: i % 2 == 1,
                    epoch: (i + 1) as u32,
                });
            }
        }
        schedule.sort_unstable_by_key(|e| (e.detect_at, e.node.index(), e.dir.index(), e.epoch));
        schedule
    }

    /// Heap bytes owned by the index (zero for an empty plan).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.rule_off.capacity() + self.tl_off.capacity()) * size_of::<u32>()
            + self.rules.capacity() * size_of::<LinkRule>()
            + self.transitions.capacity() * size_of::<Cycle>()
    }
}

/// Calls `f` with the slot of every directed link of `mesh` that `sel`
/// covers — exactly the links [`LinkSelector::matches`] accepts, each
/// once, found without scanning the mesh.
fn for_each_slot(sel: &LinkSelector, mesh: &Mesh, mut f: impl FnMut(usize)) {
    let n = mesh.node_count();
    let out_links = |node: NodeId, f: &mut dyn FnMut(usize)| {
        for dir in Direction::ALL {
            if mesh.neighbor(node, dir).is_some() {
                f(FaultIndex::slot(node, dir));
            }
        }
    };
    let rect = |x0: u16, y0: u16, x1: u16, y1: u16, f: &mut dyn FnMut(usize)| {
        let (x1, y1) = (x1.min(mesh.width() - 1), y1.min(mesh.height() - 1));
        for y in y0..=y1 {
            for x in x0..=x1 {
                if let Some(node) = mesh.node_at(crate::geom::Coord::new(x, y)) {
                    out_links(node, f);
                }
            }
        }
    };
    match *sel {
        LinkSelector::All => rect(0, 0, mesh.width() - 1, mesh.height() - 1, &mut f),
        LinkSelector::Link { from, dir } => {
            if from.index() < n && mesh.neighbor(from, dir).is_some() {
                f(FaultIndex::slot(from, dir));
            }
        }
        LinkSelector::Node { node } => {
            if node.index() < n {
                for dir in Direction::ALL {
                    if let Some(nb) = mesh.neighbor(node, dir) {
                        f(FaultIndex::slot(node, dir));
                        f(FaultIndex::slot(nb, dir.opposite()));
                    }
                }
            }
        }
        LinkSelector::Row { y } => rect(0, y, mesh.width() - 1, y, &mut f),
        LinkSelector::Column { x } => rect(x, 0, x, mesh.height() - 1, &mut f),
        LinkSelector::Region { x0, y0, x1, y1 } => rect(x0, y0, x1, y1, &mut f),
    }
}

/// One injected fault, as recorded in the network's fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle of the event.
    pub cycle: Cycle,
    /// Upstream endpoint of the affected link (or the stalled node).
    pub from: NodeId,
    /// Direction of the affected link (meaningless for stalls).
    pub dir: Direction,
    /// What happened.
    pub kind: FaultEventKind,
}

/// The kind of an injected fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A flit was dropped on the link.
    FlitDropped {
        /// Packet the flit belonged to.
        packet: PacketId,
        /// Flit sequence number.
        seq: u16,
    },
    /// A flit was corrupted on the link.
    FlitCorrupted {
        /// Packet the flit belonged to.
        packet: PacketId,
        /// Flit sequence number.
        seq: u16,
    },
    /// A credit was lost on the reverse lane.
    CreditLost,
}

impl FaultEvent {
    /// Builds the log record for a flit-affecting fault.
    pub fn for_flit(
        cycle: Cycle,
        from: NodeId,
        dir: Direction,
        flit: &Flit,
        dropped: bool,
    ) -> FaultEvent {
        let kind = if dropped {
            FaultEventKind::FlitDropped {
                packet: flit.packet,
                seq: flit.seq,
            }
        } else {
            FaultEventKind::FlitCorrupted {
                packet: flit.packet,
                seq: flit.seq,
            }
        };
        FaultEvent {
            cycle,
            from,
            dir,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh3() -> Mesh {
        Mesh::new(3, 3).unwrap()
    }

    fn index_fate(
        plan: &FaultPlan,
        mesh: &Mesh,
        from: NodeId,
        dir: Direction,
        now: Cycle,
        rng: &mut SimRng,
    ) -> FlitFate {
        FaultIndex::new(plan, mesh).flit_fate(from, dir, now, rng)
    }

    fn index_lost(
        plan: &FaultPlan,
        mesh: &Mesh,
        from: NodeId,
        dir: Direction,
        now: Cycle,
        rng: &mut SimRng,
    ) -> bool {
        FaultIndex::new(plan, mesh).credit_lost(from, dir, now, rng)
    }

    /// The historical per-arrival plan scans, kept as the oracle for
    /// [`FaultIndex`]: every fault's selector tested in plan order, each
    /// matching kill checked against a second scan for a superseding
    /// revival.
    mod oracle {
        use super::*;

        /// Whether a matching revival supersedes a kill of `from -> dir` taken
        /// at `kill_at`, as observed at `now`: true iff some `ReviveAt` covers
        /// the link with `kill_at <= at <= now` (the inclusive lower bound is
        /// the revive-wins-ties rule). Draws no randomness, so kill-only plans
        /// are byte-identical with or without this check.
        pub(super) fn revived_since(
            plan: &FaultPlan,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            kill_at: Cycle,
            now: Cycle,
        ) -> bool {
            plan.link_faults.iter().any(|f| match f.kind {
                LinkFaultKind::ReviveAt { at } => {
                    kill_at <= at && at <= now && f.selector.matches(mesh, from, dir)
                }
                _ => false,
            })
        }

        /// Decides the fate of a flit arriving over the link `from -> dir` at
        /// `now`, drawing from `rng` only when an armed fault matches (so an
        /// empty or inactive plan leaves the stream untouched).
        pub(super) fn flit_fate(
            plan: &FaultPlan,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            now: Cycle,
            rng: &mut SimRng,
        ) -> FlitFate {
            let mut fate = FlitFate::Deliver;
            for f in &plan.link_faults {
                if !f.selector.matches(mesh, from, dir) {
                    continue;
                }
                match f.kind {
                    LinkFaultKind::KillAt { at }
                        if now >= at && !revived_since(plan, mesh, from, dir, at, now) =>
                    {
                        return FlitFate::Drop;
                    }
                    LinkFaultKind::TransientDrop { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        return FlitFate::Drop;
                    }
                    LinkFaultKind::TransientCorrupt { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        fate = FlitFate::Corrupt;
                    }
                    _ => {}
                }
            }
            fate
        }

        /// Whether a credit arriving over `from -> dir` at `now` is lost.
        pub(super) fn credit_lost(
            plan: &FaultPlan,
            mesh: &Mesh,
            from: NodeId,
            dir: Direction,
            now: Cycle,
            rng: &mut SimRng,
        ) -> bool {
            for f in &plan.link_faults {
                if !f.selector.matches(mesh, from, dir) {
                    continue;
                }
                match f.kind {
                    LinkFaultKind::KillAt { at }
                        if now >= at && !revived_since(plan, mesh, from, dir, at, now) =>
                    {
                        return true;
                    }
                    LinkFaultKind::CreditLoss { rate, window }
                        if window.contains(now) && rate > 0.0 && rng.gen_bool(rate) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            }
            false
        }
    }

    #[test]
    fn empty_plan_delivers_everything_without_touching_rng() {
        let plan = FaultPlan::none();
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        for now in 0..100 {
            assert_eq!(
                index_fate(&plan, &mesh, NodeId::new(0), Direction::East, now, &mut rng),
                FlitFate::Deliver
            );
            assert!(!index_lost(
                &plan,
                &mesh,
                NodeId::new(0),
                Direction::East,
                now,
                &mut rng
            ));
        }
        assert_eq!(rng, before, "no fault may consume randomness");
    }

    #[test]
    fn kill_is_absolute_after_the_cycle() {
        let plan = FaultPlan::none().kill_link(NodeId::new(3), Direction::North, 50);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(2);
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(3), Direction::North, 49, &mut rng),
            FlitFate::Deliver
        );
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(3), Direction::North, 50, &mut rng),
            FlitFate::Drop
        );
        // Other links are untouched.
        assert_eq!(
            index_fate(
                &plan,
                &mesh,
                NodeId::new(3),
                Direction::South,
                1_000,
                &mut rng
            ),
            FlitFate::Deliver
        );
        assert!(index_lost(
            &plan,
            &mesh,
            NodeId::new(3),
            Direction::North,
            60,
            &mut rng
        ));
    }

    #[test]
    fn transient_rates_hit_roughly_proportionally() {
        let plan = FaultPlan::uniform_transient(0.25, 0.0);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(3);
        let drops = (0..10_000)
            .filter(|&now| {
                index_fate(&plan, &mesh, NodeId::new(0), Direction::East, now, &mut rng)
                    == FlitFate::Drop
            })
            .count();
        assert!((2_000..3_000).contains(&drops), "got {drops}");
    }

    #[test]
    fn windows_gate_faults() {
        let plan = FaultPlan {
            link_faults: vec![LinkFault {
                selector: LinkSelector::All,
                kind: LinkFaultKind::TransientDrop {
                    rate: 1.0,
                    window: FaultWindow { start: 10, end: 20 },
                },
            }],
            router_stalls: vec![],
            detection_delay: FaultPlan::DEFAULT_DETECTION_DELAY,
        };
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(4);
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(0), Direction::East, 9, &mut rng),
            FlitFate::Deliver
        );
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(0), Direction::East, 10, &mut rng),
            FlitFate::Drop
        );
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(0), Direction::East, 20, &mut rng),
            FlitFate::Deliver
        );
    }

    #[test]
    fn stall_windows() {
        let plan = FaultPlan::none().with_stall(NodeId::new(4), 100, 10);
        assert!(!plan.router_stalled(NodeId::new(4), 99));
        assert!(plan.router_stalled(NodeId::new(4), 100));
        assert!(plan.router_stalled(NodeId::new(4), 109));
        assert!(!plan.router_stalled(NodeId::new(4), 110));
        assert!(!plan.router_stalled(NodeId::new(5), 105));
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let plan = FaultPlan::uniform_transient(1.5, 0.0);
        assert!(plan.validate(3, 3).is_err());
        assert!(FaultPlan::uniform_transient(0.001, 0.001)
            .validate(3, 3)
            .is_ok());
        assert!(FaultPlan::none().validate(3, 3).is_ok());
    }

    #[test]
    fn validation_rejects_out_of_mesh_selectors() {
        assert!(FaultPlan::none()
            .kill_node(NodeId::new(9), 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none().kill_row(3, 0).validate(3, 3).is_err());
        assert!(FaultPlan::none().kill_column(3, 0).validate(3, 3).is_err());
        assert!(FaultPlan::none()
            .kill_region(2, 0, 1, 1, 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none()
            .kill_region(0, 0, 1, 3, 0)
            .validate(3, 3)
            .is_err());
        assert!(FaultPlan::none()
            .kill_node(NodeId::new(8), 0)
            .kill_row(2, 0)
            .kill_column(2, 0)
            .kill_region(0, 0, 1, 1, 0)
            .validate(3, 3)
            .is_ok());
    }

    #[test]
    fn node_selector_isolates_both_directions() {
        // Node 4 is the 3x3 center: every link leaving it AND every link
        // entering it (from its four neighbors) must match.
        let mesh = mesh3();
        let sel = LinkSelector::Node {
            node: NodeId::new(4),
        };
        for dir in Direction::ALL {
            assert!(sel.matches(&mesh, NodeId::new(4), dir), "out {dir:?}");
            let nb = mesh.neighbor(NodeId::new(4), dir).unwrap();
            assert!(sel.matches(&mesh, nb, dir.opposite()), "in from {nb:?}");
        }
        // A corner-to-corner-neighbor link never touches the center.
        assert!(!sel.matches(&mesh, NodeId::new(0), Direction::East));
    }

    #[test]
    fn row_column_region_select_by_upstream_coordinate() {
        let mesh = mesh3();
        let row = LinkSelector::Row { y: 1 };
        assert!(row.matches(&mesh, NodeId::new(3), Direction::East));
        assert!(row.matches(&mesh, NodeId::new(5), Direction::North));
        assert!(!row.matches(&mesh, NodeId::new(0), Direction::South));
        let col = LinkSelector::Column { x: 2 };
        assert!(col.matches(&mesh, NodeId::new(2), Direction::South));
        assert!(!col.matches(&mesh, NodeId::new(1), Direction::East));
        let region = LinkSelector::Region {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 1,
        };
        assert!(region.matches(&mesh, NodeId::new(4), Direction::East));
        assert!(!region.matches(&mesh, NodeId::new(5), Direction::West));
    }

    #[test]
    fn kill_schedule_is_sorted_and_deduplicated() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(4), Direction::East, 100)
            // Overlapping kill of the same link later: earliest wins.
            .kill_link(NodeId::new(4), Direction::East, 500)
            .kill_link(NodeId::new(0), Direction::South, 200)
            .with_detection_delay(10);
        let mesh = mesh3();
        let schedule = plan.kill_schedule(&mesh);
        assert_eq!(
            schedule,
            vec![
                (110, NodeId::new(4), Direction::East),
                (210, NodeId::new(0), Direction::South),
            ]
        );
        assert!(plan.is_deterministic());
        assert!(!FaultPlan::uniform_transient(0.1, 0.0).is_deterministic());
        assert!(!FaultPlan::none()
            .with_stall(NodeId::new(1), 5, 5)
            .is_deterministic());
        assert_eq!(
            plan.first_kill_at(&mesh, NodeId::new(4), Direction::East),
            Some(100)
        );
        assert_eq!(
            plan.first_kill_at(&mesh, NodeId::new(4), Direction::West),
            None
        );
    }

    #[test]
    fn node_kill_schedule_covers_entering_and_leaving_links() {
        let plan = FaultPlan::none()
            .kill_node(NodeId::new(4), 50)
            .with_detection_delay(0);
        let mesh = mesh3();
        let schedule = plan.kill_schedule(&mesh);
        // Center of a 3x3: 4 outgoing + 4 incoming directed links.
        assert_eq!(schedule.len(), 8);
        assert!(schedule.iter().all(|&(cycle, _, _)| cycle == 50));
    }

    #[test]
    fn revival_supersedes_kill_in_flit_fate() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(3), Direction::North, 50)
            .revive_link(NodeId::new(3), Direction::North, 200);
        let mesh = mesh3();
        let mut rng = SimRng::seed_from(3);
        let mut fate = |now| {
            index_fate(
                &plan,
                &mesh,
                NodeId::new(3),
                Direction::North,
                now,
                &mut rng,
            )
        };
        assert_eq!(fate(49), FlitFate::Deliver);
        assert_eq!(fate(50), FlitFate::Drop);
        assert_eq!(fate(199), FlitFate::Drop);
        // The revival cycle itself is alive (half-open dead window).
        assert_eq!(fate(200), FlitFate::Deliver);
        assert_eq!(fate(10_000), FlitFate::Deliver);
        let mut rng = SimRng::seed_from(3);
        assert!(index_lost(
            &plan,
            &mesh,
            NodeId::new(3),
            Direction::North,
            199,
            &mut rng
        ));
        assert!(!index_lost(
            &plan,
            &mesh,
            NodeId::new(3),
            Direction::North,
            200,
            &mut rng
        ));
        assert!(plan.is_deterministic(), "revivals stay parallel-eligible");
        assert!(plan.has_revivals());
        assert!(!FaultPlan::none()
            .kill_link(NodeId::new(3), Direction::North, 50)
            .has_revivals());
    }

    #[test]
    fn same_cycle_tie_goes_to_the_revival() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(1), Direction::East, 80)
            .revive_link(NodeId::new(1), Direction::East, 80);
        let mesh = mesh3();
        // The coalesced timeline has no transition at all: the link never
        // observably dies.
        assert!(plan
            .link_timeline(&mesh, NodeId::new(1), Direction::East)
            .is_empty());
        assert!(plan
            .dead_windows(&mesh, NodeId::new(1), Direction::East)
            .is_empty());
        let mut rng = SimRng::seed_from(4);
        assert_eq!(
            index_fate(&plan, &mesh, NodeId::new(1), Direction::East, 80, &mut rng),
            FlitFate::Deliver
        );
    }

    #[test]
    fn link_timeline_coalesces_and_orders_transitions() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(0), Direction::East, 300)
            // Redundant second kill while already dead: no transition.
            .kill_link(NodeId::new(0), Direction::East, 350)
            .revive_link(NodeId::new(0), Direction::East, 500)
            .kill_link(NodeId::new(0), Direction::East, 700);
        let mesh = mesh3();
        assert_eq!(
            plan.link_timeline(&mesh, NodeId::new(0), Direction::East),
            vec![(300, false), (500, true), (700, false)]
        );
        assert_eq!(
            plan.dead_windows(&mesh, NodeId::new(0), Direction::East),
            vec![(300, 500), (700, Cycle::MAX)]
        );
        // An unrelated link has an empty timeline.
        assert!(plan
            .link_timeline(&mesh, NodeId::new(0), Direction::South)
            .is_empty());
    }

    #[test]
    fn event_schedule_epochs_are_monotonic_per_link() {
        let plan = FaultPlan::none()
            .kill_link(NodeId::new(4), Direction::West, 100)
            .revive_link(NodeId::new(4), Direction::West, 250)
            .kill_link(NodeId::new(4), Direction::West, 400)
            .kill_link(NodeId::new(0), Direction::East, 150)
            .with_detection_delay(10);
        let mesh = mesh3();
        let schedule = plan.event_schedule(&mesh);
        assert_eq!(schedule.len(), 4);
        // Sorted by detection cycle across links.
        assert!(schedule
            .windows(2)
            .all(|w| w[0].detect_at <= w[1].detect_at));
        let west: Vec<&LinkEvent> = schedule
            .iter()
            .filter(|e| e.node == NodeId::new(4) && e.dir == Direction::West)
            .collect();
        assert_eq!(
            west.iter()
                .map(|e| (e.detect_at, e.epoch, e.alive))
                .collect::<Vec<_>>(),
            vec![(110, 1, false), (260, 2, true), (410, 3, false)]
        );
        // The other link's epoch numbering is independent.
        let east: Vec<&LinkEvent> = schedule
            .iter()
            .filter(|e| e.node == NodeId::new(0) && e.dir == Direction::East)
            .collect();
        assert_eq!(
            east.iter()
                .map(|e| (e.detect_at, e.epoch, e.alive))
                .collect::<Vec<_>>(),
            vec![(160, 1, false)]
        );
        // revive_schedule / kill_schedule are the alive/dead projections.
        assert_eq!(
            plan.revive_schedule(&mesh),
            vec![(260, NodeId::new(4), Direction::West)]
        );
        assert_eq!(plan.kill_schedule(&mesh).len(), 3);
    }

    #[test]
    fn with_revive_after_heals_every_kill_shape() {
        let plan = FaultPlan::none()
            .kill_node(NodeId::new(4), 50)
            .kill_row(0, 100)
            .with_revive_after(75);
        let mesh = mesh3();
        let kills = plan.kill_schedule(&mesh);
        let revives = plan.revive_schedule(&mesh);
        assert!(!kills.is_empty());
        assert_eq!(kills.len(), revives.len());
        // Every directed link's dead window is exactly 75 cycles wide.
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                for (kill, revive) in plan.dead_windows(&mesh, node, dir) {
                    assert_eq!(revive - kill, 75, "link {node:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn churn_is_a_pure_function_of_its_arguments() {
        let mesh = mesh3();
        let a = FaultPlan::none().with_churn(&mesh, 9, 100, 0.5, 1_000);
        let b = FaultPlan::none().with_churn(&mesh, 9, 100, 0.5, 1_000);
        assert_eq!(a.event_schedule(&mesh), b.event_schedule(&mesh));
        let c = FaultPlan::none().with_churn(&mesh, 10, 100, 0.5, 1_000);
        assert_ne!(a.event_schedule(&mesh), c.event_schedule(&mesh));
        // Every churn kill is paired with a revival 50 cycles later, and
        // nothing is scheduled at or past the horizon.
        assert!(a.is_deterministic());
        let events = a.event_schedule(&mesh);
        assert!(!events.is_empty());
        let (kills, revives): (Vec<&LinkEvent>, Vec<&LinkEvent>) =
            events.iter().partition(|e| !e.alive);
        assert_eq!(kills.len(), revives.len());
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                for (kill, revive) in a.dead_windows(&mesh, node, dir) {
                    assert!((100..1_000).contains(&kill));
                    assert_eq!(revive, kill + 50);
                }
            }
        }
    }

    /// A random plan mixing every selector shape with kills, revivals,
    /// transient drop/corruption and credit loss; cycles are drawn on a
    /// coarse grid so same-cycle kill/revive ties are common.
    fn random_plan(mesh: &Mesh, rng: &mut SimRng) -> FaultPlan {
        let (w, h) = (mesh.width() as u64, mesh.height() as u64);
        let cycle = |rng: &mut SimRng| rng.gen_range(20) * 10;
        let mut plan = FaultPlan::none();
        for _ in 0..1 + rng.gen_index(10) {
            let (x0, x1) = {
                let (a, b) = (rng.gen_range(w) as u16, rng.gen_range(w) as u16);
                (a.min(b), a.max(b))
            };
            let (y0, y1) = {
                let (a, b) = (rng.gen_range(h) as u16, rng.gen_range(h) as u16);
                (a.min(b), a.max(b))
            };
            let node = NodeId::new(rng.gen_index(mesh.node_count()));
            let selector = match rng.gen_range(6) {
                0 => LinkSelector::All,
                1 => LinkSelector::Link {
                    from: node,
                    dir: Direction::ALL[rng.gen_index(4)],
                },
                2 => LinkSelector::Node { node },
                3 => LinkSelector::Row { y: y0 },
                4 => LinkSelector::Column { x: x0 },
                _ => LinkSelector::Region { x0, y0, x1, y1 },
            };
            let rate = [0.0, 0.3, 0.7, 1.0][rng.gen_index(4)];
            let window = {
                let (a, b) = (cycle(rng), cycle(rng));
                FaultWindow {
                    start: a.min(b),
                    end: a.max(b),
                }
            };
            let kind = match rng.gen_range(5) {
                0 => LinkFaultKind::KillAt { at: cycle(rng) },
                1 => LinkFaultKind::ReviveAt { at: cycle(rng) },
                2 => LinkFaultKind::TransientDrop { rate, window },
                3 => LinkFaultKind::TransientCorrupt { rate, window },
                _ => LinkFaultKind::CreditLoss { rate, window },
            };
            plan.link_faults.push(LinkFault { selector, kind });
        }
        plan
    }

    /// The historical detection schedule: one full-plan timeline scan per
    /// link.
    fn oracle_event_schedule(plan: &FaultPlan, mesh: &Mesh) -> Vec<LinkEvent> {
        let mut schedule = Vec::new();
        for node in mesh.nodes() {
            for dir in mesh.neighbor_dirs(node).collect::<Vec<_>>() {
                for (i, (at, alive)) in plan.link_timeline(mesh, node, dir).into_iter().enumerate()
                {
                    schedule.push(LinkEvent {
                        detect_at: at.saturating_add(plan.detection_delay),
                        node,
                        dir,
                        alive,
                        epoch: (i + 1) as u32,
                    });
                }
            }
        }
        schedule.sort_unstable_by_key(|e| (e.detect_at, e.node.index(), e.dir.index(), e.epoch));
        schedule
    }

    #[test]
    fn fault_index_matches_the_plan_scan() {
        let mut plans = SimRng::seed_from(0xFA17);
        for (w, h) in [(1, 4), (3, 3), (4, 2)] {
            let mesh = Mesh::new(w, h).unwrap();
            for trial in 0..150 {
                let plan = random_plan(&mesh, &mut plans);
                let index = FaultIndex::new(&plan, &mesh);
                assert_eq!(
                    index.event_schedule(plan.detection_delay),
                    oracle_event_schedule(&plan, &mesh),
                    "{w}x{h} #{trial}: {plan:?}"
                );
                let mut fast = SimRng::seed_from(trial);
                let mut slow = fast.clone();
                for node in mesh.nodes() {
                    for dir in mesh.neighbor_dirs(node).collect::<Vec<_>>() {
                        let windows = plan.dead_windows(&mesh, node, dir);
                        for now in (0..220).step_by(5) {
                            let at = (w, h, trial, node, dir, now);
                            assert_eq!(
                                index.flit_fate(node, dir, now, &mut fast),
                                oracle::flit_fate(&plan, &mesh, node, dir, now, &mut slow),
                                "flit {at:?}"
                            );
                            assert_eq!(fast, slow, "rng after flit {at:?}");
                            assert_eq!(
                                index.credit_lost(node, dir, now, &mut fast),
                                oracle::credit_lost(&plan, &mesh, node, dir, now, &mut slow),
                                "credit {at:?}"
                            );
                            assert_eq!(fast, slow, "rng after credit {at:?}");
                            assert_eq!(
                                index.link_dead(node, dir, now),
                                windows
                                    .iter()
                                    .any(|&(kill, revive)| kill <= now && now < revive),
                                "dead {at:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_plan_index_owns_no_heap() {
        let index = FaultIndex::new(&FaultPlan::none(), &mesh3());
        assert_eq!(index.heap_bytes(), 0);
        assert!(index.event_schedule(16).is_empty());
        assert!(!index.link_dead(NodeId::new(0), Direction::East, 5));
    }
}
