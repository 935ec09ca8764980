//! Unit tests for the network engine itself, using minimal scripted
//! routers (independent of the real mechanisms in downstream crates).

use crate::config::NetworkConfig;
use crate::flit::{PacketKind, VirtualNetwork};
use crate::geom::{Coord, NodeId};
use crate::network::Network;
use crate::packet::PacketInput;
use crate::testutil::FifoFactory;

fn build(lossy: bool) -> Network {
    Network::new(NetworkConfig::paper_3x3(), &FifoFactory { lossy }, 1).expect("valid")
}

fn offer(net: &mut Network, src: (u16, u16), dest: (u16, u16), len: u16) {
    let mesh = net.mesh().clone();
    let s = mesh.node_at(Coord::new(src.0, src.1)).unwrap();
    let d = mesh.node_at(Coord::new(dest.0, dest.1)).unwrap();
    net.offer_packet(
        s,
        PacketInput {
            dest: d,
            vnet: VirtualNetwork(0),
            len,
            kind: PacketKind::Synthetic,
            tag: 0,
        },
    );
}

#[test]
fn engine_delivers_multi_flit_packet_end_to_end() {
    let mut net = build(false);
    offer(&mut net, (0, 0), (2, 2), 4);
    let mut delivered = Vec::new();
    for _ in 0..100 {
        net.step();
        delivered.extend(net.take_delivered());
    }
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].descriptor.len, 4);
    // 4 hops each for 4 flits.
    assert_eq!(delivered[0].total_hops, 16);
    net.audit().expect("conservation");
    assert!(net.is_drained());
}

#[test]
fn audit_detects_lost_flits() {
    let mut net = build(true); // lossy routers discard everything
    net.disable_conservation_check(); // the loss is the point of this test
    offer(&mut net, (0, 0), (2, 2), 1);
    for _ in 0..30 {
        net.step();
    }
    let err = net.audit().expect_err("lossy router must fail the audit");
    assert!(err.contains("conservation"), "got: {err}");
}

#[test]
fn reset_metrics_rebases_the_audit() {
    let mut net = build(false);
    offer(&mut net, (0, 0), (2, 2), 8);
    // Reset mid-flight: the in-flight flits become the audit baseline.
    for _ in 0..5 {
        net.step();
    }
    net.reset_metrics();
    assert_eq!(net.stats().flits_injected, 0);
    net.audit().expect("baseline absorbs in-flight flits");
    for _ in 0..200 {
        net.step();
        net.take_delivered();
    }
    net.audit().expect("still balanced after delivery");
}

#[test]
fn offer_log_captures_packets_in_order() {
    let mut net = build(false);
    net.enable_offer_recording();
    offer(&mut net, (0, 0), (1, 1), 1);
    net.step();
    offer(&mut net, (2, 2), (0, 0), 2);
    let log = net.take_offer_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].0 <= log[1].0);
    assert_eq!(log[1].2.len, 2);
    // Taking drains but keeps recording.
    offer(&mut net, (1, 0), (0, 0), 1);
    assert_eq!(net.take_offer_log().len(), 1);
}

#[test]
fn total_counters_aggregate_all_routers() {
    let mut net = build(false);
    for _ in 0..10 {
        net.step();
    }
    let totals = net.total_counters();
    assert_eq!(totals.cycles, 10 * 9);
    let one = net.router_counters(NodeId::new(0));
    assert_eq!(one.cycles, 10);
}

#[test]
fn mechanism_metadata_is_exposed() {
    let net = build(false);
    assert_eq!(net.mechanism(), "fifo-test");
    assert_eq!(net.flit_width_bits(), 41);
    assert_eq!(net.buffer_flits_per_port(), 16);
    assert_eq!(net.modes().len(), 9);
}

#[test]
fn watchdog_catches_ancient_flits() {
    // A flit bouncing forever would trip the age watchdog. Simulate by
    // injecting a flit whose `injected_at` lies in the deep past relative
    // to a tiny watchdog bound.
    let config = NetworkConfig {
        max_flit_age: 10,
        ..NetworkConfig::paper_3x3()
    };
    let mut net = Network::new(config, &FifoFactory { lossy: false }, 1).expect("valid");
    offer(&mut net, (0, 0), (2, 2), 1);
    // Advance past the watchdog bound while the flit crosses several links.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for _ in 0..100 {
            net.step();
            net.take_delivered();
        }
    }));
    // With a 10-cycle bound and a 4-hop path (16 cycles), the watchdog
    // must fire.
    assert!(result.is_err(), "watchdog should have panicked");
}

/// Router stalls drive the engine's hold-back path: a flit arriving at a
/// stalled receiver waits at the link's end and enters the router once the
/// stall lifts, queued arrivals drain one per cycle (the link's bandwidth),
/// both conservation audits balance throughout, and a snapshot taken with
/// flits held round-trips byte-stable and resumes identically.
#[test]
fn stalled_receiver_holds_arrivals_and_releases_one_per_cycle() {
    use crate::faults::FaultPlan;
    use crate::geom::Direction;
    use crate::snapshot::{SnapshotReader, SnapshotWriter};

    const STALL_FROM: u64 = 2;
    const STALL_CYCLES: u64 = 10;
    let stalled = NodeId::new(1); // (1, 0): between (0, 0) and (2, 0)
    let build_stalled = || {
        let config = NetworkConfig {
            faults: FaultPlan::none().with_stall(stalled, STALL_FROM, STALL_CYCLES),
            ..NetworkConfig::paper_3x3()
        };
        Network::new(config, &FifoFactory { lossy: false }, 1).expect("valid")
    };
    let hop = NetworkConfig::paper_3x3().link_latency + 2;
    let stall_end = STALL_FROM + STALL_CYCLES;
    let run = |net: &mut Network, cycles: u64| {
        let mut delivered = Vec::new();
        for _ in 0..cycles {
            net.step();
            delivered.extend(net.take_delivered());
            net.audit().expect("flit conservation");
            net.credit_audit().expect("credit conservation");
        }
        delivered
    };

    // One single-flit packet crossing the stalled router: sent at cycle 0,
    // it reaches (1, 0) at `hop` (inside the stall), enters the router at
    // the stall's end and is forwarded that cycle, arriving `hop` later.
    let mut clean = build(false);
    offer(&mut clean, (0, 0), (2, 0), 1);
    let baseline = run(&mut clean, 40);
    assert_eq!(baseline.len(), 1);
    assert_eq!(baseline[0].delivered_at, 2 * hop);
    let mut net = build_stalled();
    offer(&mut net, (0, 0), (2, 0), 1);
    let crossed = run(&mut net, 40);
    assert_eq!(crossed.len(), 1);
    assert!(
        hop >= STALL_FROM && hop < stall_end,
        "arrival must fall in the stall"
    );
    assert_eq!(crossed[0].delivered_at, stall_end + hop);
    assert!(net.is_drained());

    // Four flits into the stalled router: they arrive on cycles hop..hop+4,
    // wait at the link's end, and are ejected one per cycle from the
    // stall's end on.
    let mut net = build_stalled();
    offer(&mut net, (0, 0), (1, 0), 4);
    let link = net.out_chan[0][Direction::East].expect("east link of (0, 0)");
    let mut ejected_at = Vec::new();
    let mut delivered = Vec::new();
    for _ in 0..40 {
        let before = net.router_counters(stalled).ejections;
        delivered.extend(run(&mut net, 1));
        let cycle = net.now() - 1;
        if cycle == hop + 4 {
            assert_eq!(
                net.held[link].len(),
                4,
                "all four flits wait at the link end"
            );
        }
        for _ in before..net.router_counters(stalled).ejections {
            ejected_at.push(cycle);
        }
    }
    assert_eq!(
        ejected_at,
        (stall_end..stall_end + 4).collect::<Vec<_>>(),
        "held flits must drain one per cycle once the stall lifts"
    );
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].delivered_at, stall_end + 3);
    assert_eq!(
        net.credits_pushed, 4,
        "each hop returns one credit upstream"
    );

    // Snapshot mid-stall, with held flits and credits on the wire.
    let save = |net: &Network| {
        let mut w = SnapshotWriter::new();
        net.save_state(&mut w)
            .expect("fifo routers support snapshots");
        w.into_bytes()
    };
    let mut net = build_stalled();
    offer(&mut net, (0, 0), (1, 0), 4);
    offer(&mut net, (0, 0), (2, 0), 2);
    offer(&mut net, (2, 0), (0, 0), 3);
    run(&mut net, hop + 5);
    assert!(
        net.held[link].len() >= 2,
        "snapshot must capture held flits"
    );
    let bytes = save(&net);
    let mut restored = build_stalled();
    let mut r = SnapshotReader::new(&bytes);
    restored.load_state(&mut r).expect("restore");
    r.finish("network").expect("whole payload consumed");
    assert_eq!(
        save(&restored),
        bytes,
        "save -> load -> save must be byte-stable"
    );
    let original_tail = run(&mut net, 40);
    let restored_tail = run(&mut restored, 40);
    assert_eq!(
        format!("{original_tail:?}"),
        format!("{restored_tail:?}"),
        "restored run delivered differently"
    );
    assert_eq!(original_tail.len(), 3);
    assert_eq!(save(&net), save(&restored), "restored run diverged");
    assert!(net.is_drained() && restored.is_drained());
}

/// Hostile snapshots, channel blocks: a container with a valid checksum
/// but one malformed byte inside a channel's rings is refused with
/// `SnapshotError::Malformed`, never a panic or a silently different
/// channel. The test locates the channel block structurally, mutates one
/// field at a time and re-seals the container with a recomputed checksum.
#[test]
fn hostile_channel_blocks_are_refused() {
    use crate::channel::{Credit, Slots, LANE_CAP};
    use crate::flit::{Flit, PacketId};
    use crate::snapshot::{self, SnapshotError, SnapshotWriter};

    // Channel 0 carries one flit (pushed at cycle 0: forward slot L + 2)
    // and one virtual-network credit (reverse slot L).
    let mut net = build(false);
    let latency = net.config().link_latency as usize;
    let flit = Flit::test_flit(PacketId(7), NodeId::new(0), NodeId::new(1));
    let at = Slots::at(0, latency as u64);
    net.channels[0].push_flit(at, flit);
    net.channels[0].push_credit(at, Credit::Vnet(VirtualNetwork(0)));
    let mut w = SnapshotWriter::new();
    net.save_state(&mut w)
        .expect("fifo routers support snapshots");
    let sealed = snapshot::seal(w);

    // Layout of channel 0 (DESIGN.md §11, v4): forward presence bytes in
    // slot order (the flit's bytes follow its presence byte), then per
    // reverse slot a credit count, credits, a control count, controls.
    let mut block = SnapshotWriter::new();
    for ch in &net.channels {
        ch.save(&mut block);
    }
    let block = block.into_bytes();
    let base = sealed
        .windows(block.len())
        .position(|win| win == block.as_slice())
        .expect("channel block present");
    assert!(
        !sealed[base + 1..]
            .windows(block.len())
            .any(|win| win == block.as_slice()),
        "channel block must be unique in the payload"
    );
    let mut one = SnapshotWriter::new();
    snapshot::write_flit(&mut one, &flit);
    let flit_len = one.into_bytes().len();
    let flit_at = base + latency + 2;
    let credit_slot = base + (latency + 3) + flit_len + 2 * latency;
    assert_eq!(sealed[flit_at], 1, "flit presence byte");
    assert_eq!(sealed[credit_slot..credit_slot + 4], [1, 1, 0, 0]);

    let restore = |bytes: &[u8]| {
        let mut fresh = build(false);
        let mut r = snapshot::open(bytes, "<mutated>")?;
        fresh.load_state(&mut r)?;
        r.finish("network")
    };
    let reseal = |offset: usize, value: u8| {
        let mut bytes = sealed.clone();
        bytes[offset] = value;
        let body = bytes.len() - 8;
        let sum = snapshot::fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    };
    assert_eq!(restore(&sealed), Ok(()), "unmutated container restores");
    assert_eq!(restore(&reseal(flit_at, 1)), Ok(()), "re-sealing is exact");
    for (offset, value, what) in [
        (credit_slot, LANE_CAP as u8 + 1, "channel credit count"),
        (credit_slot + 1, 2, "credit tag"),
        (base, 2, "channel flit presence"),
        (flit_at, 2, "channel flit presence"),
        (credit_slot + 2, 200, "credit vnet"),
        (flit_at + 1 + 28, 200, "channel flit vnet"),
    ] {
        assert_eq!(
            restore(&reseal(offset, value)),
            Err(SnapshotError::Malformed { what }),
            "byte {offset} set to {value}"
        );
    }
}
