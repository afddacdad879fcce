//! Environment-consistency test: the same verified loop body runs in
//! two different concrete environments — the field-level `SimpleEnv`
//! (vignat's test harness) and the byte-level `FrameEnv` (netsim's
//! datapath). On identical workloads their *decisions* must agree
//! packet for packet: same forward/drop verdicts, same egress
//! interfaces, same rewritten tuples, same flow-table evolution.
//!
//! This pins the claim that the env abstraction does not change
//! behaviour — i.e. that what the validator verifies (over a third,
//! symbolic env) is what the datapath does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig, SimpleEnv};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, FlowFields, Ip4, Proto};
use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};
use vignat_repro::spec::Output;

const EXT_IP: Ip4 = Ip4::new(203, 0, 113, 1);

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 16,
        expiry_ns: Time::from_secs(3).nanos(),
        external_ip: EXT_IP,
        start_port: 7000,
        ..NatConfig::paper_default()
    }
}

#[test]
fn simple_env_and_frame_env_agree_packet_for_packet() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut field_env = SimpleEnv::new(cfg());
    let mut byte_env = VigNatMb::new(cfg());
    let mut now = Time::from_secs(1);

    for step in 0..2_000 {
        now = now.plus(rng.gen_range(1_000_000..800_000_000));
        let proto = if rng.gen_bool(0.5) {
            Proto::Tcp
        } else {
            Proto::Udp
        };
        let (dir, fields) = if rng.gen_bool(0.65) {
            (
                Direction::Internal,
                FlowFields {
                    src_ip: Ip4::new(172, 16, 0, rng.gen_range(1..8)),
                    src_port: 20_000 + rng.gen_range(0..4u16),
                    dst_ip: Ip4::new(1, 1, 1, 1),
                    dst_port: 443,
                    proto,
                },
            )
        } else {
            (
                Direction::External,
                FlowFields {
                    src_ip: Ip4::new(1, 1, 1, 1),
                    src_port: 443,
                    dst_ip: EXT_IP,
                    dst_port: 7000 + rng.gen_range(0..20u16),
                    proto,
                },
            )
        };

        // Field-level run.
        let field_out = field_env.step(dir, fields, now);

        // Byte-level run on a real frame.
        let mut frame = match proto {
            Proto::Tcp => PacketBuilder::tcp(
                fields.src_ip,
                fields.dst_ip,
                fields.src_port,
                fields.dst_port,
            ),
            Proto::Udp => PacketBuilder::udp(
                fields.src_ip,
                fields.dst_ip,
                fields.src_port,
                fields.dst_port,
            ),
        }
        .build();
        let byte_out = match byte_env.process(dir, &mut frame, now) {
            Verdict::Drop => Output::Drop,
            Verdict::Forward(out) => {
                let (_, ff) = parse_l3l4(&frame).expect("forwarded frame parses");
                Output::Forward {
                    iface: out,
                    fields: ff,
                }
            }
        };

        assert_eq!(
            field_out, byte_out,
            "environments diverged at step {step} (dir {dir:?}, fields {fields:?})"
        );
        assert_eq!(
            field_env.flow_manager().flow_count(),
            byte_env.occupancy(),
            "flow-table occupancy diverged at step {step}"
        );
    }
    assert!(byte_env.occupancy() > 0, "workload must have created flows");
    assert!(
        byte_env.expired_total() > 0,
        "workload must have exercised expiry"
    );
}
