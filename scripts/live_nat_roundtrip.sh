#!/usr/bin/env bash
# UDP round trip through the live NAT, on the README's two-namespace
# topology ("Running the live NAT"): client ns -- cl1/cl0 -- NAT --
# sv0/sv1 -- server ns.
#
#   cargo build --release --example live_nat
#   sudo scripts/live_nat_roundtrip.sh target/release/examples/live_nat
#
# Runs the NAT for 8 s, sends three UDP datagrams from the client to
# 10.99.1.2:9000 and exits non-zero unless the client gets three
# replies and the server saw every datagram arrive from 10.99.1.1 with
# a source port >= 10000 (the NAT's allocated range). Needs root and
# python3; the namespaces and veths are deleted on exit.
set -euo pipefail

BIN=${1:?usage: live_nat_roundtrip.sh <path to live_nat>}
BIN=$(realpath "$BIN")
WORK=$(mktemp -d)
NAT_PID=

cleanup() {
    if [ -n "$NAT_PID" ]; then kill "$NAT_PID" 2>/dev/null || true; wait "$NAT_PID" 2>/dev/null || true; fi
    ip link del cl0 2>/dev/null || true
    ip link del sv0 2>/dev/null || true
    ip netns del client 2>/dev/null || true
    ip netns del server 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

ip netns add client
ip netns add server
ip link add cl0 type veth peer name cl1 netns client
ip link add sv0 type veth peer name sv1 netns server
ip link set cl0 up
ip link set sv0 up
ip netns exec client ip link set cl1 up
ip netns exec client ip addr add 192.168.7.2/24 dev cl1
ip netns exec server ip link set sv1 up
ip netns exec server ip addr add 10.99.1.2/24 dev sv1
ip netns exec client ip route add 10.99.1.0/24 dev cl1
ip netns exec client ip neigh add 10.99.1.2 lladdr ff:ff:ff:ff:ff:ff dev cl1 nud permanent
ip netns exec server ip neigh add 10.99.1.1 lladdr ff:ff:ff:ff:ff:ff dev sv1 nud permanent

"$BIN" cl0 sv0 2 2 8 2>"$WORK/nat.log" &
NAT_PID=$!
sleep 1

cat >"$WORK/server.py" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
s.bind(("10.99.1.2", 9000))
s.settimeout(6)
bad = 0
for _ in range(3):
    data, (ip, port) = s.recvfrom(2048)
    print(f"server: {data!r} from {ip}:{port}")
    if ip != "10.99.1.1" or port < 10000:
        bad += 1
    s.sendto(b"pong", (ip, port))
sys.exit(1 if bad else 0)
EOF
cat >"$WORK/client.py" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
s.settimeout(2)
replies = 0
for i in range(3):
    s.sendto(b"ping %d" % i, ("10.99.1.2", 9000))
    try:
        data, peer = s.recvfrom(2048)
        print(f"client: {data!r} from {peer[0]}:{peer[1]}")
        replies += 1
    except socket.timeout:
        print(f"client: no reply to ping {i}")
print(f"client: {replies}/3 replies")
sys.exit(0 if replies == 3 else 1)
EOF

ip netns exec server python3 "$WORK/server.py" &
SERVER_PID=$!
sleep 0.5
status=0
ip netns exec client python3 "$WORK/client.py" || status=1
wait "$SERVER_PID" || status=1
wait "$NAT_PID" || status=1
NAT_PID=
cat "$WORK/nat.log"
exit "$status"
