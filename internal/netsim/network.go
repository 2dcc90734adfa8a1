package netsim

import (
	"hivemind/internal/sim"
)

// Config captures the testbed's wireless capacity (§2.1) plus the
// acceleration state.
type Config struct {
	// WirelessBps is the aggregate edge<->cloud wireless capacity in
	// bytes/s. The paper's two 867 Mbps routers give ~216.75 MB/s.
	WirelessBps float64

	// RPCAccel enables the FPGA RPC/NIC offload of §4.5: per-message
	// processing drops to accelPerMsgS.
	RPCAccel bool
}

// DefaultConfig returns the testbed calibration.
func DefaultConfig() Config {
	return Config{
		WirelessBps: 216.75e6, // 2 × 867 Mbps in bytes/s
	}
}

// The testbed's fixed network costs (§2.1, §4.5).
const (
	// perDeviceBps caps a single device's radio rate (MU-MIMO
	// per-client share), bytes/s.
	perDeviceBps float64 = 50e6
	// wirelessPropS is the one-way edge<->cloud propagation + MAC delay
	// (WiFi MAC + air).
	wirelessPropS float64 = 0.004

	// Software protocol processing costs (host network stack + RPC
	// marshalling), removed by the FPGA offload:
	procPerMsgS float64 = 0.0012 // socket + RPC marshalling per message, seconds
	procPerMBS  float64 = 0.0004 // copies, checksums: seconds per MB
	// accelPerMsgS is the FPGA pipeline's cost per message.
	accelPerMsgS float64 = 3e-7
)

// Network is the wireless access medium plus protocol processing
// overheads. It reports per-transfer
// breakdowns so experiments can attribute latency to the network stage.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	Wireless *Medium

	hops sim.Slab[hop]
	// Record kinds of a transfer's stages, a = its hop: protocol
	// processing done, last byte off the medium, propagation done.
	processed, moved, arrived uint8
}

// hop is one EdgeToCloud transfer in flight.
type hop struct {
	bytes float64
	kind  uint8 // the record its arrival runs
	a, b  int32
}

// NewNetwork builds the network substrate.
func NewNetwork(eng *sim.Engine, cfg Config) *Network {
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		Wireless: NewMedium(eng, cfg.WirelessBps, perDeviceBps),
	}
	n.processed = eng.Handle(func(i, _ int32) { n.Wireless.Transfer(n.hops.At(i).bytes, n.moved, i, 0) })
	n.moved = eng.Handle(func(i, _ int32) { eng.PostIn(wirelessPropS, n.arrived, i, 0) })
	n.arrived = eng.Handle(func(i, _ int32) {
		h := *n.hops.At(i)
		n.hops.Free(i)
		eng.Fire(h.kind, h.a, h.b)
	})
	return n
}

// ScaleWireless multiplies the wireless capacity (scalability sweeps
// scale links proportionately to swarm size).
func (n *Network) ScaleWireless(factor float64) {
	n.Wireless.SetCapacity(n.cfg.WirelessBps * factor)
}

// procCost returns the protocol-processing time for one message of the
// given size, honouring acceleration.
func (n *Network) procCost(bytes float64) sim.Time {
	if n.cfg.RPCAccel {
		return accelPerMsgS
	}
	return procPerMsgS + procPerMBS*bytes/1e6
}

// EdgeToCloud moves bytes from a device to the cluster (or back — the
// wireless hop is symmetric) and runs record (kind, a, b) inline when
// they arrive (kind 0: nothing). The latency, which the caller reads off
// the clock, is protocol processing at both endpoints, time on the
// shared medium (serialization and congestion) and propagation.
func (n *Network) EdgeToCloud(bytes float64, kind uint8, a, b int32) {
	i, h := n.hops.New()
	h.bytes, h.kind, h.a, h.b = bytes, kind, a, b
	n.eng.PostIn(n.procCost(bytes)*2, n.processed, i, 0) // sender + receiver stacks
}
