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
}

// NewNetwork builds the network substrate.
func NewNetwork(eng *sim.Engine, cfg Config) *Network {
	return &Network{
		eng:      eng,
		cfg:      cfg,
		Wireless: NewMedium(eng, cfg.WirelessBps, perDeviceBps),
	}
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
// wireless hop is symmetric). done receives the transfer's latency:
// protocol processing at both endpoints, time on the shared medium
// (serialization and congestion) and propagation.
func (n *Network) EdgeToCloud(bytes float64, done func(totalS sim.Time)) {
	start := n.eng.Now()
	proc := n.procCost(bytes) * 2 // sender + receiver stacks
	n.eng.Defer(proc, func() {
		n.Wireless.Transfer(bytes, func(*Flow) {
			n.eng.Defer(wirelessPropS, func() {
				if done != nil {
					done(n.eng.Now() - start)
				}
			})
		})
	})
}
