// Package accel models HiveMind's reconfigurable FPGA acceleration
// fabric (§4.4–4.5): an Arria 10-class device attached to the host CPU
// over a UPI memory interconnect, statically partitioned between a
// remote-memory access engine (18% of LUTs) and an RPC/NIC offload
// engine (24% of LUTs). The model covers
//
//   - the area budget and bitstream regions,
//   - hard reconfiguration (coarse decisions: CPU-NIC interface
//     protocol, transport layer) which requires reprogramming,
//   - soft reconfiguration (register-file settings: CCI-P batch size,
//     queue provisioning, active RPC flows), and
//   - calibrated performance models: ~2.1 µs round trips and
//     ~12.4 Mrps/core for 64 B RPCs (§4.5), plus remote-memory access
//     latency used for inter-function data sharing (§4.4).
package accel

import (
	"errors"
	"fmt"
)

// Region identifies an acceleration engine on the fabric.
type Region string

const (
	RegionRemoteMem Region = "remote-memory"
	RegionRPC       Region = "rpc-offload"
)

// Paper-reported area shares.
const (
	RemoteMemLUTFrac = 0.18
	RPCLUTFrac       = 0.24
)

// Transport selects the offloaded transport layer (hard reconfig).
type Transport int

const (
	TransportTCP Transport = iota
	TransportUDP
)

// HostInterface selects how the FPGA talks to the host CPU (hard
// reconfig). HiveMind uses the NUMA memory interconnect (CCI-P over
// UPI) rather than PCIe to optimise small RPCs.
type HostInterface int

const (
	InterfaceCCIP HostInterface = iota // UPI memory interconnect
	InterfacePCIe
)

// HardConfig holds the coarse-grained decisions baked into a bitstream.
type HardConfig struct {
	Transport Transport
	Interface HostInterface
}

// SoftConfig holds the register-file settings tunable online, per
// application, through partial reconfiguration (§4.5).
type SoftConfig struct {
	CCIPBatch   int // batch size of CCI-P transfers (1..64)
	TxQueues    int // transmit queue count (1..64)
	RxQueues    int // receive queue count (1..64)
	QueueDepth  int // per-queue entries (64..65536, power of two)
	ActiveFlows int // provisioned concurrent RPC flows (1..4096)
}

// DefaultSoftConfig returns a balanced configuration.
func DefaultSoftConfig() SoftConfig {
	return SoftConfig{CCIPBatch: 8, TxQueues: 8, RxQueues: 8, QueueDepth: 1024, ActiveFlows: 256}
}

// Validate checks register ranges.
func (c SoftConfig) Validate() error {
	switch {
	case c.CCIPBatch < 1 || c.CCIPBatch > 64:
		return fmt.Errorf("accel: CCIPBatch %d out of range [1,64]", c.CCIPBatch)
	case c.TxQueues < 1 || c.TxQueues > 64 || c.RxQueues < 1 || c.RxQueues > 64:
		return fmt.Errorf("accel: queue counts (%d,%d) out of range [1,64]", c.TxQueues, c.RxQueues)
	case c.QueueDepth < 64 || c.QueueDepth > 65536 || c.QueueDepth&(c.QueueDepth-1) != 0:
		return fmt.Errorf("accel: QueueDepth %d must be a power of two in [64,65536]", c.QueueDepth)
	case c.ActiveFlows < 1 || c.ActiveFlows > 4096:
		return fmt.Errorf("accel: ActiveFlows %d out of range [1,4096]", c.ActiveFlows)
	}
	return nil
}

// Fabric is one FPGA's modelled state.
type Fabric struct {
	hard       HardConfig
	soft       SoftConfig
	regions    map[Region]float64 // LUT fraction per active region
	programmed bool
}

// NewFabric programs the default HiveMind partition: remote-memory and
// RPC engines side by side (both fit: 18% + 24% < 100%).
func NewFabric() *Fabric {
	f := &Fabric{soft: DefaultSoftConfig()}
	if err := f.Program(HardConfig{TransportTCP, InterfaceCCIP}, map[Region]float64{
		RegionRemoteMem: RemoteMemLUTFrac,
		RegionRPC:       RPCLUTFrac,
	}); err != nil {
		panic(err)
	}
	return f
}

// Program performs a hard reconfiguration: loads a bitstream with the
// given regions. Fails if the area budget is exceeded or no region is
// requested.
func (f *Fabric) Program(hard HardConfig, regions map[Region]float64) error {
	if len(regions) == 0 {
		return errors.New("accel: bitstream must contain at least one region")
	}
	var total float64
	for r, frac := range regions {
		if frac <= 0 {
			return fmt.Errorf("accel: region %s has non-positive area", r)
		}
		total += frac
	}
	if total > 1.0 {
		return fmt.Errorf("accel: regions need %.0f%% of LUTs (>100%%)", total*100)
	}
	f.hard = hard
	f.regions = make(map[Region]float64, len(regions))
	for r, frac := range regions {
		f.regions[r] = frac
	}
	f.programmed = true
	return nil
}

// ApplySoft performs a soft reconfiguration.
func (f *Fabric) ApplySoft(cfg SoftConfig) error {
	if !f.programmed {
		return errors.New("accel: fabric not programmed")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	f.soft = cfg
	return nil
}

// HasRegion reports whether an engine is present in the bitstream.
func (f *Fabric) HasRegion(r Region) bool {
	_, ok := f.regions[r]
	return ok
}

// Calibration anchors from §4.5.
const (
	rpcRTT64S        = 2.1e-6 // 64B round trip, same ToR
	rpcPeakRpsCore   = 12.4e6 // 64B RPCs per second per CPU core
	fabricWireMBps   = 4800.0 // QSFP line rate payload bandwidth
	remoteMemBaseS   = 25e-6  // §4.4 fabric access setup
	remoteMemMBps    = 9600.0 // UPI-attached transfer bandwidth
	pcieExtraPerMsgS = 0.9e-6 // added per message when using PCIe instead of CCI-P
	udpSavingsFactor = 0.92   // UDP transport shaves connection bookkeeping
)

// RPCRoundTripS returns the modelled accelerated round-trip latency for
// a message of msgBytes between two servers under this configuration.
func (f *Fabric) RPCRoundTripS(msgBytes float64) float64 {
	if !f.HasRegion(RegionRPC) {
		return 0 // engine absent: caller should use the software path
	}
	lat := rpcRTT64S + 2*(msgBytes-64)/1e6/fabricWireMBps
	if msgBytes < 64 {
		lat = rpcRTT64S
	}
	// Batching amortises CCI-P descriptor cost for small messages but
	// adds queueing delay for large batches; net effect modelled as a
	// mild penalty beyond batch 16.
	if f.soft.CCIPBatch > 16 {
		lat *= 1 + 0.02*float64(f.soft.CCIPBatch-16)/16
	}
	if f.hard.Interface == InterfacePCIe {
		lat += 2 * pcieExtraPerMsgS
	}
	if f.hard.Transport == TransportUDP {
		lat *= udpSavingsFactor
	}
	return lat
}

// RPCThroughputRps returns the modelled offloaded throughput for
// msgBytes-sized RPCs driven by one CPU core: ~12.4 Mrps at 64 B,
// line-rate-bound for large messages.
func (f *Fabric) RPCThroughputRps(msgBytes float64) float64 {
	if !f.HasRegion(RegionRPC) {
		return 0
	}
	perMsgCPU := 1.0 / rpcPeakRpsCore
	if f.soft.CCIPBatch > 1 {
		// Descriptor batching reduces per-message CPU involvement.
		perMsgCPU /= 1 + 0.35*float64(min(f.soft.CCIPBatch, 16)-1)/15
	}
	cpuBound := 1.0 / perMsgCPU
	if msgBytes < 1 {
		msgBytes = 1
	}
	wireBound := fabricWireMBps * 1e6 / msgBytes
	if wireBound < cpuBound {
		return wireBound
	}
	return cpuBound
}

// RemoteMemAccessS returns the one-way latency for a remote-memory read
// of the given size through the fabric (§4.4): the child function reads
// its parent's output from a virtualised object location with address
// mapping handled by the FPGA.
func (f *Fabric) RemoteMemAccessS(sizeMB float64) float64 {
	if !f.HasRegion(RegionRemoteMem) {
		return 0
	}
	if sizeMB < 0 {
		sizeMB = 0
	}
	lat := remoteMemBaseS + sizeMB/remoteMemMBps
	if f.hard.Interface == InterfacePCIe {
		lat += pcieExtraPerMsgS * 4 // doorbells + DMA setup both ways
	}
	return lat
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
