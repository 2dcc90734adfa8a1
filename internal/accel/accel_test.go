package accel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewFabricHasBothEngines(t *testing.T) {
	f := NewFabric()
	if !f.HasRegion(RegionRemoteMem) || !f.HasRegion(RegionRPC) {
		t.Fatal("default bitstream missing engines")
	}
	var lut float64
	for _, frac := range f.regions {
		lut += frac
	}
	if math.Abs(lut-0.42) > 1e-9 {
		t.Fatalf("LUT usage = %g, want 0.42 (18%% + 24%%)", lut)
	}
}

func TestProgramRejectsOverBudget(t *testing.T) {
	f := NewFabric()
	err := f.Program(HardConfig{}, map[Region]float64{
		RegionRemoteMem: 0.6, RegionRPC: 0.5,
	})
	if err == nil {
		t.Fatal("110% of LUTs accepted")
	}
	if err := f.Program(HardConfig{}, nil); err == nil {
		t.Fatal("empty bitstream accepted")
	}
	if err := f.Program(HardConfig{}, map[Region]float64{RegionRPC: -0.1}); err == nil {
		t.Fatal("negative area accepted")
	}
}

func TestHardReconfigurationSwapsRegions(t *testing.T) {
	f := NewFabric()
	err := f.Program(HardConfig{TransportUDP, InterfacePCIe}, map[Region]float64{RegionRPC: 0.24})
	if err != nil {
		t.Fatal(err)
	}
	if f.HasRegion(RegionRemoteMem) {
		t.Fatal("stale region survived reprogramming")
	}
	if f.hard.Transport != TransportUDP || f.hard.Interface != InterfacePCIe {
		t.Fatalf("hard config = %+v", f.hard)
	}
	// Remote memory engine absent → model signals "no fast path".
	if f.RemoteMemAccessS(1) != 0 {
		t.Fatal("remote-mem latency nonzero without engine")
	}
}

func TestSoftConfigValidation(t *testing.T) {
	base := DefaultSoftConfig()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SoftConfig{
		{CCIPBatch: 0, TxQueues: 1, RxQueues: 1, QueueDepth: 64, ActiveFlows: 1},
		{CCIPBatch: 65, TxQueues: 1, RxQueues: 1, QueueDepth: 64, ActiveFlows: 1},
		{CCIPBatch: 1, TxQueues: 0, RxQueues: 1, QueueDepth: 64, ActiveFlows: 1},
		{CCIPBatch: 1, TxQueues: 1, RxQueues: 1, QueueDepth: 100, ActiveFlows: 1}, // not pow2
		{CCIPBatch: 1, TxQueues: 1, RxQueues: 1, QueueDepth: 64, ActiveFlows: 0},
		{CCIPBatch: 1, TxQueues: 1, RxQueues: 1, QueueDepth: 64, ActiveFlows: 9999},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d validated: %+v", i, cfg)
		}
	}
}

func TestApplySoftCountsAndRejects(t *testing.T) {
	f := NewFabric()
	cfg := DefaultSoftConfig()
	cfg.CCIPBatch = 16
	if err := f.ApplySoft(cfg); err != nil {
		t.Fatal(err)
	}
	if f.soft.CCIPBatch != 16 {
		t.Fatalf("soft config not applied: %+v", f.soft)
	}
	cfg.QueueDepth = 100
	if err := f.ApplySoft(cfg); err == nil {
		t.Fatal("invalid soft config applied")
	}
	if f.soft.QueueDepth != 1024 {
		t.Fatalf("rejected soft config partly applied: %+v", f.soft)
	}
}

func TestRPCRoundTripCalibration(t *testing.T) {
	f := NewFabric()
	rtt := f.RPCRoundTripS(64)
	if math.Abs(rtt-2.1e-6) > 0.3e-6 {
		t.Fatalf("64B RTT = %g, want ~2.1µs (§4.5)", rtt)
	}
	// Sub-64B clamps to the floor.
	if f.RPCRoundTripS(16) != f.RPCRoundTripS(64) {
		t.Fatal("small messages should hit the latency floor")
	}
	// Larger messages take longer.
	if f.RPCRoundTripS(64<<10) <= rtt {
		t.Fatal("64KB RTT not above 64B RTT")
	}
}

func TestRPCThroughputCalibration(t *testing.T) {
	f := NewFabric()
	// With batching the engine should meet or exceed the paper's
	// 12.4 Mrps/core for 64B RPCs.
	rps := f.RPCThroughputRps(64)
	if rps < 12.4e6 {
		t.Fatalf("64B throughput = %g rps, want >= 12.4M", rps)
	}
	// Without batching, the per-core limit applies exactly.
	cfg := DefaultSoftConfig()
	cfg.CCIPBatch = 1
	f.ApplySoft(cfg)
	if got := f.RPCThroughputRps(64); math.Abs(got-12.4e6) > 1 {
		t.Fatalf("unbatched throughput = %g", got)
	}
	// Large messages become wire-bound.
	if got := f.RPCThroughputRps(1e6); got > 4800+1 {
		t.Fatalf("1MB throughput = %g rps, want wire-bound ~4800", got)
	}
}

func TestPCIeInterfaceSlower(t *testing.T) {
	ccip := NewFabric()
	pcie := NewFabric()
	if err := pcie.Program(HardConfig{TransportTCP, InterfacePCIe}, map[Region]float64{
		RegionRemoteMem: RemoteMemLUTFrac, RegionRPC: RPCLUTFrac,
	}); err != nil {
		t.Fatal(err)
	}
	if pcie.RPCRoundTripS(64) <= ccip.RPCRoundTripS(64) {
		t.Fatal("PCIe RTT should exceed CCI-P/UPI RTT")
	}
	if pcie.RemoteMemAccessS(1) <= ccip.RemoteMemAccessS(1) {
		t.Fatal("PCIe remote-mem access should exceed UPI")
	}
}

func TestUDPTransportFaster(t *testing.T) {
	tcp := NewFabric()
	udp := NewFabric()
	if err := udp.Program(HardConfig{TransportUDP, InterfaceCCIP}, map[Region]float64{RegionRPC: RPCLUTFrac}); err != nil {
		t.Fatal(err)
	}
	if udp.RPCRoundTripS(64) >= tcp.RPCRoundTripS(64) {
		t.Fatal("UDP should be faster than TCP offload")
	}
}

func TestRemoteMemAccessModel(t *testing.T) {
	f := NewFabric()
	small := f.RemoteMemAccessS(0.001)
	big := f.RemoteMemAccessS(100)
	if small <= 0 || big <= small {
		t.Fatalf("remote mem latencies: %g, %g", small, big)
	}
	if f.RemoteMemAccessS(-1) != f.RemoteMemAccessS(0) {
		t.Fatal("negative size not clamped")
	}
	// §4.4 fast path must beat kernel RPC-style milliseconds for small
	// objects by orders of magnitude.
	if small > 100e-6 {
		t.Fatalf("small-object fabric access %g s, want tens of µs", small)
	}
}

// Property: RPC RTT and throughput are monotone in message size
// (latency non-decreasing, throughput non-increasing).
func TestModelMonotonicityProperty(t *testing.T) {
	f := NewFabric()
	prop := func(aRaw, bRaw uint32) bool {
		a, b := float64(aRaw%1000000), float64(bRaw%1000000)
		if a > b {
			a, b = b, a
		}
		return f.RPCRoundTripS(a) <= f.RPCRoundTripS(b)+1e-15 &&
			f.RPCThroughputRps(a) >= f.RPCThroughputRps(b)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApplySoftBeforeProgramFails(t *testing.T) {
	f := &Fabric{}
	if err := f.ApplySoft(DefaultSoftConfig()); err == nil {
		t.Fatal("soft reconfig on unprogrammed fabric succeeded")
	}
}
