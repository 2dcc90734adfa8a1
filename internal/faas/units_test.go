package faas

import (
	"testing"
	"time"

	"hivemind/internal/runtime"
)

// The model measures the respawn pause in seconds
// (respawnDelayS), the live gateway in time.Duration
// (runtime.GatewayConfig.RespawnDelay). This calibration test pins the
// two substrates to the same 120 ms default, so neither side can drift
// silently.
func TestRespawnDelayUnitsAgreeAcrossSubstrates(t *testing.T) {
	live := runtime.DefaultGatewayConfig()

	if got := time.Duration(respawnDelayS * float64(time.Second)); got != live.RespawnDelay {
		t.Fatalf("model respawn delay %v != live gateway respawn delay %v", got, live.RespawnDelay)
	}
	if live.RespawnDelay != 120*time.Millisecond {
		t.Fatalf("live respawn delay = %v, want the 120 ms default", live.RespawnDelay)
	}
	if got := live.RespawnDelay.Seconds(); got != respawnDelayS {
		t.Fatalf("live respawn delay converts to %.6fs, model says %.6fs", got, respawnDelayS)
	}
}
