package experiments

import "testing"

// TestDriftGates: the DRIFT experiment is self-gating (it returns an
// error when a boundary is missed, a stationary window is flagged, or
// the control drifts), so the test only needs to run it and inspect the
// headline shape.
func TestDriftGates(t *testing.T) {
	res, err := Quick().RunDrift()
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 4*driftWindowsPerPhase {
		t.Errorf("windows = %d, want %d", res.Windows, 4*driftWindowsPerPhase)
	}
	if len(res.Boundaries) != 3 || len(res.Missed) != 0 || len(res.Spurious) != 0 || res.ControlFlags != 0 {
		t.Errorf("gates: boundaries=%v missed=%v spurious=%v controlFlags=%d",
			res.Boundaries, res.Missed, res.Spurious, res.ControlFlags)
	}
	// Every boundary has at least one flag, so flags are not fewer than
	// boundaries.
	if len(res.Flagged) < len(res.Boundaries) {
		t.Errorf("flagged %v, want at least one per boundary %v", res.Flagged, res.Boundaries)
	}
}
