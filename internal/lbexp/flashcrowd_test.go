package lbexp

import (
	"testing"

	"repro/internal/admit"
)

// fcTestConfig is the H8 default at a fixed seed; the assertions below
// are the experiment's acceptance contract, so the test runs the real
// configuration rather than a toy one.
func fcTestConfig() FlashCrowdConfig { return DefaultFlashCrowd(42) }

// TestFlashCrowdGoodputAndLatency is the headline overload claim: at a
// 10x offered-load surge the edge sheds instead of collapsing — admitted
// goodput stays at the discovery capacity (8 slots over a 20 ms mean
// service, 400/s), served p99 stays at or under 69 ms, far inside the
// 250 ms deadline, and the uncontended baseline sheds nothing.
func TestFlashCrowdGoodputAndLatency(t *testing.T) {
	baseline, surge, err := FlashCrowd(fcTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Completed == 0 || baseline.Shed != 0 || baseline.Stats.Shed != 0 {
		t.Fatalf("baseline should serve everything: %+v", baseline)
	}
	if surge.Shed == 0 || surge.Dropped == 0 || surge.Stats.Shed == 0 {
		t.Fatalf("10x surge shed nothing, or CoDel dropped nothing: %+v", surge)
	}
	if surge.GoodputPerSec < 399 {
		t.Errorf("surge goodput %.2f/s, want >= 399/s", surge.GoodputPerSec)
	}
	if surge.LatP99 > 0.069 {
		t.Errorf("surge served p99 %.2fms, want <= 69ms", surge.LatP99*1000)
	}
	for _, r := range []FlashCrowdResult{baseline, surge} {
		if r.LatP99 > r.Deadline.Seconds() {
			t.Errorf("%s: p99 %.1fms exceeds the %.0fms class deadline",
				r.Name, r.LatP99*1000, r.Deadline.Seconds()*1000)
		}
	}
}

// TestFlashCrowdBrownoutLadder checks the degradation story: sustained
// surge pressure climbs the ladder to its top rung, the static fallback,
// and the cooldown walks it all the way back to nominal.
func TestFlashCrowdBrownoutLadder(t *testing.T) {
	_, surge, err := FlashCrowd(fcTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if surge.MaxTier != admit.TierStatic {
		t.Errorf("surge escalated to %v, want %v", surge.MaxTier, admit.TierStatic)
	}
	if surge.FinalTier != admit.TierNominal {
		t.Errorf("ladder did not recover after the crowd left: final tier %v", surge.FinalTier)
	}
	if surge.TierChanges < 2 {
		t.Errorf("expected at least one climb and one descent, got %d transitions", surge.TierChanges)
	}
}

// TestFlashCrowdBalance is the P3 fairness story: with sweeps and load
// feedback live, every phase of both runs spreads assignments across all
// hosts, the surge window is the surge run's worst phase (between-sweeps
// herding at 10x arrival rate), and the cooldown recovers from it.
func TestFlashCrowdBalance(t *testing.T) {
	cfg := fcTestConfig()
	baseline, surge, err := FlashCrowd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []FlashCrowdResult{baseline, surge} {
		for p, counts := range r.PhaseAssignments {
			if len(counts) != cfg.Hosts {
				t.Errorf("%s/%s: assignments reached %d of %d hosts: %v",
					r.Name, PhaseNames[p], len(counts), cfg.Hosts, counts)
			}
			if f := r.PhaseFairness[p]; f < 0.8 {
				t.Errorf("%s/%s: fairness %.4f below 0.8", r.Name, PhaseNames[p], f)
			}
		}
	}
	if surge.PhaseFairness[PhaseSurge] >= baseline.PhaseFairness[PhaseSurge] {
		t.Errorf("crowd did not dent surge-window fairness: surge run %.4f, baseline %.4f",
			surge.PhaseFairness[PhaseSurge], baseline.PhaseFairness[PhaseSurge])
	}
	if surge.PhaseFairness[PhaseCooldown] <= surge.PhaseFairness[PhaseSurge] {
		t.Errorf("fairness did not recover in cooldown: surge %.4f, cooldown %.4f",
			surge.PhaseFairness[PhaseSurge], surge.PhaseFairness[PhaseCooldown])
	}
}

// TestFlashCrowdReplayIdentical proves the determinism contract: two
// same-seed surge runs produce byte-identical fingerprints (event-stream
// hash, every counter, the tier history).
func TestFlashCrowdReplayIdentical(t *testing.T) {
	same, err := FlashCrowdReplayIdentical(fcTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("same-seed flash-crowd replays diverged")
	}
}

// TestFlashCrowdSeedSensitivity guards against the fingerprint being a
// constant: different seeds must produce different event streams.
func TestFlashCrowdSeedSensitivity(t *testing.T) {
	a, err := flashRun(DefaultFlashCrowd(1), DefaultFlashCrowd(1).SurgeClients)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flashRun(DefaultFlashCrowd(2), DefaultFlashCrowd(2).SurgeClients)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() == b.fingerprint() {
		t.Fatal("different seeds produced identical fingerprints")
	}
}
