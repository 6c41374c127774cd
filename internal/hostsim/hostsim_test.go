package hostsim

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2011, 4, 22, 10, 0, 0, 0, time.UTC)

func newTestHost(cores int) *Host {
	return NewHost(Config{
		Name: "thermo.sdsu.edu", Cores: cores,
		TotalMemB: 4 << 30, TotalSwapB: 1 << 30,
	}, t0)
}

func TestSingleTaskCompletes(t *testing.T) {
	h := newTestHost(1)
	if err := h.Submit(Task{ID: "t1", CPUSeconds: 10, MemB: 1 << 20}, t0); err != nil {
		t.Fatal(err)
	}
	done := h.AdvanceTo(t0.Add(9 * time.Second))
	if len(done) != 0 {
		t.Fatalf("task finished early: %+v", done)
	}
	done = h.AdvanceTo(t0.Add(11 * time.Second))
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	got := done[0]
	if got.Task.ID != "t1" || got.SwapUsed {
		t.Fatalf("completion = %+v", got)
	}
	wantFinish := t0.Add(10 * time.Second)
	if d := got.Finish.Sub(wantFinish); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("finish = %v, want ~%v", got.Finish, wantFinish)
	}
	if got.Latency() < 9*time.Second {
		t.Fatalf("latency = %v", got.Latency())
	}
}

func TestProcessorSharingSlowsTasks(t *testing.T) {
	// Two 10s tasks on one core must take ~20s each to finish.
	h := newTestHost(1)
	for _, id := range []string{"a", "b"} {
		if err := h.Submit(Task{ID: id, CPUSeconds: 10, MemB: 1}, t0); err != nil {
			t.Fatal(err)
		}
	}
	done := h.AdvanceTo(t0.Add(19 * time.Second))
	if len(done) != 0 {
		t.Fatalf("finished early: %+v", done)
	}
	done = h.AdvanceTo(t0.Add(21 * time.Second))
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
}

func TestMultiCoreRunsInParallel(t *testing.T) {
	// Two 10s tasks on two cores finish in ~10s.
	h := newTestHost(2)
	for _, id := range []string{"a", "b"} {
		if err := h.Submit(Task{ID: id, CPUSeconds: 10, MemB: 1}, t0); err != nil {
			t.Fatal(err)
		}
	}
	done := h.AdvanceTo(t0.Add(10*time.Second + time.Millisecond))
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
}

func TestStaggeredCompletionChangesRate(t *testing.T) {
	// One core. Task a: 10 cpu-s at t=0. Task b: 10 cpu-s at t=10.
	// 0-10s: a alone? No — b arrives at 10; a shares 0-10 alone, so a
	// finishes exactly at 10s; b then runs alone 10-20s.
	h := newTestHost(1)
	if err := h.Submit(Task{ID: "a", CPUSeconds: 10, MemB: 1}, t0); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(Task{ID: "b", CPUSeconds: 10, MemB: 1}, t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	done := h.AdvanceTo(t0.Add(30 * time.Second))
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[0].Task.ID != "a" || done[1].Task.ID != "b" {
		t.Fatalf("order = %s, %s", done[0].Task.ID, done[1].Task.ID)
	}
	bFinish := done[1].Finish
	want := t0.Add(20 * time.Second)
	if d := bFinish.Sub(want); d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("b finish = %v, want ~%v", bFinish, want)
	}
}

func TestLoadAverageRisesAndDecays(t *testing.T) {
	h := newTestHost(1)
	if h.LoadAvg() != 0 {
		t.Fatalf("initial load = %v", h.LoadAvg())
	}
	// Hold run queue at 1 for 3 minutes: load -> ~1.
	if err := h.Submit(Task{ID: "long", CPUSeconds: 180, MemB: 1}, t0); err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(t0.Add(3 * time.Minute))
	if l := h.LoadAvg(); l < 0.9 || l > 1.0 {
		t.Fatalf("load after 3min busy = %v", l)
	}
	// Idle for 3 minutes: load decays toward 0.
	h.AdvanceTo(t0.Add(6 * time.Minute))
	if l := h.LoadAvg(); l > 0.1 {
		t.Fatalf("load after 3min idle = %v", l)
	}
}

func TestAmbientLoad(t *testing.T) {
	h := NewHost(Config{Name: "x", Cores: 4, TotalMemB: 1 << 30, AmbientLoad: 2.5}, t0)
	if l := h.LoadAvg(); l != 2.5 {
		t.Fatalf("ambient start = %v", l)
	}
	h.AdvanceTo(t0.Add(10 * time.Minute))
	if l := h.LoadAvg(); math.Abs(l-2.5) > 0.01 {
		t.Fatalf("ambient steady state = %v", l)
	}
}

func TestMemoryAccountingAndSwapSpill(t *testing.T) {
	h := NewHost(Config{Name: "x", Cores: 8, TotalMemB: 1 << 30, TotalSwapB: 1 << 30}, t0)
	s, err := h.Sample(t0)
	if err != nil || s.MemoryB != 1<<30 || s.SwapB != 1<<30 {
		t.Fatalf("initial sample %+v, %v", s, err)
	}
	// 768MB task fits in RAM.
	if err := h.Submit(Task{ID: "big", CPUSeconds: 100, MemB: 768 << 20}, t0); err != nil {
		t.Fatal(err)
	}
	s, _ = h.Sample(t0)
	if s.MemoryB != (1<<30)-(768<<20) {
		t.Fatalf("avail mem = %d", s.MemoryB)
	}
	// 512MB task spills 256MB to swap.
	if err := h.Submit(Task{ID: "spill", CPUSeconds: 100, MemB: 512 << 20}, t0); err != nil {
		t.Fatal(err)
	}
	s, _ = h.Sample(t0)
	if s.MemoryB != 0 || s.SwapB != (1<<30)-(256<<20) {
		t.Fatalf("after spill: mem=%d swap=%d", s.MemoryB, s.SwapB)
	}
	// A task larger than remaining swap is rejected.
	if err := h.Submit(Task{ID: "oom", CPUSeconds: 1, MemB: 2 << 30}, t0); err == nil {
		t.Fatal("oom task accepted")
	}
	if _, rejected := h.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d", rejected)
	}
	// Completion releases memory from both RAM and swap.
	done := h.AdvanceTo(t0.Add(200 * time.Second))
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	var spill Completed
	for _, d := range done {
		if d.Task.ID == "spill" {
			spill = d
		}
	}
	if !spill.SwapUsed {
		t.Fatal("spill task did not record swap use")
	}
	s, _ = h.Sample(t0.Add(200 * time.Second))
	if s.MemoryB != 1<<30 || s.SwapB != 1<<30 {
		t.Fatalf("memory not released: %+v", s)
	}
}

func TestDownHost(t *testing.T) {
	h := newTestHost(1)
	h.SetDown(true)
	if !h.Down() {
		t.Fatal("Down() = false")
	}
	if err := h.Submit(Task{ID: "t", CPUSeconds: 1, MemB: 1}, t0); err == nil {
		t.Fatal("down host accepted task")
	}
	if _, err := h.Sample(t0); err == nil {
		t.Fatal("down host returned sample")
	}
	h.SetDown(false)
	if err := h.Submit(Task{ID: "t", CPUSeconds: 1, MemB: 1}, t0); err != nil {
		t.Fatal(err)
	}
}

// TestDownFromInstant: a scheduled failure takes effect at its simulated
// instant, whichever call brings the host clock there, and not a
// nanosecond before; tasks already running keep running.
func TestDownFromInstant(t *testing.T) {
	at := t0.Add(time.Minute)
	for name, reach := range map[string]func(*Host, time.Time) error{
		"submit": func(h *Host, now time.Time) error {
			return h.Submit(Task{ID: "late", CPUSeconds: 1, MemB: 1}, now)
		},
		"sample": func(h *Host, now time.Time) error { _, err := h.Sample(now); return err },
		"advance": func(h *Host, now time.Time) error {
			h.AdvanceTo(now)
			if h.Down() {
				return errors.New("down")
			}
			return nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			h := newTestHost(1)
			if err := h.Submit(Task{ID: "long", CPUSeconds: 600, MemB: 1}, t0); err != nil {
				t.Fatal(err)
			}
			h.SetDownFrom(at)
			if err := reach(h, at.Add(-time.Nanosecond)); err != nil {
				t.Fatalf("failed before its instant: %v", err)
			}
			if err := reach(h, at); err == nil {
				t.Fatal("still up at its failure instant")
			}
			if !h.Down() || h.RunQueue() == 0 {
				t.Fatalf("down %v with %d running, want down with the long task still running", h.Down(), h.RunQueue())
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newTestHost(1)
	if err := h.Submit(Task{ID: "zero", CPUSeconds: 0, MemB: 1}, t0); err == nil {
		t.Fatal("zero-cpu task accepted")
	}
}

func TestClusterBasics(t *testing.T) {
	c := NewCluster()
	for _, n := range []string{"b.sdsu.edu", "a.sdsu.edu"} {
		c.Add(NewHost(Config{Name: n, Cores: 1, TotalMemB: 1 << 30}, t0))
	}
	if names := c.Names(); names[0] != "a.sdsu.edu" || names[1] != "b.sdsu.edu" {
		t.Fatalf("Names = %v", names)
	}
	if c.Host("a.sdsu.edu") == nil || c.Host("zzz") != nil {
		t.Fatal("Host lookup broken")
	}
	if err := c.Host("a.sdsu.edu").Submit(Task{ID: "t", CPUSeconds: 5, MemB: 1}, t0); err != nil {
		t.Fatal(err)
	}
	done := c.AdvanceTo(t0.Add(10 * time.Second))
	if len(done["a.sdsu.edu"]) != 1 || len(done["b.sdsu.edu"]) != 0 {
		t.Fatalf("cluster completions = %v", done)
	}
	loads := c.Loads()
	if len(loads) != 2 || loads[0] <= loads[1] {
		t.Fatalf("loads = %v (a should be busier)", loads)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	c.Add(NewHost(Config{Name: "a.sdsu.edu"}, t0))
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	h := newTestHost(1)
	h.AdvanceTo(t0.Add(time.Minute))
	// Going backwards must not panic or move time.
	h.AdvanceTo(t0)
	s, err := h.Sample(t0.Add(time.Minute))
	if err != nil || s.MemoryB != 4<<30 {
		t.Fatalf("sample after no-op: %+v, %v", s, err)
	}
}

func TestNetDelayReported(t *testing.T) {
	h := NewHost(Config{Name: "far", Cores: 1, TotalMemB: 1 << 30, NetDelayMs: 35}, t0)
	s, err := h.Sample(t0)
	if err != nil || s.NetDelayMs != 35 {
		t.Fatalf("netdelay = %+v, %v", s, err)
	}
}
