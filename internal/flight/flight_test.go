package flight

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

func manualClock() *simclock.Manual {
	return simclock.NewManual(time.Date(2011, 4, 22, 9, 0, 0, 0, time.UTC))
}

// offer runs one request's worth of sampling: borrow a frame, offer it,
// return the id it was given ("" when not picked).
func offer(s *Sampler) string {
	fw := GetWriter(nil)
	defer PutWriter(fw)
	s.Sample(fw)
	return fw.Rec.Trace
}

func TestSamplerDisabledByDefault(t *testing.T) {
	s := NewSampler(manualClock(), 0)
	for i := 0; i < 10; i++ {
		if id := offer(s); id != "" {
			t.Fatalf("sampler at rate 0 picked a request (id %s)", id)
		}
	}
	if s.Every() != 0 || s.Sampled() != 0 {
		t.Fatalf("Every=%d Sampled=%d, want 0 and 0", s.Every(), s.Sampled())
	}
}

func TestSamplerEveryNth(t *testing.T) {
	s := NewSampler(manualClock(), 3)
	var got int
	for i := 0; i < 9; i++ {
		if offer(s) != "" {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("rate 3 over 9 requests picked %d, want 3", got)
	}
	if s.Sampled() != 3 {
		t.Fatalf("Sampled = %d, want 3", s.Sampled())
	}
	if off := NewSampler(manualClock(), -1); off.Every() != 0 || offer(off) != "" {
		t.Fatal("a negative rate must read as off")
	}
}

func TestSamplerIDsUnique(t *testing.T) {
	s := NewSampler(manualClock(), 1)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := offer(s)
		if id == "" || seen[id] {
			t.Fatalf("request %d got id %q (duplicate or empty)", i, id)
		}
		seen[id] = true
	}
}

// TestSamplerConcurrent samples, times, appends and reads back from many
// goroutines at once. Each picked request writes its own pick ordinal into
// all five stages, so a reader that saw a slot half-overwritten would find
// stages that disagree with each other or with the id.
func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(simclock.Real{}, 2)
	ring := NewRing(16) // small: slots are reused while readers walk them
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fw := GetWriter(nil)
				if s.Sample(fw) {
					ordinal, _ := strconv.ParseInt(fw.Rec.Trace[9:], 16, 64) // "<epoch>-<ordinal>"
					for st := range fw.Rec.Stages {
						fw.Rec.Stages[st] = time.Duration(ordinal)
					}
				}
				ring.Append(&fw.Rec)
				PutWriter(fw)
				for _, rec := range ring.Snapshot(Filter{Traced: true, Limit: 4}) {
					torn := rec.Trace[9:] != fmt.Sprintf("%06x", int64(rec.Stages[0]))
					for _, d := range rec.Stages {
						torn = torn || d != rec.Stages[0]
					}
					if torn {
						t.Errorf("torn sampled record: trace %s stages %v", rec.Trace, rec.Stages)
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Sampled() != 800 {
		t.Fatalf("Sampled = %d, want 800", s.Sampled())
	}
}

func TestStageTimerNilSafety(t *testing.T) {
	var st *StageTimer
	begin := st.Begin()
	if !begin.IsZero() {
		t.Fatalf("nil Begin = %v, want the zero time", begin)
	}
	st.End(StageArrange, begin) // must not panic
}

func TestTimerFromContext(t *testing.T) {
	ctx := context.Background()
	if st := TimerFrom(ctx); st != nil {
		t.Fatalf("empty context timer = %v", st)
	}
	fw := GetWriter(nil)
	defer PutWriter(fw)
	ctx = WithFrame(ctx, fw)
	if st := TimerFrom(ctx); st != nil {
		t.Fatal("an unsampled frame must hand out a nil timer")
	}
	NewSampler(manualClock(), 1).Sample(fw)
	if st := TimerFrom(ctx); st == nil {
		t.Fatal("a sampled frame must hand out its timer")
	}
}

// TestSampledRecordRoundTrip drives one sampled request the way the edge
// does — sample, time each stage through the context, append — and reads
// the five stage times back through the ring, its filters and the export.
func TestSampledRecordRoundTrip(t *testing.T) {
	clk := manualClock()
	s := NewSampler(clk, 1)
	ring := NewRing(8)

	ring.Append(&Record{Route: RouteBindings}) // an unsampled neighbour

	fw := GetWriter(nil)
	if !s.Sample(fw) {
		t.Fatal("rate 1 did not pick the request")
	}
	id := fw.Rec.Trace
	st := TimerFrom(WithFrame(context.Background(), fw))
	var want [NumStages]time.Duration
	for stage := 0; stage < NumStages; stage++ {
		want[stage] = time.Duration(stage+1) * 10 * time.Microsecond
		begin := st.Begin()
		clk.Advance(want[stage])
		st.End(stage, begin)
		clk.Advance(time.Microsecond) // time between stages belongs to none
	}
	// A stage entered twice accumulates.
	begin := st.Begin()
	clk.Advance(5 * time.Microsecond)
	st.End(StageView, begin)
	want[StageView] += 5 * time.Microsecond
	ring.Append(&fw.Rec)
	PutWriter(fw)

	traced := ring.Snapshot(Filter{Traced: true})
	if len(traced) != 1 || traced[0].Trace != id || traced[0].Stages != want {
		t.Fatalf("traced records = %+v, want one with id %s and stages %v", traced, id, want)
	}
	if got := ring.Snapshot(Filter{Trace: id}); len(got) != 1 || got[0].Seq != traced[0].Seq {
		t.Fatalf("lookup by id = %+v", got)
	}
	if got := ring.Snapshot(Filter{Trace: "deadbeef-000000"}); len(got) != 0 {
		t.Fatalf("lookup of an unknown id = %+v", got)
	}
	all := ring.Snapshot(Filter{})
	if len(all) != 2 || all[1].Trace != "" || all[1].Stages != ([NumStages]time.Duration{}) {
		t.Fatalf("unsampled neighbour picked up trace state: %+v", all)
	}

	exp := traced[0].Export()
	if exp.Trace != id || len(exp.Stages) != NumStages {
		t.Fatalf("export = %+v", exp)
	}
	for i, se := range exp.Stages {
		if se.Name != StageNames[i] || se.Seconds != want[i].Seconds() {
			t.Errorf("export stage %d = %+v, want %s %v", i, se, StageNames[i], want[i].Seconds())
		}
	}
	if exp := all[1].Export(); exp.Stages != nil {
		t.Fatalf("unsampled export carries stages: %+v", exp.Stages)
	}
}

// TestFlightRingWraparound overflows a deliberately tiny ring and checks
// the ring keeps exactly the newest records, newest first.
func TestFlightRingWraparound(t *testing.T) {
	ring := NewRing(8)
	const appends = 20
	for i := 0; i < appends; i++ {
		ring.Append(&Record{Route: RouteBindings})
	}
	if ring.Len() != 8 || ring.Written() != appends {
		t.Fatalf("Len = %d, Written = %d, want 8 and %d", ring.Len(), ring.Written(), appends)
	}
	recs := ring.Snapshot(Filter{Limit: 100})
	if len(recs) != 8 {
		t.Fatalf("snapshot has %d records, want 8 after wraparound", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(appends - i); rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d (newest first)", i, rec.Seq, want)
		}
	}
}

// TestUnsampledAppendAllocs pins the design constraint the stage array
// must not break: a record without a trace id costs no allocation, sampler
// consulted or not.
func TestUnsampledAppendAllocs(t *testing.T) {
	ring := NewRing(64)
	off, skipping := NewSampler(simclock.Real{}, 0), NewSampler(simclock.Real{}, 1<<30)
	fw := GetWriter(nil)
	defer PutWriter(fw)
	skipping.Sample(fw) // the first request offered is the one picked
	rec := Record{Route: RouteBindings, CacheHit: true, Host: "h00.sdsu.edu"}
	if n := testing.AllocsPerRun(1000, func() {
		fw.Rec = rec
		off.Sample(fw)
		skipping.Sample(fw)
		ring.Append(&fw.Rec)
	}); n != 0 {
		t.Fatalf("unsampled request allocates %v times, want 0", n)
	}
}
