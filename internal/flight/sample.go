// sample.go is the traced half of the flight record: a sampler that picks
// every Nth request and names it, and the stage timer a picked request
// carries down the discovery path so its record says where the time went.
package flight

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Stage indexes Record.Stages: the steps of one discovery, in the order
// the request passes through them.
const (
	StageView       = iota // store lookup of the service's discovery view
	StageConstraint        // constraint cache lookup or parse
	StageSnapshot          // NodeState snapshot load
	StageEvaluate          // per-host constraint evaluation
	StageArrange           // policy ordering, fallback, degradation
	NumStages
)

// StageNames names the stages on /registry/traces and in the bundle.
var StageNames = [NumStages]string{"view", "constraint", "snapshot", "evaluate", "arrange"}

// StageTimer accumulates a sampled request's stage times into its frame's
// record. A nil *StageTimer is the unsampled request: Begin and End do
// nothing, so the discovery path threads the pointer unconditionally and
// pays two nil checks per stage.
type StageTimer struct {
	clock simclock.Clock
	into  *[NumStages]time.Duration
}

// Begin returns the instant a stage starts, for End.
func (t *StageTimer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// End adds the time since begin to the stage.
func (t *StageTimer) End(stage int, begin time.Time) {
	if t == nil {
		return
	}
	t.into[stage] += t.clock.Now().Sub(begin)
}

// Sampler picks every Nth request offered to it and mints the picked
// request's trace id ("<epoch>-<seq>", hex). Rate 0, the default, picks
// nothing. Safe for concurrent use.
type Sampler struct {
	clock simclock.Clock
	epoch uint32 // hash of construction time, distinguishes restarts

	every uint64        // pick every Nth request; 0 = off
	reqs  atomic.Uint64 // requests offered while sampling was on
	seq   atomic.Uint64 // requests picked
}

// NewSampler creates a sampler picking every nth request: n <= 0 picks
// none, n == 1 every request. Stage times of picked requests are read off
// clock.
func NewSampler(clock simclock.Clock, n int) *Sampler {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d", clock.Now().UnixNano())
	s := &Sampler{clock: clock, epoch: h.Sum32()}
	if n > 0 {
		s.every = uint64(n)
	}
	return s
}

// Every returns the sampling rate (0 = off).
func (s *Sampler) Every() int { return int(s.every) }

// Sampled returns the number of requests picked so far.
func (s *Sampler) Sampled() int64 { return int64(s.seq.Load()) }

// Sample offers fw's request to the sampler. When it is picked, the frame's
// record gets a trace id and TimerFrom starts handing out the frame's
// timer; otherwise the frame is left alone. It reports whether the request
// was picked.
func (s *Sampler) Sample(fw *Writer) bool {
	n := s.every
	if n == 0 {
		return false
	}
	if req := s.reqs.Add(1); n > 1 && (req-1)%n != 0 {
		return false
	}
	s.pick(fw)
	return true
}

// pick names the request and arms its stage timer.
func (s *Sampler) pick(fw *Writer) {
	fw.Rec.Trace = fmt.Sprintf("%08x-%06x", s.epoch, s.seq.Add(1))
	fw.timer = StageTimer{clock: s.clock, into: &fw.Rec.Stages}
}
