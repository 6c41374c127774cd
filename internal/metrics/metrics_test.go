package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almost(s.Mean, 2.5) || !almost(s.Min, 1) || !almost(s.Max, 4) || !almost(s.Sum, 10) {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almost(s.Stddev, math.Sqrt(1.25)) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if !almost(s.Spread(), 3) {
		t.Fatalf("spread = %v", s.Spread())
	}
	if !almost(s.CV(), s.Stddev/2.5) {
		t.Fatalf("cv = %v", s.CV())
	}
}

func TestSummarizeEmptyAndZeroMean(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	s := Summarize([]float64{-1, 1})
	if s.CV() != 0 {
		t.Fatalf("CV with zero mean should be 0, got %v", s.CV())
	}
}

func TestJainFairness(t *testing.T) {
	if f := JainFairness([]float64{5, 5, 5, 5}); !almost(f, 1) {
		t.Fatalf("uniform fairness = %v", f)
	}
	if f := JainFairness([]float64{10, 0, 0, 0}); !almost(f, 0.25) {
		t.Fatalf("single-host fairness = %v, want 0.25", f)
	}
	if f := JainFairness(nil); f != 1 {
		t.Fatalf("empty fairness = %v", f)
	}
	if f := JainFairness([]float64{0, 0}); f != 1 {
		t.Fatalf("all-zero fairness = %v", f)
	}
}

func TestJainFairnessBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Clean NaN/Inf and negatives out: fairness is defined on loads >= 0.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Abs(x))
			}
		}
		if len(clean) == 0 {
			return JainFairness(clean) == 1
		}
		j := JainFairness(clean)
		return j >= 1/float64(len(clean))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if p := Percentile(xs, 0); !almost(p, 1) {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); !almost(p, 4) {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); !almost(p, 2.5) {
		t.Fatalf("p50 = %v", p)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	t0 := time.Date(2011, 4, 22, 0, 0, 0, 0, time.UTC)
	if s.Last() != 0 {
		t.Fatal("empty Last should be 0")
	}
	s.Add(t0, 1.5)
	s.Add(t0.Add(time.Second), 2.5)
	if s.Last() != 2.5 {
		t.Fatalf("Last = %v", s.Last())
	}
	if sum := s.Summary(); sum.N != 2 || !almost(sum.Mean, 2) {
		t.Fatalf("series summary: %+v", sum)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("policy", "fairness", "tasks")
	tb.AddRow("first-uri", 0.25, 1000)
	tb.AddRow("constrained-lb", 0.9876, 1000)
	out := tb.String()
	if !strings.Contains(out, "policy") || !strings.Contains(out, "0.9876") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestSummarizePropertyMeanWithinMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6 && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
