// Package metrics provides the statistics used to evaluate the load
// balancing scheme: per-host load/memory summaries, imbalance measures
// (standard deviation, max/min spread, Jain's fairness index) and time
// series.
//
// The thesis claims that with the scheme in place "the CPU load and system
// memory is uniformly maintained" across hosts (Abstract, §5.1). This
// package quantifies "uniformly maintained" so the experiment harness in
// cmd/lbsim and the benchmarks in bench_test.go can compare the proposed
// scheme against the stock-freebXML baseline.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(s.N))
	return s
}

// Spread returns Max-Min, the thesis's informal notion of "some hosts
// overwhelmed while others starve".
func (s Summary) Spread() float64 { return s.Max - s.Min }

// JainFairness computes Jain's fairness index (sum x)^2 / (n * sum x^2).
// It is 1.0 for a perfectly uniform allocation and 1/n when a single host
// receives everything. An empty or all-zero sample is defined as 1.0
// (nothing is unfair about nothing).
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	// Normalize by the largest magnitude so the squares cannot overflow
	// even for samples near math.MaxFloat64; fairness is scale-invariant.
	var scale float64
	for _, x := range xs {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		v := x / scale
		sum += v
		sumsq += v * v
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Series is an append-only time series of (t, value) samples, used to track
// per-host load over a simulation run.
type Series struct {
	Name   string
	Times  []time.Time
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t time.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Last returns the most recent value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Summary summarizes the series values.
func (s *Series) Summary() Summary { return Summarize(s.Values) }

// Table renders rows of labelled float columns as an aligned text table, the
// format used by cmd/lbsim and EXPERIMENTS.md to report experiment results.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are formatted with %v for non-strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = strconv4(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func strconv4(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
