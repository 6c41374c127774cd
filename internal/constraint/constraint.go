// Package constraint implements the performance-constraint language of
// thesis §3.2: an XML <constraint> block embedded in a Web Service's
// description that states the conditions a host must satisfy for its access
// URI to be returned at discovery time.
//
// The concrete grammar, reproduced from the thesis:
//
//	<constraint>
//	  <cpuLoad>load ls 1.0</cpuLoad>
//	  <memory>memory gr 3GB</memory>
//	  <swapmemory>swapmemory gr 5MB</swapmemory>
//	  <starttime>1000</starttime>
//	  <endtime>1200</endtime>
//	</constraint>
//
// Clause keywords are load, memory and swapmemory; comparison symbols are
// gt (the thesis also writes gr), geq, ls (also lt), leq and eq
// (Table 3.5); memory sizes use KB, MB and GB; start/end times are in
// military (HHMM) format. The element name <constrain> — the spelling used
// by the thesis's RegistryAccess.dtd — is accepted as an alias. As the
// §5.2 future-work extension, a <netdelay> clause (milliseconds) is also
// supported.
package constraint

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Metric identifies what a predicate constrains.
type Metric int

// Metrics a clause may constrain.
const (
	MetricLoad Metric = iota
	MetricMemory
	MetricSwap
	MetricNetDelay
)

// String returns the clause keyword for the metric.
func (m Metric) String() string {
	switch m {
	case MetricLoad:
		return "load"
	case MetricMemory:
		return "memory"
	case MetricSwap:
		return "swapmemory"
	case MetricNetDelay:
		return "netdelay"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Op is a comparison operator.
type Op int

// Comparison operators (Table 3.5).
const (
	OpGt Op = iota
	OpGeq
	OpLt
	OpLeq
	OpEq
)

// String returns the canonical symbol for the operator.
func (o Op) String() string {
	switch o {
	case OpGt:
		return "gt"
	case OpGeq:
		return "geq"
	case OpLt:
		return "ls"
	case OpLeq:
		return "leq"
	case OpEq:
		return "eq"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Compare applies the operator to (actual, bound).
func (o Op) Compare(actual, bound float64) bool {
	switch o {
	case OpGt:
		return actual > bound
	case OpGeq:
		return actual >= bound
	case OpLt:
		return actual < bound
	case OpLeq:
		return actual <= bound
	case OpEq:
		return actual == bound
	default:
		return false
	}
}

// parseOp maps the thesis's symbols (and their observed variants) to Ops.
func parseOp(s string) (Op, error) {
	switch strings.ToLower(s) {
	case "gt", "gr": // the thesis uses both spellings for greater-than
		return OpGt, nil
	case "geq", "ge":
		return OpGeq, nil
	case "ls", "lt":
		return OpLt, nil
	case "leq", "le":
		return OpLeq, nil
	case "eq":
		return OpEq, nil
	default:
		return 0, fmt.Errorf("constraint: unknown comparison symbol %q", s)
	}
}

// Predicate is a single parsed clause such as "load ls 1.0". Value is in
// canonical units: a load-average ratio for MetricLoad, bytes for
// MetricMemory/MetricSwap, and milliseconds for MetricNetDelay.
type Predicate struct {
	Metric Metric
	Op     Op
	Value  float64
}

// Holds reports whether the predicate is satisfied by the actual value.
func (p Predicate) Holds(actual float64) bool { return p.Op.Compare(actual, p.Value) }

// String renders the clause in the thesis's syntax.
func (p Predicate) String() string {
	switch p.Metric {
	case MetricMemory, MetricSwap:
		return fmt.Sprintf("%s %s %s", p.Metric, p.Op, FormatSize(int64(p.Value)))
	default:
		return fmt.Sprintf("%s %s %g", p.Metric, p.Op, p.Value)
	}
}

// MilitaryTime is an HHMM time-of-day as used by <starttime>/<endtime>.
type MilitaryTime struct {
	Hour, Min int
}

// ParseMilitary parses a 3-4 digit military time such as "0700" or "900".
func ParseMilitary(s string) (MilitaryTime, error) {
	s = strings.TrimSpace(s)
	if len(s) < 3 || len(s) > 4 {
		return MilitaryTime{}, fmt.Errorf("constraint: bad military time %q", s)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return MilitaryTime{}, fmt.Errorf("constraint: bad military time %q", s)
	}
	mt := MilitaryTime{Hour: n / 100, Min: n % 100}
	if mt.Hour > 23 || mt.Min > 59 || n < 0 {
		return MilitaryTime{}, fmt.Errorf("constraint: military time %q out of range", s)
	}
	return mt, nil
}

// Minutes returns the minutes past midnight.
func (m MilitaryTime) Minutes() int { return m.Hour*60 + m.Min }

// String renders HHMM.
func (m MilitaryTime) String() string { return fmt.Sprintf("%02d%02d", m.Hour, m.Min) }

// ParseSize parses a memory quantity with an optional KB/MB/GB suffix
// (case-insensitive; bare numbers and a B suffix are bytes).
func ParseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(upper, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	case strings.HasSuffix(upper, "B"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	// Not NaN, not negative, and small enough for the product to be an int64.
	if err != nil || !(v >= 0 && v*float64(mult) < 1<<63) {
		return 0, fmt.Errorf("constraint: bad memory size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// FormatSize renders bytes with the largest exact KB/MB/GB unit.
func FormatSize(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Constraint is a parsed <constraint> block: up to one predicate per metric
// plus an optional time-of-day availability window.
type Constraint struct {
	CPULoad  *Predicate
	Memory   *Predicate
	Swap     *Predicate
	NetDelay *Predicate
	Start    *MilitaryTime
	End      *MilitaryTime
}

// IsZero reports whether no clause at all was specified.
func (c *Constraint) IsZero() bool {
	return c == nil || (c.CPULoad == nil && c.Memory == nil && c.Swap == nil &&
		c.NetDelay == nil && c.Start == nil && c.End == nil)
}

// HasResourceClauses reports whether any load/memory/swap/netdelay clause
// is present (i.e. the NodeState table must be consulted).
func (c *Constraint) HasResourceClauses() bool {
	return c != nil && (c.CPULoad != nil || c.Memory != nil || c.Swap != nil || c.NetDelay != nil)
}

// Sample is the host measurement a constraint is evaluated against — the
// values a NodeStatus invocation returns (plus the netdelay extension).
type Sample struct {
	Load       float64
	MemoryB    int64
	SwapB      int64
	NetDelayMs float64
}

// SatisfiedBy reports whether every resource clause holds for the sample.
// Time-window clauses are evaluated separately with TimeSatisfied, exactly
// as the thesis's ServiceConstraint class validates the window at request
// time before LoadStatus consults the NodeState table.
func (c *Constraint) SatisfiedBy(s Sample) bool {
	if c == nil {
		return true
	}
	if c.CPULoad != nil && !c.CPULoad.Holds(s.Load) {
		return false
	}
	if c.Memory != nil && !c.Memory.Holds(float64(s.MemoryB)) {
		return false
	}
	if c.Swap != nil && !c.Swap.Holds(float64(s.SwapB)) {
		return false
	}
	if c.NetDelay != nil && !c.NetDelay.Holds(s.NetDelayMs) {
		return false
	}
	return true
}

// TimeSatisfied reports whether now's time-of-day falls inside the
// [starttime, endtime] window. A missing window is always satisfied; a
// window that wraps midnight (e.g. 2200–0600) is honoured.
func (c *Constraint) TimeSatisfied(now time.Time) bool {
	if c == nil || (c.Start == nil && c.End == nil) {
		return true
	}
	minutes := now.Hour()*60 + now.Minute()
	start, end := 0, 24*60-1
	if c.Start != nil {
		start = c.Start.Minutes()
	}
	if c.End != nil {
		end = c.End.Minutes()
	}
	if start <= end {
		return minutes >= start && minutes <= end
	}
	// Window wraps midnight.
	return minutes >= start || minutes <= end
}

// NextWindowChange returns the next instant strictly after now at which
// TimeSatisfied's answer could flip: the window's daily opening minute
// (Start) or the minute after its daily closing minute (End), whichever
// comes first. A constraint without a time window returns the zero time,
// meaning the answer never changes. TimeSatisfied truncates to whole
// minutes, so boundaries land on minute granularity; callers using the
// result as a cache expiry get a conservative (never-late) bound.
func (c *Constraint) NextWindowChange(now time.Time) time.Time {
	if c == nil || (c.Start == nil && c.End == nil) {
		return time.Time{}
	}
	start, end := 0, 24*60-1
	if c.Start != nil {
		start = c.Start.Minutes()
	}
	if c.End != nil {
		end = c.End.Minutes()
	}
	open := nextDailyMinute(now, start)
	close := nextDailyMinute(now, (end+1)%(24*60))
	if open.Before(close) {
		return open
	}
	return close
}

// nextDailyMinute returns the first instant strictly after now whose
// time-of-day equals the given minutes past midnight, in now's location.
func nextDailyMinute(now time.Time, minutes int) time.Time {
	day := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location())
	t := day.Add(time.Duration(minutes) * time.Minute)
	if !t.After(now) {
		t = t.Add(24 * time.Hour)
	}
	return t
}

// String renders the constraint in the thesis's XML syntax.
func (c *Constraint) String() string { return c.XML() }

// XML serializes the constraint back to its <constraint> block; a zero
// constraint yields "".
func (c *Constraint) XML() string {
	if c.IsZero() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("<constraint>")
	if c.CPULoad != nil {
		fmt.Fprintf(&sb, "<cpuLoad>%s</cpuLoad>", c.CPULoad)
	}
	if c.Memory != nil {
		fmt.Fprintf(&sb, "<memory>%s</memory>", c.Memory)
	}
	if c.Swap != nil {
		fmt.Fprintf(&sb, "<swapmemory>%s</swapmemory>", c.Swap)
	}
	if c.NetDelay != nil {
		fmt.Fprintf(&sb, "<netdelay>%s</netdelay>", c.NetDelay)
	}
	if c.Start != nil {
		fmt.Fprintf(&sb, "<starttime>%s</starttime>", c.Start)
	}
	if c.End != nil {
		fmt.Fprintf(&sb, "<endtime>%s</endtime>", c.End)
	}
	sb.WriteString("</constraint>")
	return sb.String()
}
