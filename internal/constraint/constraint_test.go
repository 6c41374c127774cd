package constraint

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// thesisExample is the exact constraint block from thesis §3.2.
const thesisExample = `<constraint>
  <cpuLoad>load ls 1.0 </cpuLoad>
  <memory>memory gr 3GB</memory>
  <swapmemory>swapmemory gr 5MB </swapmemory>
  <starttime>1000</starttime>
  <endtime>1200</endtime>
</constraint>`

func TestParseThesisExample(t *testing.T) {
	c, err := ParseXML(thesisExample)
	if err != nil {
		t.Fatal(err)
	}
	if c.CPULoad == nil || c.CPULoad.Op != OpLt || c.CPULoad.Value != 1.0 {
		t.Fatalf("cpuLoad = %+v", c.CPULoad)
	}
	if c.Memory == nil || c.Memory.Op != OpGt || c.Memory.Value != float64(3<<30) {
		t.Fatalf("memory = %+v", c.Memory)
	}
	if c.Swap == nil || c.Swap.Op != OpGt || c.Swap.Value != float64(5<<20) {
		t.Fatalf("swap = %+v", c.Swap)
	}
	if c.Start == nil || c.Start.String() != "1000" || c.End == nil || c.End.String() != "1200" {
		t.Fatalf("window = %v %v", c.Start, c.End)
	}
}

func TestParseClauseVariants(t *testing.T) {
	// §3.4.4.2 example uses gt/geq/leq with different units.
	good := map[string]Metric{
		"load gt 0.01":       MetricLoad,
		"load ls 0.05":       MetricLoad,
		"load lt 0.05":       MetricLoad, // alias
		"memory geq 5MB":     MetricMemory,
		"memory eq 5MB":      MetricMemory,
		"swapmemory leq 3KB": MetricSwap,
		"swapmemory gr 1GB":  MetricSwap,
		"netdelay ls 20":     MetricNetDelay,
		"LOAD LS 1.0":        MetricLoad, // case-insensitive keyword/op
		"memory gr 1024":     MetricMemory,
		"memory gr 10b":      MetricMemory,
	}
	for s, m := range good {
		if _, err := ParseClause(m, s); err != nil {
			t.Errorf("ParseClause(%q): %v", s, err)
		}
	}
	bad := []struct {
		m Metric
		s string
	}{
		{MetricLoad, "load ls"},            // missing value
		{MetricLoad, "load frob 1.0"},      // bad op
		{MetricLoad, "memory ls 1.0"},      // wrong keyword for tag
		{MetricLoad, "load ls -1"},         // negative
		{MetricLoad, "load ls one"},        // non-numeric
		{MetricLoad, "load ls NaN"},        // a bound nothing compares to
		{MetricMemory, "memory gr 1e30GB"}, // more bytes than an int64 holds
		{MetricMemory, "memory gr 3QB"},    // bad unit
		{MetricMemory, "memory gr"},        // short
		{MetricLoad, "load ls 1.0 extra"},  // trailing garbage
	}
	for _, c := range bad {
		if _, err := ParseClause(c.m, c.s); err == nil {
			t.Errorf("ParseClause(%q) accepted", c.s)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"3GB":   3 << 30,
		"5MB":   5 << 20,
		"3KB":   3 << 10,
		"10":    10,
		"10B":   10,
		"1.5KB": 1536,
		"2gb":   2 << 30,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "GB", "-1KB", "x", "NaN", "InfKB", "8589934592GB", "9223372036854775808"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestFormatSizeRoundTrip(t *testing.T) {
	f := func(kb uint16) bool {
		b := int64(kb) << 10
		got, err := ParseSize(FormatSize(b))
		return err == nil && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if FormatSize(1000) != "1000B" {
		t.Fatalf("FormatSize(1000) = %q", FormatSize(1000))
	}
}

func TestParseMilitary(t *testing.T) {
	good := map[string]string{"0700": "0700", "700": "0700", "2359": "2359", "1000": "1000"}
	for in, want := range good {
		mt, err := ParseMilitary(in)
		if err != nil || mt.String() != want {
			t.Errorf("ParseMilitary(%q) = %v, %v", in, mt, err)
		}
	}
	for _, bad := range []string{"", "7", "12345", "2400", "1260", "ab00", "-100"} {
		if _, err := ParseMilitary(bad); err == nil {
			t.Errorf("ParseMilitary(%q) accepted", bad)
		}
	}
}

func TestSatisfiedBy(t *testing.T) {
	c, err := ParseXML(thesisExample)
	if err != nil {
		t.Fatal(err)
	}
	ok := Sample{Load: 0.5, MemoryB: 4 << 30, SwapB: 10 << 20}
	if !c.SatisfiedBy(ok) {
		t.Fatal("satisfying sample rejected")
	}
	for name, s := range map[string]Sample{
		"load too high":   {Load: 1.5, MemoryB: 4 << 30, SwapB: 10 << 20},
		"load at bound":   {Load: 1.0, MemoryB: 4 << 30, SwapB: 10 << 20}, // ls is strict
		"memory too low":  {Load: 0.5, MemoryB: 2 << 30, SwapB: 10 << 20},
		"memory at bound": {Load: 0.5, MemoryB: 3 << 30, SwapB: 10 << 20}, // gr is strict
		"swap too low":    {Load: 0.5, MemoryB: 4 << 30, SwapB: 1 << 20},
	} {
		if c.SatisfiedBy(s) {
			t.Errorf("%s: sample %+v accepted", name, s)
		}
	}
	var nilC *Constraint
	if !nilC.SatisfiedBy(Sample{Load: 99}) {
		t.Fatal("nil constraint must accept everything")
	}
}

func TestTimeSatisfied(t *testing.T) {
	c, _ := ParseXML(thesisExample) // window 1000-1200
	at := func(h, m int) time.Time {
		return time.Date(2011, 4, 22, h, m, 0, 0, time.UTC)
	}
	cases := []struct {
		h, m int
		want bool
	}{
		{9, 59, false}, {10, 0, true}, {11, 30, true}, {12, 0, true}, {12, 1, false}, {0, 0, false},
	}
	for _, tc := range cases {
		if got := c.TimeSatisfied(at(tc.h, tc.m)); got != tc.want {
			t.Errorf("TimeSatisfied(%02d:%02d) = %v, want %v", tc.h, tc.m, got, tc.want)
		}
	}
	// Wrap-around window 2200-0600.
	w, err := ParseXML("<constraint><starttime>2200</starttime><endtime>0600</endtime></constraint>")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    int
		want bool
	}{{23, true}, {3, true}, {6, true}, {7, false}, {12, false}, {21, false}} {
		if got := w.TimeSatisfied(at(tc.h, 0)); got != tc.want {
			t.Errorf("wrap TimeSatisfied(%02d:00) = %v, want %v", tc.h, tc.want, got)
		}
	}
	// No window — always satisfied.
	n, _ := ParseXML("<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	if !n.TimeSatisfied(at(3, 0)) {
		t.Fatal("windowless constraint rejected a time")
	}
	var nilC *Constraint
	if !nilC.TimeSatisfied(at(3, 0)) {
		t.Fatal("nil constraint rejected a time")
	}
}

func TestNextWindowChange(t *testing.T) {
	at := func(h, m int) time.Time {
		return time.Date(2011, 4, 22, h, m, 0, 0, time.UTC)
	}
	c, _ := ParseXML(thesisExample) // window 1000-1200
	cases := []struct {
		now  time.Time
		want time.Time
	}{
		{at(9, 0), at(10, 0)},  // before the window: next change is the opening
		{at(10, 0), at(12, 1)}, // inside: next change is the minute after endtime
		{at(11, 59), at(12, 1)},
		{at(13, 0), at(10, 0).Add(24 * time.Hour)}, // after: tomorrow's opening
	}
	for _, tc := range cases {
		if got := c.NextWindowChange(tc.now); !got.Equal(tc.want) {
			t.Errorf("NextWindowChange(%v) = %v, want %v", tc.now, got, tc.want)
		}
	}
	// Wrap-around window 2200-0600: boundaries at 22:00 and 06:01.
	w, _ := ParseXML("<constraint><starttime>2200</starttime><endtime>0600</endtime></constraint>")
	if got := w.NextWindowChange(at(23, 0)); !got.Equal(at(6, 1).Add(24 * time.Hour)) {
		t.Errorf("wrap NextWindowChange(23:00) = %v", got)
	}
	if got := w.NextWindowChange(at(7, 0)); !got.Equal(at(22, 0)) {
		t.Errorf("wrap NextWindowChange(07:00) = %v", got)
	}
	// The boundary itself is strictly after now, never now.
	if got := c.NextWindowChange(at(10, 0)); !got.After(at(10, 0)) {
		t.Error("NextWindowChange returned a non-future instant")
	}
	// No window: zero time, answer never changes.
	n, _ := ParseXML("<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	if !n.NextWindowChange(at(3, 0)).IsZero() {
		t.Error("windowless constraint reported a window change")
	}
	var nilC *Constraint
	if !nilC.NextWindowChange(at(3, 0)).IsZero() {
		t.Error("nil constraint reported a window change")
	}
}

func TestStartWithoutEndRejected(t *testing.T) {
	if _, err := ParseXML("<constraint><starttime>0700</starttime></constraint>"); err == nil {
		t.Fatal("lone starttime accepted")
	}
	if _, err := ParseXML("<constraint><endtime>0700</endtime></constraint>"); err == nil {
		t.Fatal("lone endtime accepted")
	}
}

func TestFromDescription(t *testing.T) {
	desc := "Service to add numbers. " + thesisExample + " Contact admin."
	c, rest, err := FromDescription(desc)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.CPULoad == nil {
		t.Fatalf("constraint not extracted: %+v", c)
	}
	if strings.Contains(rest, "<constraint>") || !strings.Contains(rest, "add numbers") || !strings.Contains(rest, "Contact admin") {
		t.Fatalf("rest = %q", rest)
	}
}

func TestFromDescriptionNoBlock(t *testing.T) {
	c, rest, err := FromDescription("plain description")
	if err != nil || c != nil || rest != "plain description" {
		t.Fatalf("got %+v, %q, %v", c, rest, err)
	}
}

func TestFromDescriptionConstrainAlias(t *testing.T) {
	// RegistryAccess.dtd spells the element <constrain>.
	desc := `<constrain><cpuLoad>load gt 0.01</cpuLoad></constrain>`
	c, rest, err := FromDescription(desc)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.CPULoad == nil || c.CPULoad.Op != OpGt {
		t.Fatalf("alias block not parsed: %+v", c)
	}
	if rest != "" {
		t.Fatalf("rest = %q", rest)
	}
}

func TestFromDescriptionMalformed(t *testing.T) {
	if _, _, err := FromDescription("<constraint><cpuLoad>bogus</cpuLoad></constraint>"); err == nil {
		t.Fatal("malformed clause accepted")
	}
	if _, _, err := FromDescription("<constraint> unterminated"); err == nil {
		t.Fatal("unterminated block accepted")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	c, err := ParseXML(thesisExample)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseXML(c.XML())
	if err != nil {
		t.Fatalf("reparse %q: %v", c.XML(), err)
	}
	if re.CPULoad.Value != c.CPULoad.Value || re.Memory.Value != c.Memory.Value ||
		re.Swap.Value != c.Swap.Value || re.Start.Minutes() != c.Start.Minutes() || re.End.Minutes() != c.End.Minutes() {
		t.Fatalf("round trip mismatch:\n%v\n%v", c, re)
	}
}

func TestIsZeroAndEmptyXML(t *testing.T) {
	var nilC *Constraint
	if !nilC.IsZero() {
		t.Fatal("nil not zero")
	}
	c := &Constraint{}
	if !c.IsZero() || c.XML() != "" {
		t.Fatal("empty constraint should serialize to nothing")
	}
	if c.HasResourceClauses() {
		t.Fatal("empty constraint claims resource clauses")
	}
	c2, _ := ParseXML("<constraint><starttime>0700</starttime><endtime>0800</endtime></constraint>")
	if c2.HasResourceClauses() {
		t.Fatal("time-only constraint claims resource clauses")
	}
	c3, _ := ParseXML("<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>")
	if !c3.HasResourceClauses() {
		t.Fatal("load constraint denies resource clauses")
	}
}

// Property: any combination of parsed predicates round-trips through XML
// and preserves evaluation on random samples.
func TestConstraintEvaluationProperty(t *testing.T) {
	f := func(load8 uint8, memMB uint16, swapMB uint16, sLoad8 uint8, sMemMB uint16, sSwapMB uint16) bool {
		c := &Constraint{
			CPULoad: &Predicate{Metric: MetricLoad, Op: OpLt, Value: float64(load8) / 16},
			Memory:  &Predicate{Metric: MetricMemory, Op: OpGeq, Value: float64(int64(memMB) << 20)},
			Swap:    &Predicate{Metric: MetricSwap, Op: OpGt, Value: float64(int64(swapMB) << 20)},
		}
		s := Sample{Load: float64(sLoad8) / 16, MemoryB: int64(sMemMB) << 20, SwapB: int64(sSwapMB) << 20}
		want := s.Load < c.CPULoad.Value && float64(s.MemoryB) >= c.Memory.Value && float64(s.SwapB) > c.Swap.Value
		if c.SatisfiedBy(s) != want {
			return false
		}
		re, err := ParseXML(c.XML())
		return err == nil && re.SatisfiedBy(s) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpCompareTable(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want bool
	}{
		{OpGt, 2, 1, true}, {OpGt, 1, 1, false},
		{OpGeq, 1, 1, true}, {OpGeq, 0.5, 1, false},
		{OpLt, 0.5, 1, true}, {OpLt, 1, 1, false},
		{OpLeq, 1, 1, true}, {OpLeq, 2, 1, false},
		{OpEq, 1, 1, true}, {OpEq, 1.1, 1, false},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.a, c.b); got != c.want {
			t.Errorf("%v.Compare(%v,%v) = %v", c.op, c.a, c.b, got)
		}
	}
	if Op(99).Compare(1, 1) {
		t.Fatal("invalid op must compare false")
	}
}

func TestMetricAndOpStrings(t *testing.T) {
	if MetricLoad.String() != "load" || MetricSwap.String() != "swapmemory" || MetricNetDelay.String() != "netdelay" {
		t.Fatal("metric strings wrong")
	}
	if OpGt.String() != "gt" || OpLt.String() != "ls" {
		t.Fatal("op strings wrong")
	}
	if !strings.Contains(Metric(42).String(), "42") || !strings.Contains(Op(42).String(), "42") {
		t.Fatal("unknown enum strings wrong")
	}
}
