package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is a minimal, strict parser for the Prometheus text
// exposition format (version 0.0.4) — metric name / label / value sample
// lines and # HELP / # TYPE headers. It exists so the handler tests can
// verify that /registry/metrics round-trips through an independent reading
// of the format rather than just string-matching the writer's own output.

// ScrapeSample is one parsed sample line.
type ScrapeSample struct {
	Labels map[string]string
	Value  float64
}

// ScrapeFamily is one metric family: its headers plus all samples.
type ScrapeFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ScrapeSample
}

// Scrape is a parsed exposition document.
type Scrape struct {
	// Families maps metric family name to its parsed samples; histogram
	// series (_bucket/_sum/_count) are folded into their base family.
	Families map[string]*ScrapeFamily
	order    []string
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// ParseExposition parses and validates r. It rejects malformed headers,
// sample lines that do not belong to a declared family, unparseable
// values, duplicate (name, labels) samples, and histograms whose buckets
// are not cumulative or whose +Inf bucket disagrees with _count.
func ParseExposition(r io.Reader) (*Scrape, error) {
	s := &Scrape{Families: make(map[string]*ScrapeFamily)}
	seen := make(map[string]bool) // name + rendered labels, for duplicate detection
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(line, "# HELP "):
			err = s.parseHeader(line[len("# HELP "):], "help")
		case strings.HasPrefix(line, "# TYPE "):
			err = s.parseHeader(line[len("# TYPE "):], "type")
		case strings.HasPrefix(line, "#"):
			// Free-form comment: allowed, ignored.
		default:
			err = s.parseSample(line, seen)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	for _, name := range s.order {
		if err := s.validateFamily(s.Families[name]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Scrape) parseHeader(rest, kind string) error {
	name, text, _ := strings.Cut(rest, " ")
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("obs: bad metric name %q in %s header", name, kind)
	}
	f := s.family(name)
	if kind == "help" {
		f.Help = text
		return nil
	}
	if !validTypes[text] {
		return fmt.Errorf("obs: unknown metric type %q for %s", text, name)
	}
	if len(f.Samples) > 0 {
		return fmt.Errorf("obs: TYPE header for %s after its samples", name)
	}
	f.Type = text
	return nil
}

func (s *Scrape) family(name string) *ScrapeFamily {
	if f, ok := s.Families[name]; ok {
		return f
	}
	f := &ScrapeFamily{Name: name}
	s.Families[name] = f
	s.order = append(s.order, name)
	return f
}

// baseFamily resolves a sample name to its declared family, folding
// histogram suffixes onto the base name.
func (s *Scrape) baseFamily(name string) (*ScrapeFamily, error) {
	if f, ok := s.Families[name]; ok && f.Type != "" {
		return f, nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := s.Families[base]; ok && f.Type == "histogram" {
			return f, nil
		}
	}
	return nil, fmt.Errorf("obs: sample %q has no preceding # TYPE header", name)
}

func (s *Scrape) parseSample(line string, seen map[string]bool) error {
	labelPart := ""
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return fmt.Errorf("obs: sample line %q has no value", line)
	}
	name := line[:nameEnd]
	if line[nameEnd] == '{' {
		j := strings.LastIndexByte(line, '}')
		if j < nameEnd {
			return fmt.Errorf("obs: unterminated label set in %q", line)
		}
		labelPart = line[nameEnd+1 : j]
		line = name + line[j+1:]
	}
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("obs: bad metric name %q", name)
	}
	fields := strings.Fields(line[len(name):])
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return fmt.Errorf("obs: sample %q needs a value (and at most a timestamp)", name)
	}
	value, err := parseValue(fields[0])
	if err != nil {
		return fmt.Errorf("obs: sample %s: %w", name, err)
	}
	labels, canonical, err := parseLabels(labelPart)
	if err != nil {
		return fmt.Errorf("obs: sample %s: %w", name, err)
	}
	key := name + "{" + canonical + "}"
	if seen[key] {
		return fmt.Errorf("obs: duplicate sample %s{%s}", name, canonical)
	}
	seen[key] = true
	f, err := s.baseFamily(name)
	if err != nil {
		return err
	}
	labels["__name__"] = name
	f.Samples = append(f.Samples, ScrapeSample{Labels: labels, Value: value})
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad sample value %q", s)
	}
	return v, nil
}

// parseLabels parses `k1="v1",k2="v2"` (with \\, \" and \n escapes in
// values), returning the label map and a canonical sorted rendering for
// duplicate detection.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	rest := strings.TrimSpace(s)
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("obs: label clause %q missing '='", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		if !metricNameRe.MatchString(key) {
			return nil, "", fmt.Errorf("obs: bad label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, "", fmt.Errorf("obs: label %s value is not quoted", key)
		}
		val, remain, err := scanQuoted(rest)
		if err != nil {
			return nil, "", fmt.Errorf("obs: label %s: %w", key, err)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("obs: duplicate label %q", key)
		}
		labels[key] = val
		rest = strings.TrimSpace(remain)
		rest = strings.TrimPrefix(rest, ",")
		rest = strings.TrimSpace(rest)
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	// Canonical form sorts label names so logically equal label sets
	// collide in the duplicate check regardless of emission order.
	sortStrings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return labels, strings.Join(parts, ","), nil
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// scanQuoted consumes a leading quoted string (with escapes) from s and
// returns the unescaped value and the remainder after the closing quote.
func scanQuoted(s string) (val, rest string, err error) {
	var sb strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("obs: dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("obs: unknown escape \\%c", s[i])
			}
		case '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("obs: unterminated quoted value in %q", s)
}

// validateFamily applies per-type checks; histograms must have cumulative
// buckets ending at a +Inf bucket that equals _count.
func (s *Scrape) validateFamily(f *ScrapeFamily) error {
	if f.Type == "" && len(f.Samples) > 0 {
		return fmt.Errorf("obs: family %s has samples but no TYPE", f.Name)
	}
	if f.Type != "histogram" {
		return nil
	}
	var buckets []ScrapeSample
	var count float64
	var haveCount, haveInf bool
	var inf float64
	for _, sm := range f.Samples {
		switch sm.Labels["__name__"] {
		case f.Name + "_bucket":
			le, ok := sm.Labels["le"]
			if !ok {
				return fmt.Errorf("obs: histogram %s bucket without le label", f.Name)
			}
			if le == "+Inf" {
				haveInf, inf = true, sm.Value
			}
			buckets = append(buckets, sm)
		case f.Name + "_count":
			haveCount, count = true, sm.Value
		}
	}
	prev := math.Inf(-1)
	for _, b := range buckets {
		if b.Value < prev {
			return fmt.Errorf("obs: histogram %s buckets are not cumulative", f.Name)
		}
		prev = b.Value
	}
	if !haveInf || !haveCount {
		return fmt.Errorf("obs: histogram %s missing +Inf bucket or _count", f.Name)
	}
	if inf != count {
		return fmt.Errorf("obs: histogram %s +Inf bucket %v != count %v", f.Name, inf, count)
	}
	return nil
}

// Value returns the value of the sample of family name whose labels
// include want (nil matches the unlabelled sample), and whether exactly
// such a sample exists.
func (s *Scrape) Value(name string, want map[string]string) (float64, bool) {
	f, ok := s.Families[name]
	if !ok || f.Type == "" {
		// Histogram series live under their base family.
		f, _ = s.baseFamily(name)
		if f == nil {
			return 0, false
		}
	}
	for _, sm := range f.Samples {
		if sm.Labels["__name__"] != name {
			continue
		}
		match := true
		for k, v := range want {
			if sm.Labels[k] != v {
				match = false
				break
			}
		}
		if match && (want != nil || len(sm.Labels) == 1) {
			return sm.Value, true
		}
	}
	return 0, false
}
