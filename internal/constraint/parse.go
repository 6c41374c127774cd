package constraint

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// xmlConstraint mirrors the <constraint> element for decoding. Both the
// thesis's <constraint> spelling (§3.2 examples) and the <constrain>
// spelling from RegistryAccess.dtd are handled by the caller.
type xmlConstraint struct {
	CPULoad  string `xml:"cpuLoad"`
	Memory   string `xml:"memory"`
	Swap     string `xml:"swapmemory"`
	NetDelay string `xml:"netdelay"`
	Start    string `xml:"starttime"`
	End      string `xml:"endtime"`
}

// ParseClause parses one "keyword op value" clause, validating that the
// keyword agrees with the metric the enclosing tag declares.
func ParseClause(metric Metric, s string) (*Predicate, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return nil, fmt.Errorf("constraint: clause %q must be 'keyword op value'", s)
	}
	if got := strings.ToLower(fields[0]); got != metric.String() {
		return nil, fmt.Errorf("constraint: clause %q must start with keyword %q", s, metric)
	}
	op, err := parseOp(fields[1])
	if err != nil {
		return nil, err
	}
	var value float64
	switch metric {
	case MetricMemory, MetricSwap:
		b, err := ParseSize(fields[2])
		if err != nil {
			return nil, err
		}
		value = float64(b)
	default:
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(v >= 0) { // negative, or NaN
			return nil, fmt.Errorf("constraint: bad %s value %q", metric, fields[2])
		}
		value = v
	}
	return &Predicate{Metric: metric, Op: op, Value: value}, nil
}

// ParseXML parses a standalone <constraint>…</constraint> (or <constrain>)
// document.
func ParseXML(doc string) (*Constraint, error) {
	doc = strings.TrimSpace(doc)
	var raw xmlConstraint
	if err := xml.Unmarshal([]byte(doc), &raw); err != nil {
		return nil, fmt.Errorf("constraint: malformed xml: %w", err)
	}
	c := &Constraint{}
	var err error
	if s := strings.TrimSpace(raw.CPULoad); s != "" {
		if c.CPULoad, err = ParseClause(MetricLoad, s); err != nil {
			return nil, err
		}
	}
	if s := strings.TrimSpace(raw.Memory); s != "" {
		if c.Memory, err = ParseClause(MetricMemory, s); err != nil {
			return nil, err
		}
	}
	if s := strings.TrimSpace(raw.Swap); s != "" {
		if c.Swap, err = ParseClause(MetricSwap, s); err != nil {
			return nil, err
		}
	}
	if s := strings.TrimSpace(raw.NetDelay); s != "" {
		if c.NetDelay, err = ParseClause(MetricNetDelay, s); err != nil {
			return nil, err
		}
	}
	if s := strings.TrimSpace(raw.Start); s != "" {
		mt, err := ParseMilitary(s)
		if err != nil {
			return nil, err
		}
		c.Start = &mt
	}
	if s := strings.TrimSpace(raw.End); s != "" {
		mt, err := ParseMilitary(s)
		if err != nil {
			return nil, err
		}
		c.End = &mt
	}
	if c.Start != nil && c.End == nil || c.Start == nil && c.End != nil {
		return nil, fmt.Errorf("constraint: starttime and endtime must be specified together")
	}
	return c, nil
}

// openTags lists the accepted element spellings in search order.
var openTags = []struct{ open, close string }{
	{"<constraint>", "</constraint>"},
	{"<constrain>", "</constrain>"},
}

// FromDescription extracts and parses the constraint block embedded in a
// Service description, as ServiceConstraint does in the modified freebXML
// (Fig. 3.5). It returns:
//
//   - (nil, desc, nil) when the description carries no constraint block —
//     the stock, unconstrained discovery path;
//   - (c, rest, nil) when a well-formed block was found, where rest is the
//     description text with the block removed;
//   - (nil, desc, err) when a block is present but malformed; the thesis's
//     ServiceConstraint treats this as "no valid service constraints" and
//     callers decide whether to surface or swallow err.
func FromDescription(desc string) (*Constraint, string, error) {
	for _, tag := range openTags {
		start := strings.Index(desc, tag.open)
		if start < 0 {
			continue
		}
		end := strings.Index(desc[start:], tag.close)
		if end < 0 {
			return nil, desc, fmt.Errorf("constraint: unterminated %s block", tag.open)
		}
		end += start + len(tag.close)
		block := desc[start:end]
		// Normalize the <constrain> alias so ParseXML sees one spelling.
		if tag.open == "<constrain>" {
			block = "<constraint>" + block[len("<constrain>"):len(block)-len("</constrain>")] + "</constraint>"
		}
		c, err := ParseXML(block)
		if err != nil {
			return nil, desc, err
		}
		rest := strings.TrimSpace(desc[:start] + desc[end:])
		return c, rest, nil
	}
	return nil, desc, nil
}
