// Package filterq implements the registry's XML Filter Query syntax — the
// second AdhocQuery syntax ebRS defines ("XML Filter Query syntax
// (discouraged, used rarely in freebXML Registry)", thesis §2.2.3). A
// filter query names a target object class and a boolean clause tree:
//
//	<FilterQuery target="Service">
//	  <And>
//	    <Clause leftArgument="name" comparator="LIKE" rightArgument="Demo%"/>
//	    <Not>
//	      <Clause leftArgument="status" comparator="EQ" rightArgument="Deprecated"/>
//	    </Not>
//	  </And>
//	</FilterQuery>
//
// Comparators: EQ, NE, LT, LE, GT, GE, LIKE, NOTLIKE. Right arguments are
// compared numerically when both sides coerce to numbers, otherwise as
// case-insensitive strings. Filter queries run against the same logical
// catalog as SQL queries, so both syntaxes see identical data.
package filterq

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlq"
)

// Query is a parsed filter query.
type Query struct {
	Target string
	Root   *Node // nil means match-all
}

// Node is one element of the clause tree.
type Node struct {
	XMLName  xml.Name
	Left     string `xml:"leftArgument,attr"`
	Comp     string `xml:"comparator,attr"`
	Right    string `xml:"rightArgument,attr"`
	Children []Node `xml:",any"`
}

type xmlQuery struct {
	XMLName  xml.Name `xml:"FilterQuery"`
	Target   string   `xml:"target,attr"`
	Children []Node   `xml:",any"`
}

// Parse decodes a filter query document.
func Parse(doc string) (*Query, error) {
	var xq xmlQuery
	if err := xml.Unmarshal([]byte(doc), &xq); err != nil {
		return nil, fmt.Errorf("filterq: malformed query: %w", err)
	}
	if xq.Target == "" {
		return nil, fmt.Errorf("filterq: missing target attribute")
	}
	q := &Query{Target: xq.Target}
	switch len(xq.Children) {
	case 0:
		// match-all
	case 1:
		q.Root = &xq.Children[0]
	default:
		// Multiple top-level clauses are an implicit And, matching how
		// ebRS composes sibling filters.
		q.Root = &Node{XMLName: xml.Name{Local: "And"}, Children: xq.Children}
	}
	if q.Root != nil {
		if err := validate(q.Root); err != nil {
			return nil, err
		}
	}
	return q, nil
}

func validate(n *Node) error {
	switch n.XMLName.Local {
	case "Clause":
		if n.Left == "" || n.Comp == "" {
			return fmt.Errorf("filterq: Clause needs leftArgument and comparator")
		}
		switch strings.ToUpper(n.Comp) {
		case "EQ", "NE", "LT", "LE", "GT", "GE", "LIKE", "NOTLIKE":
		default:
			return fmt.Errorf("filterq: unknown comparator %q", n.Comp)
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("filterq: Clause cannot have children")
		}
	case "And", "Or":
		if len(n.Children) == 0 {
			return fmt.Errorf("filterq: %s needs at least one child", n.XMLName.Local)
		}
		for i := range n.Children {
			if err := validate(&n.Children[i]); err != nil {
				return err
			}
		}
	case "Not":
		if len(n.Children) != 1 {
			return fmt.Errorf("filterq: Not needs exactly one child")
		}
		return validate(&n.Children[0])
	default:
		return fmt.Errorf("filterq: unknown element <%s>", n.XMLName.Local)
	}
	return nil
}

// Exec parses and runs a filter query against the catalog, returning the
// matching rows of the target table (all columns).
func Exec(catalog sqlq.Catalog, doc string) (*sqlq.ResultSet, error) {
	q, err := Parse(doc)
	if err != nil {
		return nil, err
	}
	return Run(catalog, q)
}

// Run executes a parsed query.
func Run(catalog sqlq.Catalog, q *Query) (*sqlq.ResultSet, error) {
	tbl, err := catalog.Table(q.Target)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	colSet := make(map[string]bool, len(cols))
	for _, c := range cols {
		colSet[strings.ToLower(c)] = true
	}
	rs := &sqlq.ResultSet{Columns: cols}
	for _, row := range tbl.Rows() {
		ok := true
		if q.Root != nil {
			ok, err = eval(q.Root, row, colSet)
			if err != nil {
				return nil, err
			}
		}
		if !ok {
			continue
		}
		out := make([]sqlq.Value, len(cols))
		for i, c := range cols {
			out[i] = row[strings.ToLower(c)]
		}
		rs.Rows = append(rs.Rows, out)
	}
	rs.Total = len(rs.Rows)
	return rs, nil
}

func eval(n *Node, row sqlq.Row, colSet map[string]bool) (bool, error) {
	switch n.XMLName.Local {
	case "And":
		for i := range n.Children {
			ok, err := eval(&n.Children[i], row, colSet)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case "Or":
		for i := range n.Children {
			ok, err := eval(&n.Children[i], row, colSet)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case "Not":
		ok, err := eval(&n.Children[0], row, colSet)
		return !ok, err
	case "Clause":
		key := strings.ToLower(n.Left)
		if !colSet[key] {
			return false, fmt.Errorf("filterq: unknown column %q", n.Left)
		}
		return compare(row[key], strings.ToUpper(n.Comp), n.Right)
	default:
		return false, fmt.Errorf("filterq: unknown element <%s>", n.XMLName.Local)
	}
}

func compare(left sqlq.Value, comp, right string) (bool, error) {
	if left == nil {
		// NULL never satisfies a clause (mirrors SQL three-valued logic
		// collapsed to false).
		return false, nil
	}
	switch comp {
	case "LIKE", "NOTLIKE":
		ls := fmt.Sprintf("%v", left)
		m := sqlq.LikeMatch(ls, right)
		if comp == "NOTLIKE" {
			return !m, nil
		}
		return m, nil
	}
	c := 0
	if ln, ok := toNumber(left); ok {
		if rn, err := strconv.ParseFloat(right, 64); err == nil {
			switch {
			case ln < rn:
				c = -1
			case ln > rn:
				c = 1
			}
			return applyComparator(comp, c)
		}
	}
	ls := strings.ToLower(fmt.Sprintf("%v", left))
	c = strings.Compare(ls, strings.ToLower(right))
	return applyComparator(comp, c)
}

func applyComparator(comp string, c int) (bool, error) {
	switch comp {
	case "EQ":
		return c == 0, nil
	case "NE":
		return c != 0, nil
	case "LT":
		return c < 0, nil
	case "LE":
		return c <= 0, nil
	case "GT":
		return c > 0, nil
	case "GE":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("filterq: unknown comparator %q", comp)
	}
}

func toNumber(v sqlq.Value) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	default:
		return 0, false
	}
}
