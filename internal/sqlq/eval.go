package sqlq

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a cell value: string, float64, bool, or nil (SQL NULL).
type Value interface{}

// Row maps lower-cased column names to values.
type Row map[string]Value

// Table is a readable logical table.
type Table interface {
	// Columns lists the table's column names (canonical casing).
	Columns() []string
	// Rows returns the table's rows. Implementations may build them
	// lazily per call.
	Rows() []Row
}

// Catalog resolves table names (case-insensitively) to tables.
type Catalog interface {
	Table(name string) (Table, error)
}

// ResultSet is a query result.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
	// Total is the number of matching rows before LIMIT/OFFSET — the
	// totalResultsCount of an AdhocQueryResponse's iterative parameters.
	Total int
}

// MemTable is a Table backed by slices, convenient for fixed catalogs and
// tests.
type MemTable struct {
	Cols []string
	Data []Row
}

// Columns implements Table.
func (m *MemTable) Columns() []string { return m.Cols }

// Rows implements Table.
func (m *MemTable) Rows() []Row { return m.Data }

// MapCatalog is a Catalog over a name->Table map.
type MapCatalog map[string]Table

// Table implements Catalog with case-insensitive lookup.
func (c MapCatalog) Table(name string) (Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	for k, t := range c {
		if strings.EqualFold(k, name) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("sqlq: unknown table %q", name)
}

// Exec parses and runs a query against the catalog with the given named
// parameters (may be nil).
func Exec(catalog Catalog, query string, params map[string]Value) (*ResultSet, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Run(catalog, stmt, params)
}

// Run executes a parsed statement.
func Run(catalog Catalog, stmt *SelectStmt, params map[string]Value) (*ResultSet, error) {
	tbl, err := catalog.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	colSet := make(map[string]bool, len(cols))
	for _, c := range cols {
		colSet[strings.ToLower(c)] = true
	}

	resolve := func(ref ColRef) (string, error) {
		if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, stmt.Alias) && !strings.EqualFold(ref.Qualifier, stmt.Table) {
			return "", fmt.Errorf("sqlq: unknown qualifier %q (table alias is %q)", ref.Qualifier, stmt.Alias)
		}
		key := strings.ToLower(ref.Name)
		if !colSet[key] {
			return "", fmt.Errorf("sqlq: table %s has no column %q", stmt.Table, ref.Name)
		}
		return key, nil
	}

	// Resolve the projection.
	var outCols []string
	var outKeys []string
	if stmt.Columns == nil {
		outCols = append(outCols, cols...)
		for _, c := range cols {
			outKeys = append(outKeys, strings.ToLower(c))
		}
	} else {
		for _, ref := range stmt.Columns {
			key, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			outKeys = append(outKeys, key)
			outCols = append(outCols, ref.Name)
		}
	}

	// Filter.
	var matched []Row
	for _, row := range tbl.Rows() {
		if stmt.Where != nil {
			ok, err := evalBool(stmt.Where, row, params, resolve)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		matched = append(matched, row)
	}

	// Order.
	if len(stmt.OrderBy) > 0 {
		keys := make([]string, len(stmt.OrderBy))
		for i, k := range stmt.OrderBy {
			key, err := resolve(k.Col)
			if err != nil {
				return nil, err
			}
			keys[i] = key
		}
		sort.SliceStable(matched, func(i, j int) bool {
			for k, ord := range stmt.OrderBy {
				c := compareValues(matched[i][keys[k]], matched[j][keys[k]])
				if c == 0 {
					continue
				}
				if ord.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// Project (with optional DISTINCT).
	rs := &ResultSet{Columns: outCols}
	seen := make(map[string]bool)
	var projected [][]Value
	for _, row := range matched {
		out := make([]Value, len(outKeys))
		for i, k := range outKeys {
			out[i] = row[k]
		}
		if stmt.Distinct {
			sig := fmt.Sprintf("%v", out)
			if seen[sig] {
				continue
			}
			seen[sig] = true
		}
		projected = append(projected, out)
	}
	rs.Total = len(projected)

	// Slice by OFFSET/LIMIT.
	start := stmt.Offset
	if start > len(projected) {
		start = len(projected)
	}
	end := len(projected)
	if stmt.Limit >= 0 && start+stmt.Limit < end {
		end = start + stmt.Limit
	}
	rs.Rows = projected[start:end]
	return rs, nil
}

type resolver func(ColRef) (string, error)

// evalValue computes a value expression for a row.
func evalValue(e Expr, row Row, params map[string]Value, resolve resolver) (Value, error) {
	switch v := e.(type) {
	case ColRef:
		key, err := resolve(v)
		if err != nil {
			return nil, err
		}
		return row[key], nil
	case Literal:
		switch {
		case v.IsNul:
			return nil, nil
		case v.Str != nil:
			return *v.Str, nil
		case v.Num != nil:
			return *v.Num, nil
		}
		return nil, nil
	case Param:
		val, ok := params[v.Name]
		if !ok {
			return nil, fmt.Errorf("sqlq: unbound parameter $%s", v.Name)
		}
		return val, nil
	default:
		return nil, fmt.Errorf("sqlq: %T is not a value expression", e)
	}
}

// evalBool computes a boolean expression for a row. SQL three-valued logic
// is collapsed: comparisons with NULL are false.
func evalBool(e Expr, row Row, params map[string]Value, resolve resolver) (bool, error) {
	switch v := e.(type) {
	case BinaryExpr:
		l, err := evalBool(v.L, row, params, resolve)
		if err != nil {
			return false, err
		}
		// Short-circuit.
		if v.Op == "AND" && !l {
			return false, nil
		}
		if v.Op == "OR" && l {
			return true, nil
		}
		return evalBool(v.R, row, params, resolve)
	case NotExpr:
		b, err := evalBool(v.E, row, params, resolve)
		return !b, err
	case Comparison:
		l, err := evalValue(v.L, row, params, resolve)
		if err != nil {
			return false, err
		}
		r, err := evalValue(v.R, row, params, resolve)
		if err != nil {
			return false, err
		}
		if l == nil || r == nil {
			return false, nil
		}
		c := compareValues(l, r)
		switch v.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
		return false, fmt.Errorf("sqlq: bad comparison op %q", v.Op)
	case LikeExpr:
		l, err := evalValue(v.Col, row, params, resolve)
		if err != nil {
			return false, err
		}
		p, err := evalValue(v.Pattern, row, params, resolve)
		if err != nil {
			return false, err
		}
		ls, lok := asString(l)
		ps, pok := asString(p)
		if !lok || !pok {
			return false, nil
		}
		return LikeMatch(ls, ps) != v.Negate, nil
	case InExpr:
		l, err := evalValue(v.Col, row, params, resolve)
		if err != nil {
			return false, err
		}
		if l == nil {
			return false, nil
		}
		for _, ve := range v.Values {
			r, err := evalValue(ve, row, params, resolve)
			if err != nil {
				return false, err
			}
			if r != nil && compareValues(l, r) == 0 {
				return !v.Negate, nil
			}
		}
		return v.Negate, nil
	case IsNullExpr:
		l, err := evalValue(v.Col, row, params, resolve)
		if err != nil {
			return false, err
		}
		return (l == nil) != v.Negate, nil
	default:
		return false, fmt.Errorf("sqlq: %T is not a boolean expression", e)
	}
}

// compareValues orders two non-nil values: numbers numerically when both
// coerce, otherwise strings case-insensitively. nil sorts first.
func compareValues(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if fa, ok := asNumber(a); ok {
		if fb, ok := asNumber(b); ok {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		}
	}
	sa, _ := asString(a)
	sb, _ := asString(b)
	return strings.Compare(strings.ToLower(sa), strings.ToLower(sb))
}

func asNumber(v Value) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case bool:
		if n {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func asString(v Value) (string, bool) {
	switch s := v.(type) {
	case string:
		return s, true
	case float64:
		return fmt.Sprintf("%g", s), true
	case int:
		return fmt.Sprintf("%d", s), true
	case int64:
		return fmt.Sprintf("%d", s), true
	case bool:
		return fmt.Sprintf("%t", s), true
	default:
		return "", false
	}
}

// LikeMatch reports whether s matches the SQL LIKE pattern p (% = any run,
// _ = any single character), case-insensitively. It is the registry's one
// LIKE: the SQL and filter query evaluators and the store's name search all
// call it.
func LikeMatch(s, p string) bool {
	s, p = strings.ToLower(s), strings.ToLower(p)
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
