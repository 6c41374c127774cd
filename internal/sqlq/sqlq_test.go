package sqlq

import (
	"strings"
	"testing"
	"testing/quick"
)

func catalog() Catalog {
	return MapCatalog{
		"Service": &MemTable{
			Cols: []string{"id", "name", "description", "status", "bindings"},
			Data: []Row{
				{"id": "urn:uuid:1", "name": "NodeStatus", "description": "monitor", "status": "Approved", "bindings": float64(2)},
				{"id": "urn:uuid:2", "name": "DemoSrv_AddAccessUri", "description": nil, "status": "Submitted", "bindings": float64(1)},
				{"id": "urn:uuid:3", "name": "DemoSrv_DeleteService", "description": "temp", "status": "Deprecated", "bindings": float64(0)},
				{"id": "urn:uuid:4", "name": "Adder", "description": "adds", "status": "Approved", "bindings": float64(3)},
			},
		},
		"NodeState": &MemTable{
			Cols: []string{"host", "load", "memory", "swapmemory"},
			Data: []Row{
				{"host": "thermo.sdsu.edu", "load": 0.25, "memory": float64(4 << 30), "swapmemory": float64(1 << 30)},
				{"host": "exergy.sdsu.edu", "load": 3.5, "memory": float64(2 << 30), "swapmemory": float64(1 << 30)},
			},
		},
	}
}

func mustExec(t *testing.T, q string, params map[string]Value) *ResultSet {
	t.Helper()
	rs, err := Exec(catalog(), q, params)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return rs
}

func TestSelectStar(t *testing.T) {
	rs := mustExec(t, "SELECT * FROM Service", nil)
	if len(rs.Columns) != 5 || len(rs.Rows) != 4 || rs.Total != 4 {
		t.Fatalf("rs = %+v", rs)
	}
}

func TestSelectColumnsWithAlias(t *testing.T) {
	rs := mustExec(t, "SELECT s.id, s.name FROM Service s WHERE s.status = 'Approved'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Columns[0] != "id" || rs.Columns[1] != "name" {
		t.Fatalf("cols = %v", rs.Columns)
	}
}

func TestWhereLike(t *testing.T) {
	rs := mustExec(t, "SELECT name FROM Service WHERE name LIKE 'DemoSrv%'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	rs = mustExec(t, "SELECT name FROM Service WHERE name NOT LIKE 'DemoSrv%'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("not-like rows = %d", len(rs.Rows))
	}
	// LIKE is case-insensitive like the registry's name matching.
	rs = mustExec(t, "SELECT name FROM Service WHERE name LIKE 'demosrv%'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("ci rows = %d", len(rs.Rows))
	}
}

func TestWhereAndOrNotParens(t *testing.T) {
	q := "SELECT name FROM Service WHERE (status = 'Approved' AND bindings > 1) OR name = 'Adder'"
	rs := mustExec(t, q, nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	q = "SELECT name FROM Service WHERE NOT status = 'Approved'"
	rs = mustExec(t, q, nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("not rows = %d", len(rs.Rows))
	}
}

func TestNumericComparisons(t *testing.T) {
	for q, want := range map[string]int{
		"SELECT host FROM NodeState WHERE load < 1.0":          1,
		"SELECT host FROM NodeState WHERE load >= 0.25":        2,
		"SELECT host FROM NodeState WHERE load <> 0.25":        1,
		"SELECT host FROM NodeState WHERE load != 0.25":        1,
		"SELECT host FROM NodeState WHERE memory > 3000000000": 1,
	} {
		if rs := mustExec(t, q, nil); len(rs.Rows) != want {
			t.Errorf("%s -> %d rows, want %d", q, len(rs.Rows), want)
		}
	}
}

func TestInAndIsNull(t *testing.T) {
	rs := mustExec(t, "SELECT name FROM Service WHERE status IN ('Approved', 'Deprecated')", nil)
	if len(rs.Rows) != 3 {
		t.Fatalf("in rows = %d", len(rs.Rows))
	}
	rs = mustExec(t, "SELECT name FROM Service WHERE status NOT IN ('Approved')", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("not-in rows = %d", len(rs.Rows))
	}
	rs = mustExec(t, "SELECT name FROM Service WHERE description IS NULL", nil)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "DemoSrv_AddAccessUri" {
		t.Fatalf("is-null rows = %v", rs.Rows)
	}
	rs = mustExec(t, "SELECT name FROM Service WHERE description IS NOT NULL", nil)
	if len(rs.Rows) != 3 {
		t.Fatalf("is-not-null rows = %d", len(rs.Rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	rs := mustExec(t, "SELECT name FROM Service ORDER BY name", nil)
	if rs.Rows[0][0] != "Adder" || rs.Rows[3][0] != "NodeStatus" {
		t.Fatalf("order = %v", rs.Rows)
	}
	rs = mustExec(t, "SELECT name FROM Service ORDER BY bindings DESC, name ASC", nil)
	if rs.Rows[0][0] != "Adder" {
		t.Fatalf("desc order = %v", rs.Rows)
	}
	rs = mustExec(t, "SELECT name FROM Service ORDER BY name LIMIT 2 OFFSET 1", nil)
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "DemoSrv_AddAccessUri" {
		t.Fatalf("limit/offset = %v", rs.Rows)
	}
	if rs.Total != 4 {
		t.Fatalf("Total = %d, want pre-limit count 4", rs.Total)
	}
	// Offset beyond end yields empty.
	rs = mustExec(t, "SELECT name FROM Service LIMIT 10 OFFSET 99", nil)
	if len(rs.Rows) != 0 {
		t.Fatalf("big offset = %v", rs.Rows)
	}
}

func TestParameters(t *testing.T) {
	rs := mustExec(t, "SELECT name FROM Service WHERE name LIKE $pattern", map[string]Value{"pattern": "Demo%"})
	if len(rs.Rows) != 2 {
		t.Fatalf("param rows = %d", len(rs.Rows))
	}
	rs = mustExec(t, "SELECT host FROM NodeState WHERE load < :maxload", map[string]Value{"maxload": 1.0})
	if len(rs.Rows) != 1 {
		t.Fatalf("colon-param rows = %d", len(rs.Rows))
	}
	if _, err := Exec(catalog(), "SELECT name FROM Service WHERE name = $missing", nil); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound param: %v", err)
	}
}

func TestDistinct(t *testing.T) {
	rs := mustExec(t, "SELECT DISTINCT status FROM Service", nil)
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct rows = %d", len(rs.Rows))
	}
}

func TestStringEscapes(t *testing.T) {
	c := MapCatalog{"T": &MemTable{Cols: []string{"v"}, Data: []Row{{"v": "it's"}}}}
	rs, err := Exec(c, "SELECT v FROM T WHERE v = 'it''s'", nil)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("escaped quote: %v, %v", rs, err)
	}
}

func TestCaseInsensitiveKeywordsAndTable(t *testing.T) {
	rs := mustExec(t, "select name from service where Status = 'Approved' order by NAME desc limit 1", nil)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "NodeStatus" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM Service",
		"SELECT * FROM",
		"SELECT * FROM Service WHERE",
		"SELECT * FROM Service WHERE name",
		"SELECT * FROM Service WHERE name = ",
		"SELECT * FROM Service WHERE name = 'x' garbage",
		"SELECT * FROM Service WHERE name LIKE",
		"SELECT * FROM Service WHERE name IN 'x'",
		"SELECT * FROM Service WHERE name IN ('x'",
		"SELECT * FROM Service LIMIT 'x'",
		"SELECT * FROM Service WHERE name = 'unterminated",
		"SELECT * FROM Service WHERE name = $",
		"SELECT * FROM Service ORDER name",
		"SELECT * FROM Service WHERE name ~ 'x'",
		// One connective over the bound, in each of the three shapes that
		// deepen the tree: unbounded, the first two overflow the parser's
		// stack and the third the evaluator's.
		"SELECT * FROM Service WHERE " + strings.Repeat("(", maxConnectives+1) + "name = 'x'" + strings.Repeat(")", maxConnectives+1),
		"SELECT * FROM Service WHERE " + strings.Repeat("NOT ", maxConnectives+1) + "name = 'x'",
		"SELECT * FROM Service WHERE name = 'x'" + strings.Repeat(" OR name = 'x'", maxConnectives+1),
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
	atTheBound := "SELECT * FROM Service WHERE " + strings.Repeat("NOT ", maxConnectives) + "name = 'x'"
	if _, err := Exec(catalog(), atTheBound, nil); err != nil {
		t.Errorf("a WHERE clause of %d connectives: %v", maxConnectives, err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []string{
		"SELECT * FROM Nonexistent",
		"SELECT nope FROM Service",
		"SELECT x.name FROM Service s", // wrong qualifier
		"SELECT name FROM Service ORDER BY nope",
		"SELECT name FROM Service WHERE nope = 1",
	}
	for _, q := range cases {
		if _, err := Exec(catalog(), q, nil); err == nil {
			t.Errorf("Exec(%q) accepted", q)
		}
	}
}

func TestQualifierMatchesTableNameToo(t *testing.T) {
	rs := mustExec(t, "SELECT Service.name FROM Service WHERE Service.status = 'Approved'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
}

func TestLikeMatchesSQLSemantics(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"NodeStatus", "Node%", true},
		{"NodeStatus", "%status", true},
		{"NodeStatus", "N_deStatus", true},
		{"NodeStatus", "N_eStatus", false},
		{"", "%", true},
		{"x", "", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

// Property: LIMIT/OFFSET slicing never exceeds Total and always returns a
// contiguous window.
func TestLimitOffsetProperty(t *testing.T) {
	f := func(limit, offset uint8) bool {
		rows := make([]Row, 10)
		for i := range rows {
			rows[i] = Row{"n": float64(i)}
		}
		c := MapCatalog{"T": &MemTable{Cols: []string{"n"}, Data: rows}}
		q := "SELECT n FROM T ORDER BY n LIMIT " + itoa(int(limit%12)) + " OFFSET " + itoa(int(offset%12))
		rs, err := Exec(c, q, nil)
		if err != nil {
			return false
		}
		if rs.Total != 10 || len(rs.Rows) > int(limit%12) {
			return false
		}
		for i, r := range rs.Rows {
			if r[0].(float64) != float64(int(offset%12)+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
