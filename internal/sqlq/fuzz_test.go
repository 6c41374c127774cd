package sqlq

import (
	"reflect"
	"testing"
)

// FuzzParse: whatever arrives in /registry/query?q= or a SOAP
// AdhocQueryRequest, the lexer and parser return (a hang is the fuzzing
// engine's to report) without panicking, and they are a function of the
// bytes: parsing the same query twice gives equal trees or equal errors,
// never a statement and an error together.
func FuzzParse(f *testing.F) {
	f.Add("SELECT s.id, s.name FROM Service s WHERE s.name LIKE 'Svc-1%' ORDER BY s.name LIMIT 20")
	f.Add("SELECT * FROM Service WHERE name = 'unterminated")
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := Parse(query)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %+v, %v: want exactly one of a statement and an error", query, stmt, err)
		}
		again, errAgain := Parse(query)
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("Parse(%q) twice: %+v, then %+v", query, stmt, again)
		}
		if err != nil && (errAgain == nil || err.Error() != errAgain.Error()) {
			t.Fatalf("Parse(%q) twice: %v, then %v", query, err, errAgain)
		}
	})
}
