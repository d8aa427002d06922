package qdl

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzQDLParse drives the application parser with arbitrary source text.
// Parsing must never panic and must be deterministic: a second parse of the
// same input yields the same error message or an identical Application.
func FuzzQDLParse(f *testing.F) {
	f.Add(ProcurementApp)
	// The example programs declare their application as `const app`.
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		f.Fatalf("no example programs: %v", err)
	}
	for _, m := range mains {
		src, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		if _, rest, ok := strings.Cut(string(src), "const app = `"); ok {
			app, _, _ := strings.Cut(rest, "`")
			f.Add(app)
		}
	}
	for _, s := range []string{
		`create queue q kind basic mode persistent interface #;`,
		`create queue q kind basic mode persistent errorqueue #;`,
		`create queue q kind basic mode persistent interface "a" port #;`,
		`create queue q kind "unterminated`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a1, err1 := Parse(src)
		a2, err2 := Parse(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic accept: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("non-deterministic error: %q vs %q", err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("non-deterministic application for %q", src)
		}
	})
}
