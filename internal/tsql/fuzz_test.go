package tsql_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/tsql"
)

// FuzzParse holds the parser to its contract on arbitrary input: it never
// panics, every error it returns is a *tsql.ParseError with the dialect's
// "tsql: " prefix, and a statement it accepts plans on the Figure 1 catalog
// or fails with an ordinary (non-parse) error — never a panic either. The
// corpus is seeded with every string literal of this package's tests, so
// the fuzzer starts from the statements the dialect is known to accept and
// reject.
func FuzzParse(f *testing.F) {
	for _, s := range testLiterals(f) {
		f.Add(s)
	}
	cat := catalog.Paper()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := tsql.Parse(sql)
		if err != nil {
			var pe *tsql.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): untyped error %T: %v", sql, err, err)
			}
			if !strings.HasPrefix(err.Error(), "tsql: ") {
				t.Fatalf("Parse(%q): error %q lacks the tsql: prefix", sql, err)
			}
			if q != nil {
				t.Fatalf("Parse(%q): a query alongside error %v", sql, err)
			}
			return
		}
		if q == nil {
			t.Fatalf("Parse(%q): neither a query nor an error", sql)
		}
		if _, err := q.Plan(cat); err != nil {
			var pe *tsql.ParseError
			if errors.As(err, &pe) {
				t.Fatalf("Plan(%q): a parse error after a successful parse: %v", sql, err)
			}
		}
	})
}

// testLiterals returns every string literal in this package's test files.
func testLiterals(f *testing.F) []string {
	f.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, name := range files {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		f.Fatal("no seed statements found")
	}
	return out
}
