package cchunter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag package's (and *flag.FlagSet's) value
// constructors; a call X.<Definer>("name", ...) defines -name.
var flagDefiners = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// binaryFlags parses a command's main.go and returns the names of the
// flags it defines, on the flag package or on any FlagSet the file
// builds with flag.NewFlagSet before defining flags on it.
func binaryFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// call returns the receiver and method of a call X.M(args...).
	call := func(e ast.Expr) (recv, method string, args []ast.Expr) {
		c, ok := e.(*ast.CallExpr)
		if !ok {
			return "", "", nil
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", "", nil
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return "", "", nil
		}
		return id.Name, sel.Sel.Name, c.Args
	}
	receivers := map[string]bool{"flag": true}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if recv, m, _ := call(as.Rhs[0]); recv == "flag" && m == "NewFlagSet" {
					receivers[id.Name] = true
				}
			}
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		recv, m, args := call(e)
		if !receivers[recv] || !flagDefiners[m] || len(args) == 0 {
			return true
		}
		lit, ok := args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatalf("%s: flag name %s: %v", path, lit.Value, err)
		}
		names[name] = true
		return true
	})
	return names
}

// docFlags returns, per command, the flags named in the first column
// of docs/OPERATIONS.md's §1.1–§1.4 tables. A combined row such as
// "`-cpuprofile` / `-memprofile`" names each of its flags.
func docFlags(t *testing.T, path string) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^### 1\.[1-4] (\w+) `)
	name := regexp.MustCompile("`-([A-Za-z0-9-]+)`")
	out := map[string]map[string]bool{}
	var cmd string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			cmd = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				cmd = m[1]
				out[cmd] = map[string]bool{}
			}
			continue
		}
		if cmd == "" || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			out[cmd][m[1]] = true
		}
	}
	return out
}

// TestOperationsFlagCatalog diffs the flag reference in
// docs/OPERATIONS.md §1 against the flags each binary defines, in both
// directions: a flag the code defines must be documented, and a
// documented flag must exist.
func TestOperationsFlagCatalog(t *testing.T) {
	docs := docFlags(t, filepath.Join("docs", "OPERATIONS.md"))
	for _, cmd := range []string{"cchunt", "ccrepro", "cctrace", "cchuntd"} {
		code := binaryFlags(t, filepath.Join("cmd", cmd, "main.go"))
		doc, ok := docs[cmd]
		if !ok {
			t.Errorf("docs/OPERATIONS.md has no §1 table for %s", cmd)
			continue
		}
		if len(code) == 0 {
			t.Errorf("found no flag definitions in cmd/%s/main.go", cmd)
		}
		var undocumented, stale []string
		for f := range code {
			if !doc[f] {
				undocumented = append(undocumented, "-"+f)
			}
		}
		for f := range doc {
			if !code[f] {
				stale = append(stale, "-"+f)
			}
		}
		sort.Strings(undocumented)
		sort.Strings(stale)
		if len(undocumented) > 0 {
			t.Errorf("%s defines flags docs/OPERATIONS.md does not list: %v", cmd, undocumented)
		}
		if len(stale) > 0 {
			t.Errorf("docs/OPERATIONS.md lists %s flags the binary does not define: %v", cmd, stale)
		}
	}
}
