package cchunter

import (
	"context"
	"errors"
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
	"time"

	"cchunter/internal/fleet"
	"cchunter/internal/obs"
	"cchunter/internal/runner"
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

// docMetric is one key of docs/OPERATIONS.md §2: its name as written
// (with any <kind> or <tenant> placeholder), the pattern it stands
// for, and its documented type.
type docMetric struct {
	name, typ string
	pattern   *regexp.Regexp
}

// docMetrics returns the keys in the first column of the §2 tables. A
// combined row such as "`faults.seen` / `faults.delivered`" names
// each of its keys with the row's type. <kind> stands for an event
// kind (auditor.bus-lock.windows) and <tenant> for a tenant name.
func docMetrics(t *testing.T, path string) []docMetric {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`([^`]+)`")
	placeholder := strings.NewReplacer(`<kind>`, `[a-z0-9-]+`, `<tenant>`, `.+`)
	var out []docMetric
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 2.")
			continue
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		typ := strings.TrimSpace(cells[2])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			out = append(out, docMetric{
				name:    m[1],
				typ:     typ,
				pattern: regexp.MustCompile("^" + placeholder.Replace(regexp.QuoteMeta(m[1])) + "$"),
			})
		}
	}
	return out
}

// emittedMetrics runs the instrumented pipelines into one registry and
// returns every key it ends up holding, with its type: scenarios on
// each channel (batch, streaming and with sensor faults), a fleet with
// its hub taking a repeated and a stale update, and a supervised job
// that panics and one that overruns its watchdog.
func emittedMetrics(t *testing.T) map[string]string {
	t.Helper()
	reg := obs.NewRegistry()
	for _, tc := range goldenCases() {
		sc := tc.sc
		sc.Metrics = reg
		if _, err := sc.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	for _, tc := range goldenCases()[2:3] { // the cache channel
		sc := tc.sc
		sc.Metrics = reg
		sc.Stream = true
		sc.Faults = FaultConfig{DropProb: 0.01, CtxFlipProb: 0.01}
		if _, err := sc.Run(); err != nil {
			t.Fatalf("%s, streaming with faults: %v", tc.name, err)
		}
	}

	f, err := fleet.New(fleet.Config{Hosts: 2, StreamsPerHost: 2, EpochQuanta: 8, QueueLen: 256, Seed: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	u := fleet.Update{Key: fleet.Key{Host: "catalog", Tenant: "catalog", Channel: "benign"}, Seq: 1}
	f.Hub().Submit(u)
	u.Seq = 2
	if f.Hub().Submit(u) { // the same verdict again: deduplicated
		t.Fatal("hub applied a repeated verdict")
	}
	u.Seq = 1
	if f.Hub().Submit(u) { // an old sequence number: stale
		t.Fatal("hub applied a stale update")
	}
	u.Seq, u.Report.Detected = 3, true
	f.Hub().Submit(u)
	f.Hub().State()

	if _, err := runner.Supervise(context.Background(), "panics", 0, reg, func(context.Context) (interface{}, error) {
		panic("catalog")
	}); err == nil {
		t.Fatal("a panicking job returned no error")
	}
	if _, err := runner.Supervise(context.Background(), "overruns", time.Millisecond, reg, func(ctx context.Context) (interface{}, error) {
		<-ctx.Done()
		return nil, nil
	}); !errors.Is(err, runner.ErrWatchdog) {
		t.Fatalf("an overrunning job returned %v, want a watchdog error", err)
	}

	snap := reg.Snapshot()
	out := map[string]string{}
	add := func(key, typ string) {
		if prev, ok := out[key]; ok {
			t.Errorf("metric %s is registered as both a %s and a %s", key, prev, typ)
		}
		out[key] = typ
	}
	for k := range snap.Counters {
		add(k, "counter")
	}
	for k := range snap.Gauges {
		add(k, "gauge")
	}
	for k := range snap.Histograms {
		add(k, "histogram")
	}
	return out
}

// TestOperationsMetricsCatalog diffs the metrics-key catalog in
// docs/OPERATIONS.md §2 against the keys instrumented runs emit, in
// both directions and with their types: an emitted key must be
// documented with the type it has, and a documented key must be
// emitted.
func TestOperationsMetricsCatalog(t *testing.T) {
	docs := docMetrics(t, filepath.Join("docs", "OPERATIONS.md"))
	if len(docs) == 0 {
		t.Fatal("found no metric rows in docs/OPERATIONS.md §2")
	}
	emitted := emittedMetrics(t)
	used := make([]bool, len(docs))
	var undocumented, mistyped, stale []string
	for key, typ := range emitted {
		found := false
		for i, d := range docs {
			if !d.pattern.MatchString(key) {
				continue
			}
			found, used[i] = true, true
			if d.typ != typ {
				mistyped = append(mistyped, key+" is a "+typ+", documented as "+d.name+" "+d.typ)
			}
		}
		if !found {
			undocumented = append(undocumented, key+" ("+typ+")")
		}
	}
	for i, d := range docs {
		if !used[i] {
			stale = append(stale, d.name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(mistyped)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("emitted metrics docs/OPERATIONS.md §2 does not list: %v", undocumented)
	}
	if len(mistyped) > 0 {
		t.Errorf("metrics documented with the wrong type: %v", mistyped)
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md §2 lists metrics no instrumented run emits: %v", stale)
	}
}
