package analyze_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"bwtmatch/internal/analyze"
)

// The Analyzer shells out to `go list -export -deps` once; share one
// instance across all tests.
var (
	once      sync.Once
	shared    *analyze.Analyzer
	sharedErr error
)

func analyzer(t *testing.T) *analyze.Analyzer {
	t.Helper()
	once.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			sharedErr = err
			return
		}
		shared, sharedErr = analyze.New(root)
	})
	if sharedErr != nil {
		t.Fatalf("analyze.New: %v", sharedErr)
	}
	return shared
}

// key is a finding reduced to its comparable identity.
type key struct {
	file string // base name
	line int
	rule string
}

func (k key) String() string { return fmt.Sprintf("%s:%d: [%s]", k.file, k.line, k.rule) }

// wantsIn scans the fixture's Go files for `// want <rule>` markers and
// returns the expected finding keys.
func wantsIn(t *testing.T, dir string) []key {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	var out []key
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			rule := strings.TrimSpace(text[i+len("// want "):])
			out = append(out, key{file: filepath.Base(name), line: line, rule: rule})
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkFixture runs every rule over one testdata package and compares
// the findings against the `// want` markers, both directions.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	a := analyzer(t)
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := a.CheckDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", name, err)
	}
	got := make([]key, 0, len(findings))
	for _, f := range findings {
		got = append(got, key{file: filepath.Base(f.Pos.Filename), line: f.Pos.Line, rule: f.Rule})
	}
	want := wantsIn(t, dir)
	sortKeys(got)
	sortKeys(want)

	wantSet := make(map[key]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
	}
	gotSet := make(map[key]bool, len(got))
	for _, k := range got {
		gotSet[k] = true
	}
	for _, k := range want {
		if !gotSet[k] {
			t.Errorf("missing finding %v", k)
		}
	}
	for i, k := range got {
		if !wantSet[k] {
			t.Errorf("unexpected finding %v: %s", k, findings[i].Message)
		}
	}
}

func sortKeys(ks []key) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.rule < b.rule
	})
}

// TestRuleFixtures demonstrates each rule firing on a deliberately-bad
// fixture package, at exactly the marked positions.
func TestRuleFixtures(t *testing.T) {
	for _, name := range []string{
		"badwrap", "badlock", "badpanic", "badlog",
		"badgoroutine", "badlockheld", "badreachpanic", "badboundedalloc", "badcloseerr",
	} {
		t.Run(name, func(t *testing.T) { checkFixture(t, name) })
	}
}

// TestCleanFixture checks the compliant fixture produces no findings
// (it has no `// want` markers, so checkFixture demands an empty set).
func TestCleanFixture(t *testing.T) {
	checkFixture(t, "clean")
}

// TestRulesCatalogue pins the rule set: nine rules, stable names,
// non-empty docs (kmvet -rules prints these).
func TestRulesCatalogue(t *testing.T) {
	rules := analyze.Rules()
	want := []string{
		"wrapformat", "copylocks", "nopanic", "nostdlog",
		"goroutinelifecycle", "lockheld", "reachpanic", "boundedalloc", "closeerr",
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	seen := make(map[string]bool)
	for _, r := range rules {
		seen[r.Name] = true
		if r.Doc == "" {
			t.Errorf("rule %s has no doc", r.Name)
		}
		if r.Run == nil {
			t.Errorf("rule %s has no Run", r.Name)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("missing rule %s", name)
		}
	}
}

// TestModuleClean runs the analyzer over the whole module, the same way
// `make lint` does, and requires a clean tree. Skipped with -short: it
// type-checks every package.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide analysis in -short mode")
	}
	findings, err := analyzer(t).CheckModule()
	if err != nil {
		t.Fatalf("CheckModule: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on clean tree: %s", f)
	}
}
