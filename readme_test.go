package bwtmatch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadmeArchitectureListsPackages keeps README.md's Architecture
// tree in step with the code: every directory under internal/ that
// holds non-test Go must appear in the tree's code block as
// internal/<dir>.
func TestReadmeArchitectureListsPackages(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	block, ok := architectureBlock(string(readme))
	if !ok {
		t.Fatal("README.md: no code block under ## Architecture")
	}
	listed := make(map[string]bool)
	for _, f := range strings.Fields(block) {
		listed[f] = true
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := "internal/" + d.Name()
		if hasNonTestGo(t, filepath.Join("internal", d.Name())) && !listed[name] {
			t.Errorf("README.md ## Architecture does not list %s", name)
		}
	}
}

// architectureBlock returns the first fenced code block of README's
// "## Architecture" section.
func architectureBlock(readme string) (string, bool) {
	_, sec, ok := strings.Cut(readme, "\n## Architecture\n")
	if !ok {
		return "", false
	}
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	_, block, ok := strings.Cut(sec, "```")
	if !ok {
		return "", false
	}
	_, block, _ = strings.Cut(block, "\n") // the fence's info string
	block, _, ok = strings.Cut(block, "\n```")
	return block, ok
}

func hasNonTestGo(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
