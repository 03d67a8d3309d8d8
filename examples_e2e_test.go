package bwtmatch_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds each program under examples/ and runs it at a
// small size: it must exit 0 and print its summary line. go build
// compiles the examples but never runs them, and examples/methods, for
// one, exits non-zero when two matchers disagree.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, ex := range []struct {
		name string
		args []string
		want string
	}{
		{"quickstart", nil, "position 2 (1-based 3)"},
		{"methods", []string{"-bases", "65536", "-reads", "5"}, "all methods agree on every match"},
		{"readmapping", []string{"-bases", "65536", "-reads", "20"}, "true origin recovered for"},
		{"snpscan", []string{"-bases", "65536"}, "probe of 60 bases, k=3:"},
	} {
		bin := filepath.Join(dir, ex.name)
		cmd := exec.Command("go", "build", "-o", bin, "./examples/"+ex.name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", ex.name, err, out)
		}
		if out := run(t, bin, ex.args...); !strings.Contains(out, ex.want) {
			t.Errorf("%s printed no %q:\n%s", ex.name, ex.want, out)
		}
	}
}
