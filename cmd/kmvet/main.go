// Command kmvet runs the repo-specific static analyzer over the module:
// nine rules (see `kmvet -rules` and DESIGN.md §6) that machine-enforce
// the correctness disciplines of the index load paths and the server's
// concurrent state, including the call-graph-aware concurrency rules
// (lockheld, reachpanic, goroutinelifecycle). It prints one
// file:line: [rule] message per finding and exits 1 when any fire, so
// `make lint` can gate on it.
//
//	kmvet                    # analyze the module containing the working directory
//	kmvet -root DIR          # analyze the module rooted at DIR
//	kmvet -rules             # print the rule catalogue and exit
//	kmvet -json              # emit a machine-readable findings report
//	kmvet -github            # emit ::error workflow annotations per finding
//	kmvet -enable a,b        # run only the named rules
//	kmvet -disable c,d       # run all but the named rules
//
// Suppressions use `//kmvet:ignore <rule> <reason>` on (or directly
// above) the offending line; stale suppressions are themselves errors
// (rule unusedignore).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bwtmatch/internal/analyze"
)

func main() {
	root := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	rules := flag.Bool("rules", false, "print the rule catalogue and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations per finding")
	enable := flag.String("enable", "", "comma-separated rules to run (default: all)")
	disable := flag.String("disable", "", "comma-separated rules to skip")
	flag.Parse()

	if *rules {
		for _, r := range analyze.Rules() {
			fmt.Printf("%-18s %s\n", r.Name, r.Doc)
		}
		return
	}

	selected, err := selectRules(*enable, *disable)
	if err != nil {
		fatal(err)
	}

	dir := *root
	if dir == "" {
		dir, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	a, err := analyze.New(dir)
	if err != nil {
		fatal(err)
	}
	findings, err := a.CheckModuleRules(selected)
	if err != nil {
		fatal(err)
	}

	ran := selected
	if len(ran) == 0 {
		ran = analyze.RuleNames()
	}
	if *jsonOut {
		if err := analyze.WriteJSON(os.Stdout, a.ModulePath(), ran, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if *github {
		for _, f := range findings {
			// GitHub Actions workflow-command annotation format.
			fmt.Printf("::error file=%s,line=%d,title=kmvet %s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kmvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectRules resolves -enable/-disable into the rule-name list handed
// to the analyzer (nil means all), rejecting unknown names so a typo
// can't silently disable a gate.
func selectRules(enable, disable string) ([]string, error) {
	known := make(map[string]bool)
	for _, n := range analyze.RuleNames() {
		known[n] = true
	}
	parse := func(s, flagName string) ([]string, error) {
		if s == "" {
			return nil, nil
		}
		var out []string
		for _, n := range strings.Split(s, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !known[n] {
				return nil, fmt.Errorf("-%s: unknown rule %q (see kmvet -rules)", flagName, n)
			}
			out = append(out, n)
		}
		return out, nil
	}
	on, err := parse(enable, "enable")
	if err != nil {
		return nil, err
	}
	off, err := parse(disable, "disable")
	if err != nil {
		return nil, err
	}
	if on != nil && off != nil {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	if on != nil {
		return on, nil
	}
	if off != nil {
		skip := make(map[string]bool)
		for _, n := range off {
			skip[n] = true
		}
		var out []string
		for _, n := range analyze.RuleNames() {
			if !skip[n] {
				out = append(out, n)
			}
		}
		return out, nil
	}
	return nil, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("kmvet: no go.mod above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmvet:", err)
	os.Exit(2)
}
