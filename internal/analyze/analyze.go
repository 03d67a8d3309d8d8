// Package analyze implements kmvet, the repo-specific static analyzer.
// It loads every package of the module with go/parser and go/types
// (stdlib only — import resolution rides on export data produced by
// `go list -export`, the same artifacts the build cache already holds)
// and runs a small set of rules that machine-enforce disciplines the
// code review notes in DESIGN.md used to enforce by hand:
//
//   - wrapformat: errors from index load paths (bwtmatch.Load*,
//     fmindex.Read*) must be re-wrapped with %w, never returned bare, so
//     every layer adds context while errors.Is(err, ErrFormat) keeps
//     matching.
//   - copylocks: no value copies of structs that contain a sync.Mutex
//     or sync.RWMutex (parameters, results, assignments, call
//     arguments, range clauses).
//   - nopanic: no panic in library (non-main) packages, except in
//     kminvariants-tagged invariants*.go files where assertion failure
//     is the point.
//   - nostdlog: no fmt.Print*/log.Print* (or log.Fatal*/Panic*, or the
//     print/println builtins) in library packages; daemon-embedded code
//     logs through an injected
//     *slog.Logger or writes to a caller-supplied io.Writer, keeping
//     stdout machine-readable and the log stream structured.
//
// The other five rules (goroutinelifecycle, lockheld, reachpanic,
// boundedalloc, closeerr — see Rules) walk the module call graph or the
// decode and save paths; `kmvet -rules` prints all nine.
//
// Each rule reports findings as file:line: [rule] message; cmd/kmvet
// exits nonzero when any fire.
package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Package is one type-checked package handed to the rules.
type Package struct {
	Path  string // import path ("bwtmatch/server", or a fixture label in tests)
	Dir   string
	Name  string // package name ("main" for commands)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer loads and checks packages of one module.
type Analyzer struct {
	root       string // module root (directory containing go.mod)
	modulePath string
	fset       *token.FileSet
	exports    map[string]string // import path -> export data file
	missing    map[string]bool   // paths go list could not resolve
	imp        types.Importer
}

// New prepares an Analyzer for the module rooted at dir (the directory
// holding go.mod). It shells out to `go list -export -deps ./...` once
// to map every reachable import path to its export data; packages are
// then type-checked from source with imports satisfied from that map.
func New(root string) (*Analyzer, error) {
	modulePath, err := modulePathOf(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		root:       root,
		modulePath: modulePath,
		fset:       token.NewFileSet(),
		exports:    make(map[string]string),
		missing:    make(map[string]bool),
	}
	if err := a.listExports("./..."); err != nil {
		return nil, err
	}
	a.imp = importer.ForCompiler(a.fset, "gc", a.lookup)
	return a, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analyze: %v (run kmvet from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyze: no module line in %s", gomod)
}

// listExports runs go list -export over pattern and records the export
// data location of every listed package (deps included).
func (a *Analyzer) listExports(pattern string) error {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Export", pattern)
	cmd.Dir = a.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analyze: go list -export %s: %v\n%s", pattern, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("analyze: decoding go list output: %v", err)
		}
		if p.Export != "" {
			a.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// lookup feeds export data to the gc importer, fetching paths outside
// the initial ./... closure on demand.
func (a *Analyzer) lookup(path string) (io.ReadCloser, error) {
	e, ok := a.exports[path]
	if !ok && !a.missing[path] {
		if err := a.listExports(path); err != nil {
			a.missing[path] = true
			return nil, err
		}
		e, ok = a.exports[path]
	}
	if !ok {
		return nil, fmt.Errorf("analyze: no export data for %q", path)
	}
	return os.Open(e)
}

// load parses and type-checks the package in dir under the given import
// path. Test files and files excluded by build tags (notably the
// kminvariants invariant implementations) are skipped, matching what an
// ordinary build sees.
func (a *Analyzer) load(dir, importPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err // includes *build.NoGoError for non-package dirs
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyze: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: a.imp}
	pkg, err := conf.Check(importPath, a.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %v", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Name:  pkg.Name(),
		Fset:  a.fset,
		Files: files,
		Types: pkg,
		Info:  info,
	}, nil
}

// ModulePath returns the module path from go.mod.
func (a *Analyzer) ModulePath() string { return a.modulePath }

// LoadDir loads the single package in dir (importPath may be a
// synthetic label for out-of-module fixtures) as a one-package Module
// with its own call graph.
func (a *Analyzer) LoadDir(dir, importPath string) (*Module, error) {
	p, err := a.load(dir, importPath)
	if err != nil {
		return nil, err
	}
	return BuildModule([]*Package{p}), nil
}

// CheckDir type-checks the package in dir and runs every rule over it.
func (a *Analyzer) CheckDir(dir, importPath string) ([]Finding, error) {
	m, err := a.LoadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	return m.check(Rules()), nil
}

// LoadModule loads every package of the module (testdata and VCS
// directories excluded) and builds the cross-package call graph.
func (a *Analyzer) LoadModule() (*Module, error) {
	var pkgs []*Package
	err := filepath.WalkDir(a.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != a.root && (name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(a.root, path)
		if err != nil {
			return err
		}
		importPath := a.modulePath
		if rel != "." {
			importPath = a.modulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := a.load(path, importPath)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return BuildModule(pkgs), nil
}

// CheckModule runs every rule over the whole module.
func (a *Analyzer) CheckModule() ([]Finding, error) {
	return a.CheckModuleRules(nil)
}

// CheckModuleRules runs the named rules (nil or empty means all) over
// the whole module. Interprocedural rules always see the full
// cross-package call graph regardless of the rule selection.
func (a *Analyzer) CheckModuleRules(names []string) ([]Finding, error) {
	m, err := a.LoadModule()
	if err != nil {
		return nil, err
	}
	rules := Rules()
	if len(names) > 0 {
		want := make(map[string]bool, len(names))
		for _, n := range names {
			want[n] = true
		}
		kept := rules[:0]
		for _, r := range rules {
			if want[r.Name] {
				kept = append(kept, r)
			}
		}
		rules = kept
	}
	return m.check(rules), nil
}

// check runs the given rules over the module, applies //kmvet:ignore
// suppression (stale directives become unusedignore findings), and
// returns the sorted result.
func (m *Module) check(rules []Rule) []Finding {
	var out []Finding
	enabled := make(map[string]bool, len(rules))
	for _, r := range rules {
		enabled[r.Name] = true
		out = append(out, r.Run(m)...)
	}
	out = m.applyIgnores(out, enabled)
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
}

// finding builds a Finding at pos.
func (p *Package) finding(pos token.Pos, rule, format string, args ...any) Finding {
	return Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
