package repro

// The CI name guard: every test a workflow step names by -run, -bench or
// -fuzz exists. `go test -run` with a pattern that matches nothing exits 0
// and prints "[no tests to run]", so a step whose test was deleted or
// renamed goes on passing while it checks nothing. The guard uses go/parser
// and regexp only, so it needs no module download.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciWorkflow is the workflow the guard reads.
const ciWorkflow = ".github/workflows/ci.yml"

// ciModules are the modules a step can run in: the root, and the nested
// modules a step enters with `cd DIR` on the line of its pattern.
var ciModules = []string{".", "bench", "paper"}

// ciFlag matches one -run, -bench or -fuzz flag and its pattern, quoted or
// not.
var ciFlag = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)

// ciCd matches the `cd DIR` that runs a line's command in a nested module.
var ciCd = regexp.MustCompile(`\bcd (\w+)`)

// TestCINamesExist: every alternative of every -run, -bench and -fuzz
// pattern in the workflow names a function of its module's tests.
func TestCINamesExist(t *testing.T) {
	yml, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{}
	for _, dir := range ciModules {
		if funcs[dir], err = testFuncs(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range missingCINames(string(yml), funcs) {
		t.Errorf("%s: %s", ciWorkflow, m)
	}
}

// TestCINamesGuardFails: the guard reports an alternative that names no test,
// one that names a test of another module, and a flag that names a function
// of the wrong kind, and passes the rest.
func TestCINamesGuardFails(t *testing.T) {
	yml := strings.Join([]string{
		"        run: go test -run 'TestKept|TestGone' ./internal/x",
		"          -run TestKept",
		"        run: go test -run '^$' -bench 'Kernel|TestKept' -benchtime 1x .",
		"        run: (cd paper && go test -run '^$' -bench . -fuzz FuzzFigure ./...)",
		"        run: (cd bench && go test -run TestKept ./...)",
		"        # a comment naming -run TestCommented is not a step",
	}, "\n")
	funcs := map[string][]string{
		".":     {"TestKept", "BenchmarkKernel"},
		"paper": {"BenchmarkFigure", "TestFigure"},
		"bench": {"TestHarness"},
	}
	want := []string{
		`-run "TestGone" names no test in .`,
		`-bench "TestKept" names no test in .`,
		`-fuzz "FuzzFigure" names no test in paper`,
		`-run "TestKept" names no test in bench`,
	}
	if got := missingCINames(yml, funcs); !slices.Equal(got, want) {
		t.Errorf("guard reported\n  %q\nwant\n  %q", got, want)
	}
}

// missingCINames returns, for every alternative of a -run, -bench or -fuzz
// pattern in yml that names no function of its module in funcs, what is
// wrong. A -run pattern names Test, Fuzz and Example functions, -bench
// Benchmark and -fuzz Fuzz functions; an alternative names a function when
// it matches the function's name as a regexp, as `go test` matches it. Only
// the top level of a -run pattern (before any '/') is checked, and '^$', the
// pattern that deliberately runs nothing, is skipped.
func missingCINames(yml string, funcs map[string][]string) []string {
	var missing []string
	for _, line := range strings.Split(yml, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		module := "."
		if m := ciCd.FindStringSubmatch(line); m != nil {
			module = m[1]
		}
		for _, f := range ciFlag.FindAllStringSubmatch(line, -1) {
			flag, pattern := f[1], strings.Trim(f[2], `'"`)
			if flag == "run" {
				pattern, _, _ = strings.Cut(pattern, "/")
			}
			for _, alt := range splitAlternatives(pattern) {
				if alt == "^$" {
					continue
				}
				if !namesFunc(flag, alt, funcs[module]) {
					missing = append(missing, `-`+flag+` "`+alt+`" names no test in `+module)
				}
			}
		}
	}
	return missing
}

// splitAlternatives splits a pattern at its top-level '|'s.
func splitAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// namesFunc reports whether alt matches a function the flag selects.
func namesFunc(flag, alt string, funcs []string) bool {
	re, err := regexp.Compile(alt)
	if err != nil {
		return false
	}
	prefixes := map[string][]string{
		"run":   {"Test", "Fuzz", "Example"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}[flag]
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the top-level functions declared in the _test.go files of
// the module rooted at dir, leaving out nested modules, testdata and hidden
// directories.
func testFuncs(dir string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	return names, err
}
