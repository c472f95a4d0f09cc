package profitlb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designMaxBytes caps DESIGN.md: it says what the system is, and history
// belongs in CHANGES.md. readmeMaxBytes caps README.md: it says what a
// user runs, and points at DESIGN for the rest.
const (
	designMaxBytes = 60000
	readmeMaxBytes = 15000
)

var (
	// designRef matches "DESIGN §7.4", "DESIGN.md §12" or a list such as
	// "DESIGN §3, §7 and §12.3", also when a line break (and a comment
	// marker) falls inside; sectionRef is each "§N[.M]" in it, and the
	// whole of it in the documents that describe the repository.
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)?` + refGap + `§\s*\d+(?:\.\d+)?(?:` + refGap + `(?:,|and|or)` + refGap + `§\s*\d+(?:\.\d+)?)*`)
	sectionRef    = regexp.MustCompile(`§\s*(\d+(?:\.\d+)?)`)
	designHeading = regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)) `)
	// citedFunc is a test, fuzz target or benchmark a document names; a
	// trailing * makes it a prefix. testFunc is one declared in the tree.
	citedFunc = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// lineRef and prNumber are what the current-state documents do not
	// carry: line numbers rot, and history belongs in CHANGES.md.
	lineRef  = regexp.MustCompile(`\.go:\d+`)
	prNumber = regexp.MustCompile(`PR \d+`)
)

// refGap is what may stand between the parts of a section reference:
// space, a line break and a comment marker.
const refGap = `(?:\s|//|#)*`

// TestDesignReferences fails on a DESIGN.md over designMaxBytes or a
// README.md over readmeMaxBytes; on any "§N[.M]" in DESIGN.md, README.md
// or the verify skill, and any "DESIGN §N[.M]" (or list of sections) in
// the repository's other code and documents, that names no section of
// DESIGN.md; on a Test, Fuzz or Benchmark name those three documents cite
// that no function in the tree has (a trailing * must match one); and on
// a "file.go:<line>" link or a "PR <n>" in them. CHANGES.md is history,
// so it may name sections and tests that have since moved.
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]+m[2]] = true
	}
	skill := filepath.Join(".claude", "skills", "verify", "SKILL.md")
	docs := map[string]bool{"DESIGN.md": true, "README.md": true, skill: true}
	var others []string
	funcs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
				funcs[m[1]] = true
			}
		}
		if !docs[path] && (name == "Makefile" || strings.HasSuffix(name, ".go") ||
			(strings.HasSuffix(name, ".md") && name != "CHANGES.md")) {
			others = append(others, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := func(name string) bool {
		if prefix, glob := strings.CutSuffix(name, "*"); glob {
			for f := range funcs {
				if strings.HasPrefix(f, prefix) {
					return true
				}
			}
			return false
		}
		return funcs[name]
	}
	refs, names := 0, 0
	section := func(path, ref string) {
		for _, m := range sectionRef.FindAllStringSubmatch(ref, -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s: §%s names no section of DESIGN.md", path, m[1])
			}
		}
	}
	caps := map[string]int{"DESIGN.md": designMaxBytes, "README.md": readmeMaxBytes}
	for _, path := range []string{"DESIGN.md", "README.md", skill} {
		b, err := os.ReadFile(path)
		if path == skill && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if limit, ok := caps[path]; ok && len(b) > limit {
			t.Errorf("%s is %d bytes, over the %d cap", path, len(b), limit)
		}
		for _, re := range []*regexp.Regexp{lineRef, prNumber} {
			for _, m := range re.FindAllString(string(b), -1) {
				t.Errorf("%s: carries %q: cite a symbol, and leave history to CHANGES.md", path, m)
			}
		}
		section(path, string(b))
		for _, name := range citedFunc.FindAllString(string(b), -1) {
			names++
			if !cited(name) {
				t.Errorf("%s: cites %s, which is no function in the tree", path, name)
			}
		}
	}
	for _, path := range others {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllString(string(b), -1) {
			section(path, m)
		}
	}
	if refs == 0 || names == 0 || len(funcs) == 0 {
		t.Errorf("found %d section references, %d cited tests and %d test functions: the scan is broken", refs, names, len(funcs))
	}
}

// TestPlannersRunOnTheCallersGoroutine fails on any import of sync or
// sync/atomic, call to time.Sleep or time.After, or go statement in the
// non-test code of the packages a slot's plan is made in. A planner fault
// is an error the planner returns (core.ErrTimeout among them), so
// nothing there waits on a clock or shares state with another goroutine,
// and a run stays a function of its scenario and seed.
func TestPlannersRunOnTheCallersGoroutine(t *testing.T) {
	files := 0
	for _, dir := range []string{"fault", "resilient", "core", "mpc", "feed"} {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			files++
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			clock := "" // the file's name for package time
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); p {
				case "sync", "sync/atomic":
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				case "time":
					clock = "time"
					if imp.Name != nil {
						clock = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: starts a goroutine", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == clock && (n.Sel.Name == "Sleep" || n.Sel.Name == "After") {
						t.Errorf("%s: uses time.%s", fset.Position(n.Pos()), n.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Error("found no planner source files: the scan is broken")
	}
}
