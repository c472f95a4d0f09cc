package profitlb

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fmaCensus lists every fusable float expression in the packages under
// internal/, one a line: file, enclosing function and the expression,
// tab-separated, sorted. Line numbers are left out so that an edit above a
// site does not move the census; the test names each site by file:line.
const fmaCensus = "testdata/fma_census.txt"

// TestFusableSitesAreCensused is the fused multiply-add gate (DESIGN
// §7.2). The Go spec lets a compiler fuse x*y + z into one instruction
// that rounds once, unless an explicit conversion rounds the product;
// amd64 never does, arm64 does, so every such site is a place where a
// golden's bits may differ between boxes. The test type-checks every
// package under internal/ and finds each float x += a*b or x -= a*b, and
// each a*b ± c or c ± a*b, whose product no float64(...) or float32(...)
// rounds. A compiler fuses across statements and inlined calls too, so a
// product also stands where a local variable, a field of a local struct
// literal or a function's parameter holds one (see products). It fails on
// a site fmaCensus does not list and on a census line that names no site,
// each by file:line. With -v it logs every site by
// file:line, which make fma-audit checks against the multiply-adds an
// arm64 build emits. A new site is either rounded or added with
// go test -run TestFusableSitesAreCensused . -update.
func TestFusableSitesAreCensused(t *testing.T) {
	sites := fusableSites(t)
	got := make([]string, len(sites))
	for i, s := range sites {
		got[i] = s.key
		t.Logf("fusable %s:%d\t%s", s.file, s.line, s.key)
	}
	slices.Sort(got)
	if *updateDeterminism {
		if err := os.WriteFile(fmaCensus, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fmaCensus)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	slices.Sort(want)
	for _, s := range sites {
		if i, ok := slices.BinarySearch(want, s.key); ok {
			want = slices.Delete(want, i, i+1)
			continue
		}
		t.Errorf("%s:%d: fusable site %q is not in %s: round the product with float64(...), or add the site (-update)", s.file, s.line, s.key, fmaCensus)
	}
	for _, w := range want {
		t.Errorf("%s lists %q, which names no fusable site (-update)", fmaCensus, w)
	}
	t.Logf("%d fusable sites", len(sites))
}

// fmaSite is one fusable expression: where it is and its census line.
type fmaSite struct {
	file string
	line int
	key  string
}

// fusableSites type-checks the packages under internal/ from source, the
// standard library from its export data, and returns their fusable sites
// in file order.
func fusableSites(t *testing.T) []fmaSite {
	t.Helper()
	fset := token.NewFileSet()
	tc := &treeChecker{fset: fset, std: importer.Default(), pkgs: map[string]*checked{}}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*checked
	for _, dir := range dirs {
		c, err := tc.check("profitlb/" + filepath.ToSlash(dir))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, c)
	}
	pr := newProducts(pkgs)
	var sites []fmaSite
	for _, c := range pkgs {
		for _, f := range c.files {
			for _, decl := range f.Decls {
				fn := "-"
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = d.Name.Name
					if d.Recv != nil {
						fn = "(" + types.ExprString(d.Recv.List[0].Type) + ")." + fn
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if expr := pr.fusable(c.info, n); expr != "" {
						p := fset.Position(n.Pos())
						sites = append(sites, fmaSite{p.Filename, p.Line, p.Filename + "\t" + fn + "\t" + expr})
					}
					return true
				})
			}
		}
	}
	return sites
}

// fusable returns the source of n when it is a fusable site, "" otherwise.
func (pr *products) fusable(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloat(info, n.Lhs[0]) && pr.holds(info, n.Rhs[0]) {
			return types.ExprString(n.Lhs[0]) + " " + n.Tok.String() + " " + types.ExprString(n.Rhs[0])
		}
	case *ast.BinaryExpr:
		if (n.Op == token.ADD || n.Op == token.SUB) && isFloat(info, n) && (pr.holds(info, n.X) || pr.holds(info, n.Y)) {
			return types.ExprString(n)
		}
	}
	return ""
}

// products is what may hold an unrounded product where a sum reads it:
// a variable some assignment gives one, a field a struct literal or an
// assignment gives one (by variable and field), and a parameter some
// static call in the packages passes one. It over-counts — a variable
// assigned elsewhere too may reach the sum with another value — which
// makes the census a superset of what a compiler fuses.
type products struct {
	vars   map[types.Object]bool
	fields map[[2]types.Object]bool
}

func newProducts(pkgs []*checked) *products {
	pr := &products{vars: map[types.Object]bool{}, fields: map[[2]types.Object]bool{}}
	for _, c := range pkgs {
		info := c.info
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) {
						for i, lhs := range n.Lhs {
							pr.assign(info, lhs, n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if i < len(n.Names) {
							pr.assign(info, n.Names[i], v)
						}
					}
				case *ast.CallExpr:
					fn, ok := staticCallee(info, n).(*types.Func)
					if !ok {
						break
					}
					params := fn.Origin().Type().(*types.Signature).Params() // a generic one's declared parameters
					for i, arg := range n.Args {
						if i < params.Len() && isProduct(info, arg) {
							pr.vars[params.At(i)] = true
						}
					}
				}
				return true
			})
		}
	}
	return pr
}

// assign records lhs = rhs: a variable, or a field of a variable, that a
// product or a struct literal with product fields is assigned to.
func (pr *products) assign(info *types.Info, lhs, rhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(l)
		if obj == nil {
			return
		}
		if isProduct(info, rhs) {
			pr.vars[obj] = true
		}
		if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && isProduct(info, kv.Value) {
					if key, ok := kv.Key.(*ast.Ident); ok {
						pr.fields[[2]types.Object{obj, info.ObjectOf(key)}] = true
					}
				}
			}
		}
	case *ast.SelectorExpr:
		if x, ok := l.X.(*ast.Ident); ok && isProduct(info, rhs) {
			pr.fields[[2]types.Object{info.ObjectOf(x), info.ObjectOf(l.Sel)}] = true
		}
	}
}

// holds reports whether e is a product or reads a variable, parameter or
// field that may hold one.
func (pr *products) holds(info *types.Info, e ast.Expr) bool {
	if !isFloat(info, e) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pr.vars[info.ObjectOf(e)]
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return pr.fields[[2]types.Object{info.ObjectOf(x), info.ObjectOf(e.Sel)}]
		}
	}
	return isProduct(info, e)
}

// staticCallee is the function or method a call statically names, nil
// for a call through a value or a conversion.
func staticCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// isFloat reports whether e is a float expression that is not a constant.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isProduct reports whether e, parentheses aside, is a float product that
// is not a constant: a conversion around it would be a call.
func isProduct(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	b, ok := e.(*ast.BinaryExpr)
	return ok && b.Op == token.MUL && isFloat(info, b)
}

// treeChecker type-checks this module's packages from source, each once,
// importing the standard library through std.
type treeChecker struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

// checked is a type-checked package: its files and their types.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (tc *treeChecker) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "profitlb/") {
		return tc.std.Import(path)
	}
	c, err := tc.check(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// check parses and type-checks the package at path, its non-test files
// for this build, unless it has already.
func (tc *treeChecker) check(path string) (*checked, error) {
	if c, ok := tc.pkgs[path]; ok {
		return c, nil
	}
	dir := strings.TrimPrefix(path, "profitlb/")
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	c := &checked{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(tc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: tc}
	if c.pkg, err = conf.Check(path, tc.fset, c.files, c.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	tc.pkgs[path] = c
	return c, nil
}
