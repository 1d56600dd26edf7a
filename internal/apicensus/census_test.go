// Package apicensus holds the module's product code to what a binary runs.
// TestExportCensus type-checks every package of the module with go/parser
// and go/types (the standard library through the compiler's export data,
// go/importer), then follows the program from its roots:
//
//   - roots: every main function under cmd/, examples/ and benchmark/,
//     every init function, and every package-level var initializer (an
//     init function or an initializer runs whenever its package is linked);
//   - edges: every object that a reached declaration uses, as go/types
//     resolves it, so a method is reached by a call on its own type and
//     never by another method that shares its name;
//   - an interface method call reaches every method of that name that the
//     module declares: class-hierarchy analysis (Dean, Grove & Chambers,
//     ECOOP 1995).
//
// A non-test func, method, var, const or type outside benchmark/ that no
// root reaches fails the test, unless allowlist.txt lists it with its
// reason. An allowlisted declaration that a product root now reaches, or
// that no longer exists, fails it too.
//
// Two lists are logged and never fail: the declarations that only
// benchmark/'s roots reach (a benchmark-only change cannot edit the
// allowlist, so calling product code from benchmark/ must not turn the
// census red), and the exported names that no other package, and no other
// package's tests, refer to (each can be unexported). A benchmark-only
// change that drops benchmark/'s last call to a declaration does leave it
// unreached, which fails: delete or allowlist it in a product change
// first.
//
// What the census cannot see: calls made through reflection or
// //go:linkname, and the methods that the standard library calls through
// its own interfaces. Those are exempt by name (stdMethods): such a method
// is reached with its receiver type.
package apicensus

import (
	"bufio"
	"errors"
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
	"slices"
	"strings"
	"testing"
)

// benchDir is the benchmark's directory: its declarations are not
// censused, and what only its roots reach is logged apart.
const benchDir = "benchmark"

// rootDirs hold the programs whose main functions are roots.
var rootDirs = []string{"cmd", "examples", benchDir}

// Reasons an allowlisted declaration may give for being unreached.
const (
	reasonTestHelper = "cross-package test helper"
	reasonRouterAPI  = "router API, pinned against the Oracle"
)

// stdMethods are methods that the standard library calls through its
// interfaces (error, fmt.Stringer, sort and heap, io, http.Handler), so no
// call in the module shows that they run.
var stdMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "ServeHTTP": true,
}

func TestExportCensus(t *testing.T) {
	c, err := runCensus("../..")
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t, "allowlist.txt")
	for _, d := range c.unreached {
		if _, ok := allow[d.key]; !ok {
			t.Errorf("%s (%s) is reached from no main: delete it, or add it to allowlist.txt with its reason", d.key, d.pos)
		}
	}
	for key, reason := range allow {
		switch d := c.decls[key]; {
		case d == nil:
			t.Errorf("%s is allowlisted (%s) but no longer declared: delete its allowlist line", key, reason)
		case slices.Contains(c.benchOnly, d):
			t.Logf("%s is allowlisted (%s) but %s/ reaches it", key, reason, benchDir)
		case !slices.Contains(c.unreached, d):
			t.Errorf("%s is allowlisted (%s) but now reached: delete its allowlist line", key, reason)
		}
	}
	lines := 0
	for _, d := range c.benchOnly {
		lines += d.lines
		t.Logf("reached only through %s/: %s (%d lines)", benchDir, d.key, d.lines)
	}
	for _, d := range c.unexport {
		t.Logf("only its own package refers to: %s", d.key)
	}
	t.Logf("%d declarations: %d unreached, %d (%d lines) reached only through %s/, %d exported names only their own package refers to",
		len(c.decls), len(c.unreached), len(c.benchOnly), lines, benchDir, len(c.unexport))
}

// TestCensusFixture runs the census on testdata/fixture, a module with one
// case per rule; its comments say what each declaration tests.
func TestCensusFixture(t *testing.T) {
	c, err := runCensus("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"unreached": {"lib.T.M", "lib.orphan"},
		"benchOnly": {"lib.ForBench"},
		"unexport":  {"lib.Internal"},
	}
	got := map[string][]string{
		"unreached": keys(c.unreached), "benchOnly": keys(c.benchOnly), "unexport": keys(c.unexport),
	}
	for list, w := range want {
		if !slices.Equal(got[list], w) {
			t.Errorf("%s = %v, want %v", list, got[list], w)
		}
	}
}

func keys(ds []*decl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.key)
	}
	return out
}

// decl is one package-level declaration of a non-test file.
type decl struct {
	key   string // "dir.Name", or "dir.Type.Method" for a method
	dir   string // package directory, slash-separated, relative to the module root
	pos   token.Position
	lines int
	obj   types.Object
	node  ast.Node // what reaching it walks: its FuncDecl, TypeSpec or ValueSpec
	viaIf bool     // an interface method call names it
}

// census is what runCensus found, each list sorted by key.
type census struct {
	decls     map[string]*decl // outside benchmark/, by key
	unreached []*decl          // reached from no root
	benchOnly []*decl          // reached only from benchmark/'s roots
	unexport  []*decl          // exported, reached, and no other package or its tests refer to it
}

// runCensus type-checks the module at root and follows it from its roots.
func runCensus(root string) (*census, error) {
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	product := l.reach(l.roots, nil)
	all := l.reach(l.benchRoots, product)
	c := &census{decls: map[string]*decl{}}
	for _, d := range l.decls {
		if inDir(d.dir, benchDir) {
			continue
		}
		c.decls[d.key] = d
		switch {
		case !all[d]:
			c.unreached = append(c.unreached, d)
			continue
		case !product[d]:
			c.benchOnly = append(c.benchOnly, d)
		}
		if d.obj.Exported() && d.obj.Pkg().Name() != "main" && !l.foreign[d.key] && !d.viaIf && !stdMethods[d.obj.Name()] {
			c.unexport = append(c.unexport, d)
		}
	}
	for _, ds := range [][]*decl{c.unreached, c.benchOnly, c.unexport} {
		slices.SortFunc(ds, func(a, b *decl) int { return strings.Compare(a.key, b.key) })
	}
	return c, nil
}

// loader type-checks a module's packages once each, so that every object
// has one identity, and indexes their declarations.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	bps     map[string]*build.Package // the module's, by directory
	std     types.Importer
	pkgs    map[string]*types.Package // the module's, by import path
	info    *types.Info               // one for every package checked
	decls   map[types.Object]*decl
	byName  map[string][]*decl          // methods by name: an interface call's targets
	exempt  map[*types.TypeName][]*decl // stdMethods by receiver type
	foreign map[string]bool             // keys another package, or its tests, refer to

	roots, benchRoots []ast.Node
}

func load(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modulePath(mod),
		bps:     map[string]*build.Package{},
		pkgs:    map[string]*types.Package{},
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		decls:   map[types.Object]*decl{},
		byName:  map[string][]*decl{},
		exempt:  map[*types.TypeName][]*decl{},
		foreign: map[string]bool{},
	}
	var dirs []string
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		dir := filepath.ToSlash(rel)
		dirs = append(dirs, dir)
		l.bps[dir] = bp
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, imp := range imps {
				if _, ok := l.moduleDir(imp); !ok {
					std[imp] = true
				}
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if l.std, err = stdImporter(l.fset, std); err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := l.Import(l.importPath(dir)); err != nil {
			return nil, err
		}
		if err := l.checkTests(dir, l.bps[dir]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// stdImporter reads the standard library from the compiler's export data,
// finding every package that the module imports in one go list run; the
// gc importer's own lookup runs go list once per package.
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for path := range paths {
		args = append(args, path)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("%s is not a standard package the module imports", path)
		}
		return os.Open(file)
	}), nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(mod []byte) string {
	for _, line := range strings.Split(string(mod), "\n") {
		if path, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(path)
		}
	}
	return ""
}

func (l *loader) importPath(dir string) string {
	if dir == "." {
		return l.modPath
	}
	return l.modPath + "/" + dir
}

// moduleDir returns the directory of a module import path, or false for
// a path outside the module.
func (l *loader) moduleDir(path string) (string, bool) {
	if path == l.modPath {
		return ".", true
	}
	return strings.CutPrefix(path, l.modPath+"/")
}

// Import returns a package of the standard library from its export data,
// and a package of the module from its source, checking it on first use.
func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := l.moduleDir(path)
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	bp := l.bps[dir]
	if bp == nil {
		return nil, fmt.Errorf("no package in %s", dir)
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.index(dir, p, files)
	return p, nil
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package into l.info. It returns the package even
// when it has type errors, with every error.
func (l *loader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	p, _ := conf.Check(path, l.fset, files, l.info)
	return p, errors.Join(errs...)
}

// index records the package's declarations, its roots, and the objects of
// other packages that its files refer to.
func (l *loader) index(dir string, p *types.Package, files []*ast.File) {
	rootsOf := &l.roots
	if inDir(dir, benchDir) {
		rootsOf = &l.benchRoots
	}
	add := func(id *ast.Ident, node ast.Node) {
		obj := l.info.Defs[id]
		if obj == nil || obj.Name() == "_" {
			return
		}
		d := l.declare(dir, obj, node)
		if tn := recvOf(obj); tn != nil {
			l.byName[id.Name] = append(l.byName[id.Name], d)
			if stdMethods[id.Name] {
				l.exempt[tn] = append(l.exempt[tn], d)
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil && d.Name.Name == "init":
					*rootsOf = append(*rootsOf, d)
				case d.Recv == nil && d.Name.Name == "main" && p.Name() == "main" && inRootDir(dir):
					*rootsOf = append(*rootsOf, d)
				default:
					add(d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						if d.Tok == token.VAR && len(s.Values) > 0 {
							*rootsOf = append(*rootsOf, s)
						}
						for _, n := range s.Names {
							add(n, s)
						}
					}
				}
			}
		}
		l.markForeign(p, f)
	}
}

func (l *loader) declare(dir string, obj types.Object, node ast.Node) *decl {
	d := &decl{
		key:   objKey(dir, obj),
		dir:   dir,
		pos:   l.fset.Position(node.Pos()),
		lines: l.fset.Position(node.End()).Line - l.fset.Position(node.Pos()).Line + 1,
		obj:   obj,
		node:  node,
	}
	l.decls[obj] = d
	return d
}

// markForeign records the module objects that file f, of package p,
// refers to outside p.
func (l *loader) markForeign(p *types.Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := origin(l.info.Uses[id])
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == p.Path() {
			return true
		}
		if dir, ok := l.moduleDir(obj.Pkg().Path()); ok {
			l.foreign[objKey(dir, obj)] = true
		}
		return true
	})
}

// checkTests type-checks a directory's test files, only to learn which
// exported names other packages' tests refer to: the package with its
// in-package tests, then its external test package against that. Type
// errors are dropped: go test rebuilds every package that the external
// tests import and that imports the package under test against its test
// variant, and this check does not, so an external test that passes one
// through the other fails to type here (go vet checks the tests).
func (l *loader) checkTests(dir string, bp *build.Package) error {
	path := l.importPath(dir)
	self := l.pkgs[path]
	if len(bp.TestGoFiles) > 0 {
		files, err := l.parse(dir, append(slices.Clip(bp.GoFiles), bp.TestGoFiles...))
		if err != nil {
			return err
		}
		self, _ = l.check(path, files, l)
		for _, f := range files {
			l.markForeign(self, f)
		}
	}
	if len(bp.XTestGoFiles) == 0 {
		return nil
	}
	files, err := l.parse(dir, bp.XTestGoFiles)
	if err != nil {
		return err
	}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if p == path {
			return self, nil
		}
		return l.Import(p)
	})
	xp, _ := l.check(path+"_test", files, imp)
	for _, f := range files {
		l.markForeign(xp, f)
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reach returns every declaration reached from roots, or from a
// declaration already in from.
func (l *loader) reach(roots []ast.Node, from map[*decl]bool) map[*decl]bool {
	seen := map[*decl]bool{}
	for d := range from {
		seen[d] = true
	}
	queue := slices.Clone(roots)
	visit := func(d *decl) {
		if !seen[d] {
			seen[d] = true
			queue = append(queue, d.node)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(l.info.Uses[id])
			if fn, ok := obj.(*types.Func); ok && isAbstract(fn) {
				for _, d := range l.byName[fn.Name()] {
					d.viaIf = true
					visit(d)
				}
				return true
			}
			if d := l.decls[obj]; d != nil {
				visit(d)
				if tn, ok := obj.(*types.TypeName); ok {
					for _, m := range l.exempt[tn] {
						visit(m)
					}
				}
			}
			return true
		})
	}
	return seen
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isAbstract reports whether fn is an interface's method.
func isAbstract(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// recvOf returns the receiver type of a concrete method, else nil.
func recvOf(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// objKey is the census key of a package-level object or a method.
func objKey(dir string, obj types.Object) string {
	if tn := recvOf(obj); tn != nil {
		return dir + "." + tn.Name() + "." + obj.Name()
	}
	return dir + "." + obj.Name()
}

func inDir(dir, parent string) bool { return dir == parent || strings.HasPrefix(dir, parent+"/") }

func inRootDir(dir string) bool {
	return slices.ContainsFunc(rootDirs, func(r string) bool { return inDir(dir, r) })
}

// readAllowlist reads "key reason" lines; blank lines and lines starting
// with # are skipped, and every reason must be one of the two above.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		if reason != reasonTestHelper && reason != reasonRouterAPI {
			t.Errorf("%s:%d: %s: reason %q is not %q or %q", path, line, key, reason, reasonTestHelper, reasonRouterAPI)
		}
		if _, dup := allow[key]; dup {
			t.Errorf("%s:%d: %s listed twice", path, line, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
