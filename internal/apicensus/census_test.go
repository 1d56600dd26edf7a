// Package apicensus keeps the module's exported API to what the module
// calls. TestExportCensus lists every exported top-level name and every
// exported method declared in a non-main package outside benchmark/,
// counts the uses of each in the module's non-test files, and holds the
// names without a use outside benchmark/ to allowlist.txt.
//
// Uses are matched by name, with go/parser and go/ast only (no type
// checker):
//
//   - a top-level name X of package p counts a use for every p.X in
//     another package (p being the name the file imports p under) and
//     for every bare X in p's own files;
//   - a method M counts a use for every selector .M anywhere, whatever
//     its receiver, since which type a selector picks needs types.
//
// So the census undercounts the unused: two methods that share a name
// keep each other alive, as does a local or a field that shares a
// top-level name. A name it reports unused has no caller; a name it
// reports used may still have none.
package apicensus

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modulePath is the module's import path prefix (go.mod).
const modulePath = "repro"

// benchDir is the benchmark's directory: its declarations are not
// counted, and its uses are counted apart.
const benchDir = "benchmark"

// Reasons an allowlisted name may give for having no caller outside
// benchmark/.
const (
	reasonTestHelper = "cross-package test helper"
	reasonBenchmark  = "called only by benchmark/"
	reasonRouterAPI  = "router API, pinned against the Oracle"
)

// stdMethods are methods that the standard library calls through its
// interfaces (error, fmt.Stringer, sort and heap, io, http.Handler), so a
// missing selector says nothing about them.
var stdMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "ServeHTTP": true,
}

// pkgFiles is one directory's parsed non-test files.
type pkgFiles struct {
	dir   string // slash path relative to the module root
	name  string // package name
	files []*ast.File
}

// decl is one exported name: key is "dir.Name" or "dir.Recv.Method".
type decl struct {
	key, dir, name string
	method         bool
	ident          *ast.Ident
}

func TestExportCensus(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := parseModule(t, root)
	decls := exported(pkgs)
	uses, benchUses := countUses(pkgs, decls)
	allow := readAllowlist(t, "allowlist.txt")

	declared, unused := map[string]bool{}, 0
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.key] > 0 {
			if reason, ok := allow[d.key]; ok {
				t.Errorf("%s is allowlisted (%s) but has %d non-test uses outside %s/: delete its allowlist line",
					d.key, reason, uses[d.key], benchDir)
			}
			continue
		}
		unused++
		reason, ok := allow[d.key]
		switch {
		case !ok && benchUses[d.key] > 0:
			t.Errorf("%s is called only by %s/: add it to allowlist.txt with the reason %q, or stop exporting it",
				d.key, benchDir, reasonBenchmark)
		case !ok:
			t.Errorf("%s has no non-test caller: delete it, or add it to allowlist.txt with its reason", d.key)
		case benchUses[d.key] > 0 && reason != reasonBenchmark:
			t.Errorf("%s is allowlisted as %q but %s/ calls it: its reason is %q", d.key, reason, benchDir, reasonBenchmark)
		case reason == reasonBenchmark && benchUses[d.key] == 0:
			t.Logf("%s is allowlisted as %q but no longer has a caller there: it can be deleted", d.key, reason)
		}
	}
	for key, reason := range allow {
		if !declared[key] {
			t.Errorf("%s is allowlisted (%s) but no longer declared: delete its allowlist line", key, reason)
		}
	}
	t.Logf("%d exported names, %d without a caller outside %s/", len(decls), unused, benchDir)
}

// parseModule parses the non-test Go files of every package directory
// under root, skipping testdata and hidden directories.
func parseModule(t *testing.T, root string) []*pkgFiles {
	t.Helper()
	var pkgs []*pkgFiles
	byDir := map[string]*pkgFiles{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		p := byDir[rel]
		if p == nil {
			p = &pkgFiles{dir: rel, name: f.Name.Name}
			byDir[rel] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// inBench reports whether a package directory lies under benchmark/.
func inBench(dir string) bool { return dir == benchDir || strings.HasPrefix(dir, benchDir+"/") }

// exported lists the exported top-level names and exported methods of
// every non-main package outside benchmark/, less stdMethods.
func exported(pkgs []*pkgFiles) []decl {
	var out []decl
	for _, p := range pkgs {
		if p.name == "main" || inBench(p.dir) {
			continue
		}
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			if recv == "" {
				out = append(out, decl{key: p.dir + "." + id.Name, dir: p.dir, name: id.Name, ident: id})
			} else if !stdMethods[id.Name] {
				out = append(out, decl{key: p.dir + "." + recv + "." + id.Name, dir: p.dir, name: id.Name, method: true, ident: id})
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, recvName(d))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "")
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, "")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName returns a method's receiver type name, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// countUses counts, per declaration key, its uses in non-test files
// outside benchmark/ and, apart, in benchmark/.
func countUses(pkgs []*pkgFiles, decls []decl) (uses, benchUses map[string]int) {
	uses, benchUses = map[string]int{}, map[string]int{}
	declIdents := map[*ast.Ident]bool{}
	topLevel := map[string]map[string]string{} // pkg dir → name → key
	methods := map[string][]string{}           // method name → keys
	for _, d := range decls {
		declIdents[d.ident] = true
		if d.method {
			methods[d.name] = append(methods[d.name], d.key)
			continue
		}
		if topLevel[d.dir] == nil {
			topLevel[d.dir] = map[string]string{}
		}
		topLevel[d.dir][d.name] = d.key
	}
	pkgName := map[string]string{} // import path → package name
	for _, p := range pkgs {
		pkgName[modulePath+"/"+p.dir] = p.name
	}
	for _, p := range pkgs {
		count := uses
		if inBench(p.dir) {
			count = benchUses
		}
		for _, f := range p.files {
			imports := map[string]string{} // local name → package dir
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				name, ok := pkgName[path]
				if !ok {
					continue
				}
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = strings.TrimPrefix(path, modulePath+"/")
			}
			selected := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							if key, ok := topLevel[dir][n.Sel.Name]; ok {
								count[key]++
							}
							return false
						}
					}
					for _, key := range methods[n.Sel.Name] {
						count[key]++
					}
				case *ast.Ident:
					if !selected[n] && !declIdents[n] {
						if key, ok := topLevel[p.dir][n.Name]; ok {
							count[key]++
						}
					}
				}
				return true
			})
		}
	}
	return uses, benchUses
}

// readAllowlist reads "key reason" lines; blank lines and lines starting
// with # are skipped, and every reason must be one of the three above.
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
		switch reason {
		case reasonTestHelper, reasonBenchmark, reasonRouterAPI:
		default:
			t.Errorf("%s:%d: %s: reason %q is not one of %q, %q, %q",
				path, line, key, reason, reasonTestHelper, reasonBenchmark, reasonRouterAPI)
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
